"""Checking the constant-rate assumption with the second-order residual.

The model implies d/dt (X'(t)/X(t)) = alpha * h''(t): the log-acceleration
of the observed trajectory must match the curvature of the warp scaled by
the growth rate. Discretizing both sides independently gives a residual
that is O(dt^2) for model-conforming data but order-one when the underlying
growth rate drifts over time, so its size diagnoses the constant-rate
assumption.
"""

import numpy as np

from warpgrowth import Panel, TimeGrid, WarpSet, second_order_diagnostic

m = 176
u = np.linspace(0.0, 1.0, m)
grid = TimeGrid(144, m)
alpha_norm = 1.3                      # rate over the whole window ...
alpha_month = alpha_norm / (m - 1)    # ... i.e. about 0.74% per month


def diagnose(x, h, grid, alpha_month):
    """Residual row of one series ``x`` on the months of ``grid`` against its warp ``h`` at ``alpha_month``."""
    panel = Panel(grid, ("demo",), [x])
    warp = WarpSet(grid, ("demo",), [h])
    return second_order_diagnostic(panel, warp, [alpha_month])[0]


# A smooth nonmonotone warp: boom above the diagonal, then a dip.
h = u + 0.15 * np.sin(2.0 * np.pi * u) - 0.1 * u**2

# Case 1: data generated exactly by the constant-rate model.
x_good = 100.0 * np.exp(alpha_norm * h)
r_good = diagnose(x_good, h, grid, alpha_month)

# Case 2: the underlying rate drifts upward, alpha(t) = a0 (1 + t/2),
# so along the warp log X = a0 (h + h^2 / 4).
x_drift = 100.0 * np.exp(alpha_norm * (h + h**2 / 4.0))
r_drift = diagnose(x_drift, h, grid, alpha_month)

print(f"grid: {m} monthly points, dt = 1/{m - 1} of the window")
print(f"constant-rate data:  max |residual| = {np.abs(r_good).max():.3e}")
print(f"drifting-rate data:  max |residual| = {np.abs(r_drift).max():.3e}")
print(f"ratio: {np.abs(r_drift).max() / np.abs(r_good).max():.0f}x the calibration level")

# Refinement: halving the spacing divides the conforming residual by ~4.
print("\nrefinement on constant-rate data (second-order convergence):")
prev = None
for mm in (45, 89, 177):
    uu = np.linspace(0.0, 1.0, mm)
    hh = uu + 0.15 * np.sin(2.0 * np.pi * uu) - 0.1 * uu**2
    am = alpha_norm / (mm - 1)
    r = diagnose(100.0 * np.exp(alpha_norm * hh), hh, TimeGrid(144, mm), am)
    peak = np.abs(r).max()
    note = "" if prev is None else f"  ({prev / peak:.2f}x smaller)"
    print(f"  m = {mm:3d}: max |residual| = {peak:.3e}{note}")
    prev = peak

"""Growth rates and time warps from a boom-bust panel.

Builds a small synthetic panel of monthly price indices that grow
exponentially for two years, then run through a boom and a bust, and walks
the first half of the pipeline: select the undisturbed fitting window,
estimate each market's growth rate there, and recover the nonmonotone
warping function that maps calendar time to "market time".
"""

import numpy as np

from warpgrowth import (
    Panel,
    TimeGrid,
    compute_warp_set,
    estimate_alphas,
    month_label,
    search_interval,
)

# ---------------------------------------------------------------------------
# A panel of three markets on a 12-year monthly grid. Each follows
# X(t) = x0 exp(alpha * h(t)) where h is calendar time for the first two
# years and then accelerates into a boom, collapses, and partially recovers.
# ---------------------------------------------------------------------------
grid = TimeGrid(start_month=144, n_points=144)  # Dec 1998 onward, 12 years
t = np.arange(144.0)

def warped_months(boom, bust):
    h = t.copy()
    late = t > 24
    s = (t[late] - 24.0) / 119.0
    h[late] += boom * np.sin(np.pi * s) ** 2 * 119.0 - bust * np.clip(s - 0.55, 0, None) * 119.0
    return h

profiles = {
    "steady": (0.10, 0.05),
    "boomer": (0.55, 0.25),
    "boombust": (0.45, 0.80),
}
rates = {"steady": 0.011, "boomer": 0.006, "boombust": 0.004}

# One row per market: the panel holds the whole sample as one n x m array.
values = [95.0 * np.exp(rates[name] * warped_months(boom, bust)) for name, (boom, bust) in profiles.items()]
panel = Panel(grid, tuple(profiles), values)

# ---------------------------------------------------------------------------
# Window selection: scan every 2-, 3- and 5-year window and keep the one
# whose exponential fits have the best average coefficient of determination.
# ---------------------------------------------------------------------------
result = search_interval(panel)
start, end = result.best_window
print(f"best window: {month_label(start)}..{month_label(end)} "
      f"({result.window_length_months} months), mean R^2 = {result.mean_r2:.5f}")

estimates = estimate_alphas(panel, result.best_window)
print("\nper-market growth rates on the window:")
for name, alpha, r2 in zip(estimates.names, estimates.alpha, estimates.r2):
    print(f"  {name:9s} alpha = {alpha * 100:6.3f}% per month (R^2 {r2:.4f})")
print(f"  mean {estimates.mean_alpha * 100:.3f}%/mo, sd {estimates.sd_alpha * 100:.3f}%/mo")

# ---------------------------------------------------------------------------
# Warping functions: h(t) = log(X(t)/X(0)) / alpha on the panel's months
# rescaled to [0, 1], anchored from the panel start to the window end.
# h(t) = t means prices on trend; h above the diagonal is a boom;
# decreasing stretches are price declines ("time moving backward"); h(1) < 1
# is a time setback at the end of the observation period.
# ---------------------------------------------------------------------------
warps = compute_warp_set(panel, estimates)
months = warps.grid.elapsed_months
setback = 1.0 - warps.values[:, -1]
print("\nwarping summary:")
for name, h, lag in zip(warps.names, warps.values, setback):
    print(f"  {name:9s} peak market-time {h.max():5.2f}, "
          f"end {h[-1]:5.2f}, setback {lag * months:6.1f} months")

print("\nnote: the 'boombust' market ends furthest behind calendar time,")
print("even though all three markets obey the same two-year growth anchor.")

"""Recovery of nonmonotone time-warping functions and model diagnostics.

Given a growth rate ``alpha`` and a trajectory that is anchored at the
start of the analysis window, the warping function is the rescaled
log-ratio ``h(t) = log(X(t) / X(0)) / alpha``. Time is normalized so the
analysis window maps to [0, 1]; the rate is rescaled to the unit interval
(per-month rate times elapsed months) so that exact exponential growth
yields the identity warp ``h(t) = t``. Warps are not required to be
monotone: decreasing stretches mean prices have retreated to the level of
an earlier date, and values outside [0, 1] are kept as-is.

A :class:`WarpSet` holds the n x m warp array and the one t0 of its
window; the rates that produced the warps stay in the fits.
:func:`compute_warp_set`, :func:`second_order_diagnostic` and
:func:`identity_deviation` treat all rows in one array pass; one series is
a one-row panel and a one-row warp set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from ._table import read_unit_table, write_table
from .errors import ConfigError, GridError, NumericalError, RateError, SchemaError
from .growthfit import AlphaEstimates, WindowFits
from .timeseries import Panel, TimeGrid, freeze_fields, freeze_names


@dataclass(frozen=True)
class WarpSet:
    """n warping functions on the unit points of one grid, as a read-only array.

    Row ``i`` of the n x m ``values`` (what :meth:`matrix` returns) belongs
    to ``names[i]``; column ``j`` is at ``grid.points[j]``.
    ``t0_normalized`` is the one point in [0, 1] where the undisturbed
    interval of every row ends. GridError for a shape mismatch, SchemaError
    for a repeated name.
    """

    grid: TimeGrid
    names: tuple[str, ...]
    values: np.ndarray
    t0_normalized: float = 0.0

    def __post_init__(self):
        n, m = len(freeze_names(self, "warp set")), self.grid.n_points
        freeze_fields(self, (("values", float, (n, m)),), f"warp set of {n} series on {m} points")

    @property
    def n_series(self) -> int:
        return len(self.names)

    def matrix(self) -> np.ndarray:
        """Warp values as the read-only (n_series, n_points) array."""
        return self.values


def compute_warp_set(
    panel: Panel,
    alphas: AlphaEstimates | WindowFits,
    window_start_month: int | None = None,
    t0_month: int | None = None,
) -> WarpSet:
    """Warping functions of every panel series, in panel order, in one array pass.

    The analysis window runs from ``window_start_month`` (default: grid
    start) to the grid end and maps affinely to [0, 1]. Row ``i`` is
    ``h_i = (log X_i - log X_i(start)) / (alpha_i * elapsed_months)`` at the
    rate of the fit named like series ``i``, so exact exponential growth at
    rate ``alpha_i`` gives ``h_i(t) = t``. ``t0_month`` (default: the
    window start) gives the warp set's ``t0_normalized``. SchemaError if a
    series has no fit, RateError unless every rate is positive and every
    warp finite (a rate such as 1e-320 overflows it), MissingDataError for
    a gap on the window.
    """
    alpha = (alphas.fits if isinstance(alphas, AlphaEstimates) else alphas).align(panel.names).alpha
    bad = np.flatnonzero(~(alpha > 0))
    if bad.size:
        raise RateError(f"series {panel.names[bad[0]]!r}: alpha must be positive, got {alpha[bad[0]]}")
    grid = panel.grid
    start = grid.start_month if window_start_month is None else window_start_month
    lo = grid.index_of(start)
    hi = grid.n_points - 1
    if hi - lo < 1:
        raise GridError("analysis window needs at least 2 points")
    panel.check_complete(lo, hi)
    sub = TimeGrid(start, hi - lo + 1)
    logs = np.log(panel.values[:, lo:])
    with np.errstate(over="ignore"):
        h = (logs - logs[:, :1]) / (alpha * sub.elapsed_months)[:, None]
    bad = np.flatnonzero(~np.isfinite(h).all(axis=1))
    if bad.size:
        i = bad[0]
        raise RateError(f"series {panel.names[i]!r}: alpha {float(alpha[i])!r} is so small that its warp is not finite")
    return WarpSet(sub, panel.names, h, 0.0 if t0_month is None else sub.to_normalized(t0_month))


def baseline_growth(alpha: float, x0: float, grid: TimeGrid) -> Panel:
    """Latent smooth trajectory ``Z(t) = x0 * exp(alpha * t)`` on the grid, as a one-row panel named ``baseline``.

    ``alpha`` is per month and ``t`` counts months since the grid start.
    These baselines are the aligned curves of the model: warping them back
    through :func:`compute_warp_set` returns the identity warp. A non-finite
    ``alpha`` raises RateError, and ``x0 <= 0`` ConfigError.
    """
    if not np.isfinite(alpha):
        raise RateError(f"alpha must be finite, got {alpha}")
    if not x0 > 0:
        raise ConfigError(f"x0 must be positive, got {x0}")
    t = np.arange(grid.n_points, dtype=float)
    return Panel(grid, ("baseline",), [x0 * np.exp(alpha * t)])


def _derivative(f: np.ndarray, dt: float) -> np.ndarray:
    """First derivative along the last axis: central stencil inside, one-sided at the ends.

    The boundary stencils are chosen with the same leading error term as
    the central stencil ((dt^2 / 6) f'''), so the error field stays smooth
    across the grid and composed derivatives keep second-order accuracy.
    """
    g = np.empty_like(f, dtype=float)
    g[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2.0 * dt)
    g[..., 0] = (-2.0 * f[..., 0] + 3.5 * f[..., 1] - 2.0 * f[..., 2] + 0.5 * f[..., 3]) / dt
    g[..., -1] = (2.0 * f[..., -1] - 3.5 * f[..., -2] + 2.0 * f[..., -3] - 0.5 * f[..., -4]) / dt
    return g


def second_order_diagnostic(panel: Panel, warps: WarpSet, alpha: np.ndarray) -> np.ndarray:
    """Residuals of the second-order model identity: one row per series, one column per warp grid point.

    Under the constant-rate model, ``d/dt (X'(t)/X(t)) = alpha * h''(t)``.
    Both sides are discretized with finite differences on the warps'
    normalized grid and their difference is returned; it vanishes at the
    discretization order for model-conforming data and is order-one when
    the underlying rate varies over time.

    ``warps`` must name the panel's series in order (else SchemaError) and
    span its last months (else GridError, as for under 5 points), on which
    the series must be complete (else MissingDataError). ``alpha`` holds
    one per-month rate per warp row (else GridError). NumericalError names
    the first series whose residuals are not finite, as when a month at
    1e307 next to one at 1e-300 overflows the differences.
    """
    grid = warps.grid
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (warps.n_series,):
        raise GridError(f"alpha must hold one rate per warp row, shape ({warps.n_series},), got {alpha.shape}")
    if grid.n_points < 5:
        raise GridError("second-order diagnostic needs at least 5 grid points")
    if warps.names != panel.names:
        raise SchemaError("warps do not name the panel's series in panel order")
    if panel.grid.end_month != grid.end_month:
        raise GridError(f"panel ends at month {panel.grid.end_month}, warp grid at month {grid.end_month}")
    lo = panel.grid.index_of(grid.start_month)
    panel.check_complete(lo, panel.grid.n_points - 1)
    dt = 1.0 / grid.elapsed_months
    alpha_norm = alpha * grid.elapsed_months
    x = panel.values[:, lo:]
    with np.errstate(over="ignore", invalid="ignore"):
        log_accel = _derivative(_derivative(x, dt) / x, dt)
        h_accel = _derivative(_derivative(warps.values, dt), dt)
        residuals = log_accel - alpha_norm[:, None] * h_accel
    bad = np.flatnonzero(~np.isfinite(residuals).all(axis=1))
    if bad.size:
        name = panel.names[bad[0]]
        raise NumericalError(f"series {name!r}: second-order residual is not finite (finite differences overflow)")
    return residuals


def identity_deviation(warps: WarpSet) -> np.ndarray:
    """Per row, the mean absolute deviation of h(t) - t over the undisturbed [0, t0].

    A t0 before the first grid point is measured there. Zero (up to
    rounding) when the identity anchor holds exactly on the fitting region;
    grows with lack of fit there.
    """
    t = warps.grid.points
    mask = t <= max(0.0, warps.t0_normalized)
    return np.where(mask, np.abs(warps.values - t), 0.0).sum(axis=1) / mask.sum()


def warps_to_csv(warpset: WarpSet, file: BinaryIO | None = None) -> str | None:
    """Export warps as ``t_normalized,<name1>,<name2>,...`` rows; with a binary ``file``, write them there and return None.

    The first column is the unit grid ``linspace(0, 1, m)``, which
    :func:`warps_from_csv` checks on the way back in. Floats carry 17
    significant digits so a read-back is exact.
    """
    return write_table(["t_normalized", *warpset.names], [warpset.grid.points, warpset.values], file)


def warps_from_csv(csv_text: str) -> WarpSet:
    """Read a warp CSV back into a :class:`WarpSet`.

    The table goes through :func:`~warpgrowth._table.read_unit_table`, so
    a truncated file or one on another spacing raises GridError rather
    than being silently regridded, and a missing warp column or a cell that
    is not finite raises SchemaError, as does a repeated name. The CSV
    carries no month metadata, so the grid is anchored at month 0 and t0
    is 0.
    """
    header, data = read_unit_table(csv_text, 2)
    return WarpSet(TimeGrid(0, data.shape[0]), header[1:], data[:, 1:].T)

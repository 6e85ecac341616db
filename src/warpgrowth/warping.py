"""Recovery of nonmonotone time-warping functions and model diagnostics.

Given a growth rate ``alpha`` and a trajectory that is anchored at the
start of the analysis window, the warping function is the rescaled
log-ratio ``h(t) = log(X(t) / X(0)) / alpha``. Time is normalized so the
analysis window maps to [0, 1]; the rate is rescaled to the unit interval
(per-month rate times elapsed months) so that exact exponential growth
yields the identity warp ``h(t) = t``. Warps are not required to be
monotone: decreasing stretches mean prices have retreated to the level of
an earlier date, and values outside [0, 1] are kept as-is.

A :class:`WarpSet` holds the n x m warp array and per-row rates, t0 and
flags. :func:`compute_warp_set`, :func:`second_order_diagnostic` and
:func:`identity_deviation` treat all rows in one array pass; one series is
a one-row panel and a one-row warp set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._table import check_unit_grid, read_table, write_table
from .errors import ConfigError, GridError, RateError, SchemaError
from .growthfit import AlphaEstimates, WindowFits
from .timeseries import Panel, PriceSeries, TimeGrid, freeze_fields


@dataclass(frozen=True)
class WarpSet:
    """n warping functions on one normalized grid, as read-only arrays.

    Row ``i`` of the n x m ``values`` (what :meth:`matrix` returns) and
    entry ``i`` of the per-row arrays belong to ``names[i]``:
    ``alpha_used`` is the per-month rate that produced the warp,
    ``t0_normalized`` marks the end of the undisturbed interval in [0, 1],
    and ``reliable`` is False when the rate was clamped at the positivity
    floor. GridError for a grid that is not normalized, a shape mismatch or
    a repeated name.
    """

    grid: TimeGrid
    names: tuple[str, ...]
    values: np.ndarray
    alpha_used: np.ndarray
    t0_normalized: np.ndarray
    reliable: np.ndarray

    def __post_init__(self):
        if not self.grid.normalized:
            raise GridError("warp grid must be normalized")
        names = tuple(self.names)
        n = len(names)
        if len(set(names)) != n:
            raise GridError("duplicate series names in warp set")
        object.__setattr__(self, "names", names)
        fields = (("values", float, (n, self.grid.n_points)), ("alpha_used", float, (n,)),
                  ("t0_normalized", float, (n,)), ("reliable", bool, (n,)))
        freeze_fields(self, fields, f"warp set of {n} series on {self.grid.n_points} points")

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
    rate of the fit named like series ``i``, unreliable if that rate was
    clamped, so exact exponential growth at rate ``alpha_i`` gives
    ``h_i(t) = t``. SchemaError if a series has no fit, RateError unless
    every rate is positive, MissingDataError for a gap on the window.
    """
    fits = (alphas.fits if isinstance(alphas, AlphaEstimates) else alphas).align(panel.names)
    alpha = fits.alpha
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
    sub = TimeGrid(start, hi - lo + 1, normalized=True)
    logs = np.log(panel.values[:, lo:])
    h = (logs - logs[:, :1]) / (alpha * sub.elapsed_months)[:, None]
    t0_norm = 0.0 if t0_month is None else sub.to_normalized(t0_month)
    return WarpSet(sub, panel.names, h, alpha, np.full(panel.n_series, t0_norm), ~fits.clamped)


def baseline_growth(alpha: float, x0: float, grid: TimeGrid) -> PriceSeries:
    """Latent smooth trajectory ``Z(t) = x0 * exp(alpha * t)`` on the grid.

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
    return PriceSeries("baseline", x0 * np.exp(alpha * t))


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


def second_order_diagnostic(panel: Panel, warps: WarpSet) -> np.ndarray:
    """Residuals of the second-order model identity: one row per series, one column per warp grid point.

    Under the constant-rate model, ``d/dt (X'(t)/X(t)) = alpha * h''(t)``.
    Both sides are discretized with finite differences on the warps'
    normalized grid and their difference is returned; it vanishes at the
    discretization order for model-conforming data and is order-one when
    the underlying rate varies over time.

    ``warps`` must name the panel's series in order (else SchemaError) and
    span its last months (else GridError, as for under 5 points), on which
    the series must be complete (else MissingDataError). Each row's rate is
    its ``alpha_used``.
    """
    grid = warps.grid
    if grid.n_points < 5:
        raise GridError("second-order diagnostic needs at least 5 grid points")
    if warps.names != panel.names:
        raise SchemaError("warps do not name the panel's series in panel order")
    if panel.grid.end_month != grid.end_month:
        raise GridError(f"panel ends at month {panel.grid.end_month}, warp grid at month {grid.end_month}")
    lo = panel.grid.index_of(grid.start_month)
    panel.check_complete(lo, panel.grid.n_points - 1)
    dt = 1.0 / grid.elapsed_months
    alpha_norm = warps.alpha_used * grid.elapsed_months
    x = panel.values[:, lo:]
    log_accel = _derivative(_derivative(x, dt) / x, dt)
    h_accel = _derivative(_derivative(warps.values, dt), dt)
    return log_accel - alpha_norm[:, None] * h_accel


def identity_deviation(warps: WarpSet) -> np.ndarray:
    """Per row, the mean absolute deviation of h(t) - t over the undisturbed [0, t0].

    A row whose t0 lies before the first grid point is measured there.
    Zero (up to rounding) when the identity anchor holds exactly on the
    fitting region; grows with lack of fit there.
    """
    t = warps.grid.points
    mask = t <= warps.t0_normalized[:, None]
    mask[:, 0] = True
    return np.where(mask, np.abs(warps.values - t), 0.0).sum(axis=1) / mask.sum(axis=1)


def warps_to_csv(warpset: WarpSet) -> str:
    """Export warps as ``t_normalized,<name1>,<name2>,...`` rows.

    The first column is the normalized grid ``linspace(0, 1, m)``, which
    :func:`warps_from_csv` checks on the way back in. Floats carry 17
    significant digits so a read-back is exact.
    """
    return write_table(["t_normalized", *warpset.names], [warpset.grid.points, warpset.values])


def warps_from_csv(csv_text: str) -> WarpSet:
    """Read a warp CSV back into a :class:`WarpSet`.

    The ``t_normalized`` column must hold at least 2 rows and equal
    ``linspace(0, 1, m)`` within 1e-12, so a truncated file or one on
    another spacing is rejected rather than silently regridded. The CSV
    carries neither month metadata nor rates, so the grid is rebuilt as a
    normalized grid anchored at month 0 and every ``alpha_used`` is 1.

    Raises
    ------
    GridError
        If the first column is not ``t_normalized``, there are fewer than
        2 rows, or the column is off the uniform grid (the message names
        the first mismatching row, counted from 1 at the header).
    SchemaError
        If a row is ragged, a cell is not a finite number, or :mod:`csv`
        cannot split the text.
    """
    header, data = read_table(csv_text)
    if not header or header[0] != "t_normalized":
        raise GridError("warp CSV must start with a 't_normalized' header column")
    m = data.shape[0]
    if m < 2:
        raise GridError("warp CSV needs at least 2 rows")
    check_unit_grid(data[:, 0])
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, j = bad[0]
        raise SchemaError(f"row {i + 2}, column {header[j]!r}: value {float(data[i, j])!r} is not finite")
    n, grid = len(header) - 1, TimeGrid(0, m, normalized=True)
    return WarpSet(grid, tuple(header[1:]), data[:, 1:].T, np.ones(n), np.zeros(n), np.ones(n, dtype=bool))

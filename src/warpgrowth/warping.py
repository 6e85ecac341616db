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
flags; :func:`compute_warp_set` and :func:`second_order_diagnostic` treat
all rows in one array pass, and :class:`WarpFunction` is its one-row view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._table import check_unit_grid, read_table, write_table
from .errors import ConfigError, GridError, RateError, SchemaError
from .growthfit import AlphaEstimates, WindowFit
from .timeseries import Panel, PriceSeries, TimeGrid


@dataclass(frozen=True)
class WarpFunction:
    """Warping function of one series on the normalized analysis window: the one-row view of a :class:`WarpSet`.

    ``alpha_used`` is the per-month rate that produced the warp;
    ``t0_normalized`` marks the end of the undisturbed interval in [0, 1];
    ``reliable`` is False when the rate was clamped at the positivity floor.
    """

    series_name: str
    grid: TimeGrid
    values: np.ndarray
    alpha_used: float
    t0_normalized: float = 0.0
    reliable: bool = True

    def __post_init__(self):
        row = (self.series_name,), np.asarray(self.values)[None], [self.alpha_used], [self.t0_normalized], [self.reliable]
        object.__setattr__(self, "values", WarpSet(self.grid, *row).values[0])

    @property
    def setback(self) -> float:
        """Normalized time setback at the window end: 1 - h(1)."""
        return 1.0 - float(self.values[-1])


@dataclass(frozen=True)
class WarpSet:
    """n warping functions on one normalized grid, as read-only arrays.

    Row ``i`` of the n x m ``values`` (what :meth:`matrix` returns) and
    entry ``i`` of ``alpha_used``, ``t0_normalized`` and ``reliable``, as on
    :class:`WarpFunction`, belong to ``names[i]``. GridError for a grid that
    is not normalized, a shape mismatch or a repeated name.
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
        for key, dtype in (("values", float), ("alpha_used", float), ("t0_normalized", float), ("reliable", bool)):
            a = np.ascontiguousarray(getattr(self, key), dtype=dtype)
            shape = (n, self.grid.n_points) if key == "values" else (n,)
            if a.shape != shape:
                raise GridError(f"warp set of {n} series on {self.grid.n_points} points: {key} is {a.shape}, not {shape}")
            a.setflags(write=False)
            object.__setattr__(self, key, a)

    @classmethod
    def from_warps(cls, grid: TimeGrid, warps) -> "WarpSet":
        """Stack :class:`WarpFunction` rows, in order, into a warp set on ``grid``."""
        warps = tuple(warps)
        for w in warps:
            if w.grid != grid:
                raise GridError(f"warp {w.series_name!r} is not on the shared grid")
        values = np.array([w.values for w in warps], dtype=float).reshape(len(warps), grid.n_points)
        flags = ([w.alpha_used for w in warps], [w.t0_normalized for w in warps], [w.reliable for w in warps])
        return cls(grid, [w.series_name for w in warps], values, *flags)

    @property
    def n_series(self) -> int:
        return len(self.names)

    def matrix(self) -> np.ndarray:
        """Warp values as the read-only (n_series, n_points) array."""
        return self.values

    @property
    def warps(self) -> tuple[WarpFunction, ...]:
        """One :class:`WarpFunction` view per row."""
        return tuple(map(self._row, range(self.n_series)))

    def get(self, name: str) -> WarpFunction:
        if name not in self.names:
            raise KeyError(name)
        return self._row(self.names.index(name))

    def _row(self, i: int) -> WarpFunction:
        flags = float(self.alpha_used[i]), float(self.t0_normalized[i]), bool(self.reliable[i])
        return WarpFunction(self.names[i], self.grid, self.values[i], *flags)


def compute_warp(
    series: PriceSeries,
    grid: TimeGrid,
    alpha: float,
    window_start_month: int | None = None,
    t0_month: int | None = None,
    reliable: bool = True,
) -> WarpFunction:
    """Recover the warping function of one series from its rate: the one-row case of :func:`compute_warp_set`.

    The analysis window runs from ``window_start_month`` (default: grid
    start) to the grid end and maps affinely to [0, 1]. The per-month rate
    is rescaled by the window's elapsed months, so
    ``h(t) = log(X(t) / X(start)) / (alpha * elapsed_months)`` and exact
    exponential growth at rate ``alpha`` gives ``h(t) = t`` exactly.
    RateError unless ``alpha > 0``; MissingDataError for a gap on the window.
    """
    fit = WindowFit(series.name, (grid.start_month, grid.end_month), alpha, math.nan, math.nan, not reliable)
    return compute_warp_set(Panel.from_series(grid, (series,)), (fit,), window_start_month, t0_month).warps[0]


def compute_warp_set(
    panel: Panel,
    alphas: AlphaEstimates | list[WindowFit] | tuple[WindowFit, ...],
    window_start_month: int | None = None,
    t0_month: int | None = None,
) -> WarpSet:
    """Warping functions of every panel series, in panel order, in one array pass.

    Row ``i`` is ``h_i = (log X_i - log X_i(start)) / (alpha_i * elapsed_months)``
    at the rate of the fit named like series ``i``, unreliable if that rate
    was clamped. SchemaError if a series has no fit.
    """
    fits = alphas.fits if isinstance(alphas, AlphaEstimates) else tuple(alphas)
    by_name = {f.series_name: f for f in fits}
    rows = [by_name.get(name) for name in panel.names]
    if None in rows:
        raise SchemaError(f"no fitted rate for series {panel.names[rows.index(None)]!r}")
    alpha = np.array([f.alpha for f in rows], dtype=float)
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
    return WarpSet(sub, panel.names, h, alpha, np.full(panel.n_series, t0_norm), [not f.clamped for f in rows])


def baseline_growth(alpha: float, x0: float, grid: TimeGrid) -> PriceSeries:
    """Latent smooth trajectory ``Z(t) = x0 * exp(alpha * t)`` on the grid.

    ``alpha`` is per month and ``t`` counts months since the grid start.
    These baselines are the aligned curves of the model: warping them back
    through :func:`compute_warp` returns the identity warp. A non-finite
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


def second_order_diagnostic(
    panel: Panel | PriceSeries, warps: WarpSet | WarpFunction, alpha: float | None = None
) -> np.ndarray:
    """Residuals of the second-order model identity: one row per series, one column per warp grid point.

    Under the constant-rate model, ``d/dt (X'(t)/X(t)) = alpha * h''(t)``.
    Both sides are discretized with finite differences on the warps'
    normalized grid and their difference is returned; it vanishes at the
    discretization order for model-conforming data and is order-one when
    the underlying rate varies over time.

    ``warps`` must name the panel's series in order (else SchemaError) and
    span its last months (else GridError, as for under 5 points), on which
    the series must be complete (else MissingDataError). Each row's rate is
    its ``alpha_used``. Given one :class:`PriceSeries` and one
    :class:`WarpFunction` on the same points, the result is that one row at
    rate ``alpha`` (default: the warp's ``alpha_used``).
    """
    if isinstance(warps, WarpFunction):
        row = replace(warps, alpha_used=warps.alpha_used if alpha is None else alpha)
        row_panel = Panel.from_series(TimeGrid(warps.grid.start_month, warps.grid.n_points), (panel,))
        return second_order_diagnostic(row_panel, WarpSet.from_warps(warps.grid, (row,)))[0]
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


def identity_deviation(warp: WarpFunction) -> float:
    """Mean absolute deviation of h(t) - t over the undisturbed [0, t0].

    Zero (up to rounding) when the identity anchor holds exactly on the
    fitting region; grows with lack of fit there.
    """
    t = warp.grid.points
    mask = t <= warp.t0_normalized
    if not mask.any():
        mask = t == t[0]
    return float(np.mean(np.abs(warp.values[mask] - t[mask])))


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

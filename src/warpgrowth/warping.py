"""Recovery of nonmonotone time-warping functions and model diagnostics.

Given a growth rate ``alpha`` and a trajectory that is anchored at the
start of the analysis window, the warping function is the rescaled
log-ratio ``h(t) = log(X(t) / X(0)) / alpha``. Time is normalized so the
analysis window maps to [0, 1]; the rate is rescaled to the unit interval
(per-month rate times elapsed months) so that exact exponential growth
yields the identity warp ``h(t) = t``. Warps are not required to be
monotone: decreasing stretches mean prices have retreated to the level of
an earlier date, and values outside [0, 1] are kept as-is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._table import check_unit_grid, read_table, write_table
from .errors import GridError, MissingDataError, RateError, SchemaError
from .growthfit import AlphaEstimates, WindowFit
from .timeseries import Panel, PriceSeries, TimeGrid


@dataclass(frozen=True)
class WarpFunction:
    """Warping function of one series on the normalized analysis window.

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
        if not self.grid.normalized:
            raise GridError("warp grid must be normalized")
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_points,):
            raise GridError(
                f"warp {self.series_name!r}: {values.shape[0]} values on a {self.grid.n_points}-point grid"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def setback(self) -> float:
        """Normalized time setback at the window end: 1 - h(1)."""
        return 1.0 - float(self.values[-1])


@dataclass(frozen=True)
class WarpSet:
    """Sample of warping functions on a shared normalized grid."""

    grid: TimeGrid
    warps: tuple[WarpFunction, ...]

    def __post_init__(self):
        object.__setattr__(self, "warps", tuple(self.warps))
        for w in self.warps:
            if w.grid != self.grid:
                raise GridError(f"warp {w.series_name!r} is not on the shared grid")
        names = [w.series_name for w in self.warps]
        if len(set(names)) != len(names):
            raise GridError("duplicate series names in warp set")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(w.series_name for w in self.warps)

    @property
    def n_series(self) -> int:
        return len(self.warps)

    def matrix(self) -> np.ndarray:
        """Warp values stacked as an (n_series, n_points) array."""
        return np.vstack([w.values for w in self.warps])

    def get(self, name: str) -> WarpFunction:
        for w in self.warps:
            if w.series_name == name:
                return w
        raise KeyError(name)


def compute_warp(
    series: PriceSeries,
    grid: TimeGrid,
    alpha: float,
    window_start_month: int | None = None,
    t0_month: int | None = None,
    reliable: bool = True,
) -> WarpFunction:
    """Recover the warping function of one series from its rate.

    The analysis window runs from ``window_start_month`` (default: grid
    start) to the grid end and maps affinely to [0, 1]. The per-month rate
    is rescaled by the window's elapsed months, so
    ``h(t) = log(X(t) / X(start)) / (alpha * elapsed_months)`` and exact
    exponential growth at rate ``alpha`` gives ``h(t) = t`` exactly.

    Raises
    ------
    RateError
        If ``alpha`` is not strictly positive.
    MissingDataError
        If the series has missing values on the analysis window.
    """
    if not alpha > 0:
        raise RateError(f"alpha must be positive, got {alpha}")
    start = grid.start_month if window_start_month is None else window_start_month
    lo = grid.index_of(start)
    hi = grid.n_points - 1
    if hi - lo < 1:
        raise GridError("analysis window needs at least 2 points")
    if not series.complete_on(lo, hi):
        raise MissingDataError(f"series {series.name!r} has missing values on the analysis window")

    sub = TimeGrid(start, hi - lo + 1, normalized=True)
    x = series.values[lo : hi + 1]
    alpha_norm = alpha * sub.elapsed_months
    h = (np.log(x) - np.log(x[0])) / alpha_norm
    t0_norm = 0.0 if t0_month is None else sub.to_normalized(t0_month)
    return WarpFunction(series.name, sub, h, alpha, t0_norm, reliable)


def compute_warp_set(
    panel: Panel,
    alphas: AlphaEstimates | list[WindowFit] | tuple[WindowFit, ...],
    window_start_month: int | None = None,
    t0_month: int | None = None,
) -> WarpSet:
    """Warping functions for every panel series from its fitted rate; SchemaError if a series has none."""
    fits = alphas.fits if isinstance(alphas, AlphaEstimates) else tuple(alphas)
    by_name = {f.series_name: f for f in fits}
    warps = []
    for s in panel.series:
        f = by_name.get(s.name)
        if f is None:
            raise SchemaError(f"no fitted rate for series {s.name!r}")
        warps.append(
            compute_warp(s, panel.grid, f.alpha, window_start_month, t0_month, reliable=not f.clamped)
        )
    if not warps:
        raise GridError("panel has no series to warp")
    return WarpSet(warps[0].grid, tuple(warps))


def baseline_growth(alpha: float, x0: float, grid: TimeGrid) -> PriceSeries:
    """Latent smooth trajectory ``Z(t) = x0 * exp(alpha * t)`` on the grid.

    ``alpha`` is per month and ``t`` counts months since the grid start.
    These baselines are the aligned curves of the model: warping them back
    through :func:`compute_warp` returns the identity warp.
    """
    if not np.isfinite(alpha):
        raise RateError(f"alpha must be finite, got {alpha}")
    if not x0 > 0:
        raise ValueError(f"x0 must be positive, got {x0}")
    t = np.arange(grid.n_points, dtype=float)
    return PriceSeries("baseline", x0 * np.exp(alpha * t))


def _derivative(f: np.ndarray, dt: float) -> np.ndarray:
    """First derivative: central stencil inside, one-sided at the ends.

    The boundary stencils are chosen with the same leading error term as
    the central stencil ((dt^2 / 6) f'''), so the error field stays smooth
    across the grid and composed derivatives keep second-order accuracy.
    """
    if f.shape[0] < 4:
        raise GridError("derivative needs at least 4 points")
    g = np.empty_like(f, dtype=float)
    g[1:-1] = (f[2:] - f[:-2]) / (2.0 * dt)
    g[0] = (-2.0 * f[0] + 3.5 * f[1] - 2.0 * f[2] + 0.5 * f[3]) / dt
    g[-1] = (2.0 * f[-1] - 3.5 * f[-2] + 2.0 * f[-3] - 0.5 * f[-4]) / dt
    return g


def second_order_diagnostic(series: PriceSeries, warp: WarpFunction, alpha: float) -> np.ndarray:
    """Residual of the second-order model identity, per grid point.

    Under the constant-rate model, ``d/dt (X'(t)/X(t)) = alpha * h''(t)``.
    Both sides are discretized with finite differences on the warp's
    normalized grid and their difference is returned; it vanishes at the
    discretization order for model-conforming data and is order-one when
    the underlying rate varies over time.

    The series must be complete and aligned with the warp grid; the rate is
    per month and is rescaled to the normalized window internally.
    """
    if warp.grid.n_points < 5:
        raise GridError("second-order diagnostic needs at least 5 grid points")
    if series.n_points != warp.grid.n_points:
        raise GridError(
            f"series has {series.n_points} points, warp grid has {warp.grid.n_points}"
        )
    if series.missing.any():
        raise MissingDataError(f"series {series.name!r} has missing values")
    dt = 1.0 / warp.grid.elapsed_months
    alpha_norm = alpha * warp.grid.elapsed_months
    x = series.values
    log_accel = _derivative(_derivative(x, dt) / x, dt)
    h_accel = _derivative(_derivative(warp.values, dt), dt)
    return log_accel - alpha_norm * h_accel


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
    columns = [warpset.grid.points, *(w.values for w in warpset.warps)]
    return write_table(["t_normalized", *warpset.names], columns)


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
    grid = TimeGrid(0, m, normalized=True)
    return WarpSet(grid, tuple(WarpFunction(name, grid, data[:, j + 1], 1.0) for j, name in enumerate(header[1:])))

"""Recovery of nonmonotone time-warping functions and the identity-anchor check.

Given a growth rate ``alpha`` and a trajectory that is anchored at the
start of the analysis window, the warping function is the rescaled
log-ratio ``h(t) = log(X(t) / X(0)) / alpha``. Time is normalized so the
analysis window maps to [0, 1]; the rate is rescaled to the unit interval
(per-month rate times elapsed months) so that exact exponential growth
yields the identity warp ``h(t) = t``. Warps are not required to be
monotone: decreasing stretches mean prices have retreated to the level of
an earlier date, and values outside [0, 1] are kept as-is.

The model anchors each warp on steady growth: ``h(t) = t`` on the
undisturbed interval ``[0, t0]``, which is what makes the warp
identifiable. :func:`identity_deviation` measures how far each warp is
from that anchor.

A :class:`WarpSet` holds the n x m warp array and the one t0 of its
window; the rates that produced the warps stay in the fits.
:func:`compute_warp_set` and :func:`identity_deviation` treat all rows in
one array pass; one series is a one-row panel and a one-row warp set.
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
    ``t0_normalized`` is the one grid point in [0, 1] where the undisturbed
    interval of every row ends. GridError for a shape mismatch or a
    ``t0_normalized`` off [0, 1], SchemaError for a repeated name.
    """

    grid: TimeGrid
    names: tuple[str, ...]
    values: np.ndarray
    t0_normalized: float = 0.0

    def __post_init__(self):
        n, m = len(freeze_names(self, "warp set")), self.grid.n_points
        freeze_fields(self, (("values", float, (n, m)),), f"warp set of {n} series on {m} points")
        if not 0.0 <= self.t0_normalized <= 1.0:
            raise GridError(f"t0_normalized must lie in [0, 1], got {self.t0_normalized!r}")

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
    rate ``alpha_i`` gives ``h_i(t) = t``. The grid point of ``t0_month``
    (default: the window start) is the warp set's ``t0_normalized``, so
    :func:`identity_deviation` keeps that month; GridError if it is off
    the analysis window, as for a window start. SchemaError if a
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
    t0 = 0 if t0_month is None else sub.index_of(t0_month)
    logs = np.log(panel.values[:, lo:])
    with np.errstate(over="ignore"):
        h = (logs - logs[:, :1]) / (alpha * sub.elapsed_months)[:, None]
    bad = np.flatnonzero(~np.isfinite(h).all(axis=1))
    if bad.size:
        i = bad[0]
        raise RateError(f"series {panel.names[i]!r}: alpha {float(alpha[i])!r} is so small that its warp is not finite")
    return WarpSet(sub, panel.names, h, float(sub.points[t0]))


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


def identity_deviation(warps: WarpSet) -> np.ndarray:
    """Per row, the mean absolute deviation of h(t) - t over the undisturbed [0, t0].

    Zero (up to rounding) when the identity anchor holds exactly on the
    fitting region; grows with lack of fit there, and with a rate that does
    not match the warp. NumericalError names the first series whose
    deviation is not finite, as when warps near 1e307 (from a rate such as
    2e-310) overflow the sum.
    """
    t = warps.grid.points
    mask = t <= warps.t0_normalized
    with np.errstate(over="ignore"):
        deviation = np.where(mask, np.abs(warps.values - t), 0.0).sum(axis=1) / mask.sum()
    bad = np.flatnonzero(~np.isfinite(deviation))
    if bad.size:
        name = warps.names[bad[0]]
        raise NumericalError(f"series {name!r}: anchor deviation is not finite (its warp sum overflows)")
    return deviation


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

"""Undisturbed-window selection and per-series growth-rate estimation.

Two least-squares fits of log index values on months since the window
start share one (window length x series) block of logs and one R^2 rule:

* a free-intercept fit, batched over every window of a length, used to
  score candidate windows by their coefficient of determination, and
* a fixed-intercept fit that pins the intercept at the log value of the
  window start and estimates only the growth rate, used for the final
  per-series rate estimates.

Both return one :class:`WindowFits` record: the window, the series names
and one read-only array per fitted quantity, row ``i`` for series ``i``.
Windows are inclusive ``(start_month, end_month)`` pairs in month indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError, WindowError
from .timeseries import Panel, freeze_fields

#: Lower clamp for the fixed-intercept growth rate; the model requires
#: alpha > 0 and downstream warping divides by alpha.
ALPHA_FLOOR = 1e-8

#: Window lengths scanned by default: 2-, 3- and 5-year intervals.
DEFAULT_WINDOW_LENGTHS = (24, 36, 60)


@dataclass(frozen=True)
class WindowFits:
    """Exponential fits of n series on one window, as read-only arrays.

    Entry ``i`` of each array belongs to ``names[i]``: ``alpha`` is the
    growth rate per month, ``intercept`` the fitted log index value at the
    window start, ``r2`` the coefficient of determination of the fit on the
    log scale, clipped to [0, 1], and ``clamped`` marks rates that hit the
    positivity floor. SchemaError for a repeated name, GridError for an
    array that is not one entry per name.
    """

    window: tuple[int, int]
    names: tuple[str, ...]
    alpha: np.ndarray
    intercept: np.ndarray
    r2: np.ndarray
    clamped: np.ndarray

    def __post_init__(self):
        names = tuple(self.names)
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate series names in fits: {dupes}")
        object.__setattr__(self, "names", names)
        shape = (len(names),)
        fields = (("alpha", float, shape), ("intercept", float, shape), ("r2", float, shape), ("clamped", bool, shape))
        freeze_fields(self, fields, f"fits of {len(names)} series")

    def align(self, names) -> "WindowFits":
        """The fits of ``names``, in that order; SchemaError naming the first series with no fit."""
        index = {name: i for i, name in enumerate(self.names)}
        missing = [name for name in names if name not in index]
        if missing:
            raise SchemaError(f"no fitted rate for series {missing[0]!r}")
        rows = [index[name] for name in names]
        return WindowFits(self.window, names, self.alpha[rows], self.intercept[rows], self.r2[rows], self.clamped[rows])

    def json_rows(self, *keys: str) -> list[dict]:
        """One ``{"name": ..., key: ...}`` dict per series, with the named arrays' entries as Python scalars."""
        columns = [getattr(self, key).tolist() for key in keys]
        return [{"name": name, **dict(zip(keys, row))} for name, *row in zip(self.names, *columns)]


@dataclass(frozen=True)
class IntervalSearchResult:
    """Best window over the scanned lengths, with the free-intercept fits there."""

    best_window: tuple[int, int]
    window_length_months: int
    mean_r2: float
    fits: WindowFits

    def to_json_dict(self) -> dict:
        return {
            "window": {"start": self.best_window[0], "end": self.best_window[1]},
            "window_length_months": self.window_length_months,
            "mean_r2": self.mean_r2,
            "per_series": self.fits.json_rows("alpha", "intercept", "r2"),
        }


@dataclass(frozen=True)
class AlphaEstimates:
    """Fixed-intercept rate estimates for every series on one window."""

    fits: WindowFits
    mean_alpha: float
    sd_alpha: float

    def alphas(self) -> np.ndarray:
        return self.fits.alpha


def _window_logs(panel: Panel, window: tuple[int, int]) -> np.ndarray:
    """Log values of the panel on ``window`` as a C-contiguous (window length, n_series) block.

    Raises WindowError under 3 points, GridError for a window end off the
    grid and MissingDataError for a gap inside the window.
    """
    start, end = window
    lo, hi = panel.grid.index_of(start), panel.grid.index_of(end)
    if hi - lo + 1 < 3:
        raise WindowError(f"window [{start}, {end}] has fewer than 3 points")
    panel.check_complete(lo, hi)
    return np.ascontiguousarray(np.log(panel.values[:, lo : hi + 1]).T)


def _r2(sse: np.ndarray, sst: np.ndarray) -> np.ndarray:
    """R^2 in residual form ``1 - SSE / SST``, clipped to [0, 1]; ``SST == 0`` gives 1."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.clip(np.where(sst > 0.0, 1.0 - sse / sst, 1.0), 0.0, 1.0)


def _free_ols(logs_t: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Free-intercept OLS of every series on every window of one length.

    ``logs_t`` holds log values with months along axis 0 and series along
    axis 1. Returns ``(alpha, intercept, r2)``, each (n_offsets, n_series),
    row ``o`` for the window starting at month offset ``o``. Sums accumulate
    on (n_offsets, n_series) arrays, so memory stays O(n_offsets * n_series).
    The mean is taken of values less the window's first, so a flat window
    has ``SST == 0`` exactly and scores 1; the residual form scores an exact
    exponential exactly 1.
    """
    n_off = logs_t.shape[0] - length + 1
    tbar = (length - 1) / 2.0
    tc = np.arange(length, dtype=float) - tbar
    stt = float(np.sum(tc**2))

    def window(j: int) -> np.ndarray:
        return logs_t[j : j + n_off]

    anchor = window(0)
    mean = np.zeros_like(anchor)
    yc = np.empty_like(anchor)
    for j in range(1, length):
        np.subtract(window(j), anchor, out=yc)
        mean += yc
    mean /= length
    # The window mean of log X; on a flat window it is the anchor itself.
    mean += anchor

    sxy, sst = np.zeros_like(mean), np.zeros_like(mean)
    for j in range(length):
        np.subtract(window(j), mean, out=yc)
        sxy += tc[j] * yc
        sst += yc * yc
    alpha = sxy / stt

    sse = np.zeros_like(mean)
    for j in range(length):
        np.subtract(window(j), mean, out=yc)
        yc -= alpha * tc[j]
        sse += yc * yc
    return alpha, mean - alpha * tbar, _r2(sse, sst)


def search_interval(panel: Panel, lengths=DEFAULT_WINDOW_LENGTHS) -> IntervalSearchResult:
    """Scan every contiguous window of the requested lengths for the best fit.

    Every window of each length that lies fully inside the panel grid is
    scored with the free-intercept fit; the window with the largest mean
    r2 across series wins. Ties break to the earliest start, then to the
    shortest length. The scanned panel must be gap-free (apply
    :func:`warpgrowth.timeseries.restrict` first to drop series with gaps).

    One kernel call per length fits all offsets and series at once, in
    O(n_series * n_months) memory; per-window means are sorted
    ``math.fsum`` sums, so the choice does not depend on series order. The
    fits minimize ``sum_t (log X(t) - intercept - alpha * (t - t_start))^2``
    on the winning window (a constant series scores r2 = 1), and
    ``mean_r2`` is the score that won.

    Raises
    ------
    WindowError
        If no requested length admits a window inside the grid, or a length
        is shorter than 3 months.
    MissingDataError
        If any series has a missing value anywhere on the scanned grid.
    """
    if panel.n_series == 0:
        raise WindowError("panel has no series")
    lengths = sorted(set(int(l) for l in lengths))
    if not lengths:
        raise WindowError("no window lengths requested")
    if lengths[0] < 3:
        raise WindowError(f"window length {lengths[0]} is shorter than 3 months")
    grid = panel.grid
    logs_t = _window_logs(panel, (grid.start_month, grid.end_month))

    # Sorted sums keep each mean invariant to series ordering. The smallest
    # key has the largest mean r2, then the earliest start, then the
    # shortest length.
    keys = [
        (-math.fsum(row) / len(row), offset, length)
        for length in lengths
        if length <= grid.n_points
        for offset, row in enumerate(np.sort(_free_ols(logs_t, length)[2], axis=1).tolist())
    ]
    if not keys:
        raise WindowError(f"no window of lengths {lengths} fits inside the {grid.n_points}-point grid")
    neg_mean_r2, lo, length = min(keys)
    window = (grid.start_month + lo, grid.start_month + lo + length - 1)
    # Elementwise arithmetic on the winner's rows repeats the scan's bits.
    alpha, intercept, r2 = (a[0] for a in _free_ols(logs_t[lo : lo + length], length))
    fits = WindowFits(window, panel.names, alpha, intercept, r2, np.zeros(panel.n_series, dtype=bool))
    return IntervalSearchResult(window, length, -neg_mean_r2, fits)


def estimate_alphas(panel: Panel, window: tuple[int, int]) -> AlphaEstimates:
    """Fixed-intercept rate estimates for all series on the given window.

    Closed form: ``alpha = sum_t tau * (log X(t) - log X(start)) / sum_t tau^2``
    with ``tau`` the months elapsed since the window start, and the
    intercept pinned at ``log X(start)``. Rates below ``ALPHA_FLOOR`` are
    raised to it and flagged ``clamped``. Also reports the cross-series
    mean and standard deviation (n-1 denominator) of the estimated rates.
    """
    logs = _window_logs(panel, window)
    tau = np.arange(logs.shape[0], dtype=float)
    d = logs - logs[0]
    alpha = tau @ d / float(np.sum(tau**2))
    clamped = alpha < ALPHA_FLOOR
    alpha[clamped] = ALPHA_FLOOR
    sse = np.sum((d - np.outer(tau, alpha)) ** 2, axis=0)
    sst = np.sum((d - d.mean(axis=0)) ** 2, axis=0)
    fits = WindowFits(window, panel.names, alpha, logs[0], _r2(sse, sst), clamped)
    sd = float(alpha.std(ddof=1)) if alpha.size > 1 else 0.0
    return AlphaEstimates(fits, float(alpha.mean()), sd)

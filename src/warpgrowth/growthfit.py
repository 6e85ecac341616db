"""Undisturbed-window selection and per-series growth-rate estimation.

Two fitters operate on log index values over a month window:

* a free-intercept ordinary least squares fit, used to score candidate
  windows by their coefficient of determination, and
* a fixed-intercept fit that pins the intercept at the log value of the
  window start and estimates only the growth rate, used for the final
  per-series rate estimates.

Windows are inclusive ``(start_month, end_month)`` pairs in month indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingDataError, WindowError
from .timeseries import Panel, PriceSeries, TimeGrid

#: Lower clamp for the fixed-intercept growth rate; the model requires
#: alpha > 0 and downstream warping divides by alpha.
ALPHA_FLOOR = 1e-8

#: Window lengths scanned by default: 2-, 3- and 5-year intervals.
DEFAULT_WINDOW_LENGTHS = (24, 36, 60)


@dataclass(frozen=True)
class WindowFit:
    """Exponential fit of one series on one window.

    ``alpha`` is the growth rate per month, ``intercept`` the fitted log
    index value at the window start, and ``r2`` the coefficient of
    determination of the fit on the log scale, clipped to [0, 1].
    ``clamped`` marks rates that hit the positivity floor.
    """

    series_name: str
    window: tuple[int, int]
    alpha: float
    intercept: float
    r2: float
    clamped: bool = False


@dataclass(frozen=True)
class IntervalSearchResult:
    """Best window over the scanned lengths, with per-series fits there."""

    best_window: tuple[int, int]
    window_length_months: int
    mean_r2: float
    per_series: tuple[WindowFit, ...]

    def to_json_dict(self) -> dict:
        return {
            "window": {"start": self.best_window[0], "end": self.best_window[1]},
            "window_length_months": self.window_length_months,
            "mean_r2": self.mean_r2,
            "per_series": [
                {"name": f.series_name, "alpha": f.alpha, "intercept": f.intercept, "r2": f.r2}
                for f in self.per_series
            ],
        }


@dataclass(frozen=True)
class AlphaEstimates:
    """Fixed-intercept rate estimates for every series on one window."""

    fits: tuple[WindowFit, ...]
    mean_alpha: float
    sd_alpha: float

    def alphas(self) -> np.ndarray:
        return np.array([f.alpha for f in self.fits])


def _window_slice(series: PriceSeries, grid: TimeGrid, window: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    start, end = window
    lo = grid.index_of(start)
    hi = grid.index_of(end)
    if hi - lo + 1 < 3:
        raise WindowError(f"window [{start}, {end}] has fewer than 3 points")
    if not series.complete_on(lo, hi):
        raise MissingDataError(f"series {series.name!r} has missing values inside window [{start}, {end}]")
    y = np.log(series.values[lo : hi + 1])
    tau = np.arange(hi - lo + 1, dtype=float)
    return tau, y


def _r2_from_residuals(resid: np.ndarray, y: np.ndarray) -> float:
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        return 1.0
    r2 = 1.0 - float(np.sum(resid**2)) / sst
    return min(1.0, max(0.0, r2))


def fit_window_free(series: PriceSeries, grid: TimeGrid, window: tuple[int, int]) -> WindowFit:
    """Free-intercept OLS of log value on months since window start.

    Minimizes ``sum_t (log X(t) - intercept - alpha * (t - t_start))^2``.
    A constant series has zero total variation and is assigned r2 = 1.
    """
    tau, y = _window_slice(series, grid, window)
    tc = tau - tau.mean()
    stt = float(np.sum(tc**2))
    yc = y - y.mean()
    alpha = float(np.dot(tc, yc)) / stt
    intercept = float(y.mean() - alpha * tau.mean())
    resid = yc - alpha * tc
    return WindowFit(series.name, window, alpha, intercept, _r2_from_residuals(resid, y))


def fit_window_fixed(series: PriceSeries, grid: TimeGrid, window: tuple[int, int]) -> WindowFit:
    """Fixed-intercept rate estimate with the intercept pinned at log X(start).

    Closed form: ``alpha = sum_t tau * (log X(t) - log X(start)) / sum_t tau^2``
    with ``tau`` the months elapsed since the window start. The estimate is
    clamped below at ``ALPHA_FLOOR`` to keep the rate positive; clamped
    results are flagged.
    """
    tau, y = _window_slice(series, grid, window)
    d = y - y[0]
    alpha = float(np.dot(tau, d)) / float(np.sum(tau**2))
    clamped = alpha < ALPHA_FLOOR
    if clamped:
        alpha = ALPHA_FLOOR
    resid = d - alpha * tau
    return WindowFit(series.name, window, alpha, float(y[0]), _r2_from_residuals(resid, y), clamped)


def _mean_r2(fits: list[WindowFit]) -> float:
    # Sort before summing so the mean is invariant to series ordering.
    return math.fsum(sorted(f.r2 for f in fits)) / len(fits)


def _window_r2(logs_t: np.ndarray, length: int) -> np.ndarray:
    """Free-intercept R^2 of every series on every window of one length.

    ``logs_t`` holds log values with months along axis 0 and series along
    axis 1. Returns the (n_offsets, n_series) matrix whose row ``o`` scores
    the window starting at month offset ``o``. Window means, ``Sxy``,
    ``SST`` and ``SSE`` accumulate over the ``length`` positions on
    (n_offsets, n_series) arrays, so memory stays O(n_offsets * n_series).
    R^2 keeps the residual form ``1 - SSE / SST`` (``SST == 0`` gives 1),
    clipped to [0, 1]; an exact exponential therefore scores exactly 1.
    """
    n_off = logs_t.shape[0] - length + 1
    tc = np.arange(length, dtype=float)
    tc -= tc.mean()
    stt = float(np.sum(tc**2))

    def window(j: int) -> np.ndarray:
        return logs_t[j : j + n_off]

    mean = window(0).copy()
    for j in range(1, length):
        mean += window(j)
    mean /= length

    sxy = np.zeros_like(mean)
    sst = np.zeros_like(mean)
    yc = np.empty_like(mean)
    for j in range(length):
        np.subtract(window(j), mean, out=yc)
        sxy += tc[j] * yc
        sst += yc * yc
    beta = sxy / stt

    sse = np.zeros_like(mean)
    for j in range(length):
        np.subtract(window(j), mean, out=yc)
        yc -= beta * tc[j]
        sse += yc * yc
    with np.errstate(invalid="ignore", divide="ignore"):
        r2 = np.where(sst > 0.0, 1.0 - sse / sst, 1.0)
    return np.clip(r2, 0.0, 1.0)


def search_interval(panel: Panel, lengths=DEFAULT_WINDOW_LENGTHS) -> IntervalSearchResult:
    """Scan every contiguous window of the requested lengths for the best fit.

    Every window of each length that lies fully inside the panel grid is
    scored with the free-intercept fitter; the window with the largest mean
    r2 across series wins. Ties break to the earliest start, then to the
    shortest length. The scanned panel must be gap-free (apply
    :func:`warpgrowth.timeseries.restrict` first to drop series with gaps).

    The scan is batched: one call of a vectorized kernel per length scores
    all offsets and series at once, in O(n_series * n_months) memory, with
    the same residual R^2 that :func:`fit_window_free` computes (equal to
    within rounding). Per-window means are sorted ``math.fsum`` sums, so
    the choice does not depend on series order. The returned per-series
    fits and ``mean_r2`` come from :func:`fit_window_free` on the winner.

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
    gappy = [s.name for s in panel.series if s.missing.any()]
    if gappy:
        raise MissingDataError(f"series with gaps on the scanned grid (restrict first): {gappy}")

    logs_t = np.ascontiguousarray(np.log(np.vstack([s.values for s in panel.series])).T)
    m = panel.grid.n_points

    best_key: tuple[float, int, int] | None = None
    best: tuple[tuple[int, int], int] | None = None
    for length in lengths:
        if length > m:
            continue
        r2 = np.sort(_window_r2(logs_t, length), axis=1)
        for offset, row in enumerate(r2.tolist()):
            # Sorted sum keeps the mean invariant to series ordering.
            mean_r2 = math.fsum(row) / len(row)
            start = panel.grid.start_month + offset
            # Maximize r2; among ties prefer the earliest start, then the
            # shortest length (negated so a plain tuple max applies).
            key = (mean_r2, -start, -length)
            if best_key is None or key > best_key:
                best_key = key
                best = ((start, start + length - 1), length)
    if best is None:
        raise WindowError(f"no window of lengths {lengths} fits inside the {m}-point grid")
    window, length = best
    fits = tuple(fit_window_free(s, panel.grid, window) for s in panel.series)
    return IntervalSearchResult(window, length, _mean_r2(list(fits)), fits)


def estimate_alphas(panel: Panel, window: tuple[int, int]) -> AlphaEstimates:
    """Fixed-intercept rate estimates for all series on the given window.

    Also reports the cross-series mean and standard deviation (n-1
    denominator) of the estimated rates.
    """
    fits = tuple(fit_window_fixed(s, panel.grid, window) for s in panel.series)
    alphas = np.array([f.alpha for f in fits])
    mean = float(alphas.mean())
    sd = float(alphas.std(ddof=1)) if alphas.size > 1 else 0.0
    return AlphaEstimates(fits, mean, sd)

"""Undisturbed-window selection and per-series growth-rate estimation.

Two least-squares fits of log index values on months since the window
start share one (window length x series) block of logs and one R^2 rule:

* a free-intercept fit, used to score candidate windows by their
  coefficient of determination after a prefix-sum filter has set aside
  the windows that cannot win, and
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
from .timeseries import Panel, freeze_fields, freeze_names

#: Lower clamp for the fixed-intercept growth rate; the model requires
#: alpha > 0 and downstream warping divides by alpha.
ALPHA_FLOOR = 1e-8

#: Window lengths scanned by default: 2-, 3- and 5-year intervals.
DEFAULT_WINDOW_LENGTHS = (24, 36, 60)


@dataclass(frozen=True, eq=False)
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
        shape = (len(freeze_names(self, "fits")),)
        fields = (("alpha", float, shape), ("intercept", float, shape), ("r2", float, shape), ("clamped", bool, shape))
        freeze_fields(self, fields, f"fits of {shape[0]} series")

    def align(self, names) -> "WindowFits":
        """The fits of ``names``, in that order; SchemaError naming the first series with no fit."""
        index = {name: i for i, name in enumerate(self.names)}
        missing = [name for name in names if name not in index]
        if missing:
            raise SchemaError(f"no fitted rate for series {missing[0]!r}")
        rows = [index[name] for name in names]
        return WindowFits(self.window, names, self.alpha[rows], self.intercept[rows], self.r2[rows], self.clamped[rows])

    @property
    def mean_alpha(self) -> float:
        """Cross-series mean of the rates, a ``math.fsum`` sum, so it does not depend on series order."""
        return math.fsum(self.alpha.tolist()) / self.alpha.size

    @property
    def sd_alpha(self) -> float:
        """Cross-series standard deviation of the rates, n-1 denominator and ``math.fsum`` sums; 0 for one series."""
        n = self.alpha.size
        return math.sqrt(math.fsum(((self.alpha - self.mean_alpha) ** 2).tolist()) / (n - 1)) if n > 1 else 0.0

    def alphas(self) -> np.ndarray:
        """``alpha``; kept only for the benchmark harness."""
        return self.alpha


@dataclass(frozen=True)
class IntervalSearchResult:
    """Best window over the scanned lengths, with the free-intercept fits there and their mean r2."""

    fits: WindowFits
    mean_r2: float

    @property
    def best_window(self) -> tuple[int, int]:
        return self.fits.window

    @property
    def window_length_months(self) -> int:
        return self.fits.window[1] - self.fits.window[0] + 1


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


def _month_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over months (axis 0), added in month order onto zero: the rounding :func:`_r2_bracket` bounds."""
    return np.cumsum(np.concatenate((np.zeros_like(terms[:1]), terms)), axis=0)[-1]


def _free_ols(logs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Free-intercept OLS of every series on one window of logs, months along axis 0 and series along axis 1.

    Returns ``(alpha, intercept, r2)``, one entry per series. The window
    mean, Sxy, SST and SSE are :func:`_month_sum` sums. The mean is taken
    of values less the window's first, so a flat window has ``SST == 0``
    exactly and scores 1; the residual form scores an exact exponential
    exactly 1.
    """
    length = logs.shape[0]
    tbar = (length - 1) / 2.0
    tc = (np.arange(length, dtype=float) - tbar)[:, None]
    stt = float(np.sum(tc**2))
    # The window mean of log X; on a flat window it is the first month's log itself.
    mean = _month_sum(logs[1:] - logs[0]) / length + logs[0]
    yc = logs - mean
    alpha = _month_sum(tc * yc) / stt
    sst = _month_sum(yc * yc)
    resid = yc - alpha * tc
    return alpha, mean - alpha * tbar, _r2(_month_sum(resid * resid), sst)


#: Unit roundoff of float64 arithmetic.
_U = 2.0**-53

#: Series per block of the prefix-sum filter, which bounds its working set.
_SERIES_BLOCK = 256


def _gamma(k: float) -> float:
    """``k u / (1 - k u)``: the relative error bound of k rounded float64 operations."""
    return k * _U / (1.0 - k * _U)


def _prefix_sums(logs_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums of ``d``, ``k * d`` and ``d^2`` with ``d = log X - log X(first month)`` and month index ``k``.

    ``logs_t`` is (n_months, n_series). Returns the (3, n_months + 1,
    n_series) sums, each starting at a row of zeros, and each series'
    largest ``|d|``, the scale of every rounding bound of the filter.
    """
    m, n = logs_t.shape
    d = logs_t - logs_t[0]
    sums = np.zeros((3, m + 1, n))
    np.cumsum(d, axis=0, out=sums[0, 1:])
    np.cumsum(np.arange(m, dtype=float)[:, None] * d, axis=0, out=sums[1, 1:])
    np.cumsum(d * d, axis=0, out=sums[2, 1:])
    return sums, np.abs(d).max(axis=0)


def _r2_bracket(sums: np.ndarray, scale: np.ndarray, level: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Bounds ``lo <= r2 <= hi`` on the r2 that :func:`_free_ols` gives each window of one length.

    ``sums`` and ``scale`` come from :func:`_prefix_sums`, ``level`` is
    each series' first log value. Returns two (n_offsets, n_series) arrays
    in [0, 1], row ``o`` for the window starting at month offset ``o``.

    Each window's ``Sxy = sum (k - kbar) d`` and ``SST = sum d^2 - (sum d)^2 / L``
    are differences of prefix sums. Recursive summation of m terms errs by
    at most ``gamma_m`` times their absolute sum, and ``|d| <= M``, so the
    absolute errors are at most ``ex ~ 3 gamma_m m^2 M`` and
    ``es ~ 6 gamma_m m M^2``: the cancellation is bounded a priori, as in
    Chan, Golub & LeVeque's analysis of the updating formulas. The exact
    r2 of the stored logs, ``Sxy^2 / (Stt SST)``, then lies within
    ``(|Sxy| -+ ex)^2 / (Stt (SST +- es))``. The kernel's own r2 differs
    from the exact one by at most ``kern``: its window mean is off by
    ``dm``, which perturbs its SST and SSE by ``h^2 = L dm^2 / SST``
    relative, and its in-order sums of L terms err by ``g = gamma_(L+8)``.
    Every bound is doubled to cover second-order terms and the rounding of
    the bound itself.

    A window whose SST is not above ``2 es``, so not resolved, gets all of
    [0, 1]; a series with ``d == 0`` on every month is constant, which the
    kernel scores exactly 1, and gets [1, 1].
    """
    m = sums.shape[1] - 1
    n_off = m - length + 1
    s1, sk, s2 = sums[:, length:] - sums[:, :n_off]
    kbar = (np.arange(n_off, dtype=float) + (length - 1) / 2.0)[:, None]
    sxy = np.abs(sk - kbar * s1)
    sst = s2 - s1 * s1 / length
    stt = length * (length * length - 1.0) / 12.0

    c1 = 2.0 * _gamma(m) * m + 2.0 * _U * length
    ex = 2.0 * (3.0 * _gamma(m + 1) * m * m + 8.0 * _U * length * m) * scale
    es = 2.0 * (2.0 * _gamma(m + 1) * m + 7.0 * _U * length + c1 * (2.0 + c1 / length)) * scale * scale
    # On a resolved window SST > es, so h < sqrt(L / es) dm for every window of the series.
    dm = 2.0 * (2.0 * _gamma(length + 3) * scale + 2.0 * _U * (np.abs(level) + scale))
    g = _gamma(length + 8)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h = np.sqrt(length / es) * dm
        err = (h + g * (1.0 + h)) ** 2 + 8.0 * _U * (1.0 + h)
        kern = 2.0 * (err + h * h + 2.0 * g * (1.0 + err) + 4.0 * _U)
        lo = np.maximum(sxy - ex, 0.0) ** 2 / (sst + es) * ((1.0 - 8.0 * _U) / stt) - kern
        hi = (sxy + ex) ** 2 / (sst - es) * ((1.0 + 8.0 * _U) / stt) + kern
    resolved = (sst > 2.0 * es) & (kern < 1.0)
    lo = np.where(resolved, np.maximum(lo, 0.0), 0.0)
    hi = np.where(resolved, np.minimum(hi, 1.0), 1.0)
    flat = scale == 0.0
    lo[:, flat] = hi[:, flat] = 1.0
    return lo, hi


def search_interval(panel: Panel, lengths=DEFAULT_WINDOW_LENGTHS) -> IntervalSearchResult:
    """Scan every contiguous window of the requested lengths for the best fit.

    Every window of each length that lies fully inside the panel grid is
    scored with the free-intercept fit; the window with the largest mean
    r2 across series wins. Ties break to the earliest start, then to the
    shortest length. The scanned panel must be gap-free (apply
    :func:`warpgrowth.timeseries.restrict` first to drop series with gaps).

    The scan is a filter followed by an exact rescore. Prefix sums of the
    logs, built once per block of series and shared by every length, give
    each window's r2 bounds in O(n_series * n_months) work per length
    (:func:`_r2_bracket`); they cover the rounding of the prefix sums and
    of the kernel. A window stays a candidate while its mean upper bound
    reaches the largest mean lower bound, so the best window and every
    window tied with it are kept. Each candidate is rescored by one
    :func:`_free_ols` call on its rows of logs, whose rounding the bounds
    cover, so the result is that of a fit of every window.
    Per-window means are ``math.fsum`` sums, which are correctly rounded,
    so the choice does not depend on series order. Memory stays O(n_series * n_months).

    The fits minimize ``sum_t (log X(t) - intercept - alpha * (t - t_start))^2``
    on the winning window (a constant series scores r2 = 1); they and
    ``mean_r2``, the score that won, come from the rescore.

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
    m, n = grid.n_points, panel.n_series
    if lengths[0] > m:
        raise WindowError(f"no window of lengths {lengths} fits inside the {m}-point grid")
    lengths = [length for length in lengths if length <= m]
    logs_t = _window_logs(panel, (grid.start_month, grid.end_month))

    # Per length, the sums over series of each window's r2 bounds.
    lo_sum = {length: np.zeros(m - length + 1) for length in lengths}
    hi_sum = {length: np.zeros(m - length + 1) for length in lengths}
    for c in range(0, n, _SERIES_BLOCK):
        block = logs_t[:, c : c + _SERIES_BLOCK]
        sums, scale = _prefix_sums(block)
        for length in lengths:
            lo, hi = _r2_bracket(sums, scale, block[0], length)
            lo_sum[length] += lo.sum(axis=1)
            hi_sum[length] += hi.sum(axis=1)
    # Covers the rounding of the sums over series and of the exact mean.
    slack = 2.0 * _gamma(n + 4)
    floor = max(float(s.max()) for s in lo_sum.values()) / n - slack

    # Correctly rounded sums keep each mean invariant to series order. The smallest
    # key has the largest mean r2, then the earliest start, then the
    # shortest length.
    best = None
    for length in lengths:
        for offset in np.flatnonzero(hi_sum[length] / n + slack >= floor).tolist():
            fitted = _free_ols(logs_t[offset : offset + length])
            key = (-math.fsum(fitted[2].tolist()) / n, offset, length)
            if best is None or key < best[0]:
                best = key, fitted
    (neg_mean_r2, first, length), (alpha, intercept, r2) = best
    window = (grid.start_month + first, grid.start_month + first + length - 1)
    return IntervalSearchResult(WindowFits(window, panel.names, alpha, intercept, r2, np.zeros(n, dtype=bool)), -neg_mean_r2)


def estimate_alphas(panel: Panel, window: tuple[int, int]) -> WindowFits:
    """Fixed-intercept rate estimates for all series on the given window.

    Closed form: ``alpha = sum_t tau * (log X(t) - log X(start)) / sum_t tau^2``
    with ``tau`` the months elapsed since the window start, and the
    intercept pinned at ``log X(start)``. Rates below ``ALPHA_FLOOR`` are
    raised to it and flagged ``clamped``. Rate, SSE and SST are the in-order
    :func:`_month_sum` of :func:`_free_ols`, so row ``i`` is series ``i``'s own fit.
    """
    logs = _window_logs(panel, window)
    tau = np.arange(logs.shape[0], dtype=float)[:, None]
    d = logs - logs[0]
    alpha = _month_sum(tau * d) / float(np.sum(tau**2))
    clamped = alpha < ALPHA_FLOOR
    alpha[clamped] = ALPHA_FLOOR
    sse = _month_sum((d - tau * alpha) ** 2)
    sst = _month_sum((d - _month_sum(d) / logs.shape[0]) ** 2)
    return WindowFits(window, panel.names, alpha, logs[0], _r2(sse, sst), clamped)

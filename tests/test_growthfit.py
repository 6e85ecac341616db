import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpgrowth.errors import MissingDataError, WindowError
from warpgrowth.fpca import fit_fpca
from warpgrowth.growthfit import (
    ALPHA_FLOOR,
    DEFAULT_WINDOW_LENGTHS,
    _free_ols,
    _prefix_sums,
    _r2_bracket,
    _window_logs,
    estimate_alphas,
    search_interval,
)
from warpgrowth.simulate import _philox, default_truth, generate_replicate
from warpgrowth.timeseries import Panel, TimeGrid
from warpgrowth.warping import compute_warp_set

from conftest import exponential_panel, one_series_panel
from oracles import free_fit_per_series, free_ols_per_month


def free_fits(panel):
    """Free-intercept fits on the whole grid: what ``search_interval`` reports when one window spans it."""
    return search_interval(panel, (panel.grid.n_points,)).fits


def fixed_fits(panel):
    """Fixed-intercept fits on the whole grid."""
    return estimate_alphas(panel, (panel.grid.start_month, panel.grid.end_month))


def scan_windows(logs_t, length):
    """``_free_ols`` on every window of one length: (alpha, intercept, r2), each (n_offsets, n_series), row ``o`` for offset ``o``."""
    fits = [_free_ols(logs_t[offset : offset + length]) for offset in range(logs_t.shape[0] - length + 1)]
    return tuple(np.array(column) for column in zip(*fits))


class TestFreeFit:
    def test_exact_exponential(self):
        t = np.arange(40, dtype=float)
        fit = free_fits(one_series_panel(90.0 * np.exp(0.01 * t)))
        assert fit.window == (0, 39)
        assert abs(fit.alpha[0] - 0.01) < 1e-10 * 0.01
        assert abs(fit.intercept[0] - math.log(90.0)) < 1e-10
        assert 1.0 - fit.r2[0] < 1e-12

    def test_constant_series_r2_one(self):
        fit = free_fits(one_series_panel([100.0] * 10))
        assert fit.alpha[0] == 0.0
        assert fit.r2[0] == 1.0

    def test_symmetric_rise_fall(self):
        # {100, 110, 100}: zero slope, zero explained variance.
        fit = free_fits(one_series_panel([100.0, 110.0, 100.0]))
        assert fit.alpha[0] == 0.0
        assert fit.r2[0] == 0.0

    def test_window_too_short(self):
        with pytest.raises(WindowError):
            search_interval(one_series_panel([100.0, 101.0, 102.0, 103.0]), (2,))

    def test_missing_data_rejected(self):
        vals = np.array([100.0, np.nan, 102.0, 103.0])
        panel = one_series_panel(vals)
        with pytest.raises(MissingDataError):
            free_fits(panel)


class TestFixedFit:
    def test_exact_exponential(self):
        t = np.arange(30, dtype=float)
        fit = fixed_fits(one_series_panel(90.0 * np.exp(0.01 * t)))
        assert abs(fit.alpha[0] - 0.01) < 1e-10 * 0.01
        assert not fit.clamped[0]

    def test_decreasing_series_clamped(self):
        t = np.arange(10, dtype=float)
        fit = fixed_fits(one_series_panel(100.0 * np.exp(-0.02 * t)))
        assert fit.alpha[0] == ALPHA_FLOOR
        assert fit.clamped[0]

    def test_three_point_closed_form(self):
        # alpha = [log(105/100) + 2 log(112/100)] / 5 per month.
        fit = fixed_fits(one_series_panel([100.0, 105.0, 112.0]))
        expected = (math.log(105.0 / 100.0) + 2.0 * math.log(112.0 / 100.0)) / 5.0
        assert abs(fit.alpha[0] - expected) < 1e-15

    def test_intercept_pinned(self):
        fit = fixed_fits(one_series_panel([100.0, 105.0, 112.0]))
        assert fit.intercept[0] == math.log(100.0)

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(min_value=1e-4, max_value=0.05),
        scale=st.floats(min_value=1e-4, max_value=1e6),
    )
    def test_scale_invariance(self, alpha, scale):
        t = np.arange(24, dtype=float)
        base = 100.0 * np.exp(alpha * t) * (1.0 + 0.01 * np.sin(t))
        f1 = fixed_fits(one_series_panel(base))
        f2 = fixed_fits(one_series_panel(scale * base))
        assert abs(f1.alpha[0] - f2.alpha[0]) <= 1e-12

    # At rates below ~1e-5 the recovery floor is set by float64 rounding of
    # the log values (absolute slope noise ~1e-17/month), so the 1e-10
    # relative target is tested on the double-precision-feasible range.
    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(min_value=1e-5, max_value=0.05))
    def test_exact_model_recovery_both_fitters(self, alpha):
        t = np.arange(36, dtype=float)
        panel = one_series_panel(95.0 * np.exp(alpha * t))
        for fit in (free_fits(panel), fixed_fits(panel)):
            assert abs(fit.alpha[0] - alpha) <= 1e-10 * max(alpha, 1e-12)
            assert 1.0 - fit.r2[0] <= 1e-12


class TestSearchInterval:
    def test_tie_break_on_exact_exponentials(self):
        panel = exponential_panel([0.004, 0.01], n_points=80, start_month=100)
        res = search_interval(panel, (24, 36))
        assert res.best_window == (100, 123)
        assert res.window_length_months == 24
        assert res.mean_r2 == 1.0

    def test_default_lengths(self):
        panel = exponential_panel([0.01], n_points=70, start_month=1)
        res = search_interval(panel)
        assert res.best_window == (1, 24)

    def test_curved_region_loses(self):
        # Exponential on the first 30 months, then a smooth oscillation: the
        # best 24-month window must stay inside the exponential stretch.
        t = np.arange(90, dtype=float)
        x = 100.0 * np.exp(0.008 * t)
        late = t >= 30
        x[late] *= np.exp(0.1 * np.sin(0.4 * (t[late] - 30)))
        res = search_interval(one_series_panel(x), (24,))
        assert res.best_window[1] <= 35

    def test_decoy_stretch_ties_and_the_earliest_wins(self):
        # Every warp has slope 0.6 on months 0-59 and slope 1 on months 60-95,
        # then a bump: both stretches fit exactly, so the choice between the
        # two exact models is the tie rule's. This pins today's choice, the
        # earliest stretch, whose rates come out as 0.6 * alpha.
        rng = np.random.default_rng(7)
        alpha, x0 = rng.uniform(0.002, 0.012, 20), rng.uniform(4.0, 5.0, 20)
        t = np.arange(176, dtype=float)
        warp = np.where(t < 60, 0.6 * t, t - 24.0) + 30.0 * np.sin(np.pi * np.maximum(t - 96.0, 0.0) / 80.0) ** 2
        panel = Panel(TimeGrid(0, 176), [f"s{i:02d}" for i in range(20)], np.exp(x0[:, None] + alpha[:, None] * warp))
        res = search_interval(panel)
        assert res.best_window == (0, 23) and res.mean_r2 == 1.0
        assert np.abs(estimate_alphas(panel, res.best_window).alpha / (0.6 * alpha) - 1.0).max() <= 1e-13
        later = estimate_alphas(panel, (60, 83))
        assert np.all(later.r2 == 1.0) and np.abs(later.alpha / alpha - 1.0).max() <= 1e-13

    def test_series_order_invariance(self):
        rng = np.random.default_rng(3)
        t = np.arange(60, dtype=float)
        values = np.array([100.0 * np.exp(0.005 * i * t + 0.01 * rng.standard_normal(60)) for i in range(1, 5)])
        names = [f"s{i}" for i in range(1, 5)]
        grid = TimeGrid(0, 60)
        res_fwd = search_interval(Panel(grid, names, values), (24, 36))
        res_rev = search_interval(Panel(grid, names[::-1], values[::-1]), (24, 36))
        assert res_fwd.best_window == res_rev.best_window
        assert res_fwd.mean_r2 == res_rev.mean_r2

    def test_mean_r2_matches_per_series(self):
        panel = exponential_panel([0.004, 0.012, 0.02], n_points=50)
        res = search_interval(panel, (24,))
        assert res.mean_r2 == pytest.approx(math.fsum(sorted(res.fits.r2)) / res.fits.r2.size, abs=0.0)

    def test_no_admissible_window(self):
        panel = exponential_panel([0.01], n_points=20)
        with pytest.raises(WindowError):
            search_interval(panel, (24, 36, 60))

    def test_short_length_rejected(self):
        panel = exponential_panel([0.01], n_points=20)
        with pytest.raises(WindowError):
            search_interval(panel, (2,))

    def test_empty_request_rejected(self):
        with pytest.raises(WindowError, match="no series"):
            search_interval(Panel(TimeGrid(144, 30), (), np.empty((0, 30))), (24,))
        with pytest.raises(WindowError, match="no window lengths"):
            search_interval(exponential_panel([0.01], n_points=30), ())

    def test_gappy_series_rejected(self):
        vals = 100.0 * np.exp(0.01 * np.arange(40.0))
        vals[5] = np.nan
        panel = one_series_panel(vals)
        with pytest.raises(MissingDataError):
            search_interval(panel, (24,))


def brute_force_search(panel, lengths):
    """Reference scan: one per-series oracle fit per series and window, same tie rule."""
    best_key = None
    for length in sorted(set(lengths)):
        for offset in range(panel.grid.n_points - length + 1):
            start = panel.grid.start_month + offset
            window = (start, start + length - 1)
            r2 = [free_fit_per_series(panel, window, i).r2 for i in range(panel.n_series)]
            key = (math.fsum(sorted(r2)) / len(r2), -start, -length)
            if best_key is None or key > best_key:
                best_key, best = key, window
    return best


@st.composite
def random_panels(draw):
    """Gap-free panels: exponential trends with per-series noise (possibly none), or flat series."""
    n_series = draw(st.integers(min_value=1, max_value=6))
    n_points = draw(st.integers(min_value=3, max_value=48))
    lengths = draw(st.lists(st.integers(min_value=3, max_value=n_points), min_size=1, max_size=3))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    t = np.arange(n_points, dtype=float)
    values = np.empty((n_series, n_points))
    for i in range(n_series):
        noise = draw(st.sampled_from(["flat", 0.0, 1e-3, 0.05]))
        alpha = rng.uniform(1e-3, 0.03)
        if noise == "flat":
            alpha, noise = 0.0, 0.0
        logs = alpha * t + noise * rng.standard_normal(n_points)
        values[i] = rng.uniform(50.0, 150.0) * np.exp(logs)
    start_month = draw(st.integers(min_value=0, max_value=300))
    return Panel(TimeGrid(start_month, n_points), [f"s{i}" for i in range(n_series)], values), lengths


class TestBatchedScan:
    @settings(max_examples=60, deadline=None)
    @given(case=random_panels())
    def test_kernel_matches_per_window_fits(self, case):
        panel, lengths = case
        logs_t = np.log(panel.values).T.copy()
        for length in set(lengths):
            alpha, intercept, r2 = scan_windows(logs_t, length)
            assert r2.shape == (panel.grid.n_points - length + 1, panel.n_series)
            for offset in range(r2.shape[0]):
                start = panel.grid.start_month + offset
                for i in range(panel.n_series):
                    ref = free_fit_per_series(panel, (start, start + length - 1), i)
                    assert abs(r2[offset, i] - ref.r2) <= 1e-12
                    assert abs(alpha[offset, i] - ref.alpha) <= 1e-12
                    assert abs(intercept[offset, i] - ref.intercept) <= 1e-12 * abs(ref.intercept)

    @settings(max_examples=60, deadline=None)
    @given(case=random_panels())
    def test_selection_matches_brute_force(self, case):
        panel, lengths = case
        assert search_interval(panel, lengths).best_window == brute_force_search(panel, lengths)
        assert_matches_full_scan(panel, lengths)

    def test_all_windows_tie_on_exact_exponentials(self):
        # Every window scores exactly 1.0, so the tie rule alone decides:
        # earliest start, then shortest length. A shortcut R^2 of
        # Sxy^2 / (Stt * SST) lands within rounding of 1 instead and would
        # pick whichever window happened to round highest.
        panel = exponential_panel([0.003, 0.009, 0.017], n_points=90, start_month=12)
        logs_t = np.log(panel.values).T.copy()
        for length in DEFAULT_WINDOW_LENGTHS:
            assert np.all(scan_windows(logs_t, length)[2] == 1.0)
        res = search_interval(panel)
        assert res.best_window == (12, 35)
        assert res.window_length_months == 24
        assert res.mean_r2 == 1.0
        assert brute_force_search(panel, DEFAULT_WINDOW_LENGTHS) == (12, 35)

    @pytest.mark.parametrize("value", [100.0, 95.3, 1.0, 0.37, 250.0, 1e6, 123.456])
    def test_constant_series_scores_one_at_every_length(self, value):
        # A flat window has zero total variation whatever rounding the log
        # and the window mean incur, so every fit assigns r2 = 1.
        for length in range(3, 61):
            panel = one_series_panel([value] * length)
            alpha, _, r2 = _free_ols(np.log(np.full((length, 1), value)))
            assert alpha[0] == 0.0 and r2[0] == 1.0
            free = free_fits(panel)
            assert free.alpha[0] == 0.0 and free.r2[0] == 1.0
            fixed = fixed_fits(panel)
            assert fixed.clamped[0] and fixed.r2[0] == 1.0
            assert free_fit_per_series(panel, (0, length - 1)).r2 == 1.0


def full_scan(panel, lengths):
    """Reference scan: ``_free_ols`` on every window of every length, sorted-``fsum`` means, same tie key.

    Returns the window, its length, the winning mean r2 and the kernel's
    (alpha, intercept, r2) rows there.
    """
    logs_t = _window_logs(panel, (panel.grid.start_month, panel.grid.end_month))
    best = None
    for length in sorted(set(lengths)):
        if length > panel.grid.n_points:
            continue
        fitted = scan_windows(logs_t, length)
        for offset, row in enumerate(np.sort(fitted[2], axis=1).tolist()):
            key = (-math.fsum(row) / len(row), offset, length)
            if best is None or key < best[0]:
                best = key, [a[offset] for a in fitted]
    (neg_mean_r2, offset, length), fits = best
    start = panel.grid.start_month + offset
    return (start, start + length - 1), length, -neg_mean_r2, fits


def assert_matches_full_scan(panel, lengths):
    res = search_interval(panel, lengths)
    window, length, mean_r2, (alpha, intercept, r2) = full_scan(panel, lengths)
    assert res.best_window == window
    assert res.window_length_months == length
    assert res.mean_r2 == mean_r2
    assert res.fits.alpha.tobytes() == alpha.tobytes()
    assert res.fits.intercept.tobytes() == intercept.tobytes()
    assert res.fits.r2.tobytes() == r2.tobytes()


@st.composite
def tied_panels(draw):
    """Panels repeating one pattern of ``period`` months, so windows ``period`` apart tie exactly.

    Series are noisy exponentials, exact exponentials (every window scores
    1) or flat. Unless the draw keeps the exact ties, the logs of one
    series after its first period get noise of size ``n_series * 10**gap``,
    which moves each later window off its twin in the first period by a
    mean r2 gap of about ``10**gap``, 1e-13 to 1e-9, up or down.
    """
    period = draw(st.integers(min_value=4, max_value=30))
    n_points = period * draw(st.integers(min_value=2, max_value=3)) + draw(st.integers(min_value=0, max_value=5))
    lengths = draw(st.lists(st.integers(min_value=3, max_value=period), min_size=1, max_size=3))
    n_series = draw(st.integers(min_value=1, max_value=5))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    t = np.arange(n_points, dtype=float)
    values = np.empty((n_series, n_points))
    for i in range(n_series):
        kind = draw(st.sampled_from(["noisy", "noisy", "exact", "flat"]))
        level = rng.uniform(50.0, 150.0)
        if kind == "noisy":
            noise = draw(st.sampled_from([1e-3, 0.02])) * rng.standard_normal(period)
            pattern = rng.uniform(1e-3, 0.03) * t[:period] + noise
            values[i] = level * np.exp(np.resize(pattern, n_points))
        elif kind == "exact":
            values[i] = level * np.exp(rng.uniform(1e-3, 0.03) * t)
        else:
            values[i] = level
    gap = draw(st.none() | st.floats(min_value=-13.0, max_value=-9.0))
    if gap is not None:
        sign = draw(st.sampled_from([-1.0, 1.0]))
        noise = sign * n_series * 10.0**gap * rng.standard_normal(n_points - period)
        values[draw(st.integers(0, n_series - 1)), period:] *= np.exp(noise)
    return Panel(TimeGrid(draw(st.integers(0, 300)), n_points), [f"s{i}" for i in range(n_series)], values), lengths


@st.composite
def hard_logs(draw, kinds=("noisy", "exact", "flat", "ulps", "near_one", "step")):
    """Log blocks at the edges of the filter's error bound: extreme levels, near-flat and near-exact series."""
    n_points = draw(st.integers(min_value=3, max_value=80))
    n_series = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    t = np.arange(n_points, dtype=float)
    values = np.empty((n_series, n_points))
    for i in range(n_series):
        level = 10.0 ** draw(st.floats(min_value=-290.0, max_value=290.0))
        kind = draw(st.sampled_from(kinds))
        if kind == "noisy":
            logs = rng.uniform(-0.03, 0.03) * t + 10.0 ** rng.uniform(-12, -1) * rng.standard_normal(n_points)
            values[i] = level * np.exp(logs)
        elif kind == "exact":
            values[i] = level * np.exp(10.0 ** rng.uniform(-8, -1) * t)
        elif kind == "flat":
            values[i] = level
        elif kind == "ulps":
            values[i] = level * (1.0 + np.finfo(float).eps * rng.integers(-4, 5, n_points))
        elif kind == "near_one":
            values[i] = 1.0 + 10.0 ** rng.uniform(-15, -6) * rng.standard_normal(n_points)
        else:
            values[i] = level * np.where(t < rng.integers(0, n_points), 1.0, 1.0 + 10.0 ** rng.uniform(-15, -1))
    return np.ascontiguousarray(np.log(values).T)


class TestPrefixFilter:
    @settings(max_examples=150, deadline=None)
    @given(logs_t=hard_logs())
    def test_bracket_holds_the_kernel_r2(self, logs_t):
        sums, scale = _prefix_sums(logs_t)
        for length in range(3, logs_t.shape[0] + 1):
            lo, hi = _r2_bracket(sums, scale, logs_t[0], length)
            r2 = scan_windows(logs_t, length)[2]
            assert np.all((0.0 <= lo) & (lo <= r2) & (r2 <= hi) & (hi <= 1.0)), length

    @settings(max_examples=150, deadline=None)
    @given(logs_t=hard_logs(("flat", "ulps", "near_one", "step")), one_series=st.booleans())
    def test_kernel_sums_in_month_order(self, logs_t, one_series):
        # numpy sums a contiguous axis pairwise, so a one-series window is
        # where a kernel summing with np.sum would lose the month order.
        if one_series:
            logs_t = np.ascontiguousarray(logs_t[:, :1])
        fitted = _free_ols(logs_t)
        for got, want in zip(fitted, free_ols_per_month(logs_t)):
            assert got.tobytes() == want.tobytes()

    def test_bracket_is_tight_on_default_truth(self):
        # The filter only pays off if the bounds are far narrower than the
        # r2 gaps between neighbouring windows.
        panel = replicate_panel(0)
        logs_t = _window_logs(panel, (panel.grid.start_month, panel.grid.end_month))
        sums, scale = _prefix_sums(logs_t)
        for length in DEFAULT_WINDOW_LENGTHS:
            lo, hi = _r2_bracket(sums, scale, logs_t[0], length)
            assert np.median(hi - lo) < 1e-7

    def test_constant_series_bracket_is_exact(self):
        logs_t = np.log(np.full((30, 2), [7.5, 1e200]))
        sums, scale = _prefix_sums(logs_t)
        lo, hi = _r2_bracket(sums, scale, logs_t[0], 24)
        assert np.all(lo == 1.0) and np.all(hi == 1.0)

    @settings(max_examples=100, deadline=None)
    @given(case=tied_panels())
    def test_planted_ties_match_full_scan(self, case):
        assert_matches_full_scan(*case)

    def test_default_truth_replicates_match_full_scan(self):
        for index in range(100):
            assert_matches_full_scan(replicate_panel(index), DEFAULT_WINDOW_LENGTHS)


class TestEstimateAlphas:
    def test_two_month_window_rejected(self):
        with pytest.raises(WindowError, match="fewer than 3 points"):
            estimate_alphas(exponential_panel([0.01], n_points=30), (150, 151))

    def test_identical_series_zero_sd(self):
        panel = exponential_panel([0.01, 0.01, 0.01], n_points=30)
        est = estimate_alphas(panel, (144, 167))
        assert est.sd_alpha == 0.0

    def test_two_series_hand_stats(self):
        panel = exponential_panel([0.005, 0.015], n_points=30)
        est = estimate_alphas(panel, (144, 167))
        assert est.mean_alpha == pytest.approx(0.010, rel=1e-12)
        assert est.sd_alpha == pytest.approx(0.005 * math.sqrt(2.0), rel=1e-12)
        assert est.sd_alpha == pytest.approx(0.007071, abs=5e-7)

    def test_fits_in_input_order(self):
        panel = exponential_panel([0.012, 0.004], n_points=30, names=["zz", "aa"])
        est = estimate_alphas(panel, (144, 167))
        assert est.names == ("zz", "aa")
        assert est.alpha[0] == pytest.approx(0.012, rel=1e-10)


TRUTH = default_truth()
REPLICATE_INDEX = st.integers(min_value=0, max_value=10_000)
CHAIN = settings(max_examples=15, deadline=None)
#: Bound on the warp change under per-series scaling, asserted below.
WARP_TOL = 1e-12


def replicate_panel(index):
    return generate_replicate(TRUTH, _philox(0, 0, index)).panel


def fit_chain(panel):
    """Window search, fixed-intercept rates, warps and FPCA, as in one study replicate.

    Returns the search, the rates and warps by name, and the FPCA model.
    """
    search = search_interval(panel, DEFAULT_WINDOW_LENGTHS)
    estimates = estimate_alphas(panel, search.best_window)
    warps = compute_warp_set(panel, estimates)
    rates = dict(zip(estimates.names, estimates.alpha.tolist()))
    model = fit_fpca(warps, k=max(2, min(TRUTH.n_components, TRUTH.n - 1)))
    return search, rates, dict(zip(warps.names, warps.values)), model


def score_tolerance(model, warps):
    """Largest change of the two leading components' scores when every warp moves by at most WARP_TOL.

    With c_i = h_i - mu and R = max ||c_i|| (quadrature norm, at most the sup
    norm on [0, 1]), each ||dc_i|| <= 2 WARP_TOL, so the divisor-n covariance
    moves by ||dG|| <= 4 R WARP_TOL. Davis-Kahan bounds the sign-aligned
    eigenfunction change by sqrt(2) ||dG|| / gap_k, gap_k the distance from
    lambda_k to its neighbours, and
    |ds_ik| <= ||dc_i|| + ||c_i|| ||dphi_k|| <= 2 WARP_TOL + 4 sqrt(2) R^2 WARP_TOL / gap_k.
    Twice that bound leaves room for the rounding of the two eigensolves.
    """
    c = np.array([warps[name] for name in model.score_names]) - model.mean
    r2 = float(((c**2) @ model.weights).max())
    lam = model.eigenvalues
    gaps = np.array([lam[0] - lam[1], min(lam[0] - lam[1], lam[1] - lam[2])])
    return 2.0 * (2.0 * WARP_TOL + 4.0 * math.sqrt(2.0) * r2 * WARP_TOL / gaps)


class TestChainInvariances:
    """Metamorphic relations of the model, from window search through FPCA scores, on default-truth replicates."""

    @CHAIN
    @given(index=REPLICATE_INDEX, order=st.permutations(range(TRUTH.n)))
    def test_series_permutation(self, index, order):
        panel = replicate_panel(index)
        search, rates, warps, model = fit_chain(panel)
        permuted = Panel(panel.grid, [panel.names[i] for i in order], panel.values[list(order)])
        search_p, rates_p, warps_p, model_p = fit_chain(permuted)
        assert search_p.best_window == search.best_window
        assert search_p.mean_r2 == search.mean_r2
        assert rates_p == rates
        assert all(np.array_equal(warps_p[name], warps[name]) for name in warps)
        assert model_p.eigenvalues.tobytes() == model.eigenvalues.tobytes()
        assert model_p.score_names == permuted.names
        assert model_p.scores.tobytes() == model.scores[list(order)].tobytes()

    @CHAIN
    @given(index=REPLICATE_INDEX, k=st.integers(min_value=-143, max_value=500))
    def test_start_month_shift(self, index, k):
        panel = replicate_panel(index)
        search, rates, _, model = fit_chain(panel)
        shifted = Panel(TimeGrid(panel.grid.start_month + k, panel.grid.n_points), panel.names, panel.values)
        search_s, rates_s, _, model_s = fit_chain(shifted)
        assert search_s.best_window == (search.best_window[0] + k, search.best_window[1] + k)
        assert search_s.mean_r2 == search.mean_r2
        assert rates_s == rates
        assert model_s.scores.tobytes() == model.scores.tobytes()

    @CHAIN
    @given(index=REPLICATE_INDEX, scales=st.lists(st.floats(1e-3, 1e3), min_size=TRUTH.n, max_size=TRUTH.n))
    def test_per_series_scaling(self, index, scales):
        panel = replicate_panel(index)
        search, rates, warps, model = fit_chain(panel)
        scaled = Panel(panel.grid, panel.names, panel.values * np.array(scales)[:, None])
        search_c, rates_c, warps_c, model_c = fit_chain(scaled)
        assert search_c.best_window == search.best_window
        for name, alpha in rates.items():
            assert abs(rates_c[name] - alpha) <= 1e-12 * alpha
            assert np.abs(warps_c[name] - warps[name]).max() <= WARP_TOL
        tol = score_tolerance(model, warps)
        assert np.all(np.abs(model_c.scores[:, :2] - model.scores[:, :2]).max(axis=0) <= tol), tol

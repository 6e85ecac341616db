import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpgrowth.errors import MissingDataError, WindowError
from warpgrowth.growthfit import (
    ALPHA_FLOOR,
    DEFAULT_WINDOW_LENGTHS,
    _free_ols,
    estimate_alphas,
    fit_window_fixed,
    fit_window_free,
    search_interval,
)
from warpgrowth.simulate import _replicate_rng, default_truth, generate_replicate
from warpgrowth.timeseries import Panel, PriceSeries, TimeGrid
from warpgrowth.warping import compute_warp_set

from conftest import exponential_panel
from oracles import free_fit_per_series


def series_on(values, start_month=0, missing=None):
    grid = TimeGrid(start_month, len(values))
    return PriceSeries("s", np.asarray(values, dtype=float), missing), grid


class TestFreeFit:
    def test_exact_exponential(self):
        t = np.arange(40, dtype=float)
        s, grid = series_on(90.0 * np.exp(0.01 * t))
        fit = fit_window_free(s, grid, (0, 39))
        assert abs(fit.alpha - 0.01) < 1e-10 * 0.01
        assert abs(fit.intercept - math.log(90.0)) < 1e-10
        assert 1.0 - fit.r2 < 1e-12

    def test_constant_series_r2_one(self):
        s, grid = series_on([100.0] * 10)
        fit = fit_window_free(s, grid, (0, 9))
        assert fit.alpha == 0.0
        assert fit.r2 == 1.0

    def test_symmetric_rise_fall(self):
        # {100, 110, 100}: zero slope, zero explained variance.
        s, grid = series_on([100.0, 110.0, 100.0])
        fit = fit_window_free(s, grid, (0, 2))
        assert fit.alpha == 0.0
        assert fit.r2 == 0.0

    def test_window_too_short(self):
        s, grid = series_on([100.0, 101.0, 102.0, 103.0])
        with pytest.raises(WindowError):
            fit_window_free(s, grid, (0, 1))

    def test_missing_data_rejected(self):
        vals = np.array([100.0, np.nan, 102.0, 103.0])
        s, grid = series_on(vals, missing=np.array([False, True, False, False]))
        with pytest.raises(MissingDataError):
            fit_window_free(s, grid, (0, 3))


class TestFixedFit:
    def test_exact_exponential(self):
        t = np.arange(30, dtype=float)
        s, grid = series_on(90.0 * np.exp(0.01 * t))
        fit = fit_window_fixed(s, grid, (0, 29))
        assert abs(fit.alpha - 0.01) < 1e-10 * 0.01
        assert not fit.clamped

    def test_decreasing_series_clamped(self):
        t = np.arange(10, dtype=float)
        s, grid = series_on(100.0 * np.exp(-0.02 * t))
        fit = fit_window_fixed(s, grid, (0, 9))
        assert fit.alpha == ALPHA_FLOOR
        assert fit.clamped

    def test_three_point_closed_form(self):
        # alpha = [log(105/100) + 2 log(112/100)] / 5 per month.
        s, grid = series_on([100.0, 105.0, 112.0])
        fit = fit_window_fixed(s, grid, (0, 2))
        expected = (math.log(105.0 / 100.0) + 2.0 * math.log(112.0 / 100.0)) / 5.0
        assert abs(fit.alpha - expected) < 1e-15

    def test_intercept_pinned(self):
        s, grid = series_on([100.0, 105.0, 112.0])
        fit = fit_window_fixed(s, grid, (0, 2))
        assert fit.intercept == math.log(100.0)

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(min_value=1e-4, max_value=0.05),
        scale=st.floats(min_value=1e-4, max_value=1e6),
    )
    def test_scale_invariance(self, alpha, scale):
        t = np.arange(24, dtype=float)
        base = 100.0 * np.exp(alpha * t) * (1.0 + 0.01 * np.sin(t))
        s1, grid = series_on(base)
        s2, _ = series_on(scale * base)
        f1 = fit_window_fixed(s1, grid, (0, 23))
        f2 = fit_window_fixed(s2, grid, (0, 23))
        assert abs(f1.alpha - f2.alpha) <= 1e-12

    # At rates below ~1e-5 the recovery floor is set by float64 rounding of
    # the log values (absolute slope noise ~1e-17/month), so the 1e-10
    # relative target is tested on the double-precision-feasible range.
    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(min_value=1e-5, max_value=0.05))
    def test_exact_model_recovery_both_fitters(self, alpha):
        t = np.arange(36, dtype=float)
        s, grid = series_on(95.0 * np.exp(alpha * t))
        for fitter in (fit_window_free, fit_window_fixed):
            fit = fitter(s, grid, (0, 35))
            assert abs(fit.alpha - alpha) <= 1e-10 * max(alpha, 1e-12)
            assert 1.0 - fit.r2 <= 1e-12


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
        grid = TimeGrid(0, 90)
        panel = Panel.from_series(grid, (PriceSeries("A", x),))
        res = search_interval(panel, (24,))
        assert res.best_window[1] <= 35

    def test_series_order_invariance(self):
        rng = np.random.default_rng(3)
        t = np.arange(60, dtype=float)
        series = [
            PriceSeries(f"s{i}", 100.0 * np.exp(0.005 * i * t + 0.01 * rng.standard_normal(60)))
            for i in range(1, 5)
        ]
        grid = TimeGrid(0, 60)
        res_fwd = search_interval(Panel.from_series(grid, tuple(series)), (24, 36))
        res_rev = search_interval(Panel.from_series(grid, tuple(reversed(series))), (24, 36))
        assert res_fwd.best_window == res_rev.best_window
        assert res_fwd.mean_r2 == res_rev.mean_r2

    def test_mean_r2_matches_per_series(self):
        panel = exponential_panel([0.004, 0.012, 0.02], n_points=50)
        res = search_interval(panel, (24,))
        assert res.mean_r2 == pytest.approx(
            math.fsum(sorted(f.r2 for f in res.per_series)) / len(res.per_series), abs=0.0
        )

    def test_no_admissible_window(self):
        panel = exponential_panel([0.01], n_points=20)
        with pytest.raises(WindowError):
            search_interval(panel, (24, 36, 60))

    def test_short_length_rejected(self):
        panel = exponential_panel([0.01], n_points=20)
        with pytest.raises(WindowError):
            search_interval(panel, (2,))

    def test_gappy_series_rejected(self):
        vals = 100.0 * np.exp(0.01 * np.arange(40.0))
        vals2 = vals.copy()
        mask = np.zeros(40, dtype=bool)
        mask[5] = True
        grid = TimeGrid(0, 40)
        panel = Panel.from_series(grid, (PriceSeries("A", vals2, mask),))
        with pytest.raises(MissingDataError):
            search_interval(panel, (24,))


def brute_force_search(panel, lengths):
    """Reference scan: one per-series oracle fit per series and window, same tie rule."""
    best_key = None
    for length in sorted(set(lengths)):
        for offset in range(panel.grid.n_points - length + 1):
            start = panel.grid.start_month + offset
            window = (start, start + length - 1)
            r2 = [free_fit_per_series(s, panel.grid, window).r2 for s in panel.series]
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
    series = []
    for i in range(n_series):
        noise = draw(st.sampled_from(["flat", 0.0, 1e-3, 0.05]))
        alpha = rng.uniform(1e-3, 0.03)
        if noise == "flat":
            alpha, noise = 0.0, 0.0
        logs = alpha * t + noise * rng.standard_normal(n_points)
        series.append(PriceSeries(f"s{i}", rng.uniform(50.0, 150.0) * np.exp(logs)))
    start_month = draw(st.integers(min_value=0, max_value=300))
    return Panel.from_series(TimeGrid(start_month, n_points), tuple(series)), lengths


class TestBatchedScan:
    @settings(max_examples=60, deadline=None)
    @given(case=random_panels())
    def test_kernel_matches_per_window_fits(self, case):
        panel, lengths = case
        logs_t = np.log(np.vstack([s.values for s in panel.series])).T.copy()
        for length in set(lengths):
            alpha, intercept, r2 = _free_ols(logs_t, length)
            assert r2.shape == (panel.grid.n_points - length + 1, panel.n_series)
            for offset in range(r2.shape[0]):
                start = panel.grid.start_month + offset
                for i, s in enumerate(panel.series):
                    ref = free_fit_per_series(s, panel.grid, (start, start + length - 1))
                    assert abs(r2[offset, i] - ref.r2) <= 1e-12
                    assert abs(alpha[offset, i] - ref.alpha) <= 1e-12
                    assert abs(intercept[offset, i] - ref.intercept) <= 1e-12 * abs(ref.intercept)

    @settings(max_examples=60, deadline=None)
    @given(case=random_panels())
    def test_selection_matches_brute_force(self, case):
        panel, lengths = case
        assert search_interval(panel, lengths).best_window == brute_force_search(panel, lengths)

    def test_all_windows_tie_on_exact_exponentials(self):
        # Every window scores exactly 1.0, so the tie rule alone decides:
        # earliest start, then shortest length. A shortcut R^2 of
        # Sxy^2 / (Stt * SST) lands within rounding of 1 instead and would
        # pick whichever window happened to round highest.
        panel = exponential_panel([0.003, 0.009, 0.017], n_points=90, start_month=12)
        logs_t = np.log(np.vstack([s.values for s in panel.series])).T.copy()
        for length in DEFAULT_WINDOW_LENGTHS:
            assert np.all(_free_ols(logs_t, length)[2] == 1.0)
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
            s, grid = series_on([value] * length)
            alpha, _, r2 = _free_ols(np.log(np.full((length, 1), value)), length)
            assert alpha[0, 0] == 0.0 and r2[0, 0] == 1.0
            free = fit_window_free(s, grid, (0, length - 1))
            assert free.alpha == 0.0 and free.r2 == 1.0
            fixed = fit_window_fixed(s, grid, (0, length - 1))
            assert fixed.clamped and fixed.r2 == 1.0
            assert free_fit_per_series(s, grid, (0, length - 1)).r2 == 1.0


class TestEstimateAlphas:
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
        assert [f.series_name for f in est.fits] == ["zz", "aa"]
        assert est.fits[0].alpha == pytest.approx(0.012, rel=1e-10)


TRUTH = default_truth()
REPLICATE_INDEX = st.integers(min_value=0, max_value=10_000)
CHAIN = settings(max_examples=15, deadline=None)


def replicate_panel(index):
    return generate_replicate(TRUTH, _replicate_rng(0, index)).panel


def fit_chain(panel):
    """Window search, fixed-intercept rates and warps, as in one study replicate; rates and warps by name."""
    search = search_interval(panel, DEFAULT_WINDOW_LENGTHS)
    estimates = estimate_alphas(panel, search.best_window)
    warps = compute_warp_set(
        panel, estimates, window_start_month=panel.grid.start_month, t0_month=search.best_window[1]
    )
    rates = {f.series_name: f.alpha for f in estimates.fits}
    return search, rates, {w.series_name: w.values for w in warps.warps}


class TestChainInvariances:
    """Metamorphic relations of the model on default-truth replicates, drawn by index."""

    @CHAIN
    @given(index=REPLICATE_INDEX, order=st.permutations(range(TRUTH.n)))
    def test_series_permutation(self, index, order):
        panel = replicate_panel(index)
        search, rates, warps = fit_chain(panel)
        search_p, rates_p, warps_p = fit_chain(Panel.from_series(panel.grid, tuple(panel.series[i] for i in order)))
        assert search_p.best_window == search.best_window
        assert search_p.mean_r2 == search.mean_r2
        assert rates_p == rates
        assert all(np.array_equal(warps_p[name], warps[name]) for name in warps)

    @CHAIN
    @given(index=REPLICATE_INDEX, k=st.integers(min_value=-143, max_value=500))
    def test_start_month_shift(self, index, k):
        panel = replicate_panel(index)
        search, rates, _ = fit_chain(panel)
        shifted = Panel.from_series(TimeGrid(panel.grid.start_month + k, panel.grid.n_points), panel.series)
        search_s, rates_s, _ = fit_chain(shifted)
        assert search_s.best_window == (search.best_window[0] + k, search.best_window[1] + k)
        assert search_s.mean_r2 == search.mean_r2
        assert rates_s == rates

    @CHAIN
    @given(index=REPLICATE_INDEX, scales=st.lists(st.floats(1e-3, 1e3), min_size=TRUTH.n, max_size=TRUTH.n))
    def test_per_series_scaling(self, index, scales):
        panel = replicate_panel(index)
        search, rates, warps = fit_chain(panel)
        scaled = Panel.from_series(panel.grid, tuple(PriceSeries(s.name, c * s.values) for s, c in zip(panel.series, scales)))
        search_c, rates_c, warps_c = fit_chain(scaled)
        assert search_c.best_window == search.best_window
        for name, alpha in rates.items():
            assert abs(rates_c[name] - alpha) <= 1e-12 * alpha
            assert np.abs(warps_c[name] - warps[name]).max() <= 1e-12

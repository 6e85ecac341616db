import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpgrowth.errors import ConfigError, GridError, MissingDataError, RateError, SchemaError
from warpgrowth.growthfit import estimate_alphas, search_interval
from warpgrowth.timeseries import Panel, PriceSeries, TimeGrid
from warpgrowth.warping import (
    WarpFunction,
    baseline_growth,
    compute_warp,
    compute_warp_set,
    identity_deviation,
    second_order_diagnostic,
    warps_from_csv,
    warps_to_csv,
)

from conftest import exponential_panel


class TestComputeWarp:
    def test_exact_exponential_gives_identity(self):
        grid = TimeGrid(144, 176)
        s = baseline_growth(0.0075, 100.0, grid)
        w = compute_warp(s, grid, 0.0075)
        assert np.abs(w.values - w.grid.points).max() < 1e-12

    def test_constant_series_gives_zero(self):
        grid = TimeGrid(0, 20)
        s = PriceSeries("flat", np.full(20, 150.0))
        w = compute_warp(s, grid, 0.01)
        assert np.all(w.values == 0.0)

    def test_price_below_start_gives_negative_warp(self):
        grid = TimeGrid(0, 4)
        s = PriceSeries("dip", np.array([100.0, 110.0, 90.0, 95.0]))
        w = compute_warp(s, grid, 0.01)
        assert w.values[2] < 0.0 and w.values[3] < 0.0
        assert w.values[1] > 0.0

    def test_anchor_is_exact_zero(self):
        grid = TimeGrid(0, 10)
        s = PriceSeries("a", 100.0 * np.exp(0.01 * np.arange(10.0)) * (1 + 0.02 * np.cos(np.arange(10.0))))
        w = compute_warp(s, grid, 0.01)
        assert w.values[0] == 0.0

    def test_window_start_slices_analysis_window(self):
        grid = TimeGrid(100, 30)
        s = baseline_growth(0.01, 50.0, grid)
        w = compute_warp(s, grid, 0.01, window_start_month=110)
        assert w.grid.n_points == 20
        assert w.grid.start_month == 110
        assert np.abs(w.values - w.grid.points).max() < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(scale=st.floats(min_value=1e-4, max_value=1e6))
    def test_scale_invariance(self, scale):
        grid = TimeGrid(0, 24)
        t = np.arange(24.0)
        base = 100.0 * np.exp(0.008 * t + 0.05 * np.sin(t / 3.0))
        w1 = compute_warp(PriceSeries("a", base), grid, 0.008)
        w2 = compute_warp(PriceSeries("a", scale * base), grid, 0.008)
        assert np.abs(w1.values - w2.values).max() <= 1e-12

    def test_local_monotonicity_matches_price_direction(self):
        rng = np.random.default_rng(11)
        grid = TimeGrid(0, 50)
        x = 100.0 * np.exp(np.cumsum(rng.normal(0.002, 0.01, 50)))
        w = compute_warp(PriceSeries("a", x), grid, 0.004)
        assert np.array_equal(np.sign(np.diff(w.values)), np.sign(np.diff(x)))

    def test_nonpositive_alpha_rejected(self):
        grid = TimeGrid(0, 5)
        s = PriceSeries("a", np.full(5, 10.0))
        for alpha in (0.0, -0.01):
            with pytest.raises(RateError):
                compute_warp(s, grid, alpha)

    def test_missing_values_rejected(self):
        grid = TimeGrid(0, 5)
        vals = np.array([10.0, np.nan, 10.0, 10.0, 10.0])
        s = PriceSeries("a", vals, np.array([False, True, False, False, False]))
        with pytest.raises(MissingDataError):
            compute_warp(s, grid, 0.01)

    def test_t0_normalized_recorded(self):
        grid = TimeGrid(144, 176)
        s = baseline_growth(0.01, 90.0, grid)
        w = compute_warp(s, grid, 0.01, t0_month=167)
        assert w.t0_normalized == pytest.approx(23.0 / 175.0, abs=1e-15)

    def test_identity_deviation_exact_model(self):
        grid = TimeGrid(144, 176)
        s = baseline_growth(0.0075, 100.0, grid)
        w = compute_warp(s, grid, 0.0075, t0_month=167)
        assert identity_deviation(w) < 1e-10


class TestBaselineGrowth:
    def test_zero_rate_constant(self):
        grid = TimeGrid(0, 12)
        z = baseline_growth(0.0, 42.0, grid)
        assert np.all(z.values == 42.0)

    def test_twelve_month_value(self):
        grid = TimeGrid(0, 13)
        z = baseline_growth(0.0075, 100.0, grid)
        assert z.values[12] == pytest.approx(100.0 * math.exp(0.09), rel=1e-14)
        assert z.values[12] == pytest.approx(109.417, abs=5e-4)

    def test_round_trip_identity_warp(self):
        grid = TimeGrid(0, 30)
        z = baseline_growth(0.012, 85.0, grid)
        w = compute_warp(z, grid, 0.012)
        assert np.abs(w.values - w.grid.points).max() <= 1e-12

    def test_invalid_inputs(self):
        grid = TimeGrid(0, 5)
        with pytest.raises(RateError):
            baseline_growth(float("nan"), 100.0, grid)
        with pytest.raises(ConfigError):
            baseline_growth(0.01, 0.0, grid)


class TestWarpSetPipeline:
    def test_clamped_rate_flagged_unreliable(self):
        t = np.arange(40.0)
        decline = PriceSeries("down", 100.0 * np.exp(-0.01 * t))
        growth = PriceSeries("up", 100.0 * np.exp(0.01 * t))
        panel = Panel.from_series(TimeGrid(0, 40), (growth, decline))
        est = estimate_alphas(panel, (0, 23))
        ws = compute_warp_set(panel, est, t0_month=23)
        assert ws.get("up").reliable
        assert not ws.get("down").reliable

    def test_csv_round_trip(self):
        panel = exponential_panel([0.004, 0.009, 0.013], n_points=40)
        est = estimate_alphas(panel, (panel.grid.start_month, panel.grid.start_month + 23))
        ws = compute_warp_set(panel, est, t0_month=panel.grid.start_month + 23)
        again = warps_from_csv(warps_to_csv(ws))
        assert again.names == ws.names
        for a, b in zip(again.warps, ws.warps):
            assert np.array_equal(a.values, b.values)


def warp_csv_text(t, columns):
    lines = ["t_normalized," + ",".join(f"w{j}" for j in range(len(columns)))]
    lines += [",".join(f"{v:.17g}" for v in (t[i], *(c[i] for c in columns))) for i in range(len(t))]
    return "\n".join(lines) + "\n"


class TestWarpCsvGrid:
    def test_linspace_grid_accepted(self):
        t = np.linspace(0.0, 1.0, 11)
        ws = warps_from_csv(warp_csv_text(t, [t, 2 * t]))
        assert ws.grid.n_points == 11 and ws.names == ("w0", "w1")

    def test_truncated_file_rejected(self):
        # The first 7 rows of an 11-point export are not a 7-point grid on [0, 1].
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(GridError, match="row 3: t_normalized 0.1 is not point 1 of a uniform 7-point grid"):
            warps_from_csv(warp_csv_text(t[:7], [t[:7]]))

    def test_shifted_grid_rejected(self):
        t = np.linspace(0.0, 1.0, 11) + 0.01
        with pytest.raises(GridError, match="row 2: "):
            warps_from_csv(warp_csv_text(t, [t]))

    def test_other_spacing_rejected_at_first_mismatch(self):
        t = np.linspace(0.0, 1.0, 11) ** 2
        with pytest.raises(GridError, match="row 3: "):
            warps_from_csv(warp_csv_text(t, [t]))

    def test_rounding_within_tolerance_accepted(self):
        t = np.linspace(0.0, 1.0, 11)
        ws = warps_from_csv(warp_csv_text(t + 5e-13, [t]))
        assert ws.grid.n_points == 11

    def test_single_row_rejected(self):
        with pytest.raises(GridError, match="at least 2 rows"):
            warps_from_csv("t_normalized,a\n0,0\n")

    def test_nan_grid_value_rejected(self):
        with pytest.raises(GridError, match="row 3: t_normalized nan"):
            warps_from_csv("t_normalized,a\n0,0\nnan,1\n")

    def test_ragged_row_rejected(self):
        with pytest.raises(SchemaError, match="row 3"):
            warps_from_csv("t_normalized,a\n0,0\n1\n")


def _diag_residual(m, hfun, alpha_norm, xfun=None):
    u = np.linspace(0.0, 1.0, m)
    h = hfun(u)
    alpha_month = alpha_norm / (m - 1)
    x = 100.0 * np.exp(alpha_norm * h) if xfun is None else xfun(u)
    grid = TimeGrid(0, m, normalized=True)
    warp = WarpFunction("s", grid, h, alpha_month)
    return second_order_diagnostic(PriceSeries("s", x), warp, alpha_month)


class TestSecondOrderDiagnostic:
    HFUN = staticmethod(lambda u: u + 0.15 * np.sin(2.0 * np.pi * u) - 0.1 * u**2)
    ALPHA = 1.3  # per normalized window, like 0.0074/month over 175 months

    def test_exact_model_second_order_convergence(self):
        # Halving the grid spacing must shrink the residual at order >= 1.9.
        maxima = [np.abs(_diag_residual(m, self.HFUN, self.ALPHA)).max() for m in (45, 89, 177)]
        orders = [math.log(a / b) / math.log(2.0) for a, b in zip(maxima, maxima[1:])]
        assert all(o >= 1.9 for o in orders), orders

    def test_exponential_series_near_zero_residual(self):
        # Identity warp: h'' = 0 and X'/X constant, so only boundary-stencil
        # crumbs of size O(alpha^3 dt^2) remain.
        r = np.abs(_diag_residual(177, lambda u: u, self.ALPHA))
        assert r.max() < 1e-3
        assert r[3:-3].max() < 1e-9

    def test_time_varying_rate_flagged(self):
        # Underlying rate alpha(t) = a0 (1 + t/2) gives log X = a0 (h + h^2/4);
        # the residual must exceed 10x the constant-rate calibration.
        a0 = self.ALPHA
        xfun = lambda u: 100.0 * np.exp(a0 * (self.HFUN(u) + self.HFUN(u) ** 2 / 4.0))
        calibration = np.abs(_diag_residual(176, self.HFUN, a0)).max()
        violation = np.abs(_diag_residual(176, self.HFUN, a0, xfun=xfun)).max()
        assert violation > 10.0 * calibration

    def test_grid_too_small(self):
        grid = TimeGrid(0, 4, normalized=True)
        warp = WarpFunction("s", grid, np.linspace(0, 1, 4), 0.01)
        with pytest.raises(GridError):
            second_order_diagnostic(PriceSeries("s", np.full(4, 10.0)), warp, 0.01)

    def test_length_mismatch(self):
        grid = TimeGrid(0, 6, normalized=True)
        warp = WarpFunction("s", grid, np.linspace(0, 1, 6), 0.01)
        with pytest.raises(GridError):
            second_order_diagnostic(PriceSeries("s", np.full(5, 10.0)), warp, 0.01)


class TestPipelineIdentityAnchor:
    def test_full_pipeline_on_exact_panel(self):
        panel = exponential_panel([0.003 + 0.015 * i / 19 for i in range(20)], n_points=176)
        res = search_interval(panel)
        est = estimate_alphas(panel, res.best_window)
        ws = compute_warp_set(panel, est, t0_month=res.best_window[1])
        t = ws.grid.points
        for w in ws.warps:
            assert np.abs(w.values - t).max() < 1e-10
            assert identity_deviation(w) < 1e-10

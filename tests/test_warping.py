import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpgrowth.errors import ConfigError, GridError, MissingDataError, NumericalError, RateError, SchemaError
from warpgrowth.growthfit import estimate_alphas, search_interval
from warpgrowth.timeseries import Panel, TimeGrid
from warpgrowth.warping import (
    WarpSet,
    baseline_growth,
    compute_warp_set,
    identity_deviation,
    second_order_diagnostic,
    warps_from_csv,
    warps_to_csv,
)

from conftest import exponential_panel, one_series_panel, rate_fits


def warp_of(values, alpha, start_month=0, window_start_month=None, t0_month=None, missing=None):
    """The warp set of one series from ``start_month`` at rate ``alpha``."""
    panel = one_series_panel(values, start_month, missing)
    return compute_warp_set(panel, rate_fits(panel.names, [alpha]), window_start_month, t0_month)


class TestComputeWarp:
    def test_exact_exponential_gives_identity(self):
        s = baseline_growth(0.0075, 100.0, TimeGrid(144, 176))
        w = warp_of(s.values, 0.0075, 144)
        assert np.abs(w.values - w.grid.points).max() < 1e-12

    def test_constant_series_gives_zero(self):
        w = warp_of(np.full(20, 150.0), 0.01)
        assert np.all(w.values == 0.0)

    def test_price_below_start_gives_negative_warp(self):
        h = warp_of([100.0, 110.0, 90.0, 95.0], 0.01).values[0]
        assert h[2] < 0.0 and h[3] < 0.0
        assert h[1] > 0.0

    def test_anchor_is_exact_zero(self):
        w = warp_of(100.0 * np.exp(0.01 * np.arange(10.0)) * (1 + 0.02 * np.cos(np.arange(10.0))), 0.01)
        assert w.values[0, 0] == 0.0

    def test_window_start_slices_analysis_window(self):
        s = baseline_growth(0.01, 50.0, TimeGrid(100, 30))
        w = warp_of(s.values, 0.01, 100, window_start_month=110)
        assert w.grid.n_points == 20
        assert w.grid.start_month == 110
        assert np.abs(w.values - w.grid.points).max() < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(scale=st.floats(min_value=1e-4, max_value=1e6))
    def test_scale_invariance(self, scale):
        t = np.arange(24.0)
        base = 100.0 * np.exp(0.008 * t + 0.05 * np.sin(t / 3.0))
        w1 = warp_of(base, 0.008)
        w2 = warp_of(scale * base, 0.008)
        assert np.abs(w1.values - w2.values).max() <= 1e-12

    def test_local_monotonicity_matches_price_direction(self):
        rng = np.random.default_rng(11)
        x = 100.0 * np.exp(np.cumsum(rng.normal(0.002, 0.01, 50)))
        w = warp_of(x, 0.004)
        assert np.array_equal(np.sign(np.diff(w.values[0])), np.sign(np.diff(x)))

    def test_nonpositive_alpha_rejected(self):
        for alpha in (0.0, -0.01):
            with pytest.raises(RateError):
                warp_of(np.full(5, 10.0), alpha)

    def test_overflowing_warp_names_the_series(self):
        panel = exponential_panel([0.01, 0.02, 0.03], n_points=60, names=["a", "b", "c"])
        fits = rate_fits(panel.names, [0.01, 1e-320, 0.03])
        with np.errstate(all="raise"), pytest.raises(RateError, match="series 'b'"):
            compute_warp_set(panel, fits)

    def test_missing_values_rejected(self):
        vals = np.array([10.0, np.nan, 10.0, 10.0, 10.0])
        with pytest.raises(MissingDataError):
            warp_of(vals, 0.01, missing=np.array([False, True, False, False, False]))

    def test_t0_normalized_recorded(self):
        s = baseline_growth(0.01, 90.0, TimeGrid(144, 176))
        w = warp_of(s.values, 0.01, 144, t0_month=167)
        assert w.t0_normalized[0] == pytest.approx(23.0 / 175.0, abs=1e-15)

    def test_identity_deviation_exact_model(self):
        s = baseline_growth(0.0075, 100.0, TimeGrid(144, 176))
        w = warp_of(s.values, 0.0075, 144, t0_month=167)
        assert identity_deviation(w)[0] < 1e-10

    def test_identity_deviation_per_row(self):
        # Row 0 deviates by 0.1 on [0, t0]; row 1 has t0 before the grid and is measured at t = 0.
        grid = TimeGrid(0, 11, normalized=True)
        t = grid.points
        rows = np.vstack([t + 0.1, t + 0.2 * t])
        warps = WarpSet(grid, ("a", "b"), rows, [1.0, 1.0], [0.5, -0.1], [True, True])
        np.testing.assert_allclose(identity_deviation(warps), [0.1, 0.0], rtol=1e-14, atol=0.0)


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
        z = baseline_growth(0.012, 85.0, TimeGrid(0, 30))
        w = warp_of(z.values, 0.012)
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
        panel = Panel(TimeGrid(0, 40), ("up", "down"), [100.0 * np.exp(0.01 * t), 100.0 * np.exp(-0.01 * t)])
        est = estimate_alphas(panel, (0, 23))
        ws = compute_warp_set(panel, est, t0_month=23)
        assert ws.reliable.tolist() == [True, False]

    def test_csv_round_trip(self):
        panel = exponential_panel([0.004, 0.009, 0.013], n_points=40)
        est = estimate_alphas(panel, (panel.grid.start_month, panel.grid.start_month + 23))
        ws = compute_warp_set(panel, est, t0_month=panel.grid.start_month + 23)
        again = warps_from_csv(warps_to_csv(ws))
        assert again.names == ws.names
        assert np.array_equal(again.values, ws.values)


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
    warp = WarpSet(TimeGrid(0, m, normalized=True), ("s",), h[None], [alpha_month], [0.0], [True])
    return second_order_diagnostic(one_series_panel(x), warp)[0]


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

    def test_overflowing_differences_name_the_series(self):
        x = np.array([100.0 * np.exp(0.01 * np.arange(60.0))] * 3)
        x[1, 40:42] = [1e307, 1e-300]
        panel = Panel(TimeGrid(0, 60), ("a", "b", "c"), x)
        warps = compute_warp_set(panel, rate_fits(panel.names, [0.01] * 3))
        with np.errstate(all="raise"), pytest.raises(NumericalError, match="series 'b'"):
            second_order_diagnostic(panel, warps)

    def test_grid_too_small(self):
        warp = WarpSet(TimeGrid(0, 4, normalized=True), ("s",), [np.linspace(0, 1, 4)], [0.01], [0.0], [True])
        with pytest.raises(GridError):
            second_order_diagnostic(one_series_panel(np.full(4, 10.0)), warp)

    def test_length_mismatch(self):
        warp = WarpSet(TimeGrid(0, 6, normalized=True), ("s",), [np.linspace(0, 1, 6)], [0.01], [0.0], [True])
        with pytest.raises(GridError):
            second_order_diagnostic(one_series_panel(np.full(5, 10.0)), warp)


class TestPipelineIdentityAnchor:
    def test_full_pipeline_on_exact_panel(self):
        panel = exponential_panel([0.003 + 0.015 * i / 19 for i in range(20)], n_points=176)
        res = search_interval(panel)
        est = estimate_alphas(panel, res.best_window)
        ws = compute_warp_set(panel, est, t0_month=res.best_window[1])
        assert np.abs(ws.values - ws.grid.points).max() < 1e-10
        assert identity_deviation(ws).max() < 1e-10

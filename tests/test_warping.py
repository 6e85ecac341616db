import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpgrowth.cli import main
from warpgrowth.errors import ConfigError, GridError, MissingDataError, NumericalError, RateError, SchemaError
from warpgrowth.growthfit import estimate_alphas, search_interval
from warpgrowth.timeseries import Panel, TimeGrid
from warpgrowth.warping import (
    WarpSet,
    baseline_growth,
    compute_warp_set,
    identity_deviation,
    warps_from_csv,
    warps_to_csv,
)

from conftest import MALFORMED_UNIT_TABLES, edit_table, exponential_panel, one_series_panel, rate_fits


def warp_of(values, alpha, start_month=0, window_start_month=None, t0_month=None, missing=None):
    """The warp set of one series from ``start_month`` at rate ``alpha``."""
    panel = one_series_panel(values, start_month, missing)
    return compute_warp_set(panel, rate_fits(panel.names, [alpha]), window_start_month, t0_month)


class TestComputeWarp:
    def test_exact_exponential_gives_identity(self):
        s = baseline_growth(0.0075, 100.0, TimeGrid(144, 176))
        w = warp_of(s.values[0], 0.0075, 144)
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
        w = warp_of(s.values[0], 0.01, 100, window_start_month=110)
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
        w = warp_of(s.values[0], 0.01, 144, t0_month=167)
        assert w.t0_normalized == pytest.approx(23.0 / 175.0, abs=1e-15)

    def test_identity_deviation_exact_model(self):
        s = baseline_growth(0.0075, 100.0, TimeGrid(144, 176))
        w = warp_of(s.values[0], 0.0075, 144, t0_month=167)
        assert identity_deviation(w)[0] < 1e-10

    def test_anchor_mean_covers_every_month_of_the_window(self):
        # Warps that start at the window start, as the CLI's do, with t0 at the
        # window end: over all 411 windows of lengths 24, 36 and 60 on a
        # 176-month grid, the mean must take every month of the window, bit for
        # bit as a mean masked by month index. A t0 of end / elapsed months can
        # land one ulp below the grid point and drop the last month.
        rng = np.random.default_rng(3)
        panel = exponential_panel([0.004, 0.008, 0.012])
        panel = Panel(panel.grid, panel.names, panel.values * np.exp(0.01 * rng.standard_normal((3, 176))))
        fits = rate_fits(panel.names, [0.004, 0.008, 0.012])
        windows, short = 0, []
        for length in (24, 36, 60):
            for start in range(144, 144 + 176 - length + 1):
                warps = compute_warp_set(panel, fits, start, start + length - 1)
                t = warps.grid.points
                kept = np.arange(t.size) < length
                expected = np.where(kept, np.abs(warps.values - t), 0.0).sum(axis=1) / length
                windows += 1
                if identity_deviation(warps).tobytes() != expected.tobytes():
                    short.append((start, length))
        assert (windows, short) == (411, [])

    def test_identity_deviation_per_row(self):
        # Row 0 deviates by 0.1 everywhere, row 1 by 0.2 t: on [0, 0.5] that is a mean of 0.05.
        # A t0 off [0, 1] is no warp set's: it bounds no anchor interval on the grid.
        grid = TimeGrid(0, 11)
        t = grid.points
        rows = np.vstack([t + 0.1, t + 0.2 * t])
        warps = WarpSet(grid, ("a", "b"), rows, 0.5)
        np.testing.assert_allclose(identity_deviation(warps), [0.1, 0.05], rtol=1e-14, atol=0.0)
        for t0 in (-0.1, 1.5, float("nan")):
            with pytest.raises(GridError, match="t0_normalized must lie in"):
                WarpSet(grid, ("a", "b"), rows, t0)

    @pytest.mark.parametrize("window_start, t0", [(None, 400), (170, 150)], ids=["past-the-grid", "before-the-window"])
    def test_t0_off_the_window_is_grid_error(self, window_start, t0):
        # On a 60-month panel from month 144, these t0 would sit at 4.34 (past
        # the grid) or -0.61 (before the window start) on the unit interval.
        panel = exponential_panel([0.01, 0.02], n_points=60)
        fits = rate_fits(panel.names, [0.01, 0.03])
        with pytest.raises(GridError, match=f"month {t0} "):
            compute_warp_set(panel, fits, window_start, t0)

    def test_identity_deviation_overflow_names_the_series(self):
        # Each warp value is finite, but the sum over the anchor interval overflows for row 'b'.
        grid = TimeGrid(0, 11)
        rows = np.vstack([grid.points, np.full(11, 1e308), grid.points])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="series 'b': anchor deviation is not finite"):
                identity_deviation(WarpSet(grid, ("a", "b", "c"), rows, 0.5))


class TestBaselineGrowth:
    def test_zero_rate_constant(self):
        grid = TimeGrid(0, 12)
        z = baseline_growth(0.0, 42.0, grid)
        assert z.names[0] == "baseline" and z.grid == grid
        assert np.all(z.values[0] == 42.0)

    def test_twelve_month_value(self):
        grid = TimeGrid(0, 13)
        z = baseline_growth(0.0075, 100.0, grid)
        assert z.values[0, 12] == pytest.approx(100.0 * math.exp(0.09), rel=1e-14)
        assert z.values[0, 12] == pytest.approx(109.417, abs=5e-4)

    def test_round_trip_identity_warp(self):
        z = baseline_growth(0.012, 85.0, TimeGrid(0, 30))
        w = warp_of(z.values[0], 0.012)
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
        assert est.fits.clamped.tolist() == [False, True]
        ws = compute_warp_set(panel, est, t0_month=23)
        assert ws.names == panel.names and np.isfinite(ws.values).all()

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

    def test_repeated_name_is_a_schema_error_listing_it(self):
        with pytest.raises(SchemaError, match=r"duplicate series names in warp set: \['a'\]"):
            warps_from_csv("t_normalized,a,b,a\n0,0,0,0\n1,1,1,1\n")

    @pytest.mark.parametrize("edit, message", MALFORMED_UNIT_TABLES)
    def test_malformed_table_exits_2_through_fpca(self, tmp_path, capsys, edit, message):
        t = np.linspace(0.0, 1.0, 11)
        path = tmp_path / "warps.csv"
        path.write_text(edit_table(warp_csv_text(t, [t, 2 * t]), edit))
        out = tmp_path / "out"
        assert main(["fpca", "--input", str(path), "--output-dir", str(out), "--k", "1"]) == 2
        err = capsys.readouterr().err
        assert f"input error: {path}: " in err and message.format(col="w0") in err
        assert not out.exists()


class TestPipelineIdentityAnchor:
    def test_full_pipeline_on_exact_panel(self):
        panel = exponential_panel([0.003 + 0.015 * i / 19 for i in range(20)], n_points=176)
        res = search_interval(panel)
        est = estimate_alphas(panel, res.best_window)
        ws = compute_warp_set(panel, est, t0_month=res.best_window[1])
        assert np.abs(ws.values - ws.grid.points).max() < 1e-10
        assert identity_deviation(ws).max() < 1e-10

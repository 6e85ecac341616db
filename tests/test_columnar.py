"""Property tests of the columnar layer: batched kernels against their one-row cases.

``Panel`` and ``WarpSet`` hold n x m arrays, and ``compute_warp_set``,
``second_order_diagnostic`` and ``restrict`` work on all rows at once. Each
batched row must be bit-equal to the one-row computation on that series.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpgrowth.errors import EmptyPanelError
from warpgrowth.growthfit import WindowFit
from warpgrowth.timeseries import Panel, PriceSeries, TimeGrid, restrict
from warpgrowth.warping import WarpSet, compute_warp, compute_warp_set, second_order_diagnostic


@st.composite
def panels(draw, gap_share=0.0):
    """A random panel: positive random-walk levels, gaps at about ``gap_share`` of the cells."""
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=6, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    logs = np.log(rng.uniform(1.0, 500.0, (n, 1))) + np.cumsum(rng.normal(0.005, 0.03, (n, m)), axis=1)
    missing = rng.random((n, m)) < gap_share
    values = np.where(missing, np.nan, np.exp(logs))
    grid = TimeGrid(draw(st.integers(min_value=1, max_value=400)), m)
    return Panel(grid, tuple(f"s{i}" for i in range(n)), values, missing), rng


def warp_set_of(panel, rng, draw):
    """Warps of ``panel`` at random rates and clamp flags, from a random start with at least 5 points."""
    grid = panel.grid
    start = grid.start_month + draw(st.integers(min_value=0, max_value=grid.n_points - 5))
    t0 = draw(st.one_of(st.none(), st.integers(min_value=start, max_value=grid.end_month)))
    alphas = rng.uniform(1e-4, 0.05, panel.n_series)
    clamped = rng.random(panel.n_series) < 0.3
    fits = [WindowFit(name, (start, grid.end_month), float(a), 0.0, 1.0, bool(c))
            for name, a, c in zip(panel.names, alphas, clamped)]
    return compute_warp_set(panel, fits, start, t0), fits, start, t0


class TestBatchedEqualsOneRow:
    @settings(max_examples=60, deadline=None)
    @given(drawn=panels(), data=st.data())
    def test_warp_set_rows_are_compute_warp(self, drawn, data):
        panel, rng = drawn
        warps, fits, start, t0 = warp_set_of(panel, rng, data.draw)
        assert warps.names == panel.names
        for i, (s, f) in enumerate(zip(panel.series, fits)):
            one = compute_warp(s, panel.grid, f.alpha, start, t0, not f.clamped)
            assert one.grid == warps.grid
            assert one.values.tobytes() == warps.values[i].tobytes()
            assert (one.alpha_used, one.t0_normalized, one.reliable) == (
                warps.alpha_used[i], warps.t0_normalized[i], warps.reliable[i])

    @settings(max_examples=60, deadline=None)
    @given(drawn=panels(), data=st.data())
    def test_diagnostic_rows_are_the_one_row_call(self, drawn, data):
        panel, rng = drawn
        warps, fits, start, _ = warp_set_of(panel, rng, data.draw)
        batched = second_order_diagnostic(panel, warps)
        assert batched.shape == warps.values.shape
        lo = panel.grid.index_of(start)
        for i, (s, w, f) in enumerate(zip(panel.series, warps.warps, fits)):
            row = PriceSeries(s.name, s.values[lo:])
            assert second_order_diagnostic(row, w).tobytes() == batched[i].tobytes()
            assert second_order_diagnostic(row, w, f.alpha).tobytes() == batched[i].tobytes()


class TestRestrict:
    @settings(max_examples=80, deadline=None)
    @given(drawn=panels(gap_share=0.08), data=st.data())
    def test_drops_exactly_the_gappy_series(self, drawn, data):
        panel, _ = drawn
        lo = data.draw(st.integers(min_value=0, max_value=panel.grid.n_points - 2))
        hi = data.draw(st.integers(min_value=lo + 1, max_value=panel.grid.n_points - 1))
        start = panel.grid.start_month
        gappy = [name for name, row in zip(panel.names, panel.missing) if row[lo : hi + 1].any()]
        if len(gappy) == panel.n_series:
            with pytest.raises(EmptyPanelError):
                restrict(panel, start + lo, start + hi)
            return
        sub, dropped = restrict(panel, start + lo, start + hi)
        assert dropped == gappy
        assert sub.names == tuple(name for name in panel.names if name not in gappy)
        assert (sub.grid.start_month, sub.grid.n_points) == (start + lo, hi - lo + 1)
        for name, values, missing in zip(sub.names, sub.values, sub.missing):
            i = panel.names.index(name)
            assert values.tobytes() == panel.values[i, lo : hi + 1].tobytes()
            assert not missing.any()
        assert sub.values.flags.c_contiguous and not sub.values.flags.writeable


class TestRowViewsRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(drawn=panels(gap_share=0.1))
    def test_panel_from_series(self, drawn):
        panel, _ = drawn
        again = Panel.from_series(panel.grid, panel.series)
        assert again.grid == panel.grid and again.names == panel.names
        assert again.values.tobytes() == panel.values.tobytes()
        assert again.missing.tobytes() == panel.missing.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(drawn=panels(), data=st.data())
    def test_warp_set_from_warps(self, drawn, data):
        panel, rng = drawn
        warps, _, _, _ = warp_set_of(panel, rng, data.draw)
        again = WarpSet.from_warps(warps.grid, warps.warps)
        assert again.grid == warps.grid and again.names == warps.names
        for key in ("values", "alpha_used", "t0_normalized", "reliable"):
            assert getattr(again, key).tobytes() == getattr(warps, key).tobytes(), key

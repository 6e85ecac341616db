"""Property tests of the columnar layer: batched kernels against their one-row cases.

``Panel`` and ``WarpSet`` hold n x m arrays, and ``estimate_alphas``,
``compute_warp_set``, ``identity_deviation``, ``project_scores`` and
``restrict`` work on all rows at once. Each batched row must be bit-equal
to the same call on a one-row panel or warp set of that series.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpgrowth.errors import EmptyPanelError
from warpgrowth.fpca import FpcaModel, project_scores
from warpgrowth.growthfit import estimate_alphas
from warpgrowth.timeseries import Panel, TimeGrid, restrict
from warpgrowth.warping import WarpSet, compute_warp_set, identity_deviation

from conftest import rate_fits


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
    return Panel(grid, tuple(f"s{i}" for i in range(n)), values), rng


def warp_set_of(panel, rng, draw):
    """Warps of ``panel`` at random rates fitted on a random window, whose end sets t0."""
    grid = panel.grid
    end = draw(st.integers(min_value=grid.start_month, max_value=grid.end_month))
    fits = rate_fits(panel.names, rng.uniform(1e-4, 0.05, panel.n_series), (grid.start_month, end))
    return compute_warp_set(panel, fits), fits


def row_of(panel, i):
    """Series ``i`` of ``panel`` as a one-row panel on the same grid."""
    return Panel(panel.grid, panel.names[i : i + 1], panel.values[i : i + 1])


def warp_row(warps, i):
    """Row ``i`` of ``warps`` as a one-row warp set."""
    return WarpSet(warps.grid, warps.names[i : i + 1], warps.values[i : i + 1], warps.t0_index)


class TestBatchedEqualsOneRow:
    @settings(max_examples=60, deadline=None)
    @given(drawn=panels(), data=st.data())
    def test_warp_set_rows_are_one_row_warp_sets(self, drawn, data):
        panel, rng = drawn
        warps, fits = warp_set_of(panel, rng, data.draw)
        assert warps.names == panel.names
        for i in range(panel.n_series):
            one = compute_warp_set(row_of(panel, i), fits)
            assert (one.grid, one.t0_index) == (warps.grid, warps.t0_index)
            assert one.values[0].tobytes() == warps.values[i].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(drawn=panels(), data=st.data())
    def test_diagnostic_rows_are_the_one_row_call(self, drawn, data):
        # The per-series anchor deviation that ``warpgrowth diagnose`` reports.
        panel, rng = drawn
        warps = warp_set_of(panel, rng, data.draw)[0]
        batched = identity_deviation(warps)
        assert batched.shape == (panel.n_series,)
        for i in range(panel.n_series):
            assert identity_deviation(warp_row(warps, i)).tobytes() == batched[i : i + 1].tobytes()


    @settings(max_examples=60, deadline=None)
    @given(drawn=panels(), data=st.data())
    def test_rate_fit_rows_are_one_row_fits(self, drawn, data):
        panel, _ = drawn
        grid = panel.grid
        start = data.draw(st.integers(min_value=grid.start_month, max_value=grid.end_month - 2))
        window = (start, data.draw(st.integers(min_value=start + 2, max_value=grid.end_month)))
        fits = estimate_alphas(panel, window)
        for i in range(panel.n_series):
            one = estimate_alphas(row_of(panel, i), window)
            for field in ("alpha", "intercept", "r2", "clamped"):
                assert getattr(one, field).tobytes() == getattr(fits, field)[i : i + 1].tobytes(), field

    @settings(max_examples=60, deadline=None)
    @given(drawn=panels(), data=st.data())
    def test_score_rows_are_one_row_projections(self, drawn, data):
        panel, rng = drawn
        warps = warp_set_of(panel, rng, data.draw)[0]
        m, k = warps.grid.n_points, data.draw(st.integers(min_value=1, max_value=4))
        # A random mean and components: the projection must not care where they came from.
        mean, components = rng.normal(0.5, 0.3, m), rng.normal(0.0, 1.0, (k, m))
        model = FpcaModel(warps.grid, mean, np.zeros(m), components, np.zeros((0, k)), (), np.zeros(0, bool))
        batched = project_scores(warps, model)
        assert batched.shape == (panel.n_series, k)
        for i in range(panel.n_series):
            assert project_scores(warp_row(warps, i), model).tobytes() == batched[i : i + 1].tobytes()


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
    def test_series_views_rebuild_the_panel(self, drawn):
        panel, _ = drawn
        rows = (slice(i, i + 1) for i in range(panel.n_series))
        series = [Panel(panel.grid, panel.names[r], panel.values[r]) for r in rows]
        assert all(s.grid == panel.grid and s.n_series == 1 for s in series)
        again = Panel(panel.grid, [s.names[0] for s in series], [s.values[0] for s in series])
        assert again.grid == panel.grid and again.names == panel.names
        assert again.values.tobytes() == panel.values.tobytes()
        assert again.missing.tobytes() == panel.missing.tobytes()

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpgrowth.errors import EmptyPanelError, GridError, SchemaError
from warpgrowth.timeseries import (
    Panel,
    TimeGrid,
    month_index,
    month_label,
    parse_panel,
    restrict,
    serialize_panel,
)

from conftest import rate_fits, warp_set
from oracles import read_table_per_cell


class TestMonthMath:
    def test_epoch_convention(self):
        assert month_index("1987-01") == 1
        assert month_index("1998-12") == 144
        assert month_index("2000-11") == 167
        assert month_index("2013-07") == 319

    def test_label_roundtrip(self):
        for idx in (1, 12, 13, 144, 319, 600):
            assert month_index(month_label(idx)) == idx

    @pytest.mark.parametrize("bad", ["1998/12", "199812", "1998-13", "1998-00", "abc"])
    def test_malformed_dates(self, bad):
        with pytest.raises(GridError):
            month_index(bad)


class TestTimeGrid:
    def test_requires_two_points(self):
        with pytest.raises(GridError):
            TimeGrid(1, 1)

    def test_normalized_roundtrip_exact(self):
        grid = TimeGrid(144, 176)
        for month in grid.months:
            back = grid.start_month + grid.to_normalized(month) * grid.elapsed_months
            assert abs(back - month) <= 1e-12 * max(1.0, abs(month))

    def test_normalized_points_span_unit_interval(self):
        grid = TimeGrid(144, 176)
        pts = grid.points
        assert pts[0] == 0.0 and pts[-1] == 1.0
        assert np.array_equal(pts, np.linspace(0.0, 1.0, 176))
        assert grid.elapsed_months == 175
        assert [f.name for f in dataclasses.fields(grid)] == ["start_month", "n_points"]


class TestPriceSeries:
    """One market's price series is a one-row Panel, checked as every panel row is."""

    def test_nonpositive_value_rejected(self):
        with pytest.raises(SchemaError, match="series 'A', point 1: value 0.0 is not positive"):
            Panel(TimeGrid(0, 2), ("A",), [[100.0, 0.0]])

    def test_values_are_readonly(self):
        s = Panel(TimeGrid(0, 2), ("A",), [[100.0, 101.0]])
        with pytest.raises(ValueError):
            s.values[0, 0] = 5.0


class TestParsePanel:
    def test_minimal_panel(self):
        panel = parse_panel("date,A\n2000-01,100\n2000-02,101\n")
        assert panel.names == ("A",)
        assert panel.grid.n_points == 2
        assert panel.grid.start_month == month_index("2000-01")
        np.testing.assert_array_equal(panel.values, [[100.0, 101.0]])

    def test_empty_cell_is_missing(self):
        panel = parse_panel("date,A,B\n2000-01,100,5\n2000-02,,6\n")
        assert panel.missing.tolist() == [[False, True], [False, False]]

    def test_zero_value_rejected_with_location(self):
        with pytest.raises(SchemaError, match="row 3.*'A'"):
            parse_panel("date,A\n2000-01,100\n2000-02,0\n")

    def test_negative_value_rejected(self):
        with pytest.raises(SchemaError):
            parse_panel("date,A\n2000-01,100\n2000-02,-1\n")

    def test_unparseable_cell(self):
        with pytest.raises(SchemaError, match="row 2"):
            parse_panel("date,A\n2000-01,oops\n2000-02,100\n")

    def test_non_consecutive_months(self):
        with pytest.raises(GridError, match="non-consecutive"):
            parse_panel("date,A\n2000-01,100\n2000-03,101\n")

    def test_duplicate_header(self):
        with pytest.raises(SchemaError, match="duplicate"):
            parse_panel("date,A,A\n2000-01,100,100\n2000-02,101,101\n")

    def test_missing_date_header(self):
        with pytest.raises(SchemaError):
            parse_panel("month,A\n2000-01,100\n2000-02,101\n")

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("", "empty input"),
            ("date\n2000-01\n2000-02\n", "no series columns"),
            ("date,A,\n2000-01,100,5\n2000-02,101,6\n", "empty series name"),
        ],
    )
    def test_header_without_series_rejected(self, text, problem):
        with pytest.raises(SchemaError, match=problem):
            parse_panel(text)

    def test_single_row_rejected(self):
        with pytest.raises(GridError):
            parse_panel("date,A\n2000-01,100\n")

    def test_ragged_row_rejected(self):
        with pytest.raises(SchemaError, match="row 3"):
            parse_panel("date,A,B\n2000-01,100,5\n2000-02,101\n")

    @pytest.mark.parametrize(
        "cell, problem",
        [
            ("inf", "is not finite"),
            ("Infinity", "is not finite"),
            ("-inf", "is not positive"),
            ("1e-320", "is subnormal"),
            ("nan", "is not positive"),
        ],
    )
    def test_non_finite_and_subnormal_rejected(self, cell, problem):
        # The message names the value, not the cell text: "Infinity" is inf.
        with pytest.raises(SchemaError, match=f"row 3, column 'B': value {float(cell)!r} {problem}"):
            parse_panel(f"date,A,B\n2000-01,100,5\n2000-02,101,{cell}\n")

    def test_smallest_normal_accepted(self):
        panel = parse_panel("date,A\n2000-01,2.2250738585072014e-308\n2000-02,1e308\n")
        assert panel.values.tolist() == [[2.2250738585072014e-308, 1e308]]

    def test_blank_cell_is_missing(self):
        panel = parse_panel("date,A,B\n2000-01, ,5\n2000-02,101,6\n")
        assert panel.missing[0].tolist() == [True, False]

    def test_cell_stripped_before_conversion(self):
        # float refuses "1\x1f" though str.strip removes the "\x1f"; each
        # cell is stripped first, so this is the level 1, as a blank
        # "\x1c" is a missing value.
        text = "date,A\n2000-01,1\x1f\n2000-02,\x1c\n2000-03, 3\x1e\n"
        values, missing = reference_parse(text)
        panel = parse_panel(text)
        assert panel.missing.tolist() == missing.tolist() == [[False, True, False]]
        assert panel.values[~panel.missing].tolist() == values[~missing].tolist() == [1.0, 3.0]

    def test_first_bad_cell_in_row_major_order(self):
        # Every cell is parsed before any level is checked, so a cell that is
        # not a number names itself even after an earlier bad level.
        text = "date,A,B\n2000-01,100,5\n2000-02,101,0\n2000-03,oops,7\n"
        with pytest.raises(SchemaError, match="row 4, column 'A': cannot parse 'oops'"):
            parse_panel(text)
        # Among levels, the first bad one in row-major order is named.
        text = "date,A,B\n2000-01,100,5\n2000-02,101,0\n2000-03,-1,7\n"
        with pytest.raises(SchemaError, match="row 3, column 'B': value 0.0 is not positive"):
            parse_panel(text)


# Raw CSV field texts. Besides plain numbers they hold spellings where
# numpy's C tokenizer and csv + float could part ways: quoted numbers,
# "1_000" and non-ASCII digits (only float takes them) and blank cells
# that are whitespace or quoted.
PANEL_CELLS = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300).map(repr),
    st.floats(min_value=1e-6, max_value=1e9).map(lambda v: f" {v:.6g} "),
    st.integers(min_value=1, max_value=10**6).map(str),
    st.sampled_from(["", " ", "\t", '""', "1e-5", "2.2250738585072014e-308", "+1", '"1"5', '"2.5"', '" 7 "',
                     "1_000", "١", "١٢.٥"]),
)
BAD_CELLS = st.sampled_from(
    ["0", "-1", "-0.0", "-0", "oops", "inf", "infinity", "-inf", "nan", " NaN ", "-nan", "1e-320", "4.9e-324",
     "1e999", "1e400", "#", "#1", "1#", '"0"', '1"5"', '"1"#']
)


@st.composite
def layouts(draw, n_rows, extra_lines):
    """Line ends, a final newline or none, and up to two ``extra_lines`` put between body rows."""
    return {
        "eol": draw(st.sampled_from(["\n", "\r\n"])),
        "final_eol": draw(st.booleans()),
        "inserts": draw(st.lists(st.tuples(st.integers(1, n_rows + 1), st.sampled_from(extra_lines)), max_size=2)),
    }


def panel_text(start, grid_cells, eol="\n", final_eol=True, inserts=()):
    """CSV text with consecutive months from ``start``; ``grid_cells`` holds one list of raw field texts per row.

    Each ``(i, line)`` of ``inserts`` puts ``line`` before line ``i`` of the text, counted from 0 at the header.
    """
    lines = [",".join(["date", *(f"s{j}" for j in range(len(grid_cells[0])))])]
    lines += [",".join([month_label(start + i), *cells]) for i, cells in enumerate(grid_cells)]
    for i, line in sorted(inserts, reverse=True):
        lines.insert(i, line)
    return eol.join(lines) + (eol if final_eol else "")


def reference_parse(text):
    """(values, missing) as (series, months) arrays: :func:`read_table_per_cell` with dates, then a cell-by-cell
    level check in row-major order, as ``parse_panel`` orders its checks; ValueError for the first error."""
    header, data, blank = read_table_per_cell(text, month_index)
    names = [c.strip() for c in header[1:]]
    tiny = float(np.finfo(float).tiny)
    for i, j in zip(*np.nonzero(~blank[:, 1:])):
        v = float(data[i, j + 1])
        where = f"row {i + 2}, column {names[j]!r}: value {v!r}"
        if not v > 0:
            raise ValueError(f"{where} is not positive")
        if v == np.inf:
            raise ValueError(f"{where} is not finite")
        if v < tiny:
            raise ValueError(f"{where} is subnormal (below {tiny!r})")
    return data[:, 1:].T, blank[:, 1:].T


def assert_same_rows(a, b):
    """Equal missing masks and bit-identical present values."""
    np.testing.assert_array_equal(a.missing, b.missing)
    assert a.values[~a.missing].tobytes() == b.values[~b.missing].tobytes()


class TestParsePanelMatchesPerCellReference:
    @settings(max_examples=150, deadline=None)
    @given(
        n_rows=st.integers(min_value=2, max_value=8),
        n_cols=st.integers(min_value=1, max_value=5),
        data=st.data(),
    )
    def test_values_and_masks_identical(self, n_rows, n_cols, data):
        cells = [[data.draw(PANEL_CELLS) for _ in range(n_cols)] for _ in range(n_rows)]
        text = panel_text(200, cells, **data.draw(layouts(n_rows, ["", "\r"])))
        values, missing = reference_parse(text)
        panel = parse_panel(text)
        np.testing.assert_array_equal(panel.missing, missing)
        assert panel.values[~missing].tobytes() == values[~missing].tobytes()
        assert np.isnan(panel.values[missing]).all()

    @settings(max_examples=150, deadline=None)
    @given(
        n_rows=st.integers(min_value=2, max_value=8),
        n_cols=st.integers(min_value=1, max_value=5),
        data=st.data(),
    )
    def test_same_first_bad_cell(self, n_rows, n_cols, data):
        cells = [[data.draw(PANEL_CELLS) for _ in range(n_cols)] for _ in range(n_rows)]
        n_bad = data.draw(st.integers(min_value=1, max_value=4))
        for _ in range(n_bad):
            i = data.draw(st.integers(min_value=0, max_value=n_rows - 1))
            j = data.draw(st.integers(min_value=0, max_value=n_cols - 1))
            cells[i][j] = data.draw(BAD_CELLS)
        # A whitespace-only line is a one-cell row, which the width check names first.
        text = panel_text(200, cells, **data.draw(layouts(n_rows, ["", " ", "\t"])))
        with pytest.raises(ValueError) as expected:
            reference_parse(text)
        with pytest.raises(SchemaError) as got:
            parse_panel(text)
        assert str(got.value) == str(expected.value)


class TestSerializeRoundTrip:
    def test_simple_roundtrip(self):
        text = "date,A,B\n2000-01,100.5,7\n2000-02,,8.25\n"
        panel = parse_panel(text)
        again = parse_panel(serialize_panel(panel))
        assert again.names == panel.names
        assert again.grid == panel.grid
        assert_same_rows(again, panel)

    @settings(max_examples=50, deadline=None)
    @given(
        start=st.integers(min_value=1, max_value=400),
        n_points=st.integers(min_value=2, max_value=30),
        n_series=st.integers(min_value=1, max_value=4),
        data=st.data(),
    )
    def test_parse_serialize_identity(self, start, n_points, n_series, data):
        grid = TimeGrid(start, n_points)
        values = np.empty((n_series, n_points))
        missing = np.empty((n_series, n_points), dtype=bool)
        for j in range(n_series):
            values[j] = data.draw(
                st.lists(
                    st.floats(min_value=1e-6, max_value=1e9, allow_nan=False),
                    min_size=n_points,
                    max_size=n_points,
                )
            )
            missing[j] = data.draw(st.lists(st.booleans(), min_size=n_points, max_size=n_points))
        values[missing] = np.nan
        panel = Panel(grid, [f"s{j}" for j in range(n_series)], values)
        again = parse_panel(serialize_panel(panel))
        assert again.grid == panel.grid
        assert again.names == panel.names
        assert_same_rows(again, panel)


class TestRestrict:
    def _panel(self):
        text = (
            "date,A,B\n"
            + "\n".join(
                f"{month_label(m)},{100 + i},{200 + i}" for i, m in enumerate(range(100, 110))
            )
            + "\n"
        )
        return parse_panel(text)

    def test_full_range_is_identity(self):
        panel = self._panel()
        sub, dropped = restrict(panel, panel.grid.start_month, panel.grid.end_month)
        assert dropped == []
        assert sub.grid == panel.grid
        assert_same_rows(sub, panel)

    def test_series_with_gap_dropped(self):
        rows = ["date,A,B"]
        for i, m in enumerate(range(100, 110)):
            a = "" if i == 5 else str(100 + i)
            rows.append(f"{month_label(m)},{a},{200 + i}")
        panel = parse_panel("\n".join(rows) + "\n")
        sub, dropped = restrict(panel, 103, 108)
        assert dropped == ["A"]
        assert sub.names == ("B",)

    def test_gap_outside_window_kept(self):
        rows = ["date,A"]
        for i, m in enumerate(range(100, 110)):
            a = "" if i == 0 else str(100 + i)
            rows.append(f"{month_label(m)},{a}")
        panel = parse_panel("\n".join(rows) + "\n")
        sub, dropped = restrict(panel, 103, 108)
        assert dropped == []

    def test_study_window_has_176_points(self):
        # January 1987 through July 2013, restricted to Dec 1998 .. Jul 2013.
        t = np.arange(319, dtype=float)
        panel = Panel(TimeGrid(1, 319), ("A",), [100 * np.exp(0.002 * t)])
        sub, _ = restrict(panel, month_index("1998-12"), month_index("2013-07"))
        assert sub.grid.n_points == 176

    def test_idempotent(self):
        panel = self._panel()
        once, _ = restrict(panel, 102, 108)
        twice, _ = restrict(once, 102, 108)
        assert once.grid == twice.grid
        assert_same_rows(once, twice)

    def test_empty_window(self):
        with pytest.raises(GridError):
            restrict(self._panel(), 105, 103)

    def test_window_outside_grid(self):
        with pytest.raises(GridError):
            restrict(self._panel(), 90, 105)

    def test_all_dropped(self):
        rows = ["date,A"]
        for i, m in enumerate(range(100, 110)):
            a = "" if i == 5 else str(100 + i)
            rows.append(f"{month_label(m)},{a}")
        panel = parse_panel("\n".join(rows) + "\n")
        with pytest.raises(EmptyPanelError):
            restrict(panel, 100, 109)


class TestPanelInvariants:
    def test_unique_names_enforced(self):
        with pytest.raises(SchemaError):
            Panel(TimeGrid(1, 2), ("A", "A"), [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("record, what", [
        (lambda names: Panel(TimeGrid(1, 2), names, np.ones((3, 2))), "panel"),
        (lambda names: rate_fits(names, np.ones(3), (1, 2)), "fits"),
        (lambda names: warp_set(TimeGrid(0, 2), np.ones((3, 2)), names), "warp set"),
    ])
    def test_every_record_lists_repeated_names(self, record, what):
        with pytest.raises(SchemaError, match=rf"^duplicate series names in {what}: \['A'\]$"):
            record(("A", "B", "A"))

    def test_length_mismatch(self):
        with pytest.raises(GridError):
            Panel(TimeGrid(1, 3), ("A",), [[1.0, 2.0]])

    @settings(max_examples=100, deadline=None)
    @given(
        names=st.lists(
            st.text(alphabet=st.sampled_from(list(',"\r\n aZé漢-')), min_size=1, max_size=6).filter(
                lambda name: name.strip() == name
            ),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        n_points=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_round_trip_with_quoted_names(self, names, n_points, seed):
        # "\r" in a name was written unquoted, and csv.reader refused it.
        rng = np.random.default_rng(seed)
        missing = np.empty((len(names), n_points), dtype=bool)
        values = np.empty((len(names), n_points))
        for j in range(len(names)):
            missing[j] = rng.random(n_points) < 0.2
            values[j] = np.where(missing[j], np.nan, rng.uniform(1.0, 500.0, n_points))
        panel = Panel(TimeGrid(150, n_points), names, values)
        again = parse_panel(serialize_panel(panel))
        assert again.names == panel.names
        assert_same_rows(again, panel)

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from warpgrowth._table import csv_rows, read_table, write_rows, write_table
from warpgrowth.errors import SchemaError

from oracles import csv_rows_per_row, csv_table_per_cell, read_table_per_cell

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e308, -1.5]

floats = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


def same_bits(a, b):
    """Equal element for element, -0.0 apart from 0.0, every NaN alike."""
    a, b = np.asarray(a), np.asarray(b)
    both_nan = np.isnan(a) & np.isnan(b)
    return a.shape == b.shape and bool(np.all(both_nan | (a.view(np.int64) == b.view(np.int64))))


@st.composite
def tables(draw):
    n_cols = draw(st.integers(min_value=1, max_value=4))
    n_rows = draw(st.integers(min_value=0, max_value=6))
    header = draw(st.lists(st.sampled_from(["t", "a,b", 'q"x', "", " s ", "é"]) | st.text(max_size=5),
                           min_size=n_cols, max_size=n_cols))
    columns = [np.array(draw(st.lists(floats, min_size=n_rows, max_size=n_rows)), dtype=float)
               for _ in range(n_cols)]
    return header, columns


class TestWriteTable:
    @settings(max_examples=200, deadline=None)
    @given(tables())
    def test_equals_per_cell_writer(self, table):
        header, columns = table
        assume(not any("\r" in name for name in header))  # quoted since; see below
        assert write_table(header, columns) == csv_table_per_cell(header, columns)

    def test_special_values_single_column(self):
        column = np.array(SPECIAL)
        text = write_table(["v"], [column])
        assert text == csv_table_per_cell(["v"], [column])
        assert text.splitlines()[1:5] == ["nan", "inf", "-inf", "-0"]

    def test_quoted_names_round_trip(self):
        header = ["t_normalized", "Dallas, TX", 'say "hi"']
        text = write_table(header, [np.linspace(0, 1, 3), np.ones((2, 3))])
        assert text.splitlines()[0] == 't_normalized,"Dallas, TX","say ""hi"""'
        assert read_table(text)[0] == header

    def test_carriage_return_in_name_is_quoted(self):
        # A cell-by-cell csv.writer with a "\n" terminator leaves "\r" unquoted,
        # which csv.reader then refuses; the table writer quotes it.
        header = ["t", "a\rb", "c\nd"]
        text = write_table(header, [np.zeros(2)] * 3)
        assert text.splitlines(keepends=True)[-2:] == ["0,0,0\n"] * 2
        assert read_table(text)[0] == header

    def test_two_dimensional_blocks_stack_as_columns(self):
        block = np.arange(6.0).reshape(2, 3)
        text = write_table(["t", "a", "b"], [np.zeros(3), block])
        assert text == csv_table_per_cell(["t", "a", "b"], [np.zeros(3), block[0], block[1]])

    def test_header_width_must_match(self):
        with pytest.raises(ValueError, match="2 header cells for 3 columns"):
            write_table(["t", "a"], [np.zeros(2), np.ones((2, 2))])


NAMES = st.sampled_from(["t", "a,b", 'q"x', "", " s ", "é", "a\nb"]) | st.text(max_size=5)
CELLS = st.one_of(floats, st.integers(min_value=-10**20, max_value=10**20), NAMES, st.booleans())


class TestWriteRows:
    @settings(max_examples=200, deadline=None)
    @given(
        header=st.lists(NAMES, min_size=1, max_size=4),
        rows=st.lists(st.lists(CELLS, max_size=5), max_size=5),
        numpy_floats=st.booleans(),
    )
    def test_equals_per_row_writer(self, header, rows, numpy_floats):
        assume(not any("\r" in str(c) for c in [*header, *(c for row in rows for c in row)]))
        if numpy_floats:
            rows = [[np.float64(c) if isinstance(c, float) else c for c in row] for row in rows]
        assert write_rows(header, rows) == csv_rows_per_row(header, rows)

    def test_carriage_return_is_quoted(self):
        # The per-row writer with a "\n" terminator wrote "a\rb" bare, which
        # csv.reader refuses.
        text = write_rows(["name", "a\rb"], [["c\rd", 0.5, 2]])
        assert text == 'name,"a\rb"\n"c\rd",0.5,2\n'
        assert csv_rows(text) == [["name", "a\rb"], ["c\rd", "0.5", "2"]]

    def test_header_matches_table_header(self):
        header = ["t", "a\rb", 'q"x', "c,d"]
        assert write_rows(header, []) == write_table(header, [np.zeros(0)] * 4)


class TestCsvRows:
    def test_field_over_the_csv_limit_is_schema_error(self):
        with pytest.raises(SchemaError, match="line 2: field larger than field limit"):
            csv_rows("a,b\n1," + "9" * 200_000 + "\n")


class TestReadTable:
    @settings(max_examples=100, deadline=None)
    @given(tables())
    def test_round_trip_is_bit_exact(self, table):
        header, columns = table
        got_header, data = read_table(write_table(header, columns))
        assert data.shape == (len(columns[0]), len(columns))
        assert got_header == header
        for j, column in enumerate(columns):
            assert same_bits(data[:, j], column)

    def test_blank_lines_skipped(self):
        header, data = read_table("t,a\n\n0,1\n\n1,2\n")
        assert header == ["t", "a"]
        np.testing.assert_array_equal(data, [[0, 1], [1, 2]])

    def test_header_only_and_empty(self):
        header, data = read_table("t,a\n")
        assert header == ["t", "a"] and data.shape == (0, 2)
        header, data = read_table("")
        assert header == [] and data.shape == (0, 0)

    def test_ragged_row_names_row(self):
        with pytest.raises(SchemaError, match="row 3: expected 2 cells, got 1"):
            read_table("t,a\n0,1\n0.5\n1,2\n")

    def test_rows_all_wider_than_header(self):
        with pytest.raises(SchemaError, match="row 2: expected 2 cells, got 3"):
            read_table("t,a\n0,1,2\n1,2,3\n")

    def test_quoted_cell_over_a_line_end(self):
        # csv keeps the line break in the cell; numpy's tokenizer would join
        # the two lines into the number 12.
        with pytest.raises(SchemaError, match=r"row 2, column 't': cannot parse '1\\n2'"):
            read_table('t,a\n"1\n2",5\n')

    def test_unparseable_cell_names_row_and_column(self):
        with pytest.raises(SchemaError, match="row 3, column 'a': cannot parse 'x'"):
            read_table("t,a\n0,1\n1,x\n")


# Raw field texts: numbers as the table writer spells them, and spellings
# where numpy's C tokenizer and csv + float could part ways (quoted, signed,
# overflowing, "1_000", non-ASCII digits, blank, holding "#", edged with a
# character only numpy strips, a quote left open over a line end).
TABLE_CELLS = st.one_of(
    floats.map(lambda v: "%.17g" % v),
    st.integers(min_value=-10**6, max_value=10**6).map(str),
    st.sampled_from(['"1"5', '"2.5"', '" 7 "', "+1", "-0", "1e400", "infinity", "-inf", "nan", "1_000", "١",
                     "", " ", '""', "#", "1#", "x", '1"5"', "\x1c1", "1\x1f", '"1', '2"']),
)


@st.composite
def table_texts(draw):
    """Header and rows of raw cells, now and then one cell short or long, with "\\n" or "\\r\\n" line ends,
    blank or whitespace-only lines between rows, and a final newline or none."""
    n_cols = draw(st.integers(min_value=1, max_value=4))
    header = draw(st.lists(st.sampled_from(["t", "a", '"b,c"', '"q""x"', " s "]), min_size=n_cols, max_size=n_cols))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        width = n_cols + draw(st.sampled_from([0] * 8 + [-1, 1]))
        lines.append(",".join(draw(st.lists(TABLE_CELLS, min_size=width, max_size=width))))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        lines.insert(draw(st.integers(min_value=1, max_value=len(lines))), draw(st.sampled_from(["", "\r", " ", "\t"])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from([eol, ""]))


class TestReadTableMatchesPerCellReader:
    @settings(max_examples=300, deadline=None)
    @given(table_texts())
    def test_same_table_or_first_error(self, text):
        try:
            expected_header, expected = read_table_per_cell(text)
        except ValueError as exc:
            with pytest.raises(SchemaError) as got:
                read_table(text)
            assert str(got.value) == str(exc)
        else:
            header, data = read_table(text)
            assert header == expected_header
            assert same_bits(data, expected)

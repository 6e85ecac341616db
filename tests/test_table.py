import csv
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from warpgrowth import _table
from warpgrowth._table import csv_rows, read_table, read_unit_table, write_rows, write_unit_table
from warpgrowth.errors import SchemaError
from warpgrowth.timeseries import month_index, parse_panel

from oracles import csv_rows_per_row, csv_table_per_cell, read_table_per_cell

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e308, -1.5]

floats = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


def same_bits(a, b):
    """Equal element for element, -0.0 apart from 0.0, every NaN alike."""
    a, b = np.asarray(a), np.asarray(b)
    both_nan = np.isnan(a) & np.isnan(b)
    return a.shape == b.shape and bool(np.all(both_nan | (a.view(np.int64) == b.view(np.int64))))


def with_grid(header, columns):
    """The header and columns of the unit table ``write_unit_table(header, columns)`` writes, grid column first."""
    return ["t_normalized", *header], [np.linspace(0.0, 1.0, len(columns[0])), *columns]


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
        assert write_unit_table(header, columns) == csv_table_per_cell(*with_grid(header, columns))

    def test_special_values_single_column(self):
        column = np.array(SPECIAL)
        text = write_unit_table(["v"], [column])
        assert text == csv_table_per_cell(*with_grid(["v"], [column]))
        assert [line.split(",")[1] for line in text.splitlines()[1:5]] == ["nan", "inf", "-inf", "-0"]

    def test_quoted_names_round_trip(self):
        header = ["t_normalized", "Dallas, TX", 'say "hi"']
        text = write_unit_table(header[1:], [np.ones((2, 3))])
        assert text.splitlines()[0] == 't_normalized,"Dallas, TX","say ""hi"""'
        assert read_table(text)[0] == header

    def test_carriage_return_in_name_is_quoted(self):
        # A cell-by-cell csv.writer with a "\n" terminator leaves "\r" unquoted,
        # which csv.reader then refuses; the table writer quotes it.
        header = ["t", "a\rb", "c\nd"]
        text = write_unit_table(header, [np.zeros(2)] * 3)
        assert text.splitlines(keepends=True)[-2:] == ["0,0,0,0\n", "1,0,0,0\n"]
        assert read_table(text)[0] == ["t_normalized", *header]

    def test_two_dimensional_blocks_stack_as_columns(self):
        block = np.arange(6.0).reshape(2, 3)
        text = write_unit_table(["t", "a", "b"], [np.zeros(3), block])
        assert text == csv_table_per_cell(*with_grid(["t", "a", "b"], [np.zeros(3), block[0], block[1]]))

    def test_header_width_must_match(self):
        with pytest.raises(ValueError, match="2 header cells for 3 columns"):
            write_unit_table(["a"], [np.ones((2, 2))])
        with pytest.raises(ValueError, match="2 header cells for 3 columns"):
            write_unit_table(["a"], [np.ones((2, 2))], io.BytesIO())


def over_one_block(rng, n_cols):
    """Row count of a table of ``n_cols`` columns that spans more than one kernel block and ends in a partial one."""
    return _table._BLOCK_CELLS // n_cols + int(rng.integers(1, 40))


def kernel_matches_reference(body):
    """``write_unit_table`` of the (rows, columns) ``body`` equals the per-cell writer, also when streamed to a file."""
    header = [f"c{j}" for j in range(body.shape[1])]
    columns = list(body.T)
    text = write_unit_table(header, columns)
    assert text == csv_table_per_cell(*with_grid(header, columns))
    streamed = io.BytesIO()
    assert write_unit_table(header, columns, streamed) is None
    assert streamed.getvalue() == text.encode()


# Exact ties of the 17th significant digit: M·2**-(k+1) with M·5**k odd is
# halfway between two 17-digit decimals when it lies in [1e16, 1e17)·10**-k.
TIES = st.integers(min_value=1, max_value=24).flatmap(
    lambda k: st.integers(
        min_value=-(-2 * 10**16 // 5**k) // 2, max_value=min(2 * 10**17 // 5**k, 2**53) // 2 - 1
    ).map(lambda h: math.ldexp(2 * h + 1, -k - 1))
)


class TestFormattingKernel:
    """The vectorised ``%.17g`` of ``write_unit_table`` against ``"%.17g" % v`` (the per-cell oracle)."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           patterns=st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), min_size=1, max_size=40))
    def test_raw_bit_patterns(self, seed, patterns):
        rng = np.random.default_rng(seed)
        n_cols = int(rng.integers(1, 400))
        body = rng.integers(-(2**63), 2**63, (over_one_block(rng, n_cols), n_cols), dtype=np.int64)
        body.flat[rng.choice(body.size, len(patterns), replace=False)] = patterns
        kernel_matches_reference(body.view(np.float64))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           exponents=st.lists(st.integers(min_value=-1022, max_value=1023), min_size=1, max_size=40))
    def test_scaled_normals_across_every_exponent(self, seed, exponents):
        rng = np.random.default_rng(seed)
        n_cols = int(rng.integers(1, 400))
        n_rows = over_one_block(rng, n_cols)
        power = rng.integers(-1022, 1024, (n_rows, n_cols))
        power.flat[rng.choice(power.size, len(exponents), replace=False)] = exponents
        sign = rng.choice([-1.0, 1.0], (n_rows, n_cols))
        kernel_matches_reference(sign * np.ldexp(rng.uniform(1.0, 2.0, (n_rows, n_cols)), power))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_short_decimals_with_trailing_zeros(self, seed):
        # Values such as 0.25, 1234.5 and 1e+20 leave most of the 17 digits zero.
        rng = np.random.default_rng(seed)
        n_cols = int(rng.integers(1, 400))
        shape = (over_one_block(rng, n_cols), n_cols)
        digits = rng.integers(0, 10**6, shape) * 10.0 ** rng.integers(-30, 30, shape)
        kernel_matches_reference(digits)

    @settings(max_examples=200, deadline=None)
    @given(TIES)
    def test_exact_ties_go_to_the_reference(self, tie):
        value = np.array([tie, -tie])
        assert not _table._settle(value)[2].any()
        assert write_unit_table(["v"], [value]) == csv_table_per_cell(*with_grid(["v"], [value]))

    @pytest.mark.parametrize("value, text", [
        (1000000000000000.25, "1000000000000000.2"),
        (1000000000000000.75, "1000000000000000.8"),
        (100000000000000.125, "100000000000000.12"),
        (100000000000000.375, "100000000000000.38"),
        (1e-5, "1.0000000000000001e-05"),
        (1e-4, "0.0001"),
        (1e16, "10000000000000000"),
        (1e17, "1e+17"),
        (9.999999999999999e22, "9.9999999999999992e+22"),
        (-2.2250738585072014e-308, "-2.2250738585072014e-308"),
        (1.7976931348623157e308, "1.7976931348623157e+308"),
    ])
    def test_pinned_cells(self, value, text):
        assert write_unit_table(["v"], [np.array([value])]) == f"t_normalized,v\n0,{text}\n"

    def test_next_to_every_power_of_ten(self):
        # floor(log10 v) is one off for some of these, so the kernel must
        # check the exponent it guessed.
        powers = np.array([float(f"1e{k}") for k in range(-307, 309)])
        body = np.stack([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)], axis=1)
        kernel_matches_reference(np.concatenate([body, -body]))
        # Only exact ties such as nextafter(1e15, 0) = 999999999999999.875 go to the reference.
        assert _table._settle(body.reshape(-1))[2].sum() >= body.size - 2


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
        header = ["t_normalized", "a\rb", 'q"x', "c,d"]
        assert write_rows(header, []) == write_unit_table(header[1:], [np.zeros(0)] * 3)


class TestCsvRows:
    def test_field_over_the_csv_limit_is_schema_error(self):
        with pytest.raises(SchemaError, match="line 2: field larger than field limit"):
            csv_rows("a,b\n1," + "9" * 200_000 + "\n")


class TestFieldSizeLimit:
    def test_long_lines_of_short_cells_stay_with_the_tokenizer(self, monkeypatch):
        # csv refuses a field over its limit, not a line: every line here is
        # far over the lowered limit, but no cell is, so neither the table
        # nor the panel falls back to csv_rows, and both give what the
        # per-cell oracle gives.
        def refuse(text):
            raise AssertionError("fell back to csv_rows")

        rng = np.random.default_rng(0)
        names = [f"s{j}" for j in range(30)]
        table = write_unit_table(names, [rng.uniform(0.5, 2.0, (30, 5))])
        cells = [["%.6f" % v if rng.random() > 0.2 else "" for v in rng.uniform(50.0, 150.0, 30)] for _ in range(4)]
        panel_text = "".join(f"{line}\n" for line in [",".join(["date", *names]), *(
            ",".join([f"2000-0{i + 1}", *row]) for i, row in enumerate(cells))])
        limit = csv.field_size_limit()
        csv.field_size_limit(64)
        try:
            assert all(len(line) > 64 for line in [*table.splitlines(), *panel_text.splitlines()])
            with monkeypatch.context() as patched:
                patched.setattr(_table, "csv_rows", refuse)
                header, data, blank = read_table(table)
                panel = parse_panel(panel_text)
            expected_header, expected, _ = read_table_per_cell(table)
            _, values, missing = read_table_per_cell(panel_text, month_index)
            values, missing = values[:, 1:].T, missing[:, 1:].T
            # A cell over the limit still sends the text to csv, which refuses it.
            with pytest.raises(SchemaError, match="field larger than field limit"):
                read_table(table.replace("\n1,", "\n1." + "0" * 64 + ",", 1))
        finally:
            csv.field_size_limit(limit)
        assert header == expected_header and same_bits(data, expected) and not blank.any()
        assert panel.names == tuple(names) and np.array_equal(panel.missing, missing) and missing.any()
        assert panel.values[~missing].tobytes() == values[~missing].tobytes()


class TestReadTable:
    @settings(max_examples=100, deadline=None)
    @given(tables())
    def test_round_trip_is_bit_exact(self, table):
        header, columns = with_grid(*table)
        got_header, data, blank = read_table(write_unit_table(*table))
        assert data.shape == blank.shape == (len(columns[0]), len(columns))
        assert not blank.any()
        assert got_header == header
        for j, column in enumerate(columns):
            assert same_bits(data[:, j], column)

    @settings(max_examples=100, deadline=None)
    @given(
        names=st.lists(NAMES | st.sampled_from(["Zürich, CH", 'say "hi"', "x\ny", "東京"]), min_size=1, max_size=4),
        m=st.integers(min_value=2, max_value=8),
        data=st.data(),
    )
    def test_unit_table_round_trip_is_bit_exact(self, names, m, data):
        finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
        values = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, -1e-310, 2.2250738585072014e-308]), finite)
        block = np.array(data.draw(st.lists(values, min_size=len(names) * m, max_size=len(names) * m)))
        block = block.reshape(len(names), m)
        header, table = read_unit_table(write_unit_table(names, [block[0], block[1:]]), len(names) + 1)
        assert header == ["t_normalized", *names]
        assert same_bits(table[:, 0], np.linspace(0.0, 1.0, m))
        assert same_bits(table[:, 1:], block.T)

    def test_blank_lines_skipped(self):
        header, data, blank = read_table("t,a\n\n0,1\n\n1,2\n")
        assert header == ["t", "a"]
        np.testing.assert_array_equal(data, [[0, 1], [1, 2]])
        assert not blank.any()

    def test_header_only_and_empty(self):
        header, data, blank = read_table("t,a\n")
        assert header == ["t", "a"] and data.shape == blank.shape == (0, 2)
        header, data, blank = read_table("")
        assert header == [] and data.shape == blank.shape == (0, 0)

    def test_carriage_returns_inside_a_line_go_to_csv(self):
        # csv reads "\r\r\n" as a blank line; the tokenizer, given only such
        # lines, warned that the input held no data.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            header, data, blank = read_table("t,a\r\n\r\r\n")
        assert header == ["t", "a"] and data.shape == blank.shape == (0, 2)

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

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_quoted_cell_over_a_blank_line(self, eol):
        # csv keeps both line breaks in the cell; numpy's tokenizer ended the
        # open quote at the empty line, which hid the join from the row count.
        text = eol.join(["t,a", '0,"1', "", "2,3", ""])
        with pytest.raises(SchemaError, match=r"row 2, column 'a': cannot parse '1"):
            read_table(text)
        with pytest.raises(SchemaError, match=r"row 2, column 'a': cannot parse '1"):
            parse_panel(text.replace("t,a", "date,a").replace("0,", "2000-01,").replace("2,3", "2000-02,3"))

    def test_unparseable_cell_names_row_and_column(self):
        with pytest.raises(SchemaError, match="row 3, column 'a': cannot parse 'x'"):
            read_table("t,a\n0,1\n1,x\n")


# Raw field texts: numbers as the table writer spells them, and spellings
# where numpy's C tokenizer and csv + str.strip + float could part ways
# (quoted, signed, overflowing, "1_000", non-ASCII digits, blank, holding
# "#", edged with a character float refuses and str.strip removes, a quote
# left open over a line end).
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
            expected_header, expected, expected_blank = read_table_per_cell(text)
        except ValueError as exc:
            with pytest.raises(SchemaError) as got:
                read_table(text)
            assert str(got.value) == str(exc)
        else:
            header, data, blank = read_table(text)
            assert header == expected_header
            assert same_bits(data, expected)
            assert np.array_equal(blank, expected_blank)

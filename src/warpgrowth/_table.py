"""The package's one CSV dialect and its file boundary, for reading and writing.

Every CSV artifact is rendered here, floats at 17 significant digits so a
read-back is exact: the unit table (``t_normalized`` and ``linspace(0, 1,
m)`` first) by :func:`write_unit_table`, next to its reader
:func:`read_unit_table`, and mixed rows by :func:`write_rows`. Every
artifact file is written by :func:`write_output`, which
:func:`warpgrowth.cli.main` calls on the outputs each ``cmd_*`` returns by
name: text, JSON or a streamed table, its directory made first; None
removes the file instead.
Input files go through :func:`read_file` (UTF-8, a byte-order mark
dropped), so malformed content raises a typed error (SchemaError,
GridError) naming the file, never a builtin.

Every CSV body, a unit table's or a panel's, is read by
:func:`read_table` under one cell rule: a cell is stripped with
``str.strip``, column 0 goes through a converter (``float``, or the
panel's date parser) and any other cell is a number, NaN and marked
blank when empty. :func:`read_block` hands the lines after the header
(:func:`split_header`) to :func:`numpy.loadtxt`'s C tokenizer and returns
None for any text the tokenizer might read other than :mod:`csv`,
``str.strip`` and :func:`float` do; :func:`read_table` then reads it
again through :func:`csv_rows`, one cell at a time, which is the
reference and names the first parse error in file order. Only the
header, whose names may be quoted or hold line breaks, always goes
through :mod:`csv`. The values are checked by the caller:
:func:`read_unit_table` for ``t_normalized`` tables, where a blank cell
is an error, and :func:`~warpgrowth.timeseries.parse_panel` for panels,
where it is a missing value.

Unit-table bodies are written by one vectorised ``%.17g`` kernel
(:func:`_format_block`), a block of rows at a time, with no Python float
per cell. :func:`_settle` scales each finite normal cell exactly enough
to read off its 17 significant digits as an int64: a float64
double-double product with a table of 10**k, built on first use from
exact integers. Digits, point, sign, trailing-zero stripping and the
exponent are laid out in NUL-padded byte rows that are compacted once.
``"%.17g" % v`` stays the reference, as :func:`csv_rows` does for
reading: it formats every cell the kernel cannot settle, namely ±0,
subnormals, inf, nan, and a scaled value whose fraction lies within the
kernel's error bound of ½, where round-half-to-even decides (every exact
tie among them). A table written to a file goes out block by block.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import reprlib
import sys
from collections.abc import Callable, Iterable, Sequence
from pathlib import Path
from types import SimpleNamespace
from typing import BinaryIO

import numpy as np

from .errors import GridError, SchemaError, WarpGrowthError


def _line_writer() -> Callable[[Sequence], str]:
    """Render one row as a CSV line ending in ``"\\n"``.

    csv's own ``"\\r\\n"`` terminator makes it quote ``"\\r"`` as well as
    ``"\\n"``; ``writerow`` returns the line that ``write`` hands back.
    """
    writerow = csv.writer(SimpleNamespace(write=lambda line: line)).writerow
    return lambda cells: writerow(cells)[:-2] + "\n"


#: Range of k in the table of 10**k: 16 - e for every decimal exponent e of a normal double, and one more each way.
_K_MIN, _K_MAX = -293, 325
#: Dekker's splitting constant 2**27 + 1.
_SPLIT = 134217729.0
#: Cells the kernel formats at a time, which bounds its scratch arrays to a few MB.
_BLOCK_CELLS = 1 << 15
#: Bytes of one cell in the kernel's padded rows: sign, "0.000", 17 digits and a point, "e+308", separator.
_SIGN, _LEAD, _DIGITS, _EXP, _SEP, _WIDTH = 0, 1, 6, 24, 29, 30


@functools.cache
def _powers_of_ten() -> tuple[np.ndarray, ...]:
    """10**k for k in [_K_MIN, _K_MAX] as (H + L)·2**E with H in [1, 2], |H + L - 10**k/2**E| < 2**-106.

    H and L are read off the integer floor(10**k/2**E · 2**120), each
    rounded once. H comes back with its Dekker halves, so the kernel
    splits only its own operand. The cached arrays are read-only.
    """
    hi, lo, exponent = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        p = 10 ** abs(k)
        if k >= 0:
            e = p.bit_length() - 1
            q = p << (120 - e) if e <= 120 else p >> (e - 120)
        else:
            e = -p.bit_length()
            q = (1 << (120 - e)) // p
        h = float(q)
        hi.append(h)
        lo.append(float(q - int(h)))
        exponent.append(e)
    h, l = np.array(hi) * 2.0**-120, np.array(lo) * 2.0**-120
    c = h * _SPLIT
    h_hi = c - (c - h)
    table = h, h_hi, h - h_hi, l, np.array(exponent)
    for part in table:
        part.flags.writeable = False
    return table


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``round(a · 10**(16 - e))`` as int64, ties to even, and where that rounding is not certain.

    ``a`` holds positive normal doubles. With a = m·2**x (m in [0.5, 1))
    and 10**k = (H + L)·2**E, Dekker's product gives m·H = p + pe
    exactly; m·L and pe + m·L are rounded once each. So the scaled value
    (p + pe + m·L)·2**(x + E) is off the exact one by less than 2**-104
    of 2**(x + E), which is 2**-43 when the result is below 2**60. A
    fraction within 2**-40 of ½ is flagged, exact ties included, as is an
    ``e`` outside the table.
    """
    h, h_hi, h_lo, l, exponent = _powers_of_ten()
    i = 16 - _K_MIN - e
    unsure = (i < 0) | (i >= h.size)
    i = np.clip(i, 0, h.size - 1)
    bits = a.view(np.int64)
    m = ((bits & 0x000FFFFFFFFFFFFF) | 0x3FE0000000000000).view(np.float64)
    c = m * _SPLIT
    m_hi = c - (c - m)
    m_lo = m - m_hi
    p = m * h[i]
    pe = ((m_hi * h_hi[i] - p) + m_hi * h_lo[i] + m_lo * h_hi[i]) + m_lo * h_lo[i]
    power = ((((bits >> 52) & 0x7FF) - 1022 + exponent[i] + 1023) << 52).view(np.float64)
    y_hi, y_lo = p * power, (pe + m * l[i]) * power
    n_hi = np.rint(y_hi)
    r = (y_hi - n_hi) + y_lo
    n_lo = np.rint(r)
    unsure |= np.abs(np.abs(r - n_lo) - 0.5) <= 2.0**-40
    return n_hi.astype(np.int64) + n_lo.astype(np.int64), unsure


def _settle(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits ``"%.16e"`` gives each cell of ``v``, as an int64 in [10**16, 10**17), their exponent, and where both are certain.

    The exponent is guessed as floor(log10|v|), which can be one off
    next to a power of ten. A result outside (10**16, 10**17] is scaled
    again one exponent over; a result of exactly 10**16 may come from
    the exponent above the right one, so it is checked one below. A
    result of 10**17 rounded up into the next decade: 10**16 there.
    ±0, subnormals, inf, nan and cells :func:`_scaled` is unsure of are
    not certain.
    """
    a = np.abs(v)
    ok = (a >= sys.float_info.min) & (a <= sys.float_info.max)
    a[~ok] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    digits, unsure = _scaled(a, e)
    lo, hi = 10**16, 10**17
    again = np.flatnonzero((digits <= lo) | (digits > hi))
    if again.size:
        first = digits[again]
        e_again = e[again] + np.where(first > hi, 1, -1)
        second, unsure_again = _scaled(a[again], e_again)
        unsure[again] |= unsure_again | (second < lo) | ((second > hi) & (first != lo))
        stay = (first == lo) & (second >= hi)
        digits[again] = np.where(stay, lo, second)
        e[again] = np.where(stay, e[again], e_again)
    top = digits == hi
    digits[top] = lo
    e[top] += 1
    return digits, e, ok & ~unsure


def _format_block(block: np.ndarray) -> bytes:
    """The CSV body lines of a C-ordered (rows, columns) float block, each cell as ``"%.17g" % v``.

    ``%.17g`` writes the 17 digits of :func:`_settle` as a fixed-point
    number when their exponent e is in [-4, 17), else as ``d.ddde±XX``,
    and strips trailing zeros after the point (and the point if nothing
    follows it). Each cell gets a padded row of ``_WIDTH`` bytes: the
    sign, the ``0.000`` in front of a fixed number below 1, 17 digits
    with the point inside them, the exponent and the separator. Bytes a
    cell does not use stay NUL and are dropped at the end. A cell
    :func:`_settle` is not certain of is formatted by ``"%.17g" % v``,
    the reference, and copied into its row.
    """
    v = block.reshape(-1)
    n = v.size
    digits, e, ok = _settle(v)
    e = e.astype(np.int16)
    top = digits // 10**9
    d = np.empty((17, n), np.uint8)
    j = 17
    for x, count in ((digits - top * 10**9).astype(np.uint32), 9), (top.astype(np.uint32), 8):
        for _ in range(count):
            q = x // 10
            j -= 1
            d[j] = x - q * 10
            x = q
    significant = np.full(n, 17, np.uint8)
    trailing = np.ones(n, bool)
    for j in range(16, 0, -1):
        trailing &= d[j] == 0
        significant -= trailing
    fixed = (e >= -4) & (e < 17)
    below_one = fixed & (e < 0)
    scientific = ~fixed
    integer_digits = np.clip(e + 1, 0, 17).astype(np.uint8)
    # Digits written, and the digit slot holding the point (99: no point among the digits).
    kept = np.where(fixed & (e >= 0), np.maximum(significant, integer_digits), significant)
    point = np.where(scientific, np.uint8(1), np.where(fixed & (e >= 0), integer_digits, np.uint8(99)))
    point[kept <= point] = 99

    out = np.zeros((_WIDTH, n), np.uint8)
    out[_SIGN] = np.uint8(45) * np.signbit(v)
    out[_LEAD] = np.uint8(48) * below_one
    out[_LEAD + 1] = np.uint8(46) * below_one
    for z in range(1, 4):
        out[_LEAD + 1 + z] = np.uint8(48) * (below_one & (e <= -1 - z))
    chars = [(48 + d[j]) * (kept > j) for j in range(17)] + [np.zeros(n, np.uint8)]
    out[_DIGITS] = chars[0]
    for c in range(1, 18):
        out[_DIGITS + c] = chars[c] * (point > c) + chars[c - 1] * (point < c) + np.uint8(46) * (point == c)
    magnitude = np.abs(e).astype(np.uint16)
    tens = magnitude // 10
    out[_EXP] = np.uint8(101) * scientific
    out[_EXP + 1] = scientific * (np.uint8(43) + np.uint8(2) * (e < 0))
    out[_EXP + 2] = (scientific & (magnitude >= 100)) * (48 + magnitude // 100).astype(np.uint8)
    out[_EXP + 3] = scientific * (48 + tens % 10).astype(np.uint8)
    out[_EXP + 4] = scientific * (48 + magnitude - tens * 10).astype(np.uint8)
    out[_SEP].reshape(block.shape)[:] = np.uint8(44)
    out[_SEP].reshape(block.shape)[:, -1] = 10
    rows = out.T.copy()
    unsure = np.flatnonzero(~ok)
    if unsure.size:
        text = np.array(["%.17g" % c for c in v[unsure].tolist()], dtype=f"S{_SEP}")
        rows[unsure, :_SEP] = text.view(np.uint8).reshape(-1, _SEP)
    return rows.tobytes().translate(None, b"\0")


def _unit_table_chunks(names: Sequence[str], rows: Sequence[np.ndarray]):
    """The UTF-8 header line of a unit table, then its body in blocks of rows; ValueError first if the widths differ."""
    body = np.vstack([np.linspace(0.0, 1.0, np.shape(rows[0])[-1]), *rows])
    if body.shape[0] != len(names) + 1:
        raise ValueError(f"{len(names) + 1} header cells for {body.shape[0]} columns")
    yield _line_writer()(["t_normalized", *names]).encode("utf-8")
    step = max(1, _BLOCK_CELLS // body.shape[0])
    for start in range(0, body.shape[1], step):
        yield _format_block(np.ascontiguousarray(body[:, start : start + step].T))


def write_unit_table(names: Sequence[str], rows: Sequence[np.ndarray], file: BinaryIO | None = None) -> str | None:
    """Render a ``t_normalized,<names>`` table as CSV text, or write it to the binary ``file`` and return None.

    ``rows`` holds 1-D arrays (one column each) and 2-D arrays (one column
    per row) of m values, stacked after the grid ``linspace(0, 1, m)``; one
    column per name. The header goes through :mod:`csv`, so names holding
    ``,``, ``"`` or a line break are quoted. Each body cell is the text of
    ``"%.17g" % v`` (``nan``, ``inf``, ``-0`` included), built for a block
    of rows at a time by :func:`_format_block`; a ``file`` is written block
    by block, so the whole text is never held.
    """
    chunks = _unit_table_chunks(names, rows)
    if file is None:
        return b"".join(chunks).decode("utf-8")
    for chunk in chunks:
        file.write(chunk)
    return None


def write_rows(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render a header and rows of mixed cells as CSV text, quoted like :func:`write_unit_table`'s header.

    Float cells (numpy floats included) are written at ``"%.17g"``, other
    cells as their ``str``.
    """
    line = _line_writer()
    return line(header) + "".join([line(["%.17g" % c if isinstance(c, float) else c for c in row]) for row in rows])


def write_output(path: Path, content: str | dict | Callable[[BinaryIO], object] | None) -> None:
    """Write a ``str`` to ``path`` as UTF-8, line ends untranslated, a ``dict`` as JSON (sorted keys, indent 2,
    a final newline), or call a function on the file opened to write bytes, so a table can stream; None removes it."""
    if content is None:
        path.unlink(missing_ok=True)
        return
    if isinstance(content, dict):
        content = json.dumps(content, indent=2, sort_keys=True, allow_nan=True) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        if isinstance(content, str):
            fh.write(content.encode("utf-8"))
        else:
            content(fh)


def csv_rows(text: str) -> list[list[str]]:
    """The non-blank rows of CSV text; SchemaError naming the line where :mod:`csv` fails (a cell over its size limit)."""
    reader = csv.reader(io.StringIO(text))
    try:
        return [row for row in reader if row]
    except csv.Error as exc:
        raise SchemaError(f"line {reader.line_num}: {exc}") from None


def split_header(text: str) -> tuple[list[str], list[str]] | None:
    """The first non-blank row of CSV text and the lines after it; None if :mod:`csv` finds no row or fails on it.

    The header is read by :mod:`csv` from the same lines :func:`csv_rows`
    reads, so the two agree on it. The lines are ``text`` split at
    ``"\\n"``, which they lose; a ``"\\r"`` before it stays.
    """
    lines = text.split("\n")
    reader = csv.reader(itertools.chain((line + "\n" for line in lines[:-1]), lines[-1:]))
    try:
        header = next(row for row in reader if row)
    except (csv.Error, StopIteration):
        return None
    return header, lines[reader.line_num :]


def _mark_blanks(line: str) -> str:
    """A body line with ``nan`` in each empty cell after the first, which the tokenizer would refuse; the
    ``"\\r"`` of a ``"\\r\\n"`` line end goes, so a trailing empty cell is one too."""
    line = line.removesuffix("\r").replace(",,", ",nan,").replace(",,", ",nan,")
    return line + "nan" if line.endswith(",") else line


def read_block(lines: list[str], n_cols: int, converters: dict | None = None) -> np.ndarray | None:
    """The (rows, ``n_cols``) float array that CSV body ``lines`` spell, read by :func:`numpy.loadtxt`.

    Blank lines (``""`` or ``"\\r"``) are dropped, as :func:`csv_rows`
    skips them, and every empty cell after the first is marked ``nan``
    (:func:`_mark_blanks`); ``converters`` maps a column to a function of
    its cell text, as in :func:`numpy.loadtxt`. The tokenizer quotes and
    strips cells as :mod:`csv` and ``str.strip`` do, and it converts
    digits with the same ``PyOS_string_to_double`` as :func:`float`, so a
    block it takes holds the bits :func:`read_table` would hold. The
    result is None where the two readers could part ways, and the caller
    falls back to :func:`csv_rows`:

    - a line holds ``n`` or ``N``, so a cell may spell ``nan`` or ``inf``:
      without one, every NaN in the block is a marked blank;
    - a line holds ``"\\r"`` before its end, which :mod:`csv` reads as a
      line break (a blank row, a quoted cell's text or an error);
    - the tokenizer refuses a cell (a whitespace-only one, ``1_000``,
      non-ASCII digits) or the number of cells in a row changes;
    - a line holds a comma-separated piece longer than
      ``csv.field_size_limit()``, so :mod:`csv` may refuse that field
      however valid its digits. :mod:`csv` limits fields, not lines, and
      each field of a block the tokenizer takes is a number, which holds
      no comma, so no field is longer than its piece;
    - the block has fewer rows than non-blank lines: a quoted cell ran
      over a line end, and the tokenizer joins lines that :mod:`csv`
      keeps apart. Blank lines are dropped before tokenizing because the
      tokenizer ends an open quote at an empty line, which would hide
      the join.
    """
    limit = csv.field_size_limit()
    for line in lines:
        if (
            "n" in line
            or "N" in line
            or 0 <= line.find("\r") < len(line) - 1
            or (len(line) > limit and max(map(len, line.split(","))) > limit)
        ):
            return None
    lines = [marked for marked in map(_mark_blanks, lines) if marked]
    if not lines:
        return np.empty((0, n_cols))
    try:
        block = np.loadtxt(lines, delimiter=",", comments=None, quotechar='"', ndmin=2, converters=converters)
    except ValueError:
        return None
    return block if block.shape == (len(lines), n_cols) else None


def read_file(path: str | Path, parse: Callable[..., object], *args):
    """``parse(text, *args)`` of the UTF-8 text of file ``path``, less a leading BOM, line endings untranslated as :mod:`csv` expects.

    Text that is not UTF-8 or not valid JSON raises SchemaError naming the
    file; a typed error of ``parse`` gets the path put in front of its
    message. ``OSError`` passes through.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return parse(fh.read(), *args)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{path}: {exc}") from None
    except WarpGrowthError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


_REQUIRED = object()
_INT_LIMITS = {int: 2**63 - 1, float: sys.float_info.max}


def _is(value, kind) -> bool:
    """Whether a JSON value is a ``kind`` (``[kind]``: a list of them); an int in range is a float, a bool is neither."""
    if isinstance(kind, list):
        return type(value) is list and all(_is(v, kind[0]) for v in value)
    if type(value) is int and kind in _INT_LIMITS:
        return abs(value) <= _INT_LIMITS[kind]
    return type(value) is kind


def json_field(obj, key: str, kind, where: str, error: type[WarpGrowthError] = SchemaError, default=_REQUIRED):
    """``obj[key]`` of a parsed JSON object, checked to be a ``kind`` (floats come back as ``float``).

    ``kind`` is ``int``, ``float``, ``str``, ``bool``, ``dict`` or a list
    of one of them such as ``[float]``. A missing key gives ``default`` if
    one is passed. Otherwise ``error`` names ``where`` and ``key``.
    """
    if type(obj) is not dict:
        raise error(f"{where} must be an object, got {reprlib.repr(obj)}")
    if key not in obj and default is not _REQUIRED:
        return default
    if key not in obj:
        raise error(f"{where} is missing {key!r}")
    value = obj[key]
    if not _is(value, kind):
        name = f"list of {kind[0].__name__}" if isinstance(kind, list) else kind.__name__
        raise error(f"{where}: {key!r} must be {name}, got {reprlib.repr(value)}")
    return float(value) if kind is float else value


def read_table(text: str, first: Callable[[str], float] = float) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Parse a CSV table into its header, a (rows, columns) float array and the mask of its blank cells.

    Every body cell is stripped with ``str.strip``, which also removes
    ``\\x1c``-``\\x1f``. Column 0 goes through ``first``: ``float`` for a
    column table, :func:`~warpgrowth.timeseries.month_index` for a panel.
    Any other cell is a number; an empty one is NaN and True in the mask.
    Blank lines are skipped, and empty text gives an empty header and
    (0, 0) arrays. The body goes through :func:`read_block`; text it does
    not take is read row by row with :func:`csv_rows`, which gives the
    same arrays or names the first parse error in file order. The values
    themselves are each caller's to check.

    Raises
    ------
    SchemaError
        If :func:`csv_rows` fails, a row has a different number of cells
        than the header, or a cell is not a number (``first`` raising
        ValueError included). Rows are counted from 1 at the header.
    GridError
        As ``first`` raises it, for a malformed date.
    """
    split = split_header(text)
    if split is not None:
        data = read_block(split[1], len(split[0]), None if first is float else {0: first})
        if data is not None:
            return split[0], data, np.isnan(data)
    rows = csv_rows(text)
    if not rows:
        return [], np.empty((0, 0)), np.empty((0, 0), bool)
    header, body = rows[0], rows[1:]
    data = np.empty((len(body), len(header)))
    blank = np.zeros(data.shape, bool)
    for lineno, (row, out, gaps) in enumerate(zip(body, data, blank), start=2):
        if len(row) != len(header):
            raise SchemaError(f"row {lineno}: expected {len(header)} cells, got {len(row)}")
        for j, cell in enumerate(map(str.strip, row)):
            try:
                out[j] = first(cell) if j == 0 else float(cell) if cell else math.nan
            except ValueError:
                raise SchemaError(f"row {lineno}, column {header[j]!r}: cannot parse {reprlib.repr(cell)}") from None
            gaps[j] = j > 0 and not cell
    return header, data, blank


def read_unit_table(text: str, min_columns: int) -> tuple[list[str], np.ndarray]:
    """:func:`read_table` of a ``t_normalized,<cols>`` table of at least ``min_columns`` columns.

    GridError unless the first header cell is ``t_normalized``, there are
    at least 2 rows and the first column is ``linspace(0, 1, m)`` within
    1e-12 (naming the first row off it); SchemaError for too few columns,
    or naming the row and column of the first cell, in row-major order,
    that is empty or not finite. Rows are counted from 1 at the header.
    """
    header, data, blank = read_table(text)
    if not header or header[0] != "t_normalized":
        raise GridError(f"first header cell must be 't_normalized', got {reprlib.repr(header[0] if header else '')}")
    if len(header) < min_columns:
        raise SchemaError(f"needs at least {min_columns} columns, got {len(header)}")
    m = data.shape[0]
    if m < 2:
        raise GridError(f"table needs at least 2 rows, got {m}")
    t = data[:, 0]
    off = np.flatnonzero(~(np.abs(t - np.linspace(0.0, 1.0, m)) <= 1e-12))
    if off.size:
        i = int(off[0])
        raise GridError(f"row {i + 2}: t_normalized {float(t[i])!r} is not point {i} of a uniform {m}-point grid on [0, 1]")
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, j = bad[0]
        problem = "empty cell" if blank[i, j] else f"value {float(data[i, j])!r} is not finite"
        raise SchemaError(f"row {i + 2}, column {header[j]!r}: {problem}")
    return header, data

"""The package's one CSV dialect and its file-reading boundary.

Every CSV artifact is written here, floats at 17 significant digits so a
read-back is exact: column tables (``t_normalized`` or ``t`` first, a float
in every cell) by :func:`write_table`, mixed rows by :func:`write_rows`.
Input files go through :func:`read_file`, so malformed content raises a
typed error (SchemaError, GridError) naming the file, never a builtin;
every ``t_normalized`` table is checked by :func:`read_unit_table`.

Numeric bodies are read by :func:`read_block`, which hands the lines
after the header (:func:`split_header`) to :func:`numpy.loadtxt`'s C
tokenizer. It returns None for any text the tokenizer might read other
than :mod:`csv` and :func:`float` do; the caller then reads it again
through :func:`csv_rows`, which is the reference and names the first bad
cell. Only the header, whose names may be quoted or hold line breaks,
always goes through :mod:`csv`.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import reprlib
import sys
from collections.abc import Callable, Iterable, Sequence
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import GridError, SchemaError, WarpGrowthError


def _line_writer() -> Callable[[Sequence], str]:
    """Render one row as a CSV line ending in ``"\\n"``.

    csv's own ``"\\r\\n"`` terminator makes it quote ``"\\r"`` as well as
    ``"\\n"``; ``writerow`` returns the line that ``write`` hands back.
    """
    writerow = csv.writer(SimpleNamespace(write=lambda line: line)).writerow
    return lambda cells: writerow(cells)[:-2] + "\n"


def write_table(header: Sequence[str], columns: Sequence[np.ndarray]) -> str:
    """Render a column table as CSV text.

    ``columns`` holds 1-D arrays (one column each) and 2-D arrays (one
    column per row), stacked in order; together they must give one column
    per header cell. The header goes through :mod:`csv`, so names that
    contain ``,``, ``"`` or a line break are quoted. Each body row is
    formatted with ``"%.17g"``, which gives the same text as
    ``format(v, ".17g")`` (``nan``, ``inf``, ``-0`` included) in a single
    ``%`` per row.
    """
    body = np.vstack(columns).T
    if body.shape[1] != len(header):
        raise ValueError(f"{len(header)} header cells for {body.shape[1]} columns")
    row_format = ",".join(["%.17g"] * len(header)) + "\n"
    return _line_writer()(header) + "".join([row_format % tuple(row) for row in body.tolist()])


def write_rows(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render a header and rows of mixed cells as CSV text, quoted like :func:`write_table`'s header.

    Float cells (numpy floats included) are written at ``"%.17g"``, other
    cells as their ``str``.
    """
    line = _line_writer()
    return line(header) + "".join([line(["%.17g" % c if isinstance(c, float) else c for c in row]) for row in rows])


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


#: ASCII characters that numpy's float parser strips as whitespace and ``float`` refuses.
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def read_block(lines: list[str], n_cols: int, converters: dict | None = None) -> np.ndarray | None:
    """The (rows, ``n_cols``) float array that CSV body ``lines`` spell, read by :func:`numpy.loadtxt`.

    Blank lines (``""`` or ``"\\r"``) are skipped, as :func:`csv_rows`
    skips them; ``converters`` maps a column to a function of its cell
    text, as in :func:`numpy.loadtxt`. The tokenizer quotes and strips
    cells as :mod:`csv` and :func:`float` do, and both convert digits
    with the same ``PyOS_string_to_double``, so a block it takes holds
    the bits :func:`read_table` would hold. The result is None where
    the two readers could part ways, and the caller falls back to
    :func:`csv_rows`:

    - the tokenizer refuses a cell (an empty one, ``1_000``, non-ASCII
      digits) or the number of cells in a row changes;
    - a line is longer than ``csv.field_size_limit()``, so :mod:`csv`
      may refuse one of its fields however valid its digits;
    - a line holds ``\\x1c``-``\\x1f``, which only numpy strips;
    - the block has fewer rows than non-blank lines: a quoted cell ran
      over a line end, and the tokenizer joins lines that :mod:`csv`
      keeps apart.
    """
    limit = csv.field_size_limit()
    if any(len(line) > limit or any(c in line for c in _NUMPY_ONLY_SPACE) for line in lines):
        return None
    n_rows = sum(line not in ("", "\r") for line in lines)
    if not n_rows:
        return np.empty((0, n_cols))
    try:
        block = np.loadtxt(lines, delimiter=",", comments=None, quotechar='"', ndmin=2, converters=converters)
    except ValueError:
        return None
    return block if block.shape == (n_rows, n_cols) else None


def read_file(path: str | Path, parse: Callable[..., object], *args):
    """``parse(text, *args)`` of the UTF-8 text of file ``path``, line endings untranslated as :mod:`csv` expects.

    Text that is not UTF-8 or not valid JSON raises SchemaError naming the
    file; a typed error of ``parse`` gets the path put in front of its
    message. ``OSError`` passes through.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
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


def read_table(text: str) -> tuple[list[str], np.ndarray]:
    """Parse a column table into its header and a (rows, columns) float array.

    Blank lines are skipped. Empty text gives an empty header and a (0, 0)
    array. The body goes through :func:`read_block`; text it does not take
    is read cell by cell with :func:`csv_rows` and ``float``, which gives
    the same array or names the error.

    Raises
    ------
    SchemaError
        If :func:`csv_rows` fails, a row has a different number of cells
        than the header, or a cell is not a number. Rows are counted from
        1 at the header.
    """
    split = split_header(text)
    data = None if split is None else read_block(split[1], len(split[0]))
    if data is not None:
        return split[0], data
    rows = csv_rows(text)
    if not rows:
        return [], np.empty((0, 0))
    header, body = rows[0], rows[1:]
    try:
        data = np.array([list(map(float, row)) for row in body], dtype=float)
    except ValueError:
        data = None
    if data is None or data.shape != (len(body), len(header)):
        for lineno, row in enumerate(body, start=2):
            if len(row) != len(header):
                raise SchemaError(f"row {lineno}: expected {len(header)} cells, got {len(row)}")
            for name, cell in zip(header, row):
                try:
                    float(cell)
                except ValueError:
                    raise SchemaError(f"row {lineno}, column {name!r}: cannot parse {reprlib.repr(cell)}") from None
    return header, data.reshape(len(body), len(header))


def read_unit_table(text: str, min_columns: int) -> tuple[list[str], np.ndarray]:
    """:func:`read_table` of a ``t_normalized,<cols>`` table of at least ``min_columns`` columns.

    GridError unless the first header cell is ``t_normalized``, there are
    at least 2 rows and the first column is ``linspace(0, 1, m)`` within
    1e-12 (naming the first row off it); SchemaError for too few columns
    or a cell that is not finite (naming its row and column). Rows are
    counted from 1 at the header.
    """
    header, data = read_table(text)
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
        raise SchemaError(f"row {i + 2}, column {header[j]!r}: value {float(data[i, j])!r} is not finite")
    return header, data

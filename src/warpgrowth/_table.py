"""The package's one CSV dialect and its file-reading boundary.

Every CSV artifact is written here, floats at 17 significant digits so a
read-back is exact: column tables (``t_normalized`` or ``t`` first, a float
in every cell) by :func:`write_table`, mixed rows by :func:`write_rows`.
Input files go through :func:`read_file`, so malformed content raises a
typed error (SchemaError, GridError) naming the file, never a builtin;
every ``t_normalized`` table is checked by :func:`read_unit_table`.
"""

from __future__ import annotations

import csv
import io
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
    array.

    Raises
    ------
    SchemaError
        If :func:`csv_rows` fails, a row has a different number of cells
        than the header, or a cell is not a number. Rows are counted from
        1 at the header.
    """
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

"""The one column-table format shared by every float CSV artifact.

A column table is a header row of names followed by one row per grid point
with a float in every column, written at 17 significant digits so a
read-back is exact. The warp, diagnostic, eigenfunction, mode and truth
CSVs all use it, with ``t_normalized`` (or ``t``) as the first column.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Sequence

import numpy as np

from .errors import GridError, SchemaError


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
    # csv quotes a field holding a character of the line terminator, so the
    # default "\r\n" makes it quote names with "\r" as well as "\n"; the
    # header then ends in "\n" like every other row.
    head = io.StringIO()
    csv.writer(head).writerow(header)
    row_format = ",".join(["%.17g"] * len(header)) + "\n"
    return head.getvalue()[:-2] + "\n" + "".join([row_format % tuple(row) for row in body.tolist()])


def read_table(text: str) -> tuple[list[str], np.ndarray]:
    """Parse a column table into its header and a (rows, columns) float array.

    Blank lines are skipped. Empty text gives an empty header and a (0, 0)
    array.

    Raises
    ------
    SchemaError
        If a row has a different number of cells than the header, or a
        cell is not a number. Rows are counted from 1 at the header.
    """
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
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
                    raise SchemaError(f"row {lineno}, column {name!r}: cannot parse {cell!r}") from None
    return header, data.reshape(len(body), len(header))


def check_unit_grid(column: np.ndarray) -> None:
    """Raise GridError, naming the first bad row, unless ``column`` is ``linspace(0, 1, m)`` within 1e-12."""
    off = np.flatnonzero(~(np.abs(column - np.linspace(0.0, 1.0, len(column))) <= 1e-12))
    if off.size:
        i = int(off[0])
        raise GridError(
            f"row {i + 2}: t_normalized {float(column[i])!r} is not point {i} of a uniform {len(column)}-point grid on [0, 1]"
        )

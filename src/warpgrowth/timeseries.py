"""Panel ingestion and the monthly time grid.

Month indices count months since a fixed epoch: index 1 is January 1987.
Under this convention December 1998 is month 144, November 2000 is month
167 and July 2013 is month 319.

A :class:`Panel` holds n series as one n x m value array, NaN where a
value is missing, validated once when built. Every stage works on its
row masks and column slices; a sample is built as a panel, not stacked
from rows, and one series is a one-row panel.

:func:`parse_panel` reads a panel CSV with the package's one CSV body
reader, :func:`~warpgrowth._table.read_table`, its date column converted
by :func:`month_index`, and then checks the months and the levels.
"""

from __future__ import annotations

import math
import operator
import re
import reprlib
from dataclasses import dataclass

import numpy as np

from ._table import read_table, write_rows
from .errors import EmptyPanelError, GridError, MissingDataError, SchemaError, WarpGrowthError

EPOCH_YEAR = 1987

_DATE_RE = re.compile(r"^(\d{4})-(\d{2})$")


def month_index(label: str) -> int:
    """Convert a ``YYYY-MM`` label to a month index (1987-01 -> 1)."""
    m = _DATE_RE.match(label.strip())
    if not m:
        raise GridError(f"malformed date {reprlib.repr(label)}; expected YYYY-MM")
    year, month = int(m.group(1)), int(m.group(2))
    if not 1 <= month <= 12:
        raise GridError(f"month out of range in date {label!r}")
    return (year - EPOCH_YEAR) * 12 + month


def month_label(index: int) -> str:
    """Convert a month index back to its ``YYYY-MM`` label."""
    year = EPOCH_YEAR + (index - 1) // 12
    month = (index - 1) % 12 + 1
    return f"{year:04d}-{month:02d}"


@dataclass(frozen=True)
class TimeGrid:
    """Regular monthly grid of ``n_points`` months from ``start_month``, rescaled to the unit interval.

    Warps, FPCA and the simulation truth all live on :attr:`points`,
    ``linspace(0, 1, n_points)``; the month metadata keeps elapsed calendar
    time recoverable, as the grid maps ``start_month -> 0`` and
    ``end_month -> 1`` affinely.
    """

    start_month: int
    n_points: int

    def __post_init__(self):
        if self.n_points < 2:
            raise GridError(f"grid needs at least 2 points, got {self.n_points}")

    @property
    def end_month(self) -> int:
        return self.start_month + self.n_points - 1

    @property
    def elapsed_months(self) -> int:
        """Calendar months spanned from first to last grid point."""
        return self.n_points - 1

    @property
    def months(self) -> np.ndarray:
        return np.arange(self.start_month, self.start_month + self.n_points)

    @property
    def points(self) -> np.ndarray:
        """Grid point positions on the unit interval: ``linspace(0, 1, n_points)``."""
        return np.linspace(0.0, 1.0, self.n_points)

    def to_normalized(self, month: float) -> float:
        return (month - self.start_month) / self.elapsed_months

    def index_of(self, month: int) -> int:
        if not self.start_month <= month <= self.end_month:
            raise GridError(
                f"month {month} ({month_label(month)}) outside grid "
                f"[{month_label(self.start_month)}, {month_label(self.end_month)}]"
            )
        return month - self.start_month


_TINY = float(np.finfo(float).tiny)


def _first_bad_level(values: np.ndarray, missing: np.ndarray) -> tuple[int, int, str] | None:
    """``(i, j, why)`` for the first value in row-major order that is neither missing nor a valid index level, or None."""
    bad = np.argwhere(~(((values >= _TINY) & (values < math.inf)) | missing))
    if not bad.size:
        return None
    i, j = bad[0]
    v = float(values[i, j])
    why = "is not positive" if not v > 0 else "is not finite" if v == math.inf else f"is subnormal (below {_TINY!r})"
    return i, j, f"value {v!r} {why}"


def freeze_fields(obj, fields, what: str) -> None:
    """Store each ``(key, dtype, shape)`` field of the frozen dataclass ``obj`` as its own read-only C-contiguous copy,
    so no record aliases or freezes its caller's array; GridError naming ``what`` for a field not of its ``shape``."""
    for key, dtype, shape in fields:
        a = np.array(getattr(obj, key), dtype=dtype, order="C")
        if a.shape != shape:
            raise GridError(f"{what}: {key} is {a.shape}, not {shape}")
        a.setflags(write=False)
        object.__setattr__(obj, key, a)


def freeze_integer(obj, key: str, low: int, high: float, error: type[WarpGrowthError]) -> None:
    """Store ``obj.<key>`` as an int; ``error`` unless it is an integer (a numpy one too, a bool not) in ``[low, high)``."""
    value = getattr(obj, key)
    if isinstance(value, bool) or not hasattr(value, "__index__") or not low <= operator.index(value) < high:
        raise error(f"{key} must be an integer in [{low}, {high}), got {value!r}")
    object.__setattr__(obj, key, operator.index(value))


def freeze_names(obj, what: str) -> tuple[str, ...]:
    """Store ``obj.names`` as a tuple and return it; SchemaError listing every repeated name in ``what``."""
    names = tuple(obj.names)
    if len(set(names)) != len(names):
        raise SchemaError(f"duplicate series names in {what}: {sorted({n for n in names if names.count(n) > 1})}")
    object.__setattr__(obj, "names", names)
    return names


@dataclass(frozen=True, eq=False)
class Panel:
    """n series on one monthly grid, as one read-only C-contiguous n x m array.

    Row ``i`` of ``values`` belongs to ``names[i]``; a NaN is a missing
    value. Every other value must be finite and at least
    ``np.finfo(float).tiny``, as in :func:`parse_panel`. A shape mismatch
    raises GridError, duplicate names or a bad value SchemaError.
    """

    grid: TimeGrid
    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        names = freeze_names(self, "panel")
        freeze_fields(self, (("values", float, (len(names), self.grid.n_points)),), f"{len(names)} series")
        bad = _first_bad_level(self.values, self.missing)
        if bad:
            i, j, why = bad
            raise SchemaError(f"series {names[i]!r}, point {j}: {why}")

    @property
    def n_series(self) -> int:
        return len(self.names)

    @property
    def missing(self) -> np.ndarray:
        """The n x m mask of missing values: ``np.isnan(values)``."""
        return np.isnan(self.values)

    @property
    def series(self) -> tuple[Panel, ...]:
        """One one-row :class:`Panel` per row; kept only for the benchmark harness."""
        rows = (slice(i, i + 1) for i in range(self.n_series))
        return tuple(Panel(self.grid, self.names[r], self.values[r]) for r in rows)

    def check_complete(self, lo: int, hi: int) -> None:
        """MissingDataError naming every series with a missing value on the inclusive index range [lo, hi]."""
        gappy = np.isnan(self.values[:, lo : hi + 1]).any(axis=1)
        if gappy.any():
            start = self.grid.start_month
            names = [name for name, gap in zip(self.names, gappy.tolist()) if gap]
            raise MissingDataError(f"series with missing values inside months [{start + lo}, {start + hi}]: {names}")


def _series_names(header: list[str]) -> list[str]:
    """The series names of a panel's header row; SchemaError unless it is ``date,<name1>,...`` with no empty name."""
    if header[0].strip() != "date":
        raise SchemaError(f"first header cell must be 'date', got {reprlib.repr(header[0])}")
    names = [c.strip() for c in header[1:]]
    if not names:
        raise SchemaError("no series columns after the date column")
    if any(not n for n in names):
        raise SchemaError("empty series name in header")
    return names


def parse_panel(csv_text: str) -> Panel:
    """Parse a panel from CSV text.

    Expected layout: header ``date,<name1>,<name2>,...``; one row per month
    with strictly consecutive ``YYYY-MM`` dates; empty (or blank) cells
    mark missing values, held as NaN. Every other cell must parse to a
    finite number of at least ``np.finfo(float).tiny``: zero, negatives,
    ``nan``, ``inf`` and subnormals such as ``1e-320`` are rejected,
    because the pipeline takes their logarithm.

    The text is read by :func:`~warpgrowth._table.read_table` with
    :func:`month_index` for the date column, under the cell rule every CSV
    input shares. Its parse errors come first, in file order; then the
    header, the row count and the months are checked, and last the levels.

    Raises
    ------
    SchemaError
        On a bad header, a row with the wrong number of cells, text that
        :mod:`csv` cannot split (such as a cell over its field size limit),
        a cell that is not a number, or a bad level; a cell error names
        its place as ``row N, column 'X'`` (rows counted from 1 at the
        header), and a bad level is the first in row-major order.
    GridError
        On fewer than 2 rows, a malformed date or non-consecutive months.
    """
    header, data, blank = read_table(csv_text, month_index)
    if not header:
        raise SchemaError("empty input")
    names = _series_names(header)
    if len(data) < 2:
        raise GridError("panel needs at least 2 monthly rows")
    months = data[:, 0].astype(int)
    gaps = np.flatnonzero(np.diff(months) != 1)
    if gaps.size:
        prev, cur = months[gaps[0]], months[gaps[0] + 1]
        raise GridError(f"non-consecutive months: {month_label(prev)} followed by {month_label(cur)}")
    # A blank cell is NaN in ``data``; a cell that spells nan is a bad level, named in file order.
    bad = _first_bad_level(data[:, 1:], blank[:, 1:])
    if bad:
        i, j, why = bad
        raise SchemaError(f"row {i + 2}, column {names[j]!r}: {why}")
    return Panel(TimeGrid(int(months[0]), len(months)), tuple(names), data[:, 1:].T)


def serialize_panel(panel: Panel) -> str:
    """Serialize a panel to the same CSV layout ``parse_panel`` accepts.

    Values are written with ``repr`` so parse(serialize(p)) reproduces the
    panel bit-exactly; names are quoted where :mod:`csv` needs it.
    """
    columns = zip(panel.grid.months.tolist(), panel.values.T.tolist())
    rows = ([month_label(month), *("" if math.isnan(v) else repr(v) for v in vals)] for month, vals in columns)
    return write_rows(["date", *panel.names], rows)


def restrict(panel: Panel, from_month: int, to_month: int) -> tuple[Panel, list[str]]:
    """Restrict a panel to the inclusive month window [from_month, to_month].

    Series with any missing value inside the window are dropped rather than
    imputed; the dropped names are returned alongside the new panel, whose
    rows keep their order.

    Raises
    ------
    GridError
        If the window is empty or falls outside the panel grid.
    EmptyPanelError
        If every series is dropped.
    """
    if to_month < from_month:
        raise GridError("empty window: to_month precedes from_month")
    cols = slice(panel.grid.index_of(from_month), panel.grid.index_of(to_month) + 1)
    gappy = np.isnan(panel.values[:, cols]).any(axis=1)
    if gappy.all():
        raise EmptyPanelError(f"all {panel.n_series} series have gaps inside the window")
    kept = ~gappy
    names = np.array(panel.names, dtype=object)
    sub = TimeGrid(from_month, to_month - from_month + 1)
    restricted = Panel(sub, tuple(names[kept]), panel.values[kept, cols])
    return restricted, names[gappy].tolist()

"""Panel ingestion and the monthly time grid.

Month indices count months since a fixed epoch: index 1 is January 1987.
Under this convention December 1998 is month 144, November 2000 is month
167 and July 2013 is month 319.
"""

from __future__ import annotations

import math
import re
import reprlib
from dataclasses import dataclass, field

import numpy as np

from ._table import csv_rows, write_rows
from .errors import EmptyPanelError, GridError, SchemaError

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


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TimeGrid:
    """Regular monthly grid, optionally rescaled to the unit interval.

    A normalized grid keeps its month metadata so elapsed calendar time
    stays recoverable: the grid maps ``start_month -> 0`` and
    ``end_month -> 1`` affinely.
    """

    start_month: int
    n_points: int
    normalized: bool = False

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
        """Grid point positions: month indices, or [0, 1] when normalized."""
        if self.normalized:
            return np.linspace(0.0, 1.0, self.n_points)
        return self.months.astype(float)

    def normalize(self) -> "TimeGrid":
        return TimeGrid(self.start_month, self.n_points, normalized=True)

    def to_normalized(self, month: float) -> float:
        return (month - self.start_month) / self.elapsed_months

    def to_month(self, t: float) -> float:
        return self.start_month + t * self.elapsed_months

    def index_of(self, month: int) -> int:
        if not self.start_month <= month <= self.end_month:
            raise GridError(
                f"month {month} ({month_label(month)}) outside grid "
                f"[{month_label(self.start_month)}, {month_label(self.end_month)}]"
            )
        return month - self.start_month

    def subgrid(self, from_month: int, to_month: int) -> "TimeGrid":
        if to_month < from_month:
            raise GridError("empty window: to_month precedes from_month")
        self.index_of(from_month)
        self.index_of(to_month)
        return TimeGrid(from_month, to_month - from_month + 1, normalized=self.normalized)


@dataclass(frozen=True)
class PriceSeries:
    """One market's index values with a per-point missing mask."""

    name: str
    values: np.ndarray
    missing: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        missing = (
            np.zeros(values.shape, dtype=bool)
            if self.missing is None
            else np.asarray(self.missing, dtype=bool)
        )
        if values.ndim != 1 or missing.shape != values.shape:
            raise ValueError(f"series {self.name!r}: values and mask must be equal-length 1-D arrays")
        present = values[~missing]
        if present.size and not np.all(present > 0):
            raise ValueError(f"series {self.name!r}: non-missing values must be positive")
        object.__setattr__(self, "values", _readonly(values))
        object.__setattr__(self, "missing", _readonly(missing))

    @property
    def n_points(self) -> int:
        return self.values.shape[0]

    def complete_on(self, lo: int, hi: int) -> bool:
        """True when no value is missing on the inclusive index range [lo, hi]."""
        return not self.missing[lo : hi + 1].any()


@dataclass(frozen=True)
class Panel:
    """Ordered collection of series sharing one monthly grid."""

    grid: TimeGrid
    series: tuple[PriceSeries, ...]

    def __post_init__(self):
        object.__setattr__(self, "series", tuple(self.series))
        for s in self.series:
            if s.n_points != self.grid.n_points:
                raise GridError(f"series {s.name!r} has {s.n_points} points, grid has {self.grid.n_points}")
        names = [s.name for s in self.series]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate series names: {dupes}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.series)

    @property
    def n_series(self) -> int:
        return len(self.series)

    def get(self, name: str) -> PriceSeries:
        for s in self.series:
            if s.name == name:
                return s
        raise KeyError(name)


_TINY = float(np.finfo(float).tiny)


def _value_problem(v: float) -> str | None:
    """Why a parsed cell value is not a valid index level, or None if it is."""
    if not v > 0:
        return "is not positive"
    if v == math.inf:
        return "is not finite"
    if v < _TINY:
        return f"is subnormal (below {_TINY!r})"
    return None


def _raise_first_bad_cell(data_rows: list[list[str]], names: list[str]) -> None:
    """Raise the error for the first bad value cell in row-major order.

    Called only once a bad cell is known to exist.
    """
    for i, row in enumerate(data_rows):
        for j, cell in enumerate(row[1:]):
            cell = cell.strip()
            if not cell:
                continue
            try:
                v = float(cell)
            except ValueError:
                raise SchemaError(f"row {i + 2}, column {names[j]!r}: cannot parse {reprlib.repr(cell)}") from None
            problem = _value_problem(v)
            if problem:
                raise SchemaError(f"row {i + 2}, column {names[j]!r}: value {reprlib.repr(cell)} {problem}")
    raise AssertionError("vectorised value check and cell scan disagree")


def parse_panel(csv_text: str) -> Panel:
    """Parse a panel from CSV text.

    Expected layout: header ``date,<name1>,<name2>,...``; one row per month
    with strictly consecutive ``YYYY-MM`` dates; empty (or blank) cells
    mark missing values. Every other cell must parse to a finite number of
    at least ``np.finfo(float).tiny``: zero, negatives, ``nan``, ``inf``
    and subnormals such as ``1e-320`` are rejected, because the pipeline
    takes their logarithm.

    Raises
    ------
    SchemaError
        On a bad header, a row with the wrong number of cells, text that
        :mod:`csv` cannot split (such as a cell over its field size limit),
        or a bad value cell; for a bad value the message names the first
        one in row-major order as ``row N, column 'X'`` (rows counted from 1
        at the header).
    GridError
        On fewer than 2 rows, a malformed date or non-consecutive months.
    """
    rows = csv_rows(csv_text)
    if not rows:
        raise SchemaError("empty input")
    header = rows[0]
    if header[0].strip() != "date":
        raise SchemaError(f"first header cell must be 'date', got {reprlib.repr(header[0])}")
    names = [c.strip() for c in header[1:]]
    if not names:
        raise SchemaError("no series columns after the date column")
    if any(not n for n in names):
        raise SchemaError("empty series name in header")

    data_rows = rows[1:]
    if len(data_rows) < 2:
        raise GridError("panel needs at least 2 monthly rows")

    months = []
    for lineno, row in enumerate(data_rows, start=2):
        if len(row) != len(names) + 1:
            raise SchemaError(f"row {lineno}: expected {len(names) + 1} cells, got {len(row)}")
        months.append(month_index(row[0]))
    for prev, cur in zip(months, months[1:]):
        if cur != prev + 1:
            raise GridError(
                f"non-consecutive months: {month_label(prev)} followed by {month_label(cur)}"
            )

    # One conversion per cell, one row at a time: blank cells become NaN.
    n = len(data_rows)
    values = np.empty((len(names), n))
    try:
        for i, row in enumerate(data_rows):
            values[:, i] = [float(c) if c.strip() else math.nan for c in row[1:]]
    except ValueError:
        _raise_first_bad_cell(data_rows, names)
    # NaN marks a blank cell, unless the cell spelled out "nan".
    missing = np.isnan(values)
    for j, i in zip(*np.nonzero(missing)):
        missing[j, i] = not data_rows[i][j + 1].strip()
    if not (((values >= _TINY) & (values < math.inf)) | missing).all():
        _raise_first_bad_cell(data_rows, names)

    grid = TimeGrid(months[0], n)
    series = tuple(PriceSeries(name, values[j], missing[j]) for j, name in enumerate(names))
    return Panel(grid, series)


def serialize_panel(panel: Panel) -> str:
    """Serialize a panel to the same CSV layout ``parse_panel`` accepts.

    Values are written with ``repr`` so parse(serialize(p)) reproduces the
    panel bit-exactly; names are quoted where :mod:`csv` needs it.
    """
    rows = (
        [month_label(int(month)), *("" if s.missing[i] else repr(float(s.values[i])) for s in panel.series)]
        for i, month in enumerate(panel.grid.months)
    )
    return write_rows(["date", *panel.names], rows)


def restrict(panel: Panel, from_month: int, to_month: int) -> tuple[Panel, list[str]]:
    """Restrict a panel to the inclusive month window [from_month, to_month].

    Series with any missing value inside the window are dropped rather than
    imputed; the dropped names are returned alongside the new panel.

    Raises
    ------
    GridError
        If the window is empty or falls outside the panel grid.
    EmptyPanelError
        If every series is dropped.
    """
    sub = panel.grid.subgrid(from_month, to_month)
    lo = panel.grid.index_of(from_month)
    hi = panel.grid.index_of(to_month)

    kept = []
    dropped = []
    for s in panel.series:
        if s.complete_on(lo, hi):
            kept.append(PriceSeries(s.name, s.values[lo : hi + 1], s.missing[lo : hi + 1]))
        else:
            dropped.append(s.name)
    if not kept:
        raise EmptyPanelError(f"all {panel.n_series} series have gaps inside the window")
    return Panel(sub, tuple(kept)), dropped

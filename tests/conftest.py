import numpy as np
import pytest

from warpgrowth.growthfit import WindowFits
from warpgrowth.timeseries import Panel, TimeGrid
from warpgrowth.warping import WarpSet


def exponential_panel(alphas, x0s=None, start_month=144, n_points=176, names=None) -> Panel:
    """Panel of exact exponentials X(t) = x0 * exp(alpha * t)."""
    alphas = list(alphas)
    x0s = [100.0] * len(alphas) if x0s is None else list(x0s)
    names = [f"m{i + 1:02d}" for i in range(len(alphas))] if names is None else list(names)
    t = np.arange(n_points, dtype=float)
    values = np.array([x0 * np.exp(a * t) for a, x0 in zip(alphas, x0s)]).reshape(len(alphas), n_points)
    return Panel(TimeGrid(start_month, n_points), names, values)


def one_series_panel(values, start_month=0, name="s") -> Panel:
    """Panel of one series on a grid of its length from ``start_month``; a NaN is a missing value."""
    values = np.asarray(values, dtype=float)
    return Panel(TimeGrid(start_month, values.size), (name,), values[None])


def rate_fits(names, alphas, window, clamped=None) -> WindowFits:
    """Fits on ``window`` carrying only rates and clamp flags (default: none clamped), the fields ``compute_warp_set`` reads."""
    n = len(names)
    clamped = np.zeros(n, dtype=bool) if clamped is None else clamped
    return WindowFits(window, names, alphas, np.full(n, np.nan), np.full(n, np.nan), clamped)


def warp_set(grid, rows, names=None) -> WarpSet:
    """Warps ``rows`` on the normalized ``grid``, named ``w0, w1, ...`` by default."""
    rows = np.asarray(rows, dtype=float).reshape(-1, grid.n_points)
    names = [f"w{i}" for i in range(rows.shape[0])] if names is None else names
    return WarpSet(grid, names, rows)


def _set_cell(row: int, column: int, cell: str):
    """The table edit that sets cell ``column`` of row ``row`` (row 0: the header) to ``cell``."""
    def edit(rows):
        rows = [list(r) for r in rows]
        rows[row][column] = cell
        return rows
    return edit


#: Malformed ``t_normalized`` tables, each an edit of the cell rows of a valid
#: table of at least 6 data rows and 2 columns (row 0 the header) and the text
#: its error must contain; ``{col}`` stands for the first value column's name.
#: The warp CSV of ``fpca --input`` and the truth CSVs of ``simulate --truth``
#: must both reject each with exit code 2.
MALFORMED_UNIT_TABLES = [
    pytest.param(_set_cell(0, 0, "time"), "first header cell must be 't_normalized', got 'time'", id="renamed-first-column"),
    pytest.param(lambda rows: rows[:2], "needs at least 2 rows, got 1", id="one-data-row"),
    pytest.param(_set_cell(3, 0, "0.5"), "row 4: t_normalized 0.5 is not point 2 of a uniform", id="off-grid-row"),
    pytest.param(_set_cell(2, 1, "nan"), "row 3, column '{col}': value nan is not finite", id="nan-cell"),
    pytest.param(_set_cell(5, 1, "-inf"), "row 6, column '{col}': value -inf is not finite", id="inf-cell"),
    pytest.param(_set_cell(4, 1, " "), "row 5, column '{col}': empty cell", id="blank-cell"),
    pytest.param(lambda rows: [r[:1] for r in rows], "needs at least 2 columns, got 1", id="too-few-columns"),
]


def edit_table(text: str, edit) -> str:
    """``text``, a table with no quoted cells, after ``edit`` of its rows of cells."""
    return "".join(",".join(row) + "\n" for row in edit([line.split(",") for line in text.splitlines()]))


@pytest.fixture
def small_exp_panel() -> Panel:
    return exponential_panel([0.005, 0.0075, 0.01, 0.0125, 0.015], n_points=60)

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


def one_series_panel(values, start_month=0, missing=None, name="s") -> Panel:
    """Panel of one series on a grid of its length from ``start_month``."""
    values = np.asarray(values, dtype=float)
    return Panel(TimeGrid(start_month, values.size), (name,), values[None], None if missing is None else [missing])


def rate_fits(names, alphas, clamped=None) -> WindowFits:
    """Fits carrying only rates and clamp flags (default: none clamped), the fields ``compute_warp_set`` reads."""
    n = len(names)
    clamped = np.zeros(n, dtype=bool) if clamped is None else clamped
    return WindowFits((0, 0), names, alphas, np.full(n, np.nan), np.full(n, np.nan), clamped)


def warp_set(grid, rows, names=None) -> WarpSet:
    """Warps ``rows`` on the normalized ``grid`` at rate 1, t0 = 0 and reliable, named ``w0, w1, ...`` by default."""
    rows = np.asarray(rows, dtype=float).reshape(-1, grid.n_points)
    n = rows.shape[0]
    names = [f"w{i}" for i in range(n)] if names is None else names
    return WarpSet(grid, names, rows, np.ones(n), np.zeros(n), np.ones(n, dtype=bool))


@pytest.fixture
def small_exp_panel() -> Panel:
    return exponential_panel([0.005, 0.0075, 0.01, 0.0125, 0.015], n_points=60)

import numpy as np
import pytest

from warpgrowth.timeseries import Panel, PriceSeries, TimeGrid


def exponential_panel(alphas, x0s=None, start_month=144, n_points=176, names=None) -> Panel:
    """Panel of exact exponentials X(t) = x0 * exp(alpha * t)."""
    alphas = list(alphas)
    x0s = [100.0] * len(alphas) if x0s is None else list(x0s)
    names = [f"m{i + 1:02d}" for i in range(len(alphas))] if names is None else list(names)
    grid = TimeGrid(start_month, n_points)
    t = np.arange(n_points, dtype=float)
    series = tuple(
        PriceSeries(name, x0 * np.exp(a * t)) for name, a, x0 in zip(names, alphas, x0s)
    )
    return Panel.from_series(grid, series)


@pytest.fixture
def small_exp_panel() -> Panel:
    return exponential_panel([0.005, 0.0075, 0.01, 0.0125, 0.015], n_points=60)

"""Seeded generator of the ``panel-scale`` input: a price-index panel CSV.

The panel lies on the S&P/Case-Shiller monthly grid, 1987-01 (month 1) to
2013-07 (month 319). Every series follows steady exponential growth before
the analysis window (1998-12..2013-07) and a boom-bust warp of calendar
time inside it, with small multiplicative noise throughout. Some series
start late, so their early months are empty. About 5% of series have a
short gap inside the window, so ``restrict`` drops them.

The generator uses only numpy and none of the package's code, so the inputs
do not change when the package does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FIRST_MONTH = 1  # 1987-01
LAST_MONTH = 319  # 2013-07
WINDOW = (144, 319)  # 1998-12..2013-07, as passed to ``--window``
WINDOW_ARG = "1998-12:2013-07"
GAPPED_SHARE = 0.05
DECIMALS = 6
NOISE_SD = 0.001


def month_label(index: int) -> str:
    year = 1987 + (index - 1) // 12
    return f"{year:04d}-{(index - 1) % 12 + 1:02d}"


@dataclass(frozen=True)
class GeneratedPanel:
    """A generated panel: CSV text plus what the output checks need.

    ``values`` is (n_series, n_months) with NaN at empty cells and holds
    exactly the numbers the CSV spells out.
    """

    csv_text: str
    names: tuple[str, ...]
    values: np.ndarray
    gapped: tuple[str, ...]

    @property
    def kept(self) -> tuple[str, ...]:
        gapped = set(self.gapped)
        return tuple(n for n in self.names if n not in gapped)

    def window_values(self) -> np.ndarray:
        """Values of the kept series on the analysis window, in panel order."""
        lo, hi = WINDOW[0] - FIRST_MONTH, WINDOW[1] - FIRST_MONTH
        gapped = set(self.gapped)
        rows = [i for i, n in enumerate(self.names) if n not in gapped]
        return self.values[rows, lo : hi + 1]


def _warps(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Boom-bust warps on the window's [0, 1] grid, identity on the first 23 months."""
    u = np.linspace(0.0, 1.0, m)
    u0 = 23.0 / (m - 1)
    v = np.clip((u - u0) / (1.0 - u0), 0.0, None)
    boom = np.sin(np.pi * v) ** 2
    bust = v**3
    # A ripple shared by all series bends every 24-month stretch after the
    # identity months, so the search picks a window at the start, as on the
    # real index, and every seed does the same amount of work downstream.
    ripple = 0.03 * 4.0 * v * (1.0 - v) * np.sin(2.0 * np.pi * 7.0 * v)
    a = rng.normal(0.35, 0.10, n)
    b = np.clip(rng.normal(0.50, 0.15, n), 0.05, None)
    return u + a[:, None] * boom - b[:, None] * bust + ripple


def generate_panel(seed: int, n_series: int = 2000) -> GeneratedPanel:
    """Generate the panel for ``seed``; the same seed gives the same bytes."""
    rng = np.random.default_rng(seed)
    months = np.arange(FIRST_MONTH, LAST_MONTH + 1)
    n_months = months.size
    lo = WINDOW[0] - FIRST_MONTH
    m = WINDOW[1] - WINDOW[0] + 1

    alpha = rng.uniform(0.003, 0.018, n_series)
    alpha_pre = rng.uniform(0.002, 0.010, n_series)
    x0 = rng.uniform(85.0, 100.0, n_series)
    log_x = np.empty((n_series, n_months))
    before = (months[:lo] - WINDOW[0]).astype(float)
    log_x[:, :lo] = alpha_pre[:, None] * before
    log_x[:, lo:] = (alpha * (m - 1))[:, None] * _warps(rng, n_series, m)
    log_x += rng.normal(0.0, NOISE_SD, log_x.shape)
    values = np.round(x0[:, None] * np.exp(log_x), DECIMALS)

    late = rng.random(n_series) < 0.3
    starts = np.where(late, rng.integers(FIRST_MONTH, WINDOW[0] + 1, n_series), FIRST_MONTH)
    values[months[None, :] < starts[:, None]] = np.nan

    n_gapped = int(round(GAPPED_SHARE * n_series))
    gapped_idx = np.sort(rng.choice(n_series, n_gapped, replace=False))
    for i in gapped_idx:
        width = int(rng.integers(1, 4))
        at = int(rng.integers(lo + 1, n_months - width - 1))
        values[i, at : at + width] = np.nan

    names = tuple(f"market_{i:04d}" for i in range(n_series))
    lines = ["date," + ",".join(names)]
    for j, month in enumerate(months):
        cells = ["" if v != v else repr(v) for v in values[:, j].tolist()]
        lines.append(month_label(int(month)) + "," + ",".join(cells))
    csv_text = "\n".join(lines) + "\n"
    return GeneratedPanel(csv_text, names, values, tuple(names[i] for i in gapped_idx))

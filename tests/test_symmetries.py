"""The model's symmetries, checked on the artifacts of the whole command chain.

``fit``, ``warp``, ``fpca`` and ``diagnose`` run through ``cli.main`` on a
random-walk panel and on a transformed copy of it:

* permuting the series permutes every per-series row and ``warps.csv``
  column, and leaves every other number of every artifact bit-identical;
* a calendar shift changes only the month fields;
* scaling every level by ``2**k`` keeps the window, or picks one whose mean
  R² is within 1e-12, and moves rates and warps within the rounding of the
  shifted logs.

The shift and the scaling are each composed with a permutation of the
series, so they also check that no number depends on where a series sits.
"""

import contextlib
import csv
import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from warpgrowth.cli import main
from warpgrowth.timeseries import Panel, TimeGrid, serialize_panel

CHAIN = settings(max_examples=30, deadline=None)

#: The month fields of each artifact, as key paths.
MONTH_FIELDS = {
    "fit.json": [
        ("window", "start"),
        ("window", "end"),
        ("analysis", "restriction", "start"),
        ("analysis", "restriction", "end"),
        ("analysis", "panel_start"),
        ("analysis", "panel_end"),
    ],
    "diagnostics_summary.json": [("anchor_window", "start"), ("anchor_window", "end")],
}


@st.composite
def chain_inputs(draw):
    """A random-walk panel, a restriction that trims up to 5 months at each end, and a permutation of its series."""
    n = draw(st.integers(min_value=8, max_value=30))
    m = draw(st.integers(min_value=40, max_value=90))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    logs = np.log(rng.uniform(1.0, 500.0, (n, 1))) + np.cumsum(rng.normal(0.005, 0.03, (n, m)), axis=1)
    panel = Panel(TimeGrid(draw(st.integers(min_value=0, max_value=400)), m), [f"s{i:02d}" for i in range(n)], np.exp(logs))
    start = panel.grid.start_month + draw(st.integers(min_value=0, max_value=5))
    window = (start, panel.grid.end_month - draw(st.integers(min_value=0, max_value=5)))
    return panel, window, draw(st.permutations(range(n)).filter(lambda p: p != sorted(p)))


def transformed(panel, order, shift=0, scale=1.0):
    """``panel`` with its series in ``order``, its calendar moved by ``shift`` months and its levels times ``scale``."""
    grid = TimeGrid(panel.grid.start_month + shift, panel.grid.n_points)
    return Panel(grid, [panel.names[i] for i in order], panel.values[list(order)] * scale)


def run_chain(panel, window, out):
    """Every artifact of fit (restricted to ``window``), warp, fpca and diagnose on ``panel``, by file name."""
    out.mkdir()
    path = out / "panel.csv"
    path.write_text(serialize_panel(panel))
    args = ["--input", str(path), "--output-dir", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fit", *args, "--window", f"{window[0]}:{window[1]}"]) == 0
        assert main(["warp", *args]) == 0
        assert main(["fpca", "--input", str(out / "warps.csv"), "--output-dir", str(out)]) == 0
        assert main(["diagnose", *args]) == 0
    return {p.name: p.read_text() for p in sorted(out.iterdir()) if p.name != "panel.csv"}


def _rows_by_name(value):
    """``value`` with every list of named objects, and every list of names, sorted by name."""
    if isinstance(value, dict):
        return {key: _rows_by_name(item) for key, item in value.items()}
    if isinstance(value, list):
        items = [_rows_by_name(item) for item in value]
        if items and all(isinstance(item, dict) and "name" in item for item in items):
            return sorted(items, key=lambda item: item["name"])
        return sorted(items) if items and all(isinstance(item, str) for item in items) else items
    return value


def by_name(artifacts, shift=0):
    """Each artifact with its per-series rows, and ``warps.csv``'s columns, sorted by name.

    JSON documents are parsed and re-serialized, so floats compare by
    their shortest repr, that is bit for bit; ``shift`` is subtracted from
    every month field first. CSV tables are lists of cell rows; every
    float cell carries 17 significant digits.
    """
    canonical = {}
    for name, text in artifacts.items():
        if name.endswith(".json"):
            document = json.loads(text)
            for path in MONTH_FIELDS.get(name, ()):
                *parents, key = path
                node = document
                for parent in parents:
                    node = node[parent]
                node[key] -= shift
            canonical[name] = json.dumps(_rows_by_name(document))
            continue
        rows = list(csv.reader(io.StringIO(text)))
        if name == "warps.csv":
            columns = [0, *sorted(range(1, len(rows[0])), key=rows[0].__getitem__)]
            rows = [[row[j] for j in columns] for row in rows]
        elif rows[0][0] == "name":
            rows = rows[:1] + sorted(rows[1:])
        canonical[name] = rows
    return canonical


class TestChainSymmetries:
    @CHAIN
    @given(drawn=chain_inputs())
    def test_permuting_series_permutes_every_row(self, tmp_path_factory, drawn):
        panel, window, order = drawn
        root = tmp_path_factory.mktemp("permuted")
        permuted = transformed(panel, order)
        before = run_chain(panel, window, root / "a")
        after = run_chain(permuted, window, root / "b")
        fit = json.loads(after["fit.json"])
        assert [row["name"] for row in fit["alpha_estimates"]["per_series"]] == list(permuted.names)
        assert after["warps.csv"].splitlines()[0].split(",")[1:] == list(permuted.names)
        assert by_name(after) == by_name(before)

    @CHAIN
    @given(drawn=chain_inputs(), shift=st.integers(min_value=-300, max_value=600).filter(bool))
    def test_calendar_shift_changes_only_month_fields(self, tmp_path_factory, drawn, shift):
        panel, window, order = drawn
        if panel.grid.start_month + shift < 0:
            shift = -shift
        root = tmp_path_factory.mktemp("shifted")
        before = run_chain(panel, window, root / "a")
        after = run_chain(transformed(panel, order, shift=shift), (window[0] + shift, window[1] + shift), root / "b")
        fit = json.loads(after["fit.json"])
        assert fit["window"]["start"] == json.loads(before["fit.json"])["window"]["start"] + shift
        assert by_name(after, shift) == by_name(before)

    @CHAIN
    @given(drawn=chain_inputs(), k=st.integers(min_value=-40, max_value=40).filter(bool))
    def test_scaling_levels_by_a_power_of_two_moves_rates_and_warps_by_rounding(self, tmp_path_factory, drawn, k):
        panel, window, order = drawn
        root = tmp_path_factory.mktemp("scaled")
        before = run_chain(panel, window, root / "a")
        scaled = transformed(panel, range(panel.n_series), scale=2.0**k)
        after = run_chain(scaled, window, root / "b")
        # The scaled panel, permuted: scaling commutes with a permutation bit for bit.
        assert by_name(run_chain(transformed(scaled, order), window, root / "c")) == by_name(after)

        fit, fit_scaled = json.loads(before["fit.json"]), json.loads(after["fit.json"])
        if fit_scaled["window"] != fit["window"]:
            assert abs(fit_scaled["mean_r2"] - fit["mean_r2"]) <= 1e-12
            return
        # Each log moves by at most a few units in the last place of |log X| + |k| log 2,
        # below 1e-13 for these levels, and so each log ratio d by at most 2e-13 and
        # each rate (sum tau d / sum tau^2 over at least 24 months) by at most 1e-14.
        rates = {r["name"]: r["alpha"] for r in fit["alpha_estimates"]["per_series"]}
        rates_scaled = {r["name"]: r["alpha"] for r in fit_scaled["alpha_estimates"]["per_series"]}
        assert rates_scaled.keys() == rates.keys()
        for name, alpha in rates.items():
            assert abs(rates_scaled[name] - alpha) <= 1e-14
        # h = d / (alpha M) over M months moves by at most (|dd| + |h| M |dalpha|) / (alpha M).
        warps = np.loadtxt(io.StringIO(before["warps.csv"]), delimiter=",", skiprows=1, ndmin=2)
        warps_scaled = np.loadtxt(io.StringIO(after["warps.csv"]), delimiter=",", skiprows=1, ndmin=2)
        months = warps.shape[0] - 1
        alpha = np.array(list(rates.values()))
        bound = (2e-13 + np.abs(warps[:, 1:]) * months * 1e-14) / (alpha * months)
        assert np.all(np.abs(warps_scaled[:, 1:] - warps[:, 1:]) <= bound)

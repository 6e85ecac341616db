"""Fuzzing of the command-line input boundary.

Mutated panel CSVs, warp CSVs and fit artifacts go through ``cli.main``,
which must return one of the documented exit codes and never raise: a
traceback on bad input is a bug.
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from warpgrowth.cli import main
from warpgrowth.timeseries import serialize_panel

from conftest import exponential_panel

EXIT_CODES = {0, 2, 3, 4}
FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

WRONG_CELLS = st.sampled_from(["x", "", " ", "nan", "inf", "-inf", "-1", "0", "1e999", "1e-320", '"', "true", "1,5"])
WRONG_JSON = st.sampled_from(
    ["x", "", 1.5, -3, 0, 10**400, True, None, [], {}, [1, 2], {"a": 1}, float("nan"), float("inf"), -1e308]
)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A panel with its fit artifact and warp CSV from the real pipeline."""
    root = tmp_path_factory.mktemp("base")
    panel = exponential_panel([0.004, 0.007, 0.01, 0.013], n_points=40, names=["a", "b", "c", "d"])
    panel_path = root / "panel.csv"
    panel_path.write_text(serialize_panel(panel))
    assert main(["fit", "--input", str(panel_path), "--output-dir", str(root)]) == 0
    assert main(["warp", "--input", str(panel_path), "--output-dir", str(root)]) == 0
    return root


@st.composite
def mutated_csv(draw, text):
    """``text`` as bytes after 1-3 mutations: ragged rows, dropped columns or
    rows, wrong cell types, huge cells, non-UTF-8 bytes."""
    lines = text.splitlines()
    raw = None
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        cells = lines[i].split(",")
        j = draw(st.integers(min_value=0, max_value=len(cells) - 1))
        kind = draw(st.sampled_from(["drop_cell", "extra_cell", "drop_row", "wrong", "huge", "bytes"]))
        if kind == "drop_cell":
            del cells[j]
        elif kind == "extra_cell":
            cells.insert(j, draw(WRONG_CELLS))
        elif kind == "drop_row" and len(lines) > 1:
            lines.pop(i)
            continue
        elif kind == "wrong":
            cells[j] = draw(WRONG_CELLS | st.text(max_size=6))
        elif kind == "huge":
            cells[j] = draw(st.sampled_from(["9", "x", "1"])) * draw(st.sampled_from([400, 100_000, 200_000]))
        elif kind == "bytes":
            raw = draw(st.integers(min_value=0, max_value=len("\n".join(lines))))
        lines[i] = ",".join(cells)
    data = ("\n".join(lines) + "\n").encode()
    if raw is not None:
        data = data[:raw] + b"\xff\xfe" + data[raw:]
    return data


def json_paths(value, path=()):
    """Every path to a value inside a parsed JSON document."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from json_paths(child, (*path, key))


@st.composite
def mutated_json(draw, text):
    """A JSON artifact after 1-3 dropped keys or values of the wrong type,
    sometimes truncated or with non-UTF-8 bytes."""
    doc = json.loads(text)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        paths = [p for p in json_paths(doc) if p]
        if not paths:
            break
        *parent_path, key = draw(st.sampled_from(paths))
        parent = doc
        for step in parent_path:
            parent = parent[step]
        if draw(st.booleans()):
            del parent[key]
        else:
            # A copy: the lists and dicts in WRONG_JSON are shared between
            # examples, and a later mutation of this document must not edit them.
            parent[key] = copy.deepcopy(draw(WRONG_JSON | st.just("y" * 200_000)))
    data = json.dumps(doc).encode()
    cut = draw(st.sampled_from(["keep", "truncate", "bytes"]))
    if cut == "truncate":
        data = data[: draw(st.integers(min_value=0, max_value=len(data)))]
    elif cut == "bytes":
        data = b"\xff" + data
    return data


class TestMutatedInputsExitCleanly:
    @FUZZ
    @given(data=st.data())
    def test_panel_csv(self, base, tmp_path, data):
        path = tmp_path / "panel.csv"
        path.write_bytes(data.draw(mutated_csv((base / "panel.csv").read_text())))
        out = str(tmp_path / "out")
        assert main(["fit", "--input", str(path), "--output-dir", out]) in EXIT_CODES
        assert main(["warp", "--input", str(path), "--output-dir", out, "--fit", str(base / "fit.json")]) in EXIT_CODES

    @FUZZ
    @given(data=st.data())
    def test_warp_csv(self, base, tmp_path, data):
        path = tmp_path / "warps.csv"
        path.write_bytes(data.draw(mutated_csv((base / "warps.csv").read_text())))
        out = str(tmp_path / "out")
        assert main(["fpca", "--input", str(path), "--output-dir", out, "--fit", str(base / "fit.json")]) in EXIT_CODES

    @FUZZ
    @given(data=st.data())
    def test_fit_artifact(self, base, tmp_path, data):
        path = tmp_path / "fit.json"
        path.write_bytes(data.draw(mutated_json((base / "fit.json").read_text())))
        panel, out = str(base / "panel.csv"), str(tmp_path / "out")
        for command in (
            ["warp", "--input", panel],
            ["diagnose", "--input", panel],
            ["fpca", "--input", str(base / "warps.csv"), "--k", "2"],
        ):
            assert main([*command, "--output-dir", out, "--fit", str(path)]) in EXIT_CODES

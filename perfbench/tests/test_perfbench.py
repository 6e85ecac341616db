"""Tests of the benchmark itself: generator, output checks, traced chains, spec.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import compare  # noqa: E402
import workloads as W  # noqa: E402
from panelgen import WINDOW, generate_panel  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402
from warpgrowth import cli, default_truth, fpca, parse_panel, run_study, simulate  # noqa: E402


def test_generator_is_deterministic_per_seed():
    a, b, c = generate_panel(3, 40), generate_panel(3, 40), generate_panel(4, 40)
    assert a.csv_text == b.csv_text
    assert a.gapped == b.gapped
    assert a.csv_text != c.csv_text
    assert len(a.gapped) == 2


def test_generator_values_are_what_the_csv_spells():
    gen = generate_panel(5, 30)
    panel = parse_panel(gen.csv_text)
    parsed = np.vstack([np.where(s.missing, np.nan, s.values) for s in panel.series])
    np.testing.assert_array_equal(parsed, gen.values)
    assert panel.names == gen.names


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """A 60-series panel taken through the four CLI commands in process."""
    work = tmp_path_factory.mktemp("chain")
    gen = generate_panel(7, 60)
    panel = work / "panel.csv"
    panel.write_text(gen.csv_text)
    out = work / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        for command in W.CLI_COMMANDS:
            assert cli.main(W.chain_argv(command, panel, out)) == 0
    fit = json.loads((out / "fit.json").read_text())
    model = json.loads((out / "fpca_model.json").read_text())
    return gen, out, fit, model, np.log(gen.window_values())


def test_checks_accept_genuine_outputs(chain):
    gen, out, fit, model, logs = chain
    ck = checks.Checks()
    W.check_panel_outputs(ck, gen, out)
    assert ck.attempted == 4
    assert ck.failures == []


def test_window_check_rejects_a_wrong_window(chain):
    _, _, fit, _, logs = chain
    wrong = json.loads(json.dumps(fit))
    wrong["window"] = {"start": fit["window"]["start"] + 30, "end": fit["window"]["end"] + 30}
    assert checks.check_window(wrong, logs, WINDOW[0], []) != []


def test_rate_check_rejects_a_perturbed_rate(chain):
    gen, _, fit, _, logs = chain
    bad = json.loads(json.dumps(fit))
    bad["alpha_estimates"]["per_series"][3]["alpha"] *= 1.0 + 1e-9
    assert checks.check_rates(fit, logs, gen.kept, WINDOW[0]) == []
    assert checks.check_rates(bad, logs, gen.kept, WINDOW[0]) != []


def test_eigenvalue_check_rejects_reordered_eigenvalues(chain):
    _, out, _, model, _ = chain
    swapped = json.loads(json.dumps(model))
    ev = swapped["eigenvalues"]
    ev[0], ev[1] = ev[1], ev[0]
    assert checks.check_eigenvalues(swapped, (out / "warps.csv").read_text()) != []


def test_dropped_check_rejects_a_wrong_list(chain):
    gen, _, fit, _, _ = chain
    assert checks.check_dropped(fit, gen.gapped) == []
    assert checks.check_dropped(fit, gen.gapped[1:]) != []


def test_identity_check_detects_a_changed_artifact(chain, tmp_path):
    _, out, _, _, _ = chain
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    reference = checks.digest_dir(out)
    assert checks.check_identical(reference, checks.digest_dir(copy)) == []
    with open(copy / "scores.csv", "a") as fh:
        fh.write("\n")
    assert checks.check_identical(reference, checks.digest_dir(copy)) != []


def test_study_and_sweep_checks_reject_out_of_bound_results():
    report = {
        "n_failed": 0,
        "n_replicates": 100,
        "truth_two_component_fraction": 0.96,
        "aggregates": {"ase": {"mean": 0.01}, "mise_phi": [0.03, 0.05], "var_explained_2": {"mean": 0.95}},
    }
    assert checks.check_study(report) == []
    assert checks.check_study({**report, "n_failed": 1}) != []
    assert checks.check_study({**report, "aggregates": {**report["aggregates"], "ase": {"mean": 0.2}}}) != []
    assert checks.check_sweep({"slopes": {"mean": -0.5, "lambda_1": -0.5}}) == []
    assert checks.check_sweep({"slopes": {"mean": -0.5, "lambda_1": -0.38}}) != []
    assert checks.check_sweep({"slopes": {"mean": -0.5, "lambda_1": -0.38}}, checks.DECAY_SLOPE) == []
    assert checks.check_sweep({"slopes": {"mean": -0.5, "lambda_1": -0.1}}, checks.DECAY_SLOPE) != []


def test_traced_chain_reproduces_run_study_windows_and_ase():
    truth = default_truth()
    report = run_study(truth, 6, seed=11).to_json_dict()
    tracer = Tracer()
    traced = [tracer.call("simulate.replicate", W.replicate_chain, truth, 11, i, tracer) for i in range(6)]
    plain = [W.replicate_chain(truth, 11, i, NullTracer()) for i in range(6)]
    expected = [((r["window_start"], r["window_end"]), r["ase"]) for r in report["replicates"]]
    assert traced == expected
    assert plain == expected
    assert tracer.calls(0, "growthfit.search_interval") == 6
    assert tracer.counter(0, "growthfit.search_interval.windows_scored") == 6 * 411


def test_traced_sweep_spans_every_eigensolve(monkeypatch):
    monkeypatch.setattr(W, "SWEEP_SIZES", (5, 10))
    monkeypatch.setattr(W, "SWEEP_REPEATS", 2)
    tracer = Tracer()
    W.run_sweep_traced(default_truth(), 4, tracer)
    assert tracer.calls(0, "simulate.convergence_sweep") == 1
    assert tracer.calls(0, "fpca.eigendecompose") == 4
    assert simulate.eigendecompose is fpca.eigendecompose


def test_paired_alternates_which_half_runs_first():
    order = []
    for index in range(4):
        W.paired(index, lambda: order.append("plain"), lambda: order.append("traced"))
    assert order == ["plain", "traced", "traced", "plain"] * 2


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
        with tracer.span("inner"):
            sum(range(10000))
    outer = tracer.spans[0]
    inner = tracer.durations(0, "inner")
    assert outer.self_s == pytest.approx(outer.duration - sum(inner))
    assert tracer.descendants_self_time(0, "outer") == {"inner": pytest.approx(sum(inner))}


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == W.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == W.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(W.UNTRACED) == list(W.TRACED)


def test_compare_flags_wide_spread_as_unresolved():
    metric = {"better": "lower", "bound": 0.1}
    assert compare.verdict([1.0, 1.0, 1.0, 1.0], [1.05, 1.05, 1.05, 1.05], metric) == "within bound"
    assert compare.verdict([1.0, 1.0, 1.0, 1.0], [1.2, 1.2, 1.2, 1.2], metric).startswith("WORSE")
    assert compare.verdict([0.5, 1.0, 1.5, 2.0], [1.0, 1.0, 1.0, 1.0], metric) == "unresolved"
    assert compare.verdict([0.5, 1.0, 1.5, 2.0], [0.1, 0.2, 0.2, 0.3], metric) == "better (every run)"


def test_run_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", ".out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_compare_refuses_a_result_set_of_mixed_run_lengths(tmp_path):
    record = {"workload": "study", "seed": 1, "trace": 0, "seconds": 30,
              "result": {"metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}}
    path = tmp_path / "results.jsonl"
    path.write_text(json.dumps(record) + "\n" + json.dumps({**record, "seconds": 25}) + "\n")
    with pytest.raises(SystemExit):
        compare.load_results(path)

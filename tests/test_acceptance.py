"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines. Criterion 7 needs the S&P/Case-Shiller panel CSV, which is
not redistributable; point WARPGROWTH_CASE_SHILLER_CSV at it (or place it
at tests/data/case_shiller.csv) to enable the real-data reproduction, which
is otherwise skipped. Its call sequence also runs, never skipped, on a
synthetic panel whose window and rates are planted.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from warpgrowth import fpca
from warpgrowth.fpca import covariance_function, eigendecompose, fit_fpca
from warpgrowth.growthfit import estimate_alphas, search_interval
from warpgrowth.simulate import (
    HOUSING_STUDY_REFERENCE,
    convergence_sweep,
    default_truth,
    generate_replicate,
    run_study,
)
from warpgrowth.timeseries import Panel, TimeGrid, month_index, parse_panel, restrict, serialize_panel
from warpgrowth.warping import compute_warp_set

from conftest import exponential_panel, run_python, snapshot, warp_set
from oracles import oracle_eigendecompose

DATA_ENV = "WARPGROWTH_CASE_SHILLER_CSV"


def _real_data_path():
    env = os.environ.get(DATA_ENV)
    if env and Path(env).exists():
        return Path(env)
    bundled = Path(__file__).parent / "data" / "case_shiller.csv"
    return bundled if bundled.exists() else None


def _report(k, name, detail):
    print(f"\nACCEPTANCE {k} ({name}): PASS - {detail}")


def test_criterion_1_exact_model_recovery():
    start = time.perf_counter()
    alphas = np.linspace(0.003, 0.018, 20)
    panel = exponential_panel(alphas, n_points=176)
    result = search_interval(panel)
    estimates = estimate_alphas(panel, result.best_window)
    warps = compute_warp_set(panel, estimates)
    rel_err = np.abs(estimates.alpha - alphas) / alphas
    t = warps.grid.points
    sup_err = np.abs(warps.values - t).max()
    elapsed = time.perf_counter() - start
    assert rel_err.max() < 1e-10, rel_err.max()
    assert sup_err < 1e-10, sup_err
    assert elapsed < 1.0, elapsed
    _report(
        1,
        "exact-model recovery",
        f"max alpha rel err {rel_err.max():.2e}, warp sup err {sup_err:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_fpca_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_val = 0.0
    worst_fun = 0.0
    for _ in range(50):
        m = int(rng.integers(3, 13))
        grid = TimeGrid(0, m)
        a = rng.standard_normal((m, m))
        g = a @ a.T
        vals, phi = eigendecompose(g, grid)
        ovals, ophi = oracle_eigendecompose(g, grid)
        for k in range(m):
            tol = 1e-10 * max(1.0, abs(ovals[k]))
            diff = abs(vals[k] - ovals[k])
            assert diff <= tol, (m, k, diff)
            worst_val = max(worst_val, diff / max(1.0, abs(ovals[k])))
            fun_diff = min(np.abs(phi[k] - ophi[k]).max(), np.abs(phi[k] + ophi[k]).max())
            assert fun_diff < 1e-8, (m, k, fun_diff)
            worst_fun = max(worst_fun, fun_diff)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, elapsed
    _report(
        2,
        "FPCA oracle equivalence",
        f"50 surfaces, worst eigenvalue err {worst_val:.2e}, worst eigenfunction err {worst_fun:.2e}, {elapsed:.2f}s",
    )


def _fitted_models_for_suite():
    """Representative fitted models: smooth sample, low rank, pipeline output."""
    models = []
    rng = np.random.default_rng(33)
    t = np.linspace(0, 1, 41)
    grid = TimeGrid(0, 41)
    basis = np.vstack([np.sin(np.pi * k * t) for k in range(1, 5)])
    coef = rng.standard_normal((12, 4)) * np.array([0.3, 0.15, 0.08, 0.03])
    rows = t + coef @ basis
    ws = warp_set(grid, rows)
    models.append((fit_fpca(ws, k=6), ws))

    rank1 = np.vstack([t + 0.3 * basis[0], t - 0.3 * basis[0]])
    ws1 = warp_set(grid, rank1, ["r0", "r1"])
    models.append((fit_fpca(ws1, k=2), ws1))

    truth = default_truth()
    rep = generate_replicate(truth, np.random.default_rng(77))
    search = search_interval(rep.panel)
    est = estimate_alphas(rep.panel, search.best_window)
    ws2 = compute_warp_set(rep.panel, est)
    models.append((fit_fpca(ws2, k=10), ws2))
    return models


def test_criterion_3_variance_accounting():
    worst = 0.0
    for model, ws in _fitted_models_for_suite():
        g = covariance_function(ws)
        diag_integral = float(np.sum(model.weights * np.diag(g)))
        rel = abs(model.total_variance - diag_integral) / max(abs(diag_integral), 1e-300)
        assert rel < 1e-8, rel
        worst = max(worst, rel)
    _report(3, "variance accounting", f"3 fitted models, worst rel discrepancy {worst:.2e}")


def test_criterion_4_karhunen_loeve_reconstruction():
    truth = default_truth()
    rng = np.random.default_rng(4)
    n = 20
    xi = rng.standard_normal((n, truth.n_components))
    rows = truth.mean + (xi * np.sqrt(truth.eigenvalues)) @ truth.eigenfunctions
    grid = TimeGrid(truth.grid.start_month, truth.grid.n_points)
    ws = warp_set(grid, rows, [f"w{i:02d}" for i in range(n)])
    model = fit_fpca(ws, k=n - 1)
    w = model.weights
    centered = ws.values - model.mean
    energy = (centered**2) @ w
    prev = energy.copy()
    for kk in range(1, n):
        recon = model.scores[:, :kk] @ model.eigenfunctions[:kk]
        errs = ((centered - recon) ** 2) @ w
        assert np.all(errs <= prev + 1e-12), kk
        prev = errs
    final_rel = float((prev / energy).max())
    assert final_rel < 1e-8, final_rel
    _report(
        4,
        "Karhunen-Loeve reconstruction",
        f"n=20, K=19 residual {final_rel:.2e} of centered energy, monotone in K",
    )


def test_criterion_5_simulation_round_trip():
    start = time.perf_counter()
    truth = default_truth()
    report = run_study(truth, 100, seed=0)
    elapsed = time.perf_counter() - start
    assert report.n_failed == 0
    agg = report.aggregates
    ase = agg["ase"]["mean"]
    mise_phi1 = agg["mise_phi"][0]
    ve2 = agg["var_explained_2"]["mean"]
    ve2_truth = report.truth.two_component_fraction
    assert ase < 0.05, ase
    assert mise_phi1 < 0.15, mise_phi1
    assert abs(ve2 - ve2_truth) < 0.05, (ve2, ve2_truth)
    assert elapsed < 120.0, elapsed
    ref = HOUSING_STUDY_REFERENCE
    print(
        "\n  context (housing-index study reference, not asserted): "
        f"ASE {ref['ase_mean']}, MISE {ref['mise_phi_1']}/{ref['mise_phi_2']}, "
        f"VE2 mean {ref['var_explained_2_mean']:.0%}"
    )
    print(
        f"  this run: ASE {ase:.4f}, MISE {mise_phi1:.4f}/{agg['mise_phi'][1]:.4f}, "
        f"VE2 mean {ve2:.1%} (truth {ve2_truth:.1%}), "
        f"window {agg['window_start']['mean']:.2f}..{agg['window_end']['mean']:.2f}"
    )
    _report(
        5,
        "simulation round trip",
        f"ASE {ase:.4f} < 0.05, MISE1 {mise_phi1:.4f} < 0.15, |VE2 - truth| "
        f"{abs(ve2 - ve2_truth):.4f} < 0.05, {elapsed:.1f}s",
    )


def test_criterion_6_consistency_rates(monkeypatch):
    # Every sample covariance of the sweep has rank at most 10, so each one's
    # pivoted Cholesky factor must pass its certificate.
    declined = []
    low_rank_factor = fpca._low_rank_factor

    def counted(a):
        factor = low_rank_factor(a)
        declined.append(factor is None)
        return factor

    monkeypatch.setattr(fpca, "_low_rank_factor", counted)
    start = time.perf_counter()
    truth = default_truth()
    result = convergence_sweep(truth, (25, 100, 400), repeats=50, seed=0)
    elapsed = time.perf_counter() - start
    assert len(declined) == 150 and not any(declined), sum(declined)
    assert result.slopes["mean"] <= -0.4, result.slopes
    assert result.slopes["lambda_1"] <= -0.4, result.slopes
    assert elapsed < 120.0, elapsed
    _report(
        6,
        "consistency rates",
        "log-log slopes "
        + ", ".join(f"{k} {v:.3f}" for k, v in result.slopes.items())
        + f", {elapsed:.1f}s",
    )


@pytest.mark.skipif(
    _real_data_path() is None,
    reason=f"S&P/Case-Shiller CSV not supplied; set {DATA_ENV} or add tests/data/case_shiller.csv",
)
def test_criterion_7_real_data_reproduction():
    panel = parse_panel(_real_data_path().read_text())
    scan_panel, dropped = restrict(panel, month_index("1991-01"), month_index("2013-07"))
    result = search_interval(scan_panel)
    assert result.best_window == (month_index("1998-12"), month_index("2000-11")), result.best_window

    r2 = result.fits.r2
    assert np.all((r2 >= 0.96) & (r2 <= 1.0)), r2
    assert abs(r2.min() - 0.967) <= 0.005, r2.min()
    assert abs(r2.max() - 0.998) <= 0.005, r2.max()

    study_panel, _ = restrict(panel, month_index("1998-12"), month_index("2013-07"))
    estimates = estimate_alphas(study_panel, result.best_window)
    assert abs(estimates.mean_alpha - 0.0075) <= 0.0002, estimates.mean_alpha
    assert abs(estimates.sd_alpha - 0.0037) <= 0.0002, estimates.sd_alpha

    warps = compute_warp_set(study_panel, estimates)
    names = {n.lower(): n for n in warps.names}
    vegas = next(v for k, v in names.items() if "vegas" in k)
    portland = next(v for k, v in names.items() if "portland" in k)
    model = fit_fpca(warps, exclude=(vegas, portland), k=2)
    assert abs(model.var_explained[0] - 0.828) <= 0.015, model.var_explained
    assert abs(model.var_explained[1] - 0.13) <= 0.015, model.var_explained

    scores = dict(zip(model.score_names, model.scores))
    assert abs(scores[vegas][0] - 1.65) <= 0.15, scores[vegas]
    assert abs(scores[vegas][1] - 5.57) <= 0.15, scores[vegas]
    assert abs(scores[portland][0] - 4.82) <= 0.15, scores[portland]
    assert abs(scores[portland][1] - (-0.39)) <= 0.15, scores[portland]
    _report(
        7,
        "real-data reproduction",
        f"window Dec1998-Nov2000, mean alpha {estimates.mean_alpha:.4%}/mo, "
        f"variance split {model.var_explained[0]:.1%}/{model.var_explained[1]:.1%}",
    )


#: The twenty S&P/Case-Shiller markets; Dallas starts in 2000-01, so nineteen enter the analysis.
CASE_SHILLER_MARKETS = (
    "Phoenix", "Los Angeles", "San Diego", "San Francisco", "Denver", "Washington", "Miami", "Tampa",
    "Atlanta", "Chicago", "Boston", "Detroit", "Minneapolis", "Charlotte", "Las Vegas", "New York",
    "Portland", "Cleveland", "Dallas", "Seattle",
)


def synthetic_case_shiller_panel(seed=0):
    """A panel shaped like criterion 7's data, with its window and rates planted.

    Months 1987-01..2013-07. Each market grows at its own rate ``alpha`` on
    market time ``h``: ``log x(t) = log x0 + alpha (h(t) - t_start)`` with
    ``t_start`` = 1998-12. ``h`` is calendar time on 1998-12..2000-11 only.
    Before it, an early-1990s slump bends ``h`` below calendar time; after
    it, the boom-bust warp of the benchmark's panel generator
    (``perfbench/panelgen.py``) takes over. Dallas is empty before 2000-01.
    Returns the panel's CSV text and the planted rates by name.
    """
    rng = np.random.default_rng(seed)
    n = len(CASE_SHILLER_MARKETS)
    months = np.arange(1, 320, dtype=float)
    t_start, t_end, last = month_index("1998-12"), month_index("2000-11"), month_index("2013-07")
    alpha = rng.uniform(0.003, 0.012, n)
    x0 = rng.uniform(85.0, 100.0, n)
    slump = rng.uniform(0.5, 1.5, n)
    boom = rng.normal(0.35, 0.10, n)
    bust = np.clip(rng.normal(0.50, 0.15, n), 0.05, None)

    before = np.clip((t_start - months) / (t_start - month_index("1991-01")), 0.0, None)
    v = np.clip((months - t_end) / (last - t_end), 0.0, None)
    ripple = 0.03 * 4.0 * v * (1.0 - v) * np.sin(2.0 * np.pi * 7.0 * v)
    bend = boom[:, None] * np.sin(np.pi * v) ** 2 - bust[:, None] * v**3 + ripple
    h = months - 12.0 * slump[:, None] * np.sin(np.pi * before) ** 2 + (last - t_start) * bend
    values = x0[:, None] * np.exp(alpha[:, None] * (h - t_start))
    missing = np.zeros(values.shape, dtype=bool)
    missing[CASE_SHILLER_MARKETS.index("Dallas"), months < month_index("2000-01")] = True
    values[missing] = np.nan
    panel = Panel(TimeGrid(1, months.size), CASE_SHILLER_MARKETS, values)
    return serialize_panel(panel), dict(zip(CASE_SHILLER_MARKETS, alpha))


def test_criterion_7_call_sequence_on_a_synthetic_panel():
    # Criterion 7's calls, in its order, on a panel whose answers are known.
    text, planted = synthetic_case_shiller_panel()
    panel = parse_panel(text)
    scan_panel, dropped = restrict(panel, month_index("1991-01"), month_index("2013-07"))
    assert dropped == ["Dallas"]
    result = search_interval(scan_panel)
    assert result.best_window == (month_index("1998-12"), month_index("2000-11")), result.best_window
    assert np.all(result.fits.r2 >= 1.0 - 1e-12), result.fits.r2

    study_panel, dropped = restrict(panel, month_index("1998-12"), month_index("2013-07"))
    assert dropped == ["Dallas"]
    estimates = estimate_alphas(study_panel, result.best_window)
    alpha = np.array([planted[name] for name in study_panel.names])
    assert np.abs(estimates.alpha / alpha - 1.0).max() < 1e-10

    warps = compute_warp_set(study_panel, estimates)
    on_window = np.arange(warps.grid.n_points) <= warps.t0_index
    assert np.abs(warps.values[:, on_window] - warps.grid.points[on_window]).max() < 1e-10
    names = {n.lower(): n for n in warps.names}
    vegas = next(v for k, v in names.items() if "vegas" in k)
    portland = next(v for k, v in names.items() if "portland" in k)
    model = fit_fpca(warps, exclude=(vegas, portland), k=2)
    assert model.n_sample == 17
    held = model.out_of_sample
    assert [model.score_names[i] for i in np.flatnonzero(held)] == [vegas, portland]
    assert np.isfinite(model.scores[held]).all() and np.abs(model.scores[held]).max() > 0.0


#: Criterion 8's commands, run into the directory ``sys.argv[1]``: the
#: chain fit, warp, fpca and diagnose on a 20-series replicate of the default
#: truth, a held-out fpca whose --k 21 passes its 18 in-sample series (the
#: full-SVD completion), fit, warp and fpca on a 400-series replicate (more
#: series than months, so the covariance is a BLAS product), the simulation
#: study with its convergence sweep, and every eigenvalue and eigenfunction
#: that eigendecompose returns for the truth's rank-10 surface (its factor
#: path) and a full-rank surface (its eigh path).
CRITERION_8_SCRIPT = """
import dataclasses
import sys
from pathlib import Path
import numpy as np
from warpgrowth import default_truth, eigendecompose, generate_replicate, serialize_panel
from warpgrowth.cli import main

out = Path(sys.argv[1])
out.mkdir()
truth = default_truth()


def run(*argv):
    assert main([str(arg) for arg in argv]) == 0, argv


for n, name in ((truth.n, "chain"), (400, "wide")):
    panel = out / f"{name}.csv"
    rep = generate_replicate(dataclasses.replace(truth, n=n), np.random.default_rng(0))
    panel.write_text(serialize_panel(rep.panel))
    run("fit", "--input", panel, "--output-dir", out / name)
    run("warp", "--input", panel, "--output-dir", out / name)
    run("fpca", "--input", out / name / "warps.csv", "--output-dir", out / name)
chain = out / "chain"
run("diagnose", "--input", out / "chain.csv", "--output-dir", chain)
run("fpca", "--input", chain / "warps.csv", "--output-dir", out / "held", "--fit", chain / "fit.json",
    "--exclude", "sim01,sim07", "--k", "21")
run("simulate", "--default-truth", "--replicates", "5", "--seed", "0", "--convergence-sweep",
    "--output-dir", out / "sim")

u = truth.grid.points
low = sum(lam * np.outer(phi, phi) for lam, phi in zip(truth.eigenvalues, truth.eigenfunctions))
full = np.exp(-np.abs(np.subtract.outer(u, u)))
with open(out / "eigendecompose.bin", "wb") as fh:
    for g, rank in ((low, 10), (full, truth.grid.n_points)):
        vals, phi = eigendecompose(g, truth.grid)
        assert phi.shape == g.shape and np.count_nonzero(vals) == rank, np.count_nonzero(vals)
        fh.write(vals.tobytes() + phi.tobytes())
"""


def test_criterion_8_cli_determinism(tmp_path):
    # Each run is a fresh interpreter, so OpenBLAS takes its thread count
    # at numpy's import; on a one-core machine both runs use one thread.
    start = time.perf_counter()
    runs = []
    for threads in ("1", "2"):
        run_python(CRITERION_8_SCRIPT, tmp_path / threads, threads=threads)
        runs.append(snapshot(tmp_path / threads))
    one, two = runs
    assert list(one) == list(two)
    differ = [name for name in one if one[name] != two[name]]
    assert not differ, f"these artifacts differ between 1 and 2 OpenBLAS threads: {differ}"

    def listing(directory):
        return [name.split("/", 1)[1] for name in one if name.startswith(directory + "/")]

    fpca_files = [
        "eigenfunctions.csv", "fpca_model.json", "modes_k1.csv", "modes_k2.csv", "score_alpha_regression.json", "scores.csv"
    ]
    chain_files = ["diagnostics_summary.json", "fit.json", "setbacks.csv", "warps.csv", *fpca_files]
    assert listing("chain") == sorted(chain_files)
    assert listing("held") == fpca_files
    assert json.loads(one["held/fpca_model.json"])["n_retained"] == 21
    assert listing("sim") == ["convergence.csv", "convergence.json", "sim_replicates.csv", "sim_report.json"]
    # The fitted window starts after the panel's first month, yet the warps
    # span the whole panel: a header and 176 months.
    assert json.loads(one["chain/fit.json"])["window"]["start"] == 146
    assert len(one["chain/warps.csv"].splitlines()) == 177
    elapsed = time.perf_counter() - start
    _report(
        8,
        "CLI determinism",
        f"{len(one)} artifacts of all 5 commands byte-identical at 1 and 2 OpenBLAS threads, {elapsed:.1f}s",
    )

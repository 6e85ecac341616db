"""The three benchmark workloads, untraced and traced.

``study``
    ``run_study(default_truth(), 100, seed, n_jobs=nproc)``: the paper's
    Monte Carlo study, many small panels, so per-call overhead in the window
    search and the FPCA eigensolve dominates.
``sweep``
    ``convergence_sweep(default_truth(), (25, 100, 400), 50, seed)``: 150
    eigensolves of dense full-rank 176x176 covariances and no window search.
``panel-scale``
    The CLI chain fit -> warp -> fpca -> diagnose as four subprocesses on a
    generated 2000-series panel: interpreter import, CSV parsing and
    writing, and the window search and FPCA at n >> m.

An untraced run times whole passes and gives the end-to-end metrics. A
traced run times calls into each module's public functions from outside the
package and gives the per-layer metrics; its spans never enter an
end-to-end figure.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import warpgrowth.cli as cli
from warpgrowth import fpca, growthfit, simulate, warping
from warpgrowth.errors import WarpGrowthError

import checks
from panelgen import WINDOW, WINDOW_ARG, generate_panel
from spans import NullTracer, Tracer

NPROC = len(os.sched_getaffinity(0))
STUDY_REPLICATES = 100
SWEEP_SIZES = (25, 100, 400)
SWEEP_REPEATS = 50
PANEL_SERIES = 2000
CLI_COMMANDS = ("fit", "warp", "fpca", "diagnose")
SETUP_REPEATS = 6
IMPORT_REPEATS = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "growthfit.search_interval.self_s": "s",
    "growthfit.search_interval.calls": "count",
    "growthfit.search_interval.windows_scored": "count",
    "growthfit.estimate_alphas.self_s": "s",
    "warping.compute_warp_set.self_s": "s",
    "fpca.fit_fpca.self_s": "s",
    "fpca.eigendecompose.self_s": "s",
    "fpca.eigendecompose.calls": "count",
    "fpca.eigendecompose.call_ms_p50": "ms",
    "fpca.eigendecompose.call_ms_p90": "ms",
    "simulate.convergence_sweep.self_s": "s",
    "simulate.generate_replicate.self_s": "s",
    "simulate.generate_replicate.calls": "count",
    "simulate.error_metrics.self_s": "s",
    "simulate.replicate.self_s": "s",
    "simulate.replicate.p50_ms": "ms",
    "simulate.replicate.p90_ms": "ms",
    "simulate.run_study.t1_s": "s",
    "simulate.run_study.tN_s": "s",
    "simulate.run_study.speedup": "ratio",
    "timeseries.parse_panel.self_s": "s",
    "timeseries.parse_panel.calls": "count",
    "timeseries.parse_panel.mb_per_s": "MB/s",
    "timeseries.restrict.self_s": "s",
    "timeseries.restrict.dropped": "count",
    "warping.warps_to_csv.self_s": "s",
    "warping.warps_from_csv.self_s": "s",
    "warping.second_order_diagnostic.self_s": "s",
    "warping.second_order_diagnostic.calls": "count",
    "fpca.modes_of_variation.self_s": "s",
    "fpca.score_rate_regression.self_s": "s",
    "cli.import_s": "s",
    **{f"cli.{c}.{stat}": unit for c in CLI_COMMANDS for stat, unit in
       (("wall_s", "s"), ("other_s", "s"), ("bytes_written", "bytes"))},
    "trace.overhead_s": "s",
}


@dataclass
class Context:
    root: Path
    workload: str
    seed: int
    seconds: float
    work: Path
    #: Set-up wall times an untraced run takes between its passes.
    setups: list[float] = field(default_factory=list)


@dataclass
class Outcome:
    """Metrics of one run plus operation counts; ``info`` is printed, not returned."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    checks: checks.Checks
    info: list[str] = field(default_factory=list)


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], root: Path, log: Path) -> tuple[float, int, float]:
    """Run a child to completion; returns (wall s, exit code, peak RSS MB).

    ``os.wait4`` reads the child's own resource usage, so the peak RSS
    belongs to this child and not to any earlier one.
    """
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=child_env(root), cwd=root)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def timed_passes(fn, seconds: float, after=None) -> list[float]:
    """Run ``fn`` until its passes add up to ``seconds`` (at least once); wall time per pass.

    ``after`` sees each pass's result and the timed seconds so far, outside the
    timed region.
    """
    walls = []
    while True:
        start = time.perf_counter()
        result = fn()
        walls.append(time.perf_counter() - start)
        if after is not None:
            after(result, sum(walls))
        if sum(walls) >= seconds:
            return walls


def setup_once(ctx: Context) -> float:
    """Set up in a fresh process; its wall time from spawn to exit."""
    argv = [sys.executable, str(Path(__file__).with_name("setup_child.py")),
            "--workload", ctx.workload, "--seed", str(ctx.seed), "--out", str(ctx.work / "setup")]
    wall, code, _ = run_child(argv, ctx.root, ctx.work / "setup.log")
    if code != 0:
        raise RuntimeError(f"set-up child exited {code}: {(ctx.work / 'setup.log').read_text()}")
    shutil.rmtree(ctx.work / "setup", ignore_errors=True)
    return wall


def untraced_passes(ctx: Context, fn, after=None) -> list[float]:
    """``timed_passes`` over ``ctx.seconds``, with ``SETUP_REPEATS`` set-ups spread
    over the same stretch of passes, between them, into ``ctx.setups``.

    Host load drifts over seconds, so set-ups taken in one burst would all see
    the same moment of it and their median would move from run to run.
    """

    def after_pass(result, timed_s: float):
        if after is not None:
            after(result)
        if len(ctx.setups) < SETUP_REPEATS and timed_s >= len(ctx.setups) * ctx.seconds / SETUP_REPEATS:
            ctx.setups.append(setup_once(ctx))

    walls = timed_passes(fn, ctx.seconds, after=after_pass)
    while len(ctx.setups) < SETUP_REPEATS:
        ctx.setups.append(setup_once(ctx))
    return walls


def measure_import(ctx: Context) -> float:
    argv = [sys.executable, "-c", "import warpgrowth.cli"]
    walls = []
    for _ in range(IMPORT_REPEATS):
        wall, code, _ = run_child(argv, ctx.root, ctx.work / "import.log")
        if code != 0:
            raise RuntimeError(f"import child exited {code}: {(ctx.work / 'import.log').read_text()}")
        walls.append(wall)
    return median(walls)


def pass_list(walls: list[float]) -> str:
    return f"{len(walls)} (" + ", ".join(f"{w:.3f}" for w in walls) + " s)"


def peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, allow_nan=True)


# --------------------------------------------------------------------------
# study


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """The per-replicate Philox stream keyed by (seed, index) that ``run_study`` documents."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(0, index))))


def replicate_chain(truth, seed: int, index: int, tracer: Tracer | NullTracer):
    """One replicate, driven call by call; returns (window, ASE) or None if it failed."""
    rep = tracer.call("simulate.generate_replicate", simulate.generate_replicate, truth, replicate_rng(seed, index))
    try:
        search = traced_call(tracer, "growthfit.search_interval", growthfit.search_interval,
                             rep.panel, growthfit.DEFAULT_WINDOW_LENGTHS)
        estimates = tracer.call("growthfit.estimate_alphas", growthfit.estimate_alphas, rep.panel, search.best_window)
        warpset = tracer.call("warping.compute_warp_set", warping.compute_warp_set, rep.panel, estimates,
                              window_start_month=rep.panel.grid.start_month, t0_month=search.best_window[1])
        k_fit = max(2, min(truth.n_components, truth.n - 1)) if truth.n >= 3 else None
        model = tracer.call("fpca.fit_fpca", fpca.fit_fpca, warpset, k=k_fit)
    except WarpGrowthError:
        return None
    with tracer.span("simulate.error_metrics"):
        t = warpset.grid.points
        t0 = warpset.grid.to_normalized(search.best_window[1])
        ase = simulate.averaged_relative_squared_error(estimates.alphas(), rep.alphas)
        simulate.relative_integrated_squared_error(warpset.matrix(), rep.warps, t, t0)
        for k in range(min(2, truth.n_components)):
            simulate.sign_aligned_sq_error(model.eigenfunctions[k], truth.eigenfunctions[k], model.weights)
    return search.best_window, ase


def study_untraced(ctx: Context) -> Outcome:
    truth = simulate.default_truth()
    simulate.run_study(truth, 4, ctx.seed, n_jobs=NPROC)  # first-call costs, untimed
    reports: list[str] = []
    walls = untraced_passes(
        ctx,
        lambda: simulate.run_study(truth, STUDY_REPLICATES, ctx.seed, n_jobs=NPROC),
        after=lambda r: reports.append(dumps(r.to_json_dict())),
    )
    rss = peak_rss_self_mb()

    ck = checks.Checks()
    first = json.loads(reports[0])
    ck.record("criterion 5", checks.check_study(first))
    ck.record("rerun identical", [] if len(set(reports)) == 1 else ["reports differ between passes"])
    serial = dumps(simulate.run_study(truth, STUDY_REPLICATES, ctx.seed, n_jobs=1).to_json_dict())
    ck.record(f"n_jobs={NPROC} equals n_jobs=1", [] if serial == reports[0] else ["reports differ"])
    failed_reps = sum(json.loads(r)["n_failed"] for r in reports)
    return Outcome(
        {"wall_s": median(walls), "peak_rss_mb": rss},
        attempted=STUDY_REPLICATES * len(walls) + ck.attempted,
        failed=failed_reps + ck.failed,
        checks=ck,
        info=[f"wall_s over {pass_list(walls)} passes of {STUDY_REPLICATES} replicates, n_jobs={NPROC}"],
    )


def study_traced(ctx: Context, tracer: Tracer) -> Outcome:
    """Each replicate runs untraced and traced, in turns first, so warm-up and drift
    cancel out of ``trace.overhead_s``."""
    truth = simulate.default_truth()
    simulate.run_study(truth, 4, ctx.seed, n_jobs=NPROC)
    ck = checks.Checks()
    per_pass = []

    def one_pass():
        pass_id = tracer.pass_id
        rows, plain_rows, overhead = [], [], 0.0
        for i in range(STUDY_REPLICATES):
            plain_s, plain_row, traced_s, row = paired(
                i,
                lambda: replicate_chain(truth, ctx.seed, i, NullTracer()),
                lambda: tracer.call("simulate.replicate", replicate_chain, truth, ctx.seed, i, tracer),
            )
            overhead += traced_s - plain_s
            rows.append(row)
            plain_rows.append(plain_row)
        ck.record("traced chain equals untraced chain", [] if rows == plain_rows else ["rows differ"])
        t1, serial = timed(lambda: simulate.run_study(truth, STUDY_REPLICATES, ctx.seed, n_jobs=1))
        tn, parallel = timed(lambda: simulate.run_study(truth, STUDY_REPLICATES, ctx.seed, n_jobs=NPROC))

        report = serial.to_json_dict()
        expected = [None if r["failed"] else ((r["window_start"], r["window_end"]), r["ase"])
                    for r in report["replicates"]]
        mismatch = [i for i, (a, b) in enumerate(zip(rows, expected)) if a != b]
        ck.record("traced chain reproduces run_study windows and ASE",
                  [f"replicates {mismatch[:5]} differ"] if mismatch else [])
        ck.record(f"n_jobs={NPROC} equals n_jobs=1",
                  [] if dumps(parallel.to_json_dict()) == dumps(report) else ["reports differ"])
        ck.record("criterion 5", checks.check_study(report))

        metrics = layer_metrics(tracer, pass_id)
        reps_ms = [d * 1e3 for d in tracer.durations(pass_id, "simulate.replicate")]
        metrics.update({
            "simulate.replicate.p50_ms": percentile(reps_ms, 50),
            "simulate.replicate.p90_ms": percentile(reps_ms, 90),
            "simulate.run_study.t1_s": t1,
            "simulate.run_study.tN_s": tn,
            "simulate.run_study.speedup": t1 / tn,
            "trace.overhead_s": overhead,
        })
        per_pass.append((metrics, sum(1 for r in rows if r is None)))

    traced_loop(tracer, ctx.seconds, one_pass)
    metrics = merge_passes([m for m, _ in per_pass])
    metrics["cli.import_s"] = measure_import(ctx)
    chain = sum(metrics[f"{n}.self_s"] for n in (
        "simulate.generate_replicate", "growthfit.search_interval", "growthfit.estimate_alphas",
        "warping.compute_warp_set", "fpca.fit_fpca", "simulate.error_metrics"))
    info = [
        f"chain self time {chain:.4f} s + replicate glue {metrics['simulate.replicate.self_s']:.4f} s; "
        f"run_study n_jobs=1 {metrics['simulate.run_study.t1_s']:.4f} s; "
        f"trace overhead {metrics['trace.overhead_s']:+.4f} s; median of {len(per_pass)} traced passes",
    ]
    failed = sum(f for _, f in per_pass)
    return Outcome(metrics, STUDY_REPLICATES * len(per_pass) + ck.attempted, failed + ck.failed, ck, info)


# --------------------------------------------------------------------------
# sweep


def run_sweep(truth, seed: int):
    return simulate.convergence_sweep(truth, SWEEP_SIZES, repeats=SWEEP_REPEATS, seed=seed)


def run_sweep_traced(truth, seed: int, tracer: Tracer):
    """``run_sweep`` in one span, with each eigensolve it makes in a child span."""
    with traced_imports(tracer, simulate):
        return tracer.call("simulate.convergence_sweep", run_sweep, truth, seed)


def check_sweep_outputs(ck: checks.Checks, truth, result: dict) -> None:
    """Decay on this run's seed, and criterion 6 on the seed the acceptance suite fixes."""
    ck.record("errors decay with n", checks.check_sweep(result, checks.DECAY_SLOPE))
    ck.record("criterion 6 at seed 0", checks.check_sweep(run_sweep(truth, 0).to_json_dict()))


def sweep_untraced(ctx: Context) -> Outcome:
    truth = simulate.default_truth()
    simulate.convergence_sweep(truth, (5, 10), repeats=2, seed=ctx.seed)
    results: list[str] = []
    walls = untraced_passes(ctx, lambda: run_sweep(truth, ctx.seed),
                            after=lambda r: results.append(dumps(r.to_json_dict())))
    rss = peak_rss_self_mb()
    ck = checks.Checks()
    check_sweep_outputs(ck, truth, json.loads(results[0]))
    ck.record("rerun identical", [] if len(set(results)) == 1 else ["results differ between passes"])
    solves = len(SWEEP_SIZES) * SWEEP_REPEATS
    return Outcome(
        {"wall_s": median(walls), "peak_rss_mb": rss},
        attempted=solves * len(walls) + ck.attempted,
        failed=ck.failed,
        checks=ck,
        info=[f"wall_s over {pass_list(walls)} passes of {solves} eigensolves"],
    )


def sweep_traced(ctx: Context, tracer: Tracer) -> Outcome:
    truth = simulate.default_truth()
    simulate.convergence_sweep(truth, (5, 10), repeats=2, seed=ctx.seed)
    ck = checks.Checks()
    per_pass = []
    results: list[str] = []

    def one_pass():
        pass_id = tracer.pass_id
        plain_s, plain, traced_s, result = paired(
            pass_id, lambda: run_sweep(truth, ctx.seed), lambda: run_sweep_traced(truth, ctx.seed, tracer))
        results.extend((dumps(plain.to_json_dict()), dumps(result.to_json_dict())))
        metrics = layer_metrics(tracer, pass_id)
        # The whole call, eigensolves included, as the per-layer table documents.
        metrics["simulate.convergence_sweep.self_s"] = sum(tracer.durations(pass_id, "simulate.convergence_sweep"))
        metrics["trace.overhead_s"] = traced_s - plain_s
        per_pass.append(metrics)

    traced_loop(tracer, ctx.seconds, one_pass)
    check_sweep_outputs(ck, truth, json.loads(results[0]))
    ck.record("traced and untraced sweeps identical", [] if len(set(results)) == 1 else ["results differ"])
    metrics = merge_passes(per_pass)
    metrics["cli.import_s"] = measure_import(ctx)
    solves = len(SWEEP_SIZES) * SWEEP_REPEATS
    info = [f"median of {len(per_pass)} traced passes of {solves} eigensolves"]
    return Outcome(metrics, solves * len(per_pass) + ck.attempted, ck.failed, ck, info)


# --------------------------------------------------------------------------
# panel-scale


def chain_argv(command: str, panel: Path, out: Path) -> list[str]:
    if command == "fit":
        return ["fit", "--input", str(panel), "--output-dir", str(out), "--window", WINDOW_ARG]
    if command == "fpca":
        return ["fpca", "--input", str(out / "warps.csv"), "--output-dir", str(out)]
    return [command, "--input", str(panel), "--output-dir", str(out)]


def file_sizes(directory: Path) -> dict[str, tuple[int, int]]:
    if not directory.exists():
        return {}
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in directory.iterdir() if p.is_file()}


def cli_chain_subprocess(ctx: Context, panel: Path, out: Path):
    """The four commands as fresh processes; per command (wall, exit code, RSS MB, bytes written)."""
    rows = {}
    for command in CLI_COMMANDS:
        before = file_sizes(out)
        argv = [sys.executable, "-m", "warpgrowth.cli", *chain_argv(command, panel, out)]
        wall, code, rss = run_child(argv, ctx.root, ctx.work / f"{command}.log")
        after = file_sizes(out)
        written = sum(size for name, (size, mtime) in after.items() if before.get(name) != (size, mtime))
        rows[command] = (wall, code, rss, written)
        if code != 0:
            break
    return rows


@contextlib.contextmanager
def traced_imports(tracer: Tracer, module):
    """Wrap each function ``module`` imported by name from another package module
    in a span, then restore it."""
    originals = {
        name: obj for name, obj in list(vars(module).items())
        if inspect.isfunction(obj) and obj.__module__.startswith("warpgrowth.") and obj.__module__ != module.__name__
    }

    def wrap(fn):
        span = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
        return lambda *args, **kwargs: traced_call(tracer, span, fn, *args, **kwargs)

    for name, fn in originals.items():
        setattr(module, name, wrap(fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


def check_panel_outputs(ck: checks.Checks, gen, out: Path) -> None:
    fit = json.loads((out / "fit.json").read_text())
    logs = np.log(gen.window_values())
    ck.record("window equals brute-force scan", checks.check_window(fit, logs, WINDOW[0], ck.notes))
    ck.record("rates equal closed form", checks.check_rates(fit, logs, gen.kept, WINDOW[0]))
    ck.record("dropped series equal gapped series", checks.check_dropped(fit, gen.gapped))
    model = json.loads((out / "fpca_model.json").read_text())
    ck.record("eigenvalues equal eigh", checks.check_eigenvalues(model, (out / "warps.csv").read_text()))


def write_panel(ctx: Context):
    gen = generate_panel(ctx.seed, PANEL_SERIES)
    path = ctx.work / "panel.csv"
    path.write_text(gen.csv_text)
    return gen, path


def panel_untraced(ctx: Context) -> Outcome:
    gen, panel = write_panel(ctx)
    ck = checks.Checks()
    passes: list[dict] = []

    def one_pass():
        out = ctx.work / f"pass{len(passes)}"
        rows = cli_chain_subprocess(ctx, panel, out)
        passes.append(rows)
        return out

    reference: dict[str, str] = {}

    def after(out: Path):
        if len(passes) == 1:
            reference.update(checks.digest_dir(out))
            return
        ck.record("rerun byte-identical", checks.check_identical(reference, checks.digest_dir(out)))
        shutil.rmtree(out)

    walls = untraced_passes(ctx, one_pass, after=after)
    if all(code == 0 for _, code, _, _ in passes[0].values()) and len(passes[0]) == len(CLI_COMMANDS):
        check_panel_outputs(ck, gen, ctx.work / "pass0")
    ok = sum(1 for rows in passes for _, code, _, _ in rows.values() if code == 0)
    attempted = len(CLI_COMMANDS) * len(passes)
    rss = max(rss for rows in passes for _, _, rss, _ in rows.values())
    return Outcome(
        {"wall_s": median(walls), "peak_rss_mb": rss},
        attempted=attempted + ck.attempted,
        failed=attempted - ok + ck.failed,
        checks=ck,
        info=[f"wall_s over {pass_list(walls)} passes of {PANEL_SERIES} series through {len(CLI_COMMANDS)} commands"],
    )


def run_inprocess(command: str, panel: Path, out: Path, tracer: Tracer | NullTracer) -> int:
    """One command through ``warpgrowth.cli.main`` in this process; its exit code.

    With a real tracer, the library functions the cli module calls get spans too.
    """
    wrapped = traced_imports(tracer, cli) if tracer.enabled else contextlib.nullcontext()
    with wrapped, contextlib.redirect_stdout(io.StringIO()):
        return tracer.call(f"cli.{command}", cli.main, chain_argv(command, panel, out))


def panel_traced(ctx: Context, tracer: Tracer) -> Outcome:
    """The subprocess chain gives each command's wall time. The same commands then
    run in this process, each untraced and traced in turns first, for the library split."""
    gen, panel = write_panel(ctx)
    cli.parse_panel(panel.read_text())  # first-call and heap-growth costs, untimed
    import_s = measure_import(ctx)
    ck = checks.Checks()
    per_pass = []
    failed_ops = 0

    def one_pass():
        nonlocal failed_ops
        pass_id = tracer.pass_id
        sub, plain, traced = (ctx.work / f"{kind}{pass_id}" for kind in ("sub", "plain", "traced"))
        rows = cli_chain_subprocess(ctx, panel, sub)
        codes = [code for _, code, _, _ in rows.values()]
        overhead = 0.0
        for i, command in enumerate(CLI_COMMANDS):
            plain_s, plain_code, traced_s, traced_code = paired(
                pass_id + i,
                lambda: run_inprocess(command, panel, plain, NullTracer()),
                lambda: run_inprocess(command, panel, traced, tracer),
            )
            overhead += traced_s - plain_s
            codes += [plain_code, traced_code]
        failed_ops += 3 * len(CLI_COMMANDS) - sum(1 for c in codes if c == 0)
        if pass_id == 0 and len(codes) == 3 * len(CLI_COMMANDS) and not any(codes):
            check_panel_outputs(ck, gen, sub)
        reference = checks.digest_dir(sub)
        ck.record("in-process chain byte-identical", checks.check_identical(reference, checks.digest_dir(plain)))
        ck.record("traced chain byte-identical", checks.check_identical(reference, checks.digest_dir(traced)))
        for d in (sub, plain, traced):
            shutil.rmtree(d, ignore_errors=True)

        metrics = layer_metrics(tracer, pass_id)
        for command, (wall, _, _, written) in rows.items():
            library = tracer.descendants_self_time(pass_id, f"cli.{command}")
            metrics[f"cli.{command}.wall_s"] = wall
            metrics[f"cli.{command}.other_s"] = wall - import_s - sum(library.values())
            metrics[f"cli.{command}.bytes_written"] = written
        metrics["trace.overhead_s"] = overhead
        per_pass.append(metrics)

    traced_loop(tracer, ctx.seconds, one_pass)
    metrics = merge_passes(per_pass)
    metrics["cli.import_s"] = import_s
    info = [f"median of {len(per_pass)} traced passes; subprocess, in-process and traced artifacts compared byte for byte"]
    ops = 3 * len(CLI_COMMANDS) * len(per_pass)
    return Outcome(metrics, ops + ck.attempted, failed_ops + ck.failed, ck, info)


# --------------------------------------------------------------------------
# shared traced-run plumbing


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def paired(index: int, plain, traced):
    """Time the untraced and traced halves of one unit of work; (plain s, plain result,
    traced s, traced result). Odd ``index`` runs the traced half first, so over many
    units the order's warm-up bias cancels out of traced minus untraced."""
    if index % 2:
        traced_s, traced_result = timed(traced)
        plain_s, plain_result = timed(plain)
    else:
        plain_s, plain_result = timed(plain)
        traced_s, traced_result = timed(traced)
    return plain_s, plain_result, traced_s, traced_result


def windows_scored(panel, lengths=None) -> int:
    m = panel.grid.n_points
    lengths = growthfit.DEFAULT_WINDOW_LENGTHS if lengths is None else lengths
    return sum(m - length + 1 for length in set(int(x) for x in lengths) if length <= m)


def traced_call(tracer: Tracer | NullTracer, name: str, fn, *args, **kwargs):
    """``tracer.call`` plus the work counters some layers report."""
    result = tracer.call(name, fn, *args, **kwargs)
    if not tracer.enabled:
        return result
    if name == "growthfit.search_interval":
        tracer.count("growthfit.search_interval.windows_scored", windows_scored(*args, **kwargs))
    elif name == "timeseries.parse_panel":
        tracer.count("timeseries.parse_panel.bytes", len(args[0]))
    elif name == "timeseries.restrict":
        tracer.count("timeseries.restrict.dropped", len(result[1]))
    return result


def traced_loop(tracer: Tracer, seconds: float, one_pass) -> None:
    """Run traced passes for ``seconds``, each under its own pass id."""

    def next_pass(_result, _timed_s):
        tracer.pass_id += 1

    timed_passes(one_pass, seconds, after=next_pass)


def layer_metrics(tracer: Tracer, pass_id: int) -> dict[str, float]:
    """Every per-layer metric of one pass; layers the pass never called read 0."""
    metrics = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            metrics[name] = tracer.self_time(pass_id, name[: -len(".self_s")])
        elif name.endswith(".calls"):
            metrics[name] = tracer.calls(pass_id, name[: -len(".calls")])
    metrics["growthfit.search_interval.windows_scored"] = tracer.counter(
        pass_id, "growthfit.search_interval.windows_scored")
    solves = [d * 1e3 for d in tracer.durations(pass_id, "fpca.eigendecompose")]
    if solves:
        metrics["fpca.eigendecompose.call_ms_p50"] = percentile(solves, 50)
        metrics["fpca.eigendecompose.call_ms_p90"] = percentile(solves, 90)
    parse_s = metrics["timeseries.parse_panel.self_s"]
    if parse_s > 0:
        metrics["timeseries.parse_panel.mb_per_s"] = tracer.counter(pass_id, "timeseries.parse_panel.bytes") / 1e6 / parse_s
    restricts = tracer.calls(pass_id, "timeseries.restrict")
    if restricts:
        metrics["timeseries.restrict.dropped"] = tracer.counter(pass_id, "timeseries.restrict.dropped") / restricts
    return metrics


def merge_passes(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {name: median([m[name] for m in per_pass]) for name in per_pass[0]}


UNTRACED = {"study": study_untraced, "sweep": sweep_untraced, "panel-scale": panel_untraced}
TRACED = {"study": study_traced, "sweep": sweep_traced, "panel-scale": panel_traced}

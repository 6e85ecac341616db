"""Command-line pipeline: fit, warp, fpca, simulate, diagnose.

Stages are chained through files rather than an in-memory session, so each
step is independently reproducible: ``fit`` writes the selected window and
rate estimates as JSON, ``warp`` turns panel + fit artifact into a warp
CSV, ``fpca`` decomposes a warp CSV, ``simulate`` runs the Monte Carlo
study, and ``diagnose`` checks the identity anchor: how far each warp is
from ``h(t) = t`` from the restricted panel's first month to the end of
the window that ``fit`` selected. ``warp`` and ``diagnose`` build their
warps with :func:`~warpgrowth.warping.compute_warp_set`, as the study does.

The artifacts of ``fit`` and ``fpca`` are rendered here from the arrays
that :mod:`~warpgrowth.growthfit` and :mod:`~warpgrowth.fpca` return:
``fit.json`` is rendered by :func:`cmd_fit` and read back by
:func:`_parse_fit_artifact`, and :func:`cmd_fpca` renders
``fpca_model.json``, ``eigenfunctions.csv``, ``scores.csv``,
``modes_k*.csv`` and ``score_alpha_regression.json``. The warp, panel,
simulation-report and truth formats keep one owner each in the library,
next to their readers or outside callers.

Exit codes are a stable contract: 0 success, 2 input error, 3 numerical
failure, 4 configuration error, each declared by its ``WarpGrowthError``
class; any other exception is a bug. A ``cmd_*`` writes nothing: it
returns its outputs by file name, in write order, and its summary line,
and :func:`main` alone writes them with :func:`~warpgrowth._table.write_output`
and then prints the line. So outputs are written only after the whole
computation succeeds, an optional output the run does not produce
(``modes_k*.csv``, ``score_alpha_regression.json``, ``convergence.*``) is
None and removed, and identical inputs plus an identical seed yield
byte-identical artifacts, at 1 and at 2 OpenBLAS threads alike (acceptance
criterion 8 checks both).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import _table
from . import simulate as sim
from .errors import ConfigError, GridError, SchemaError, WarpGrowthError
from .fpca import DEFAULT_GAMMAS, DEFAULT_VAR_THRESHOLD, fit_fpca, modes_of_variation, score_rate_regression
from .growthfit import (
    DEFAULT_WINDOW_LENGTHS,
    WindowFits,
    estimate_alphas,
    search_interval,
)
from .timeseries import month_index, month_label, parse_panel, restrict
from .warping import compute_warp_set, identity_deviation, warps_from_csv, warps_to_csv

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_CONFIG = 4
_EXIT_LABELS = {EXIT_INPUT: "input error", EXIT_NUMERICAL: "numerical failure", EXIT_CONFIG: "configuration error"}


def _parse_month(token: str) -> int:
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        return month_index(token)


def _parse_window(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"--window must be START:END, got {text!r}")
    try:
        start, end = map(_parse_month, parts)
    except GridError as exc:
        raise ConfigError(f"--window: {exc}") from None
    if end <= start:
        raise ConfigError(f"--window {text!r}: END must come after START")
    return start, end


def _parse_lengths(text: str) -> tuple[int, ...]:
    try:
        lengths = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ConfigError(f"--window-lengths must be comma-separated integers, got {text!r}") from None
    if not lengths or any(l < 3 for l in lengths):
        raise ConfigError(f"window lengths must be at least 3 months, got {text!r}")
    return lengths


def _parse_fit_artifact(text: str) -> tuple[tuple[int, int], WindowFits]:
    """The panel restriction and the rate fits of a fit artifact, every field type-checked.

    SchemaError unless the window's start comes before its end and the
    window lies inside the restriction.
    """
    artifact = json.loads(text)
    field = _table.json_field

    def span(obj, where: str) -> tuple[int, int]:
        return field(obj, "start", int, where), field(obj, "end", int, where)

    window = span(field(artifact, "window", dict, "fit artifact"), "window")
    analysis = field(artifact, "analysis", dict, "fit artifact")
    restriction = span(field(analysis, "restriction", dict, "analysis"), "analysis.restriction")
    (start, end), (lo, hi) = window, restriction
    if start >= end:
        raise SchemaError(f"window: start {start} must come before end {end}")
    if start < lo or end > hi:
        raise SchemaError(f"window {start}..{end} lies outside analysis.restriction {lo}..{hi}")
    rows = field(field(artifact, "alpha_estimates", dict, "fit artifact"), "per_series", [dict], "alpha_estimates")
    keys = (("name", str), ("alpha", float), ("intercept", float), ("r2", float))
    columns = [[] for _ in range(len(keys) + 1)]
    for i, row in enumerate(rows):
        where = f"alpha_estimates.per_series[{i}]"
        for column, (key, kind) in zip(columns, keys):
            column.append(field(row, key, kind, where))
        columns[-1].append(field(row, "clamped", bool, where, default=False))
    return restriction, WindowFits(window, *columns)


def _fit_rows(fits: WindowFits, *keys: str) -> list[dict]:
    """One ``{"name": ..., key: ...}`` object per series of ``fits``, the named arrays' entries as Python scalars."""
    columns = [getattr(fits, key).tolist() for key in keys]
    return [{"name": name, **dict(zip(keys, row))} for name, *row in zip(fits.names, *columns)]


def cmd_fit(args) -> tuple[dict, str]:
    panel = _table.read_file(args.input, parse_panel)
    restriction = _parse_window(args.window) if args.window else (panel.grid.start_month, panel.grid.end_month)
    panel, dropped = restrict(panel, *restriction)
    lengths = _parse_lengths(args.window_lengths)
    result = search_interval(panel, lengths)
    estimates = estimate_alphas(panel, result.best_window)
    start, end = result.best_window
    artifact = {
        "window": {"start": start, "end": end},
        "window_length_months": result.window_length_months,
        "mean_r2": result.mean_r2,
        "per_series": _fit_rows(result.fits, "alpha", "intercept", "r2"),
        "alpha_estimates": {
            "per_series": _fit_rows(estimates, "alpha", "intercept", "r2", "clamped"),
            "mean_alpha": estimates.mean_alpha,
            "sd_alpha": estimates.sd_alpha,
        },
        "analysis": {
            "restriction": {"start": restriction[0], "end": restriction[1]},
            "dropped_series": dropped,
            "panel_start": panel.grid.start_month,
            "panel_end": panel.grid.end_month,
        },
    }
    return {"fit.json": artifact}, (
        f"fit: window {month_label(start)}..{month_label(end)} ({result.window_length_months} months), "
        f"mean R2 {result.mean_r2:.4f}, mean alpha {estimates.mean_alpha * 100:.3f}%/month "
        f"({panel.n_series} series, {len(dropped)} dropped)"
    )


def _warps_for_artifact(args):
    """The fit artifact's fits in the order of the panel it restricts, and the warps of that panel."""
    restriction, fits = _table.read_file(_fit_path(args), _parse_fit_artifact)
    panel, _ = restrict(_table.read_file(args.input, parse_panel), *restriction)
    fits = fits.align(panel.names)
    return fits, compute_warp_set(panel, fits)


def cmd_warp(args) -> tuple[dict, str]:
    fits, warpset = _warps_for_artifact(args)
    months = warpset.grid.elapsed_months
    h_end = warpset.values[:, -1]
    setback = 1.0 - h_end
    columns = (fits.alpha, h_end, setback, setback * months, (~fits.clamped).astype(int))
    setbacks = _table.write_rows(
        ["name", "alpha", "h_end", "setback_normalized", "setback_months", "reliable"],
        zip(warpset.names, *(c.tolist() for c in columns)),
    )
    return {"warps.csv": lambda fh: warps_to_csv(warpset, fh), "setbacks.csv": setbacks}, (
        f"warp: {warpset.n_series} series on {warpset.grid.n_points} points, "
        f"mean time setback {float(np.mean(setback)) * months:.1f} months"
    )


def cmd_fpca(args) -> tuple[dict, str]:
    warpset = _table.read_file(args.input, warps_from_csv)
    exclude = tuple(name.strip() for name in args.exclude.split(",") if name.strip()) if args.exclude else ()
    model = fit_fpca(warpset, exclude=exclude, k=args.k, var_threshold=args.var_threshold)
    ks = range(1, model.n_retained + 1)
    per_series = list(zip(model.score_names, model.out_of_sample.tolist(), model.scores.tolist()))
    summary = {
        "n_sample": model.n_sample,
        "n_retained": model.n_retained,
        "eigenvalues": model.eigenvalues.tolist(),
        "var_explained": model.var_explained.tolist(),
        "total_variance": model.total_variance,
        "scores": [{"name": name, "out_of_sample": held, "scores": row} for name, held, row in per_series],
    }
    roots = np.sqrt(np.maximum(model.eigenvalues[: model.n_retained], 0.0))
    eigenfunctions = _table.write_unit_table(
        ["mean", *(f"phi_{k}" for k in ks), *(f"phi_scaled_{k}" for k in ks)],
        [model.mean, model.eigenfunctions, model.eigenfunctions * roots[:, None]],
    )
    scores = _table.write_rows(
        ["name", "out_of_sample", *(f"score_{k}" for k in ks)],
        ([name, int(held), *row] for name, held, row in per_series),
    )
    mode_names = [f"gamma_{g:g}" for g in DEFAULT_GAMMAS]
    modes = {k: _table.write_unit_table(mode_names, [modes_of_variation(model, k)]) for k in ks[:2]}

    regression = None
    fit_path = _fit_path(args)
    if args.fit or fit_path.exists():
        fits = _table.read_file(fit_path, _parse_fit_artifact)[1]
        rows = np.flatnonzero(~model.out_of_sample)
        if len(rows) >= 3:
            alpha = fits.align([model.score_names[i] for i in rows]).alpha
            lines = score_rate_regression(model.scores[rows], alpha)
            components = [
                {"component": k + 1, "slope": l.slope, "intercept": l.intercept, "correlation": l.correlation}
                for k, l in enumerate(lines)
            ]
            regression = {"n": len(rows), "components": components}

    outputs = {
        "fpca_model.json": summary,
        "eigenfunctions.csv": eigenfunctions,
        "scores.csv": scores,
        **{f"modes_k{k}.csv": modes.get(k) for k in (1, 2)},
        "score_alpha_regression.json": regression,
    }
    shares = ", ".join(f"{v:.1%}" for v in model.var_explained[:2])
    return outputs, (
        f"fpca: {model.n_sample} series in sample, {model.n_retained} components retained, "
        f"leading variance shares {shares}"
    )


def cmd_simulate(args) -> tuple[dict, str]:
    if args.truth and args.default_truth:
        raise ConfigError("pass either --truth or --default-truth, not both")
    if args.truth:
        truth = sim.load_truth(args.truth)
    elif args.default_truth:
        truth = sim.default_truth()
    else:
        raise ConfigError("simulate needs --truth MANIFEST or --default-truth")

    report = sim.run_study(truth, args.replicates, seed=args.seed)
    sweep = sim.convergence_sweep(truth, (25, 100, 400), repeats=50, seed=args.seed) if args.convergence_sweep else None
    outputs = {
        "sim_report.json": report.to_json_dict(),
        "sim_replicates.csv": report.replicates_to_csv(),
        "convergence.json": sweep and sweep.to_json_dict(),
        "convergence.csv": sweep and sweep.to_csv(),
    }
    agg, ref = report.aggregates, sim.HOUSING_STUDY_REFERENCE
    ase = agg.get("ase", {}).get("mean", float("nan"))
    ve2 = agg.get("var_explained_2", {}).get("mean", float("nan"))
    return outputs, (
        f"simulate: {report.n_replicates} replicates ({report.n_failed} failed), "
        f"ASE mean {ase:.4g}, variance explained by 2 components {ve2:.1%} "
        f"(housing-study reference: ASE {ref['ase_mean']}, {ref['var_explained_2_mean']:.0%})"
    )


def cmd_diagnose(args) -> tuple[dict, str]:
    fits, warpset = _warps_for_artifact(args)
    deviation = identity_deviation(warpset)
    worst = min(range(warpset.n_series), key=lambda i: (-deviation[i], warpset.names[i]))  # a tie goes to the first name
    start, end = warpset.grid.start_month, warpset.grid.start_month + warpset.t0_index
    summary = {
        "anchor_window": {"start": start, "end": end},
        "worst": {"name": warpset.names[worst], "anchor_deviation": float(deviation[worst])},
        "per_series": [
            {"name": name, "anchor_deviation": d, "clamped": c}
            for name, d, c in zip(warpset.names, deviation.tolist(), fits.clamped.tolist())
        ],
    }
    return {"diagnostics_summary.json": summary}, (
        f"diagnose: {warpset.n_series} series, anchor window {month_label(start)}..{month_label(end)}, "
        f"largest anchor deviation {deviation[worst]:.4g} ({warpset.names[worst]})"
    )


def _fit_path(args) -> Path:
    return Path(args.fit) if args.fit else Path(args.output_dir) / "fit.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="warpgrowth",
        description="Time-warped growth analysis of price index panels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="select the undisturbed window and estimate growth rates")
    fit.add_argument("--input", required=True, help="panel CSV (date,<market>,... rows of YYYY-MM)")
    fit.add_argument("--output-dir", required=True)
    fit.add_argument("--window-lengths", default=",".join(str(l) for l in DEFAULT_WINDOW_LENGTHS))
    fit.add_argument("--window", default=None, help="restrict the panel to START:END month indices or YYYY-MM labels")
    fit.set_defaults(func=cmd_fit)

    warp = sub.add_parser("warp", help="recover warping functions from a fit artifact")
    warp.add_argument("--input", required=True, help="panel CSV")
    warp.add_argument("--output-dir", required=True)
    warp.add_argument("--fit", default=None, help="fit artifact path (default: OUTPUT_DIR/fit.json)")
    warp.set_defaults(func=cmd_warp)

    fpca = sub.add_parser("fpca", help="functional PCA of a warp CSV")
    fpca.add_argument("--input", required=True, help="warp CSV from the warp stage")
    fpca.add_argument("--output-dir", required=True)
    fpca.add_argument(
        "--fit", default=None, help="fit artifact for the score-vs-rate regression (default: OUTPUT_DIR/fit.json)"
    )
    fpca.add_argument("--exclude", default=None, help="comma-separated series to hold out of estimation")
    fpca.add_argument("--k", type=int, default=None, help="retain exactly K components")
    fpca.add_argument("--var-threshold", type=float, default=DEFAULT_VAR_THRESHOLD)
    fpca.set_defaults(func=cmd_fpca)

    simulate = sub.add_parser("simulate", help="run the Monte Carlo estimation study")
    simulate.add_argument("--output-dir", required=True)
    simulate.add_argument("--truth", default=None, help="truth manifest JSON")
    simulate.add_argument("--default-truth", action="store_true")
    simulate.add_argument("--replicates", type=int, default=100)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--convergence-sweep", action="store_true")
    simulate.set_defaults(func=cmd_simulate)

    diagnose = sub.add_parser("diagnose", help="per series, the warp's deviation from h(t) = t up to the fit window's end")
    diagnose.add_argument("--input", required=True, help="panel CSV")
    diagnose.add_argument("--output-dir", required=True)
    diagnose.add_argument("--fit", default=None, help="fit artifact path (default: OUTPUT_DIR/fit.json)")
    diagnose.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    """Run one command, write its outputs, print its summary: 0, the code a WarpGrowthError's class declares,
    2 for an OSError; a bug propagates."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        outputs, summary = args.func(args)
        for name, content in outputs.items():
            _table.write_output(Path(args.output_dir) / name, content)
    except WarpGrowthError as exc:
        code, error = exc.exit_code, exc
    except OSError as exc:
        code, error = EXIT_INPUT, exc
    else:
        print(summary)
        return EXIT_OK
    print(f"warpgrowth {args.command}: {_EXIT_LABELS[code]}: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

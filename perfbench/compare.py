"""Summarise one result set, or compare two.

    python3 perfbench/compare.py RESULTS.jsonl
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

A result set is the JSON-lines file ``collect.py --out`` writes: one record
per run with its workload, seed, trace flag and printed result. For each
(workload, metric) pair the summary gives the median, the quartiles and the
spread (interquartile range over median) against the metric's bound in
``BENCHMARK.json``. The comparison adds the ratio NEW/BASE of the medians and
a verdict; a pair whose run-to-run spread on either side exceeds its bound
reads ``unresolved`` unless every NEW run beats every BASE run. Runs of
different lengths (``seconds``) are never mixed or compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec(root: Path = ROOT) -> dict[str, dict]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def load_results(path) -> tuple[dict[tuple[str, str], list[float]], float]:
    """(workload, metric) -> values, one per run, in file order; and the run length in seconds."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    lengths = set()
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            lengths.add(record["seconds"])
            for name, metric in record["result"]["metrics"].items():
                values[(record["workload"], name)].append(float(metric["value"]))
    if len(lengths) != 1:
        raise SystemExit(f"{path}: runs of lengths {sorted(lengths)} s; one result set must use one length")
    return dict(values), lengths.pop()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(q2)


def worse_by(base: float, new: float, better: str) -> float:
    """Relative change of NEW against BASE, positive when NEW is worse."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def verdict(base: list[float], new: list[float], metric: dict) -> str:
    bound = metric.get("bound")
    if bound is None:
        return "-"
    lower = metric["better"] == "lower"
    beats_all = max(new) < min(base) if lower else min(new) > max(base)
    if max(spread(base), spread(new)) > bound:
        return "better (every run)" if beats_all else "unresolved"
    change = worse_by(quartiles(base)[1], quartiles(new)[1], metric["better"])
    return f"WORSE by more than {bound:.0%}" if change > bound else "within bound"


def summarize(values: dict[tuple[str, str], list[float]], spec: dict[str, dict], out=sys.stdout) -> bool:
    """Print each pair's median, quartiles and spread; False if any spread exceeds a third of its bound."""
    steady = True
    print(f"{'workload':<12} {'metric':<44} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}",
          file=out)
    for (workload, name), vals in sorted(values.items()):
        q1, q2, q3 = quartiles(vals)
        bound = spec.get(name, {}).get("bound")
        s = spread(vals)
        flag = ""
        if bound is not None and s > bound / 3:
            flag, steady = "  > bound/3", False
        bound_txt = f"{bound:.2f}" if bound is not None else "-"
        print(f"{workload:<12} {name:<44} {len(vals):>3} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g} {s:>8.3f} {bound_txt:>6}{flag}",
              file=out)
    return steady


def compare(base: dict, new: dict, spec: dict[str, dict], out=sys.stdout) -> None:
    print(f"{'workload':<12} {'metric':<44} {'BASE median [q1, q3]':<38} {'NEW median [q1, q3]':<38} "
          f"{'NEW/BASE':>9}  verdict", file=out)
    for key in sorted(base.keys() & new.keys()):
        workload, name = key
        b, n = quartiles(base[key]), quartiles(new[key])
        ratio = n[1] / b[1] if b[1] else float("nan")
        b_txt = f"{b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]"
        n_txt = f"{n[1]:.6g} [{n[0]:.6g}, {n[2]:.6g}]"
        metric = spec.get(name, {"better": "lower"})
        print(f"{workload:<12} {name:<44} {b_txt:<38} {n_txt:<38} {ratio:>9.4f}  "
              f"{verdict(base[key], new[key], metric)}", file=out)
    for key in sorted(base.keys() ^ new.keys()):
        print(f"{key[0]:<12} {key[1]:<44} only in {'BASE' if key in base else 'NEW'}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("new", nargs="?")
    args = parser.parse_args(argv)
    spec = load_spec()
    base, base_seconds = load_results(args.base)
    if args.new is None:
        summarize(base, spec)
        return 0
    new, new_seconds = load_results(args.new)
    if new_seconds != base_seconds:
        print(f"BASE runs last {base_seconds} s and NEW runs {new_seconds} s; not comparable", file=sys.stderr)
        return 2
    compare(base, new, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run workloads over several seeds, each run in a fresh process, and summarise.

    python3 perfbench/collect.py --seeds 1-10 --out results.jsonl
    python3 perfbench/collect.py --seeds 1 --workloads study --trace 1

Each run is ``run.py --workload W --seed S --seconds N --trace T`` from the
repository root, with ``N`` the ``run_seconds`` of ``BENCHMARK.json``. The
runs' own tables are echoed; each run's result and environment go to
``--out`` as one JSON line, the result set ``compare.py`` reads. The
summary gives each metric's median, quartiles and spread. The exit code is 1
if any run failed or reported incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import compare
from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict | None, dict | None, str]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        return None, None, done.stdout + done.stderr
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), None)
    table = "\n".join(l for l in lines[:-1] if not l.startswith("env "))
    return json.loads(lines[-1]), env, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--trace", default="both", choices=("0", "1", "both"))
    parser.add_argument("--out", default=None, help="append one JSON line per run to this file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    values = defaultdict(list)
    ok = True
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            for trace in traces:
                result, env, table = run_once(workload, seed, seconds, trace)
                print(table, flush=True)
                if result is None:
                    ok = False
                    continue
                ok = ok and result["correct"]
                for name, metric in result["metrics"].items():
                    values[(workload, name)].append(metric["value"])
                if args.out:
                    record = {"workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
                              "result": result, "env": env}
                    with open(args.out, "a") as fh:
                        fh.write(json.dumps(record) + "\n")
    print()
    compare.summarize(dict(values), compare.load_spec(ROOT))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload study --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced run. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; ``failed / attempted`` is the run's error rate.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("study", "sweep", "panel-scale")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    package = ROOT / "src" / "warpgrowth"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no package source under {package}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import warpgrowth

    if Path(warpgrowth.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported warpgrowth from {warpgrowth.__file__}, not {package}", file=sys.stderr)
        return 2

    import envinfo
    import workloads
    from spans import Tracer

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    ctx = workloads.Context(ROOT, args.workload, args.seed, args.seconds, work)
    try:
        if args.trace:
            tracer = Tracer()
            outcome = workloads.TRACED[args.workload](ctx, tracer)
            units = workloads.PER_LAYER
        else:
            outcome = workloads.UNTRACED[args.workload](ctx)
            outcome.metrics["setup_s"] = workloads.median(ctx.setups)
            outcome.info.insert(0, f"setup_s over {len(ctx.setups)} fresh-process set-ups spread over the run")
            units = workloads.END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = envinfo.environment(ROOT, args.workload, args.seed, workloads.NPROC)
    if args.trace:
        out = HERE / ".out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{args.workload}-seed{args.seed}.jsonl", env)

    ck = outcome.checks
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, unit in units.items():
        print(f"  {name:<44} {outcome.metrics[name]:>14.6g} {unit}")
    rate = outcome.failed / outcome.attempted
    print(f"  {'error_rate':<44} {rate:>14.6g} failed/attempted ({outcome.failed}/{outcome.attempted})")
    for line in outcome.info + ck.notes:
        print(f"  note: {line}")
    for line in ck.failures:
        print(f"  FAILED {line}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

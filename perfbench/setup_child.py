"""One benchmark set-up in a fresh process: import, build the truth, write inputs.

An untraced run times this script from spawn to exit several times, between
its timed passes, and reports the median as ``setup_s``.
"""

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

parser = argparse.ArgumentParser()
parser.add_argument("--workload", required=True)
parser.add_argument("--seed", type=int, required=True)
parser.add_argument("--out", required=True)
args = parser.parse_args()

import warpgrowth  # noqa: E402

if args.workload == "panel-scale":
    from panelgen import generate_panel  # noqa: E402

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "panel.csv").write_text(generate_panel(args.seed).csv_text)
else:
    warpgrowth.default_truth()

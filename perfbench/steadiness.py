"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 perfbench/steadiness.py --workload small-queries --runs 10 --first-seed 1

Runs ``run.py --trace 0`` once per seed, one run at a time, and prints per
metric the median of the runs, the quartile distance as a share of the
median (``statistics.quantiles(values, n=4)``), the metric's bound from
BENCHMARK.json, and whether the spread is below a third of the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        values = " ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct {result['correct']}, failed {result['failed']}/{result['attempted']}; {values}", flush=True)
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        flag = "ok" if spread < metric["bound"] / 3 else "WIDE"
        print(f"  {metric['name']:14s} median {median:<10.4g} spread {spread:6.3f}  bound {metric['bound']}  {flag}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())

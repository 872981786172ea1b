#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric's spread.

    python3 bench/spread.py --workload solve --seeds 1-10

Runs one untraced benchmark process of run_seconds (from BENCHMARK.json)
per seed, never two at once. For every end-to-end metric prints the median
of the runs and the distance between their first and third quartiles
(statistics.quantiles(values, n=4)) as a share of that median, next to the
metric's bound.
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


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in _seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=300, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result, report = json.loads(lines[-1]), json.loads(lines[-2])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']}"
              f" failed={report['ops_failed_ratio']} digest={report['digest'][:16]}",
              flush=True)
    print(f"{'metric':40} {'median':>12} {'iqr/median':>11} {'bound':>6}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        print(f"{name:40} {median:12.6g} {spread:11.4f} {bounds[name]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

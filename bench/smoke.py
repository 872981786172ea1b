#!/usr/bin/env python3
"""Smoke run of the benchmark at tiny sizes; exits 1 on the first problem.

    python3 bench/smoke.py

For every workload in BENCHMARK.json it runs bench/run.py with --size tiny
once untraced and twice traced, all on the same seed, and asserts that:

- the last stdout line is the result object, with every metric that
  BENCHMARK.json names for that mode, each with its unit, and no failure;
- the end-to-end metrics are positive numbers;
- the traced run's output digest equals the untraced run's;
- the exact counts (tracer.EXACT) repeat exactly across the two traced runs.

Last, it copies only BENCHMARK.json and the benchmark's directories into a
bare directory and checks that the benchmark refuses to run there.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def _run(cwd: Path, bench: dict, workload: str, trace: int):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(SEED),
                              "--seconds", "1", "--trace", str(trace),
                              "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180, check=False)


def _parse(proc, label: str):
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, \
        f"{label}: result keys {sorted(result)}"
    assert result["correct"] is True and result["failed"] == 0, \
        f"{label}: {result['failed']} of {result['attempted']} failed: {report['errors']}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result, report


def _check_metrics(result, expected: list[dict], label: str, positive: bool):
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in expected}, \
        f"{label}: metric names differ: {sorted(set(metrics) ^ {m['name'] for m in expected})}"
    for m in expected:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']!r}"
        assert isinstance(got["value"], (int, float)), f"{label}: {m['name']}"
        if positive:
            assert got["value"] > 0, f"{label}: {m['name']} is {got['value']}"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in bench["workloads"]):
        plain, plain_report = _parse(_run(ROOT, bench, workload, 0), f"{workload} trace 0")
        _check_metrics(plain, bench["end_to_end"], f"{workload} trace 0", True)
        traced = [_parse(_run(ROOT, bench, workload, 1), f"{workload} trace 1")
                  for _ in range(2)]
        for result, report in traced:
            _check_metrics(result, bench["per_layer"], f"{workload} trace 1", False)
            assert report["digest"] == plain_report["digest"], \
                f"{workload}: traced output digest differs from the untraced one"
        first, second = (report["exact_counts"] for _, report in traced)
        assert first == second, f"{workload}: exact counts differ: {first} vs {second}"
        print(f"{workload}: ok, {plain['attempted']} ops, digest"
              f" {plain_report['digest'][:16]}, counts {first}")

    bare = ROOT / ".bench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, bench, bench["workloads"][0]["name"], 0)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, \
            "the benchmark ran without the package"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("bare directory: refused as expected")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"smoke failed: {exc}", file=sys.stderr)
        sys.exit(1)

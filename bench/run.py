#!/usr/bin/env python3
"""Benchmark for lpvi: drives `lpvi.cli.main` in-process, checks every output.

    python3 bench/run.py --workload solve --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout: the package is imported from the
checkout's own `src/`, never from an installed copy. One closed loop, one
client, one process, BLAS pinned to one thread. The run repeats its
workload's cycle of command lines (see workloads.py) until `--seconds` have
passed, at least MIN_CYCLES cycles and MIN_OPS operations have run, or
MAX_SECONDS is reached.

--trace 0 reports the end-to-end metrics of END_TO_END. Their times are
scaled to reference speed: the machine this runs on drifts in speed by up
to 2x over seconds to minutes, so right before every operation (and
before every set-up) the run times a fixed pure-Python loop
(`_reference`), and multiplies the operation's wall time by
REFERENCE_SECONDS / (that loop's time). A time so scaled reads as the wall
time on a machine where the loop takes exactly 1 ms. The raw wall-clock
figures go to the report line under "wall".

--trace 1 takes turns at three kinds of cycle: untraced, traced (every
public lpvi function wrapped) and solver-traced (only `picard_solve`
wrapped, so that µs per iteration carries one wrapper per solve, not the
wrappers of every call inside the loop). Before those, inside the same
`--seconds`, it runs one cycle with tracemalloc on and only `picard_solve`
wrapped, for the memory a solve holds. The spans of the first traced cycle
are kept. It reports the per-layer metrics of tracer.UNITS (see tracer.py).

Every line but the last is a human-readable report (environment, digest,
failure ratio, workload-specific rates); the last line is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 0
whenever that line is printed, 2 when the run could not start.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
MIN_CYCLES = 10
MIN_OPS = 100
MIN_TRACED_CYCLES = 3
SOLVER_ONLY = ("solver.picard_solve",)
# per-layer metrics taken from the solver-traced cycles
SOLVER_METRICS = ("solver.us_per_iter.n2", "solver.us_per_iter.n100",
                  "solver.us_per_iter.n1000")
MAX_SECONDS = 120.0
REFERENCE_LOOPS = 25_000
REFERENCE_SECONDS = 1e-3

END_TO_END = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
}


def _environment(args) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
    }


def _reference() -> float:
    """Seconds taken by a fixed pure-Python loop: the machine-speed probe.
    Python-level work drifted with the machine as closely as every lpvi
    operation measured against it, closer than a numpy probe did."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i % 7
    return time.perf_counter() - start


def _import_lpvi():
    """Import lpvi afresh from the checkout, so each set-up pays the import."""
    for name in [m for m in sys.modules if m == "lpvi" or m.startswith("lpvi.")]:
        del sys.modules[name]
    cli = importlib.import_module("lpvi.cli")
    origin = Path(cli.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"lpvi was imported from {origin}, not from {ROOT / 'src'}")


def _call(op, traced=None):
    """One operation: lpvi.cli.main with captured output. Returns the exit
    code (or the text of an uncaught exception), seconds, stdout, stderr."""
    import lpvi.cli
    out, err = io.StringIO(), io.StringIO()
    if traced is not None:
        traced.recording = True
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lpvi.cli.main(op.argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code
    except Exception as exc:  # an uncaught error fails the op, not the run
        code = f"uncaught {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if traced is not None:
        traced.recording = False
        traced.op_id += 1
    return code, seconds, out.getvalue(), err.getvalue()


def _set_up(workload: str, seed: int, tiny: bool):
    """Import, input generation and a warm-up pass over the tiny cycle.
    Warm-up outputs are not checked; the timed cycles check every input."""
    start = time.perf_counter()
    _import_lpvi()
    ops = workloads.build(workload, seed, tiny)
    os.makedirs("warm", exist_ok=True)
    os.chdir("warm")
    try:
        for op in workloads.build(workload, seed, True):
            _call(op)
    finally:
        os.chdir("..")
    return time.perf_counter() - start, ops


class Checker:
    """Checks every op's output. The first run of an input gets the full
    check; every repeat must hash the same as that first run."""

    def __init__(self):
        self.first: dict[str, tuple[str, str | None]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def __call__(self, op, code, stdout: str) -> dict | None:
        trace = b""
        if op.out is not None and os.path.exists(op.out):
            trace = Path(op.out).read_bytes()
        digest = hashlib.sha256(stdout.encode() + b"\0" + trace).hexdigest()
        if op.name not in self.first:
            if code != 0:
                error = f"exit {code}, expected 0"
            else:
                try:
                    error = op.check(stdout, trace)
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    error = f"unreadable output: {type(exc).__name__}: {exc}"
            self.first[op.name] = (digest, error)
        first_digest, error = self.first[op.name]
        if error is None and digest != first_digest:
            error = "output bytes differ from the first run of the same input"
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{op.name}: {error}")
            return None
        return json.loads(stdout) if stdout.startswith("{") else {}

    def digest(self, ops) -> str:
        lines = "".join(f"{op.name} {self.first[op.name][0]}\n" for op in ops)
        return hashlib.sha256(lines.encode()).hexdigest()


def _quantile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def _workload_rates(workload: str, ops, cycles) -> dict:
    """The workload's own figures for the report line, at reference speed."""
    rates = {}
    seconds = sum(sum(c["scaled"]) for c in cycles)
    if workload == "solve":
        iters = sum(c["iterations"] for c in cycles)
        rates["picard_iters_per_s"] = (iters / seconds, "iterations/s")
    elif workload == "oracle":
        points = sum(c["points"] for c in cycles)
        rates["oracle_points_per_s"] = (points / seconds, "candidates/s")
    else:
        for kind, name, scale, unit in (
                ("verify.duality", "verify.duality_s", 1.0, "s"),
                ("verify.retraction", "verify.retraction_s", 1.0, "s"),
                ("verify.pairing", "verify.pairing_s", 1.0, "s"),
                ("check-map", "check_map_ms", 1e3, "ms")):
            times = [t for c in cycles for op, t in zip(ops, c["scaled"])
                     if op.kind == kind]
            rates[name] = (statistics.median(times) * scale, unit)
    return rates


def _cycle(ops, check: Checker, traced=None):
    """One pass over the ops. Untraced, each op's time is also kept scaled
    by a reference loop timed right before it."""
    cycle = {"latency": [], "scaled": [], "iterations": 0, "points": 0}
    for op in ops:
        probe = None if traced is not None else _reference()
        code, seconds, stdout, _ = _call(op, traced)
        cycle["latency"].append(seconds)
        if probe is not None:
            cycle["scaled"].append(seconds * REFERENCE_SECONDS / probe)
        record = check(op, code, stdout)
        if record:
            cycle["iterations"] += record.get("iterations", 0)
            cycle["points"] += record.get("searched", 0)
    return cycle


def _traced_cycle(ops, check: Checker, traced, only=None) -> dict:
    """One cycle with the tracer bound (to `only`, if given); returns its
    per-layer metrics, with the cycle's wall time as trace.overhead_ratio
    until _per_layer divides it."""
    traced.reset()
    traced.bind(only)
    try:
        cycle = _cycle(ops, check, traced)
    finally:
        traced.unbind()
    layers = traced.cycle_metrics()
    layers["trace.overhead_ratio"] = sum(cycle["latency"])
    return layers


def _run_cycles(args, ops, check: Checker, traced):
    """Whole cycles until the run is long enough. Returns the untraced
    cycles and, with a tracer, the per-layer metrics of the traced,
    solver-traced and memory cycles."""
    cycles = []
    layers = {"traced": [], "solver": [], "memory": []}
    start = time.perf_counter()
    if traced is not None:
        traced.memory = True
        tracemalloc.start()
        try:
            layers["memory"].append(_traced_cycle(ops, check, traced, SOLVER_ONLY))
        finally:
            tracemalloc.stop()
            traced.memory = False
    while True:
        elapsed = time.perf_counter() - start
        if traced is not None:
            done = min(len(cycles), len(layers["traced"]),
                       len(layers["solver"])) >= MIN_TRACED_CYCLES
        else:
            done = len(cycles) >= MIN_CYCLES and len(cycles) * len(ops) >= MIN_OPS
        if (done and elapsed >= args.seconds) or elapsed >= MAX_SECONDS:
            break
        turn = len(cycles) + len(layers["traced"]) + len(layers["solver"])
        if traced is None or turn % 3 == 0:
            cycles.append(_cycle(ops, check))
        elif turn % 3 == 1:
            traced.keep_spans = not layers["traced"]
            layers["traced"].append(_traced_cycle(ops, check, traced))
            traced.keep_spans = False
        else:
            layers["solver"].append(_traced_cycle(ops, check, traced, SOLVER_ONLY))
    return cycles, layers


def _end_to_end(setups, cycles, report) -> dict:
    """END_TO_END metrics scaled to reference speed; the wall-clock values
    go to the report."""
    def figures(key, setup_seconds):
        ms = [t * 1e3 for c in cycles for t in c[key]]
        return {
            "setup_s": statistics.median(setup_seconds),
            "op_ms.p50": _quantile(ms, 50),
            "op_ms.p90": _quantile(ms, 90),
            "ops_per_s": statistics.median(len(c[key]) / sum(c[key]) for c in cycles),
        }
    metrics = figures("scaled", [s * REFERENCE_SECONDS / probe for s, probe in setups])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["wall"] = figures("latency", [s for s, _ in setups])
    scaled_ms = [t * 1e3 for c in cycles for t in c["scaled"]]
    report["op_ms.p90_samples"] = len(scaled_ms)
    report["op_ms.p90_beyond"] = sum(t > metrics["op_ms.p90"] for t in scaled_ms)
    return metrics


def _per_layer(cycles, layers, traced, spans_path, report):
    """Per-layer metrics (medians over the traced cycles; µs per iteration
    from the solver-traced cycles; the memory cycle's peak) and whether the
    exact counts repeated."""
    untraced = statistics.median(sum(c["latency"]) for c in cycles)
    for cycle in layers["traced"]:
        cycle["trace.overhead_ratio"] /= untraced
    metrics, unstable = tracing.combine(layers["traced"])
    for name in SOLVER_METRICS:
        metrics[name] = statistics.median(c[name] for c in layers["solver"])
    peak = "solver.picard_solve.peak_kb"
    metrics[peak] = layers["memory"][0][peak]
    report["exact_counts"] = {name: metrics[name] for name in tracing.EXACT}
    report["cycles_by_kind"] = {kind: len(c) for kind, c in layers.items()}
    report["spans"] = {"file": str(spans_path.relative_to(ROOT)),
                       "kept": len(traced.spans["id"])}
    if unstable:
        report["errors"].append(f"counts changed between cycles: {unstable}")
    return metrics, not unstable


def measure(args) -> dict:
    tiny = args.size == "tiny"
    workdir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    home = os.getcwd()
    os.chdir(workdir)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            probe = statistics.median(_reference() for _ in range(5))
            seconds, ops = _set_up(args.workload, args.seed, tiny)
            setups.append((seconds, probe))
        traced = None
        if args.trace:
            traced = tracing.Tracer()
            traced.discover()
        check = Checker()
        cycles, layers = _run_cycles(args, ops, check, traced)
        if traced is not None:
            spans_path = ROOT / ".bench_run" / f"spans-{args.workload}.tsv"
            traced.write_spans(spans_path)
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "env": _environment(args),
        "cycles": len(cycles),
        "ops_per_cycle": len(ops),
        "ops_failed_ratio": f"{check.failed}/{check.attempted}",
        "digest": check.digest(ops),
        "errors": check.errors,
        # median reference-loop time of the untraced cycles: the machine's
        # speed during the run, to compare raw (per-layer) times between runs
        "reference_ms": statistics.median(
            t / s * REFERENCE_SECONDS * 1e3 for c in cycles
            for t, s in zip(c["latency"], c["scaled"])),
    }
    correct = check.failed == 0
    if traced is not None:
        metrics, repeated = _per_layer(cycles, layers, traced, spans_path, report)
        correct &= repeated
        units = tracing.UNITS
    else:
        metrics = _end_to_end(setups, cycles, report)
        units = END_TO_END
        for name, (value, unit) in _workload_rates(args.workload, ops, cycles).items():
            report[name] = {"value": value, "unit": unit}
    return {
        "report": report,
        "result": {
            "correct": correct,
            "attempted": check.attempted,
            "failed": check.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CYCLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every instance, for the smoke run")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lpvi" / "__init__.py").is_file():
        print(f"error: no lpvi package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        outcome = measure(args)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = outcome["result"]
    report = outcome["report"]
    figures = dict(result["metrics"])
    figures.update((k, v) for k, v in report.items() if isinstance(v, dict) and "unit" in v)
    for name, metric in figures.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(f"ops_failed_ratio: {report['ops_failed_ratio']} (failed/attempted)")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

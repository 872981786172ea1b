"""Spans around every public lpvi function, recorded from outside the package.

`Tracer.bind` rebinds each public function of every `lpvi.*` module in
every module namespace that holds it (so `lpvi.solver.retract`, an imported
binding of `lpvi.sets.retract`, is wrapped too) with a pass-through timing
wrapper; `unbind` restores the originals. `bind(only=...)` wraps just the
named functions. While `recording` is off the wrappers only forward the
call.

A span is (name, start, end, parent, operation id). Self time is derived
from the spans as a span's duration minus the durations of its child spans,
which is accumulated on the open-span stack as each child closes. Every
span feeds the per-cycle statistics; while `keep_spans` is on the spans
themselves are also kept in memory (a long solve opens about twenty spans
per iteration, 48 bytes each) and written out by `write_spans` at the end.

With `memory` on (and tracemalloc started) each wrapped call also records
its tracemalloc peak above the memory traced at its start. The wrapper
resets the peak, so only wrap functions that do not nest in one another.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
import tracemalloc
from array import array

# function -> index of the argument whose first dimension is the row count
_ROW_ARG = {
    "spaces.norm_rows": 0,
    "spaces.duality_map_rows": 0,
    "sets.members_mask": 1,
    "maps.evaluate_rows": 1,
}
_MAP_CHECKS = ("maps.estimate_lipschitz", "maps.check_relaxed_cocoercive",
               "maps.check_strongly_monotone")
_SIZES = (2, 100, 1000)
_SPAN_FIELDS = ("name", "start", "end", "id", "parent", "op")


class Stat:
    __slots__ = ("calls", "total", "self", "rows", "peak")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.rows = 0
        self.peak = 0  # largest tracemalloc peak of one call, bytes


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._bindings: list[tuple] = []   # (module, attr, original, wrapper, name)
        self.recording = False
        self.memory = False
        self.op_id = 0
        self.keep_spans = False
        # kept spans, one compact column per field
        self.spans = {key: array("d" if key in ("start", "end") else "q")
                      for key in _SPAN_FIELDS}
        self._next_id = 0
        self._stack: list[list] = []       # open spans: [id, child seconds]
        self.reset()

    # ------------------------------------------------------------ binding

    def discover(self):
        """Wrap every public lpvi function and note each binding of it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "lpvi" or name.startswith("lpvi."))]
        wrappers = {}
        for module in modules:
            for attr, value in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or not value.__module__.startswith("lpvi.")
                        or value.__name__.startswith("_")):
                    continue
                name = value.__module__[len("lpvi."):] + "." + value.__qualname__
                if value not in wrappers:
                    wrappers[value] = self._wrap(value, self._name_index(name))
                self._bindings.append((module, attr, value, wrappers[value], name))

    def bind(self, only=None):
        for module, attr, _, wrapper, name in self._bindings:
            if only is None or name in only:
                setattr(module, attr, wrapper)

    def unbind(self):
        for module, attr, original, _, _ in self._bindings:
            setattr(module, attr, original)

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _wrap(self, fn, idx: int):
        tracer = self
        clock = time.perf_counter
        name = self.names[idx]
        row_arg = _ROW_ARG.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            tracer.open[idx] += 1
            if tracer.memory:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.open[idx] -= 1
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stat = tracer.stats[idx]
                if tracer.memory:
                    stat.peak = max(stat.peak, tracemalloc.get_traced_memory()[1] - base)
                stat.calls += 1
                stat.total += duration
                stat.self += duration - frame[1]
                if row_arg is not None and len(args) > row_arg:
                    stat.rows += len(args[row_arg])
                if tracer.keep_spans:
                    tracer._keep(idx, span_id, parent, start, end)
            tracer._account(name, args, result, duration)
            return result
        return wrapper

    # ------------------------------------------------------------ records

    def reset(self):
        """Start a new cycle's statistics (kept spans are not touched)."""
        self.stats = [Stat() for _ in range(max(len(self.names), 1))]
        self.open = [0] * max(len(self.names), 1)
        self.counts = {
            "solver.iterations": 0,
            "picard.as_vector": 0,
            "oracle.candidates": 0,
            "oracle.accepted": 0,
            "oracle.rival_pairings": 0,
            "oracle.full_scans": 0,
        }
        for n in _SIZES:
            self.counts[f"picard.iters.n{n}"] = 0
            self.counts[f"picard.seconds.n{n}"] = 0.0

    def _keep(self, idx, span_id, parent, start, end):
        for key, value in zip(_SPAN_FIELDS,
                              (idx, start, end, span_id, parent, self.op_id)):
            self.spans[key].append(value)

    def _open(self, name: str) -> bool:
        idx = self._index.get(name)
        return idx is not None and self.open[idx] > 0

    def _account(self, name, args, result, duration):
        """Counts that need the arguments, the result or the open spans."""
        counts = self.counts
        if name == "solver.picard_solve":
            counts["solver.iterations"] += result.iterations
            n = args[0].space.n
            if n in _SIZES:
                counts[f"picard.iters.n{n}"] += result.iterations
                counts[f"picard.seconds.n{n}"] += duration
        elif name == "spaces.as_vector" and self._open("solver.picard_solve"):
            counts["picard.as_vector"] += 1
        elif name == "oracle.grid_vi_solve":
            counts["oracle.candidates"] += result.searched
            counts["oracle.accepted"] += int(result.accepted.shape[0])
        elif name == "spaces.duality_map_rows" and self._open("oracle.grid_vi_solve"):
            counts["oracle.rival_pairings"] += len(args[0])
            counts["oracle.full_scans"] += 1

    def write_spans(self, path):
        """Write the kept spans as tab-separated rows, times in seconds."""
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("\t".join(_SPAN_FIELDS) + "\n")
            for name, start, end, *ids in zip(*self.spans.values()):
                fields = [self.names[name], f"{start:.9f}", f"{end:.9f}"]
                handle.write("\t".join(fields + [str(i) for i in ids]) + "\n")

    # ------------------------------------------------------------ metrics

    def _stat(self, name: str) -> Stat:
        idx = self._index.get(name)
        return self.stats[idx] if idx is not None else Stat()

    def cycle_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the cycle just recorded. Times are means
        per call; counts are totals per cycle; a metric of a layer the
        workload never reached is 0."""
        def per_call(name, scale, field="total"):
            stat = self._stat(name)
            return getattr(stat, field) / stat.calls * scale if stat.calls else 0.0

        def per_row(name):
            stat = self._stat(name)
            return stat.total / stat.rows * 1e9 if stat.rows else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        counts = self.counts
        checks = [self._stat(name) for name in _MAP_CHECKS]
        m = {
            "cli.main.self_ms": per_call("cli.main", 1e3, "self"),
            "config.load_config.ms": per_call("config.load_config", 1e3),
            "config.load_config.calls": self._stat("config.load_config").calls,
            "solver.select_lambda.us": per_call("solver.select_lambda", 1e6),
            "solver.picard_solve.self_ms": per_call("solver.picard_solve", 1e3, "self"),
            "solver.iterations": counts["solver.iterations"],
            "solver.picard_solve.peak_kb": self._stat("solver.picard_solve").peak / 1024,
        }
        for n in _SIZES:
            m[f"solver.us_per_iter.n{n}"] = ratio(
                counts[f"picard.seconds.n{n}"] * 1e6, counts[f"picard.iters.n{n}"])
        m.update({
            "spaces.p_norm.calls": self._stat("spaces.p_norm").calls,
            "spaces.p_norm.self_us": per_call("spaces.p_norm", 1e6, "self"),
            "spaces.norm_rows.rows": self._stat("spaces.norm_rows").rows,
            "spaces.duality_map_rows.calls": self._stat("spaces.duality_map_rows").calls,
            "spaces.duality_map_rows.rows": self._stat("spaces.duality_map_rows").rows,
            "spaces.duality_map_rows.ns_per_row": per_row("spaces.duality_map_rows"),
            "spaces.as_vector.calls_per_iter": ratio(
                counts["picard.as_vector"], counts["solver.iterations"]),
            "spaces.check_exponent.calls": self._stat("spaces.check_exponent").calls,
            "sets.retract.calls": self._stat("sets.retract").calls,
            "sets.retract.self_us": per_call("sets.retract", 1e6, "self"),
            "sets.members_mask.rows": self._stat("sets.members_mask").rows,
            "sets.sample_in_set.ms": per_call("sets.sample_in_set", 1e3),
            "sets.verify_sunny.ms": per_call("sets.verify_sunny", 1e3),
            "sets.verify_characterization.ms": per_call("sets.verify_characterization", 1e3),
            "maps.evaluate.calls": self._stat("maps.evaluate").calls,
            "maps.evaluate.self_us": per_call("maps.evaluate", 1e6, "self"),
            "maps.evaluate_rows.rows": self._stat("maps.evaluate_rows").rows,
            "maps.evaluate_rows.ns_per_row": per_row("maps.evaluate_rows"),
            "maps.checks.ms": ratio(sum(s.total for s in checks) * 1e3,
                                    sum(s.calls for s in checks)),
            "oracle.grid_vi_solve.self_ms": per_call("oracle.grid_vi_solve", 1e3, "self"),
            "oracle.candidates": counts["oracle.candidates"],
            "oracle.rival_pairings": counts["oracle.rival_pairings"],
            "oracle.accept_ratio": ratio(counts["oracle.accepted"],
                                         counts["oracle.full_scans"]),
            "oracle.pairing_inequality_sweep.ms": per_call(
                "oracle.pairing_inequality_sweep", 1e3),
            "sweeps.duality_sweep.ms": per_call("sweeps.duality_sweep", 1e3),
            "sweeps.retraction_suite.self_ms": per_call(
                "sweeps.retraction_suite", 1e3, "self"),
        })
        return m


# counts that must repeat exactly from cycle to cycle and run to run
EXACT = ("solver.iterations", "spaces.as_vector.calls_per_iter",
         "spaces.duality_map_rows.rows", "oracle.rival_pairings",
         "oracle.candidates")

UNITS = {
    "cli.main.self_ms": "ms",
    "config.load_config.ms": "ms",
    "config.load_config.calls": "count",
    "solver.select_lambda.us": "us",
    "solver.picard_solve.self_ms": "ms",
    "solver.iterations": "count",
    "solver.picard_solve.peak_kb": "KB",
    "solver.us_per_iter.n2": "us/iter",
    "solver.us_per_iter.n100": "us/iter",
    "solver.us_per_iter.n1000": "us/iter",
    "spaces.p_norm.calls": "count",
    "spaces.p_norm.self_us": "us",
    "spaces.norm_rows.rows": "count",
    "spaces.duality_map_rows.calls": "count",
    "spaces.duality_map_rows.rows": "count",
    "spaces.duality_map_rows.ns_per_row": "ns/row",
    "spaces.as_vector.calls_per_iter": "calls/iter",
    "spaces.check_exponent.calls": "count",
    "sets.retract.calls": "count",
    "sets.retract.self_us": "us",
    "sets.members_mask.rows": "count",
    "sets.sample_in_set.ms": "ms",
    "sets.verify_sunny.ms": "ms",
    "sets.verify_characterization.ms": "ms",
    "maps.evaluate.calls": "count",
    "maps.evaluate.self_us": "us",
    "maps.evaluate_rows.rows": "count",
    "maps.evaluate_rows.ns_per_row": "ns/row",
    "maps.checks.ms": "ms",
    "oracle.grid_vi_solve.self_ms": "ms",
    "oracle.candidates": "count",
    "oracle.rival_pairings": "count",
    "oracle.accept_ratio": "ratio",
    "oracle.pairing_inequality_sweep.ms": "ms",
    "sweeps.duality_sweep.ms": "ms",
    "sweeps.retraction_suite.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def combine(cycles: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each timing over the traced cycles and the first cycle's
    value of each count, plus the names of the EXACT counts that did not
    repeat exactly from cycle to cycle."""
    merged = {name: (cycles[0][name] if UNITS[name] == "count"
                     else statistics.median(c[name] for c in cycles))
              for name in cycles[0]}
    unstable = [name for name in EXACT
                if any(c[name] != cycles[0][name] for c in cycles)]
    return merged, unstable

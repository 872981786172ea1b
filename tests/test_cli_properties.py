"""Property test of the CLI's exit-code contract.

Mutates the README config and the flags of solve, oracle, check-map and
verify with bad numbers, non-integers, negatives, nan/inf and empty
values. Whatever the input, the CLI must exit with a documented code and
must not let an exception escape (which would print a traceback). Every
count and grid that runs stays small so the examples run in a few
seconds; the one huge count, 10**18 for verify and check-map, is refused
before any draw. The trace writer's bytes are pinned to printf-style
formatting on any float bits.
"""

import contextlib
import io
import struct
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpvi.cli import _write_trace, main

# the README example, with the oracle grid and iteration counts kept small
README_CONFIG = {
    "space": {"n": "2", "p": "2"},
    "set": {"kind": "box", "lo": "1 1", "hi": "2 2"},
    "map": {"kind": "affine", "matrix": "1 0 0 1", "offset": "-1.5 -1.25"},
    "certificate": {"u": "0.1", "v": "1", "mu": "1"},
    "solver": {"x0": "2 2", "lambda": "auto", "max_iter": "50"},
    "check": {"pairs": "50"},
    "oracle": {"grid": "9, 9"},
}
# every key of the example, plus two optional keys it leaves out
CONFIG_KEYS = [(section, key) for section, keys in README_CONFIG.items()
               for key in keys] + [("solver", "tol"), ("check", "seed")]

DELETE = None
# every integer a mutation can produce is at most 50, and at most 9 where
# it would be a grid axis
VALUES = st.one_of(
    st.sampled_from(["", "nan", "inf", "-inf", "-1", "0", "-0", "1.5",
                     "x", "1e999", "1e-300", "1e300", "2 2", "1 1 1",
                     "9, 9", "3,x", "ball", "residual", "auto", DELETE]),
    st.integers(-3, 9).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
# counts are never deleted, so no run falls back to a large default
COUNTS = st.one_of(st.integers(-3, 50).map(str),
                   VALUES.filter(lambda value: value is not DELETE))
CONFIG_VALUES = {("solver", "max_iter"): COUNTS, ("check", "pairs"): COUNTS}
# verify and check-map must refuse a sample past the largest array before
# drawing it; solve keeps COUNTS, so no --max-iter can run unbounded
SAMPLE_COUNTS = st.one_of(COUNTS, st.just(str(10**18)))

FLAGS = {
    "solve": {"--lambda": VALUES, "--tol": VALUES, "--max-iter": COUNTS},
    "oracle": {"--grid": VALUES, "--lambda": VALUES},
    "check-map": {"--seed": COUNTS, "--count": SAMPLE_COUNTS},
    "verify": {"--seed": COUNTS, "--count": SAMPLE_COUNTS, "--p": VALUES},
}
DEFAULT_FLAGS = {
    "solve": {"--max-iter": "50"},
    "oracle": {},
    "check-map": {"--count": "50"},
    "verify": {"--count": "50"},
}


def render(config) -> str:
    lines = []
    for section, keys in config.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in keys.items()]
    return "\n".join(lines) + "\n"


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    config = {section: dict(keys) for section, keys in README_CONFIG.items()}
    for section, key in draw(st.lists(st.sampled_from(CONFIG_KEYS),
                                      max_size=2, unique=True)):
        value = draw(CONFIG_VALUES.get((section, key), VALUES))
        if value is DELETE:
            config[section].pop(key, None)
        else:
            config[section][key] = value
    flags = dict(DEFAULT_FLAGS[command])
    for flag in draw(st.lists(st.sampled_from(sorted(FLAGS[command])),
                              max_size=2, unique=True)):
        value = draw(FLAGS[command][flag])
        if value is DELETE:
            flags.pop(flag, None)
        else:
            flags[flag] = value
    args = [f"{flag}={value}" for flag, value in flags.items()]
    if command == "verify":
        args.insert(0, draw(st.sampled_from(
            ["duality", "retraction", "pairing", "factor"])))
    return command, config, args


def run_cli(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a malformed flag
            code = exc.code
    return code, err.getvalue()


@given(invocations())
@example(("verify", README_CONFIG, ["pairing", "--count=1000000000000000000"]))
@settings(max_examples=150, deadline=None)
def test_cli_exits_with_a_documented_code_and_no_traceback(invocation):
    command, config, args = invocation
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command]
        if command != "verify":
            path = Path(tmp) / "prob.ini"
            path.write_text(render(config), encoding="utf-8")
            argv += ["--config", str(path)]
        if command == "solve":
            argv += ["--out", str(Path(tmp) / "trace.csv")]
        code, err = run_cli(argv + args)
    assert code in {0, 1, 2, 3, 4, 5}
    assert "Traceback" not in err


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


FLOAT_BITS = st.one_of(st.integers(0, 2**64 - 1).map(_from_bits), st.floats())


@given(st.lists(st.tuples(st.integers(0, 10**9), FLOAT_BITS, FLOAT_BITS)))
@example([(0, 0.0, -0.0), (1, float("inf"), float("-inf")),
          (2, float("nan"), 5e-324), (3, -2.225073858507201e-308, 1e308)])
@settings(deadline=None)
def test_trace_rows_have_the_bytes_of_printf_formatting(rows):
    out = io.StringIO()
    _write_trace(out, rows)
    assert out.getvalue() == "iter,step_norm,residual\n" + "".join(
        "%d,%.17g,%.17g\n" % row for row in rows)


SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, float("nan"), float("inf"),
                                  float("-inf"), 5e-324, -5e-324,
                                  2.2250738585072014e-308])


@st.composite
def chained_traces(draw):
    """Rows (k, step, residual) whose residual is the next row's step
    object, as in a solve's trace, or a fresh float with its bits, its
    negation (+-0.0 are equal with different text) or any other float."""
    floats = st.one_of(FLOAT_BITS, SPECIAL_FLOATS)
    steps = draw(st.lists(floats, max_size=40))
    rows = []
    for k, step in enumerate(steps, start=1):
        after = steps[k] if k < len(steps) else draw(floats)
        link = draw(st.sampled_from(["same", "fresh", "negated", "other"]))
        if link == "same":
            residual = after
        elif link == "fresh":
            residual = _from_bits(struct.unpack("<Q", struct.pack("<d", after))[0])
        elif link == "negated":
            residual = -after
        else:
            residual = draw(floats)
        rows.append((k, step, residual))
    return rows


@given(chained_traces())
@example([(1, 1.0, -0.0), (2, 0.0, 0.5), (3, 0.5, 0.5)])
@example([(1, 2.0, float("nan")), (2, float("nan"), 5e-324),
          (3, 5e-324, float("inf"))])
@settings(deadline=None)
def test_chained_trace_rows_have_the_bytes_of_printf_formatting(rows):
    out = io.StringIO()
    _write_trace(out, rows)
    assert out.getvalue() == "iter,step_norm,residual\n" + "".join(
        "%d,%.17g,%.17g\n" % row for row in rows)

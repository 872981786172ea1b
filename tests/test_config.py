import textwrap
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpvi import config
from lpvi import (Ball, Box, ConfigError, Halfspace, ResidualOfContraction,
                  UnsupportedRetractionError, UnsupportedSpaceError,
                  WholeSpace)
from lpvi.config import _floats, load_config

GOOD = """
    [space]
    n = 2
    p = 2

    [set]
    kind = box
    lo = 1 1
    hi = 2 2

    [map]
    kind = affine
    matrix = 1 0
             0 1
    offset = -1.5 -1.25

    [certificate]
    u = 0.1
    v = 1
    mu = 1

    [solver]
    x0 = 2 2
    lambda = auto
    tol = 1e-11
    max_iter = 5000

    [check]
    pairs = 500
    seed = 9

    [oracle]
    grid = 21, 21
"""


def load_text(tmp_path, text):
    path = tmp_path / "prob.ini"
    path.write_text(textwrap.dedent(text))
    return load_config(str(path))


def test_full_config_round_trip(tmp_path):
    cfg = load_text(tmp_path, GOOD)
    prob = cfg.problem
    assert (prob.space.n, prob.space.p) == (2, 2.0)
    assert isinstance(prob.cset, Box)
    assert np.array_equal(prob.mapping.matrix, np.eye(2))
    assert np.array_equal(prob.mapping.offset, [-1.5, -1.25])
    assert (prob.cert.u, prob.cert.v, prob.cert.mu) == (0.1, 1.0, 1.0)
    assert np.array_equal(cfg.solver.x0, [2.0, 2.0])
    assert cfg.solver.lam is None          # auto
    assert cfg.solver.tol == 1e-11
    assert cfg.solver.max_iter == 5000
    assert cfg.check.pairs == 500 and cfg.check.seed == 9
    assert cfg.grid == (21, 21)


def test_minimal_config_defaults(tmp_path):
    cfg = load_text(tmp_path, """
        [space]
        n = 2
        p = 3

        [set]
        kind = whole_space

        [map]
        kind = affine
        matrix = 1 0 0 1
    """)
    assert isinstance(cfg.problem.cset, WholeSpace)
    assert cfg.problem.cert is None
    assert cfg.solver.x0 is None and cfg.solver.lam is None
    assert cfg.solver.tol == 1e-10 and cfg.solver.max_iter == 10 ** 6
    assert cfg.check.pairs == 2000 and cfg.check.seed is None
    assert cfg.check.bounds is None and cfg.grid is None


def test_residual_map_kind(tmp_path):
    cfg = load_text(tmp_path, """
        [space]
        n = 2
        p = 2

        [set]
        kind = ball
        radius = 1.5

        [map]
        kind = residual
        alpha = 0.5
        t_matrix = 0.5 0
                   0 0.5
    """)
    assert isinstance(cfg.problem.cset, Ball)
    assert cfg.problem.cset.radius == 1.5
    mapping = cfg.problem.mapping
    assert isinstance(mapping, ResidualOfContraction)
    assert mapping.alpha == 0.5
    assert np.array_equal(mapping.inner.matrix, 0.5 * np.eye(2))


def test_halfspace_kind_and_inline_comments(tmp_path):
    cfg = load_text(tmp_path, """
        [space]
        n = 2
        p = 2  # exponent
        [set]
        kind = halfspace
        normal = 1 1
        offset = 2
        [map]
        kind = affine
        matrix = 1 0 0 1
    """)
    assert isinstance(cfg.problem.cset, Halfspace)
    assert cfg.problem.cset.offset == 2.0


def test_explicit_lambda(tmp_path):
    cfg = load_text(tmp_path, GOOD.replace("lambda = auto", "lambda = 0.5"))
    assert cfg.solver.lam == 0.5


def test_grid_space_separated(tmp_path):
    cfg = load_text(tmp_path, GOOD.replace("grid = 21, 21", "grid = 31 31"))
    assert cfg.grid == (31, 31)


def test_missing_section(tmp_path):
    bad = GOOD.replace("[map]", "[solver2]")
    with pytest.raises(ConfigError, match=r"(\[map\]|solver2)"):
        load_text(tmp_path, bad)


def test_unknown_section(tmp_path):
    with pytest.raises(ConfigError, match="plotting"):
        load_text(tmp_path, GOOD + "\n[plotting]\nstyle = fancy\n")


def test_unknown_key_is_named(tmp_path):
    bad = GOOD.replace("x0 = 2 2", "x0 = 2 2\n    warmstart = yes")
    with pytest.raises(ConfigError, match=r"\[solver\] warmstart"):
        load_text(tmp_path, bad)


def test_wrong_vector_length(tmp_path):
    with pytest.raises(ConfigError, match=r"\[set\] lo"):
        load_text(tmp_path, GOOD.replace("lo = 1 1", "lo = 1 1 1"))


def test_empty_box_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"\[set\]"):
        load_text(tmp_path, GOOD.replace("hi = 2 2", "hi = 0 2"))


def test_unsupported_exponent_keeps_its_class_and_names_the_field(tmp_path):
    with pytest.raises(UnsupportedSpaceError, match=r"\[space\] p"):
        load_text(tmp_path, GOOD.replace("p = 2", "p = 1"))


def test_bad_dimension(tmp_path):
    with pytest.raises(ConfigError):
        load_text(tmp_path, GOOD.replace("n = 2", "n = 0"))
    with pytest.raises(ConfigError):
        load_text(tmp_path, GOOD.replace("n = 2", "n = two"))


def test_bad_certificate_number(tmp_path):
    with pytest.raises(ConfigError, match=r"\[certificate\] u"):
        load_text(tmp_path, GOOD.replace("u = 0.1", "u = tiny"))
    with pytest.raises(ConfigError, match=r"\[certificate\]"):
        load_text(tmp_path, GOOD.replace("u = 0.1", "u = -0.1"))


def test_ball_outside_p2_raises_retraction_error(tmp_path):
    text = """
        [space]
        n = 2
        p = 3

        [set]
        kind = ball
        radius = 1

        [map]
        kind = affine
        matrix = 1 0 0 1
    """
    with pytest.raises(UnsupportedRetractionError):
        load_text(tmp_path, text)


def test_matrix_length_must_be_n_squared(tmp_path):
    with pytest.raises(ConfigError, match=r"\[map\] matrix"):
        load_text(tmp_path, GOOD.replace("matrix = 1 0\n             0 1",
                                         "matrix = 1 0 0"))


def test_unknown_map_kind(tmp_path):
    with pytest.raises(ConfigError, match=r"\[map\] kind"):
        load_text(tmp_path, GOOD.replace("kind = affine", "kind = spline"))


def test_bounds_must_come_in_pairs(tmp_path):
    extra = GOOD.replace("seed = 9", "seed = 9\n    bounds_lo = 0 0")
    with pytest.raises(ConfigError, match="bounds"):
        load_text(tmp_path, extra)


def test_validation_of_solver_numbers(tmp_path):
    with pytest.raises(ConfigError, match=r"\[solver\] tol"):
        load_text(tmp_path, GOOD.replace("tol = 1e-11", "tol = 0"))
    with pytest.raises(ConfigError, match=r"\[solver\] max_iter"):
        load_text(tmp_path, GOOD.replace("max_iter = 5000", "max_iter = 0"))
    with pytest.raises(ConfigError, match=r"\[check\] pairs"):
        load_text(tmp_path, GOOD.replace("pairs = 500", "pairs = 0"))


@pytest.mark.parametrize("tol, detail", [
    ("inf", "must be finite"), ("nan", "must be positive"),
    ("-inf", "must be positive")])
def test_solver_tol_must_be_finite_and_positive(tmp_path, tol, detail):
    with pytest.raises(ConfigError, match=rf"\[solver\] tol: {detail}"):
        load_text(tmp_path, GOOD.replace("tol = 1e-11", f"tol = {tol}"))


def test_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/prob.ini")


NUMBER_TOKENS = ["1_0", "+.5", "1.", "-0", "5e-324", "1e-400", "1e400", "nan",
                 "-nan", "-Infinity", "INF", "0.1", "1E5", "١٢",
                 "٣.٥"]


def test_numbers_parse_as_python_float_does_bit_for_bit():
    vals = _floats(" ".join(NUMBER_TOKENS), "map", "matrix", len(NUMBER_TOKENS))
    expected = np.array([float(tok) for tok in NUMBER_TOKENS])
    assert vals.dtype == np.float64
    assert np.array_equal(vals.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("token", ["1,2", "0x1p3", "1__0", "1e", "nan(1)"])
def test_bad_number_token_names_the_value(tmp_path, token):
    text = f"1 {token}"
    with pytest.raises(ConfigError) as info:
        load_text(tmp_path, GOOD.replace("offset = -1.5 -1.25", f"offset = {text}"))
    assert str(info.value) == f"[map] offset: could not parse numbers from {text!r}"


def test_empty_number_list(tmp_path):
    with pytest.raises(ConfigError, match=r"\[map\] offset: value is empty"):
        load_text(tmp_path, GOOD.replace("offset = -1.5 -1.25", "offset ="))


# Values of 16 lines or more go through numpy's C text reader
# (config._c_reader_floats); everything below checks that reader against
# the token path it replaces, np.array(text.split(), dtype=float), which
# reads each token as Python's float does.
def reference_floats(text):
    return np.array(text.split(), dtype=float)


def reference_message(text):
    try:
        vals = reference_floats(text)
    except ValueError:
        return f"[map] matrix: could not parse numbers from {text!r}"
    return None if vals.size else "[map] matrix: value is empty"


def rows_text(rows, sep="\n    "):
    return sep.join(" ".join(map(repr, row))
                    for row in np.asarray(rows, dtype=float).tolist())


def test_c_reader_gates():
    rng = np.random.default_rng(5)
    dense = rng.standard_normal((40, 40))
    # 16 lines or more go to the C reader, with the token path's bits
    for text in (rows_text(dense[:16]), rows_text(dense)):
        vals = config._c_reader_floats(text)
        assert vals is not None
        assert np.array_equal(vals.view(np.int64),
                              reference_floats(text).view(np.int64))
    padded = "\n" + rows_text(dense) + "\n  \n"  # blank first and last lines
    assert np.array_equal(config._c_reader_floats(padded), vals)
    # fewer lines, one long line and blank values stay on the token path
    assert config._c_reader_floats(rows_text(dense[:15])) is None
    assert config._c_reader_floats(rows_text(dense, sep=" ")) is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        blank = "\n".join([" " * 2000] * 20)
        assert config._c_reader_floats(blank) is None
        with pytest.raises(ConfigError, match=r"\[map\] matrix: value is empty"):
            _floats(blank, "map", "matrix")


def test_a_short_last_line_is_read_by_the_token_path():
    flat = np.random.default_rng(6).standard_normal(40 * 40).tolist()
    text = "\n" + "\n".join(" ".join(map(repr, flat[i:i + 7]))
                           for i in range(0, len(flat), 7)) + "\n"
    assert len(flat) % 7  # ragged at the end only
    # the C reader refuses it, and the token path reads every number
    assert config._c_reader_floats(text) is None
    assert np.array_equal(_floats(text, "map", "matrix").view(np.int64),
                          np.array(flat).view(np.int64))


FILLER = " ".join(["1.25"] * 260)  # a wide row, as a dense matrix has

SEPARATORS = [" ", "  ", "\t", "\xa0", "\u2003", "\x0b", "\x0c", " \t ",
              "\r"]
SPELLINGS = ["inf", "-inf", "+inf", "Infinity", "-INFINITY", "iNf", "nan",
             "-nan", "+NaN", "NAN", "1e308", "1.8e308", "-1e-330",
             "2.2250738585072011e-308", "4.9406564584124654e-324"]
BAD_TOKENS = ["1,2", "0x1p3", "1__0", "1e", "nan(1)", "1\x002", "--1", "e5",
              "1.2.3", "infinit", "\ud800", "\u0663x", "#1", "1#2"]
finite = st.floats(allow_nan=False, allow_infinity=False)
long_digits = st.builds(
    "{}{}.{}e{}".format, st.sampled_from(["", "-", "+"]),
    st.integers(10 ** 17, 10 ** 40), st.integers(0, 10 ** 30),
    st.integers(-400, 400))
number_tokens = st.one_of(
    st.floats().map(repr),
    finite.map(lambda v: "%.17g" % v),
    finite.map(lambda v: "%.3e" % v),
    st.floats(min_value=-2.2250738585072014e-308,
              max_value=2.2250738585072014e-308).map(repr),
    st.integers(10 ** 17, 10 ** 40).map(str),
    long_digits,
    st.sampled_from(SPELLINGS),
)
# NUMBER_TOKENS holds spellings only Python's float reads (`1_0`, `١٢`)
ODD_TOKENS = NUMBER_TOKENS + BAD_TOKENS


@st.composite
def number_values(draw):
    """Number lists of one to 24 lines (16 or more go to the C reader),
    padded with FILLER unless `small` is drawn, with odd separators, and
    at times a blank line, a ragged line or an odd token."""
    rows = draw(st.one_of(st.integers(16, 24), st.integers(1, 15)))
    width = draw(st.integers(0, 3))
    cells = draw(st.lists(number_tokens, min_size=rows * width,
                          max_size=rows * width))
    lines = [cells[i * width:(i + 1) * width] for i in range(rows)]
    if draw(st.integers(0, 3)) == 0:
        row = draw(st.integers(0, rows - 1))
        lines[row] = lines[row][:-1]  # ragged
    if draw(st.integers(0, 3)) == 0:
        lines[draw(st.integers(0, rows - 1))].append(
            draw(st.sampled_from(ODD_TOKENS)))
    sep = draw(st.sampled_from(SEPARATORS))
    small = draw(st.integers(0, 4)) == 0
    texts = [sep.join(line) if small
             else sep.join([FILLER] + line) for line in lines]
    if draw(st.integers(0, 3)) == 0:
        texts.insert(draw(st.integers(0, rows)),
                     draw(st.sampled_from(["", "   ", "\t"])))
    return draw(st.sampled_from(["\n", "\n    ", "\n\t"])).join(texts)


@settings(max_examples=200, deadline=None)
@given(number_values())
def test_floats_match_the_token_path_bit_for_bit(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = reference_message(text)
        if expected is not None:
            with pytest.raises(ConfigError) as info:
                _floats(text, "map", "matrix")
            assert str(info.value) == expected
            return
        vals = _floats(text, "map", "matrix")
    ref = reference_floats(text)
    assert vals.dtype == np.float64 and vals.shape == ref.shape
    assert np.array_equal(vals.view(np.int64), ref.view(np.int64))


def test_the_fast_path_takes_every_number_spelling():
    tokens = NUMBER_TOKENS[1:13] + SPELLINGS + ["1" * 40, "-" + "9" * 30]
    text = "\n    ".join(FILLER + " " + " ".join(tokens) for _ in range(20))
    vals = config._c_reader_floats(text)
    assert vals is not None
    assert np.array_equal(vals.view(np.int64),
                          reference_floats(text).view(np.int64))


@pytest.mark.parametrize("token", ODD_TOKENS)
def test_odd_tokens_past_the_gate_read_as_on_the_token_path(token):
    text = "\n    ".join(FILLER + " " + token for _ in range(20))
    expected = reference_message(text)
    if expected is None:
        vals = _floats(text, "map", "matrix")
        assert np.array_equal(vals.view(np.int64),
                              reference_floats(text).view(np.int64))
    else:
        with pytest.raises(ConfigError) as info:
            _floats(text, "map", "matrix")
        assert str(info.value) == expected


def traced_peak(path):
    tracemalloc.start()
    try:
        load_config(str(path))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("sep", ["\n    ", " "], ids=["row-per-line", "one-line"])
def test_load_config_peak_memory_stays_below_the_token_path(tmp_path,
                                                            monkeypatch, sep):
    n = 300
    matrix = np.random.default_rng(8).standard_normal((n, n))
    path = tmp_path / "dense.ini"
    path.write_text(textwrap.dedent(f"""\
        [space]
        n = {n}
        p = 2
        [set]
        kind = whole_space
        [map]
        kind = affine
        matrix = """) + rows_text(matrix, sep) + "\n")
    peak = traced_peak(path)
    loaded = load_config(str(path)).problem.mapping.matrix
    assert np.array_equal(loaded.view(np.int64), matrix.view(np.int64))
    monkeypatch.setattr(config, "_c_reader_floats", lambda text: None)
    token_peak = traced_peak(path)
    if sep == " ":
        # gated off, so the same path: equal up to a few KB of allocator
        # noise, where the C reader on this line would add megabytes
        assert peak < token_peak + 64 * 1024
    else:  # no Python string per number
        assert peak < token_peak / 2

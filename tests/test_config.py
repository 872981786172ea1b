import textwrap

import numpy as np
import pytest

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

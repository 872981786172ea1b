import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpvi import (Affine, BlackBox, Box, Certificate, EstimationError,
                  EvaluationError, Feasibility, InvalidInputError,
                  ResidualOfContraction, ShapeError, WholeSpace,
                  certificate_feasibility, check_relaxed_cocoercive,
                  check_strongly_monotone, draw_pairs, estimate_lipschitz,
                  evaluate)
from lpvi.maps import evaluate_rows, rows_kernel
from lpvi.sets import sample_in_set
from lpvi.spaces import duality_map_rows, norm_rows, p_norm, pairing_rows

BOX = Box([-1.0, -1.0], [1.0, 1.0])


def _identity(n=2):
    return Affine(np.eye(n))


def test_evaluate_identity():
    assert np.array_equal(evaluate(_identity(), [1.0, 2.0]), [1.0, 2.0])


def test_evaluate_affine_with_offset():
    b = Affine([[2.0, 0.0], [0.0, 3.0]], [1.0, -1.0])
    assert np.array_equal(evaluate(b, [1.0, 1.0]), [3.0, 2.0])


def test_evaluate_residual_of_contraction():
    b = ResidualOfContraction(Affine(0.5 * np.eye(2)), 0.5)
    assert np.array_equal(evaluate(b, [2.0, 2.0]), [1.0, 1.0])


def test_evaluate_rows_matches_scalar_path():
    b = Affine([[2.0, 1.0], [0.0, 3.0]], [0.5, -0.5])
    xs = np.random.default_rng(0).uniform(-2, 2, size=(20, 2))
    rows = evaluate_rows(b, xs)
    for x, bx in zip(xs, rows):
        assert np.array_equal(evaluate(b, x), bx)


def test_evaluate_rows_rejects_nonfinite_residual_of_contraction():
    # x - T(x) = 2x overflows although x and T(x) = -x are finite
    b = ResidualOfContraction(Affine(-np.eye(2)), 0.5)
    xs = np.array([[1.0, 2.0], [1e308, 0.0]])
    with np.errstate(over="ignore"):
        with pytest.raises(EvaluationError, match="non-finite output"):
            evaluate(b, xs[1])
        with pytest.raises(EvaluationError, match="non-finite output"):
            evaluate_rows(b, xs)
    assert np.array_equal(evaluate_rows(b, xs[:1]), [[2.0, 4.0]])


def test_blackbox_exception_wrapped():
    def boom(x):
        raise ValueError("inner failure")
    with pytest.raises(EvaluationError):
        evaluate(BlackBox(boom, 2), [0.0, 0.0])


def test_blackbox_nonfinite_output_rejected():
    b = BlackBox(lambda x: np.array([np.nan, 0.0]), 2)
    with pytest.raises(EvaluationError):
        evaluate(b, [1.0, 1.0])


def test_blackbox_wrong_shape_rejected():
    b = BlackBox(lambda x: np.zeros(3), 2)
    with pytest.raises(EvaluationError):
        evaluate(b, [1.0, 1.0])


@pytest.mark.parametrize("dim", [3.7, True, "3", float("nan")])
def test_black_box_dimension_must_be_an_integer(dim):
    with pytest.raises(InvalidInputError,
                       match=re.escape(f"dimension must be an integer, got {dim!r}")):
        BlackBox(lambda x: x, dim)
    assert type(BlackBox(lambda x: x, np.int32(3)).dim) is int


def test_evaluate_checks_dimension():
    with pytest.raises(ShapeError):
        evaluate(_identity(2), [1.0, 2.0, 3.0])


def test_contraction_constant_range():
    with pytest.raises(InvalidInputError):
        ResidualOfContraction(_identity(), 1.0)
    with pytest.raises(InvalidInputError):
        ResidualOfContraction(_identity(), -0.1)
    assert ResidualOfContraction(_identity(), 0.0).alpha == 0.0


def test_affine_must_be_square():
    with pytest.raises(ShapeError):
        Affine(np.zeros((2, 3)))
    # a 0 x 0 matrix is refused by its size, as WholeSpace(0) and
    # BlackBox(f, 0) are, with or without an offset
    for offset in (None, []):
        with pytest.raises(InvalidInputError,
                           match=re.escape("dimension must be positive, got 0")):
            Affine(np.zeros((0, 0)), offset)


def test_lipschitz_scaled_identity():
    sample = draw_pairs(Affine(-2.5 * np.eye(2)), BOX, 2, 500, seed=1)
    est = estimate_lipschitz(sample)
    assert est.mu_hat == pytest.approx(2.5, rel=1e-12)
    assert sample.seps.size == 500
    wit = p_norm(evaluate(Affine(-2.5 * np.eye(2)), est.witness_x)
                 - evaluate(Affine(-2.5 * np.eye(2)), est.witness_y), 2)
    assert wit / p_norm(est.witness_x - est.witness_y, 2) == pytest.approx(est.mu_hat, rel=1e-12)


def test_lipschitz_residual_of_contraction():
    b = ResidualOfContraction(Affine(0.5 * np.eye(3)), 0.5)
    est = estimate_lipschitz(
        draw_pairs(b, Box([-1.0] * 3, [1.0] * 3), 2, 400, seed=2))
    assert est.mu_hat == pytest.approx(0.5, rel=1e-12)


def test_lipschitz_diagonal_converges_to_top_singular_value():
    b = Affine(np.diag([2.0, 3.0]))
    est = estimate_lipschitz(draw_pairs(b, BOX, 2, 100_000, seed=0))
    assert 2.9 <= est.mu_hat <= 3.0 + 1e-9


def test_lipschitz_monotone_in_sample_count():
    b = Affine(np.diag([2.0, 3.0]))
    vals = [estimate_lipschitz(draw_pairs(b, BOX, 2, n, seed=3)).mu_hat
            for n in (100, 1000, 10_000)]
    assert vals[0] <= vals[1] <= vals[2]


def test_lipschitz_degenerate_region():
    point = Box([1.0, 1.0], [1.0, 1.0])
    with pytest.raises(EstimationError):
        draw_pairs(_identity(), point, 2, 50, seed=0)


def test_lipschitz_unbounded_region_needs_bounds():
    with pytest.raises(EstimationError):
        draw_pairs(_identity(), WholeSpace(2), 2, 50, seed=0)
    sample = draw_pairs(_identity(), WholeSpace(2), 2, 50, seed=0,
                        bounds=([-1.0, -1.0], [1.0, 1.0]))
    est = estimate_lipschitz(sample)
    assert est.mu_hat == pytest.approx(1.0, rel=1e-12)


def test_cocoercive_identity_holds():
    sample = draw_pairs(_identity(), BOX, 2, 2000, seed=4)
    rep = check_relaxed_cocoercive(sample, u=0.1, v=1.0)
    # slack is exactly 0.1 |x - y|^2 for the identity at p = 2
    assert rep.worst_slack >= 0.1 * np.min(sample.seps) ** 2 - 1e-12
    assert sample.seps.size + sample.degenerate_skipped == 2000


def test_cocoercive_false_claim_is_falsified():
    sample = draw_pairs(_identity(), BOX, 2, 2000, seed=4)
    rep = check_relaxed_cocoercive(sample, u=0.1, v=2.0)
    assert rep.worst_slack <= -0.8 * np.max(sample.seps) ** 2


def test_cocoercive_at_p3():
    sample = draw_pairs(_identity(), BOX, 3, 2000, seed=5)
    rep = check_relaxed_cocoercive(sample, u=0.1, v=1.0)
    assert rep.worst_slack >= -1e-9


def test_strongly_monotone_identity():
    sample = draw_pairs(_identity(), BOX, 2, 2000, seed=6)
    rep = check_strongly_monotone(sample, v=1.0)
    assert abs(rep.worst_slack) <= 1e-9 * (1.0 + np.max(sample.seps) ** 2)


def test_strongly_monotone_violated_by_negated_identity():
    sample = draw_pairs(Affine(-np.eye(2)), BOX, 2, 2000, seed=6)
    rep = check_strongly_monotone(sample, v=1.0)
    assert rep.worst_slack <= -2.0 * np.max(sample.seps) ** 2 + 1e-12


def test_strong_monotonicity_implies_cocoercivity_samplewise():
    b = Affine([[1.0, 0.3], [-0.3, 1.0]])
    sample = draw_pairs(b, BOX, 2, 3000, seed=7)
    coco = check_relaxed_cocoercive(sample, u=0.25, v=0.9)
    strong = check_strongly_monotone(sample, v=0.9)
    assert coco.slacks.shape == strong.slacks.shape
    assert np.all(coco.slacks >= strong.slacks)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_draw_pairs_forms_each_quantity_with_its_kernels_bits(p):
    b = Affine([[1.0, 0.3, 0.0], [-0.3, 1.0, 2.0], [0.5, 0.0, -1.0]])
    # in a cube this small, some pairs are degenerate (|x - y|_p < 1e-12)
    cube = Box([0.0, 0.0, 0.0], [1e-12, 1e-12, 1e-12])
    sample = draw_pairs(b, cube, p, 400, seed=8)
    pts = sample_in_set(cube, 800, 8)
    diffs = pts[0::2] - pts[1::2]
    keep = norm_rows(diffs, p) >= 1e-12
    dbs = evaluate_rows(b, pts[0::2][keep]) - evaluate_rows(b, pts[1::2][keep])
    assert np.array_equal(sample.xs, pts[0::2][keep])
    assert np.array_equal(sample.ys, pts[1::2][keep])
    assert np.array_equal(sample.seps, norm_rows(diffs[keep], p))
    assert np.array_equal(sample.image_seps, norm_rows(dbs, p))
    assert np.array_equal(sample.pairings,
                          pairing_rows(dbs, duality_map_rows(diffs[keep], p)))
    assert 0 < sample.degenerate_skipped == int(np.sum(~keep)) < 400


def test_constant_validation():
    sample = draw_pairs(_identity(), BOX, 2, 10, seed=0)
    # NaN fails every comparison, so it is refused, not turned into a NaN
    # worst slack; an infinite constant, as Certificate refuses it, would
    # give a vacuous worst slack of inf, -inf or NaN
    for u, v in ((0.0, 1.0), (math.nan, 1.0), (1.0, math.nan),
                 (math.inf, 1.0), (1.0, math.inf)):
        with pytest.raises(InvalidInputError, match="u, v must be positive"):
            check_relaxed_cocoercive(sample, u=u, v=v)
    for v in (-1.0, math.nan, math.inf):
        with pytest.raises(InvalidInputError, match="v must be positive"):
            check_strongly_monotone(sample, v=v)
    with pytest.raises(InvalidInputError):
        draw_pairs(_identity(), BOX, 2, 0, seed=0)


def test_certificate_requires_positive_finite_constants():
    Certificate(1.0, 1.0, 1.0)
    for bad in ((0.0, 1, 1), (1, -1, 1), (1, 1, np.inf), (np.nan, 1, 1)):
        with pytest.raises(InvalidInputError):
            Certificate(*bad)


def test_feasibility_inconsistent():
    rep = certificate_feasibility(Certificate(1.0, 10.0, 1.0))
    assert rep.verdict is Feasibility.INCONSISTENT


def test_feasibility_hilbert_only():
    rep = certificate_feasibility(Certificate(0.1, 0.5, 0.5))
    assert rep.verdict is Feasibility.HILBERT_ONLY


def test_feasibility_uncertified():
    rep = certificate_feasibility(Certificate(1.0, 0.5, 1.0))
    assert rep.verdict is Feasibility.UNCERTIFIED


def test_strict_verdict_never_fires_on_random_certificates():
    rng = np.random.default_rng(8)
    raw = 10.0 ** rng.uniform(-3, 3, size=(2000, 3))
    for u, v, mu in raw:
        rep = certificate_feasibility(Certificate(u, v, mu))
        assert rep.verdict is not Feasibility.STRICT


positive = st.floats(min_value=0.0, exclude_min=True, allow_nan=False,
                     allow_infinity=False)


def _strict_verdict_is_unreachable(u, v, mu):
    rep = certificate_feasibility(Certificate(u, v, mu))
    # both conditions recomputed inline, as acceptance criterion 8 does
    assert not (v > u * mu * mu + 5.0 * mu and v <= mu + u * mu * mu)
    assert rep.verdict is not Feasibility.STRICT


@given(u=positive, v=positive, mu=positive)
@settings(max_examples=1000, deadline=None)
def test_strict_verdict_is_unreachable_at_every_positive_finite_certificate(u, v, mu):
    # rounding is monotone, so v > fl(u mu^2 + 5 mu) >= fl(u mu^2 + mu)
    # rules out consistency in floating point as it does in the reals
    _strict_verdict_is_unreachable(u, v, mu)


def test_strict_verdict_is_unreachable_next_to_both_boundaries():
    rng = np.random.default_rng(21)
    for u, mu in (10.0 ** rng.uniform(-150, 150, size=(2000, 2))).tolist():
        for edge in (u * mu * mu + mu, u * mu * mu + 5.0 * mu):
            if not 0.0 < edge < math.inf:
                continue
            below, above = edge, edge
            for _ in range(3):
                below = math.nextafter(below, 0.0)
                above = math.nextafter(above, math.inf)
                for v in (below, edge, above):
                    if 0.0 < v < math.inf:
                        _strict_verdict_is_unreachable(u, v, mu)


@pytest.mark.parametrize("n", [1, 2, 9, 100])
def test_evaluate_rows_unchecked_into_out_has_the_fresh_bits(n):
    rng = np.random.default_rng(n)
    affine = Affine(rng.standard_normal((n, n)), rng.standard_normal(n))
    maps = [affine, ResidualOfContraction(affine, 0.5),
            BlackBox(lambda x: np.tanh(x) - 0.5, n)]
    xs = rng.standard_normal((3, n))
    for mapping in maps:
        # one row and three run different BLAS calls, so each has its own bits
        for k in (1, 3):
            want = rows_kernel(mapping)(xs[:k])
            buf = np.full((k + 2, n), np.nan)
            got = rows_kernel(mapping)(xs[:k], buf[1:-1])
            assert got.base is buf
            assert got.tobytes() == want.tobytes()
            assert np.isnan(buf[[0, -1]]).all()


@pytest.mark.parametrize("n", [1, 2, 7, 8, 100])
def test_affine_and_residual_kernels_have_the_formulas_bits(n):
    # held to matmul-then-add, not to the kernel itself: on the Picard
    # loop's one-row views with out= a view, and on blocks in both orders
    rng = np.random.default_rng(n)
    matrix, offset = rng.standard_normal((n, n)), rng.standard_normal(n)
    affine = Affine(matrix, offset)
    buf = rng.standard_normal((17, n)) * 10.0 ** rng.uniform(-2, 2, (17, 1))

    def affine_formula(xs):
        return np.matmul(xs, matrix.T) + offset

    for mapping, formula in [
            (affine, affine_formula),
            (ResidualOfContraction(affine, 0.5),
             lambda xs: xs - affine_formula(xs))]:
        kernel = rows_kernel(mapping)
        out = np.full((17, n), np.nan)
        for i in range(16):
            row = out[i + 1:i + 2]
            assert kernel(buf[i:i + 1], row) is row
            assert row.tobytes() == formula(buf[i:i + 1]).tobytes()
        assert np.isnan(out[0]).all()
        for rows in (1, 3, 16, 17):
            for order in "CF":
                xs = np.asarray(buf[:rows], order=order)
                want = formula(xs).tobytes()
                assert kernel(xs).tobytes() == want, (rows, order)

import io
import json
import math
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpvi import (Affine, Ball, BlackBox, Box, Certificate, Certification,
                  ConfigError, DivergenceError, EvaluationError, Feasibility,
                  Halfspace,
                  InvalidInputError, Problem, ResidualOfContraction,
                  ShapeError, SolveStatus, SpaceSpec,
                  UnsupportedRetractionError, WholeSpace,
                  certificate_feasibility, contains, evaluate,
                  hilbert_factor_sq, hilbert_rule_factor,
                  hilbert_step_interval, picard_solve, select_lambda, solve,
                  strict_step_intervals, vi_residual)
from lpvi import cli
from lpvi import solver as solver_module
from lpvi.config import load_config
from lpvi.maps import rows_kernel
from lpvi.spaces import p_norm

SQRT2 = 1.4142135623730951


def box_problem(cert=None):
    # identity mapping on the box [1, 2]^2 at p = 2; solution is (1, 1)
    return Problem(SpaceSpec(2, 2.0), Box([1.0, 1.0], [2.0, 2.0]),
                   Affine(np.eye(2)), cert=cert)


def test_problem_dimension_mismatch():
    with pytest.raises(ShapeError):
        Problem(SpaceSpec(3, 2.0), Box([1.0, 1.0], [2.0, 2.0]), Affine(np.eye(3)))
    with pytest.raises(ShapeError):
        Problem(SpaceSpec(2, 2.0), Box([1.0, 1.0], [2.0, 2.0]), Affine(np.eye(3)))


def test_problem_rejects_unsupported_retraction_up_front():
    with pytest.raises(UnsupportedRetractionError):
        Problem(SpaceSpec(2, 3.0), Ball(2, 1.0), Affine(np.eye(2)))


def test_strict_intervals_split_case():
    # u=1, v=10, mu=1: base window (0, 4), cap splits at 2 -+ sqrt(3)
    ivs = strict_step_intervals(Certificate(1.0, 10.0, 1.0))
    assert len(ivs) == 2
    (a0, a1), (b0, b1) = ivs
    assert a0 == 0.0
    assert abs(a1 - (2.0 - math.sqrt(3.0))) <= 1e-12
    assert abs(b0 - (2.0 + math.sqrt(3.0))) <= 1e-12
    assert abs(b1 - 4.0) <= 1e-12
    # endpoints agree with the roots of lam^2 - 4 lam + 1
    roots = np.sort(np.roots([1.0, -4.0, 1.0]))
    assert abs(a1 - roots[0]) <= 1e-12 and abs(b0 - roots[1]) <= 1e-12


def test_strict_intervals_empty_and_single():
    assert strict_step_intervals(Certificate(1.0, 1.0, 1.0)) == []
    ivs = strict_step_intervals(Certificate(1.0, 6.19, 1.0))
    assert len(ivs) == 1
    lo, hi = ivs[0]
    assert lo == 0.0 and hi == pytest.approx(0.19, rel=1e-12)


def test_strict_intervals_at_the_ends_of_the_double_range():
    # mu^2 underflows to 0, mu^2 overflows, the bound overflows, and a
    # finite bound whose square overflows
    assert strict_step_intervals(Certificate(1.0, 5e-171, 1e-170)) == []
    assert strict_step_intervals(Certificate(1.0, 1e300, 1e160)) == []
    assert strict_step_intervals(Certificate(1e-300, 1e300, 1e-150)) == []
    # bound 1e200 and cap lam (1e200 - lam) < 1e100: the small root is
    # about 1e-100, and the window above the large one rounds empty
    (ivs,) = strict_step_intervals(Certificate(1e-300, 1e100, 1e-50))
    assert ivs == (0.0, pytest.approx(1e-100, rel=1e-12))


def _strict_windows_hold(u, v, mu):
    ivs = strict_step_intervals(Certificate(u, v, mu))
    mu2 = mu * mu
    normal = sys.float_info.min <= mu2 < math.inf
    bound = (v - u * mu2 - 5.0 * mu) / mu2 if normal else 0.0
    assert (ivs == []) == (not 0.0 < bound < math.inf)
    ends = [end for iv in ivs for end in iv]
    assert all(math.isfinite(end) for end in ends)
    assert all(a < b for a, b in ivs) and ends == sorted(ends)
    assert not ends or (ends[0] == 0.0 and ends[-1] <= bound)
    # inside each window the cap lam mu^2 (bound - lam) < 1 holds, in exact
    # arithmetic at the window's midpoint, up to the rounding of its ends
    for a, b in ivs:
        lam = (Fraction(a) + Fraction(b)) / 2
        assert lam * Fraction(mu) ** 2 * (Fraction(bound) - lam) < 1 + 1e-9


@given(u=st.floats(-300.0, 300.0), v=st.floats(-300.0, 300.0),
       mu=st.floats(-300.0, 300.0))
@settings(max_examples=500, deadline=None)
def test_strict_intervals_are_finite_ordered_admissible_windows(u, v, mu):
    _strict_windows_hold(10.0 ** u, 10.0 ** v, 10.0 ** mu)


def test_hilbert_interval():
    win = hilbert_step_interval(Certificate(0.1, 0.5, 0.5))
    assert win == (0.0, pytest.approx(3.8, rel=1e-12))
    assert hilbert_step_interval(Certificate(1.0, 0.5, 1.0)) is None
    win = hilbert_step_interval(Certificate(0.01, 1.0, 0.1))
    assert win[1] == pytest.approx(199.98, rel=1e-12)


def test_hilbert_factor_clipping():
    cert = Certificate(0.1, 1.0, 1.0)
    q2 = hilbert_factor_sq(cert, 0.9)
    assert q2 == pytest.approx(0.19, rel=1e-12)
    assert 0.0 <= hilbert_factor_sq(cert, 1e-18) < 1.0
    assert hilbert_factor_sq(cert, 100.0) < 1.0   # clipped from above
    assert hilbert_factor_sq(Certificate(0.5, 0.51, 1.0), 0.01) == 0.0 or \
        hilbert_factor_sq(Certificate(0.5, 0.51, 1.0), 0.01) >= 0.0


def test_hilbert_factor_keeps_its_evaluation_order():
    # gamma mu^2 as (u mu) mu and s^2 mu^2 as ((lam lam) mu) mu; forming
    # mu^2 first rounds this certificate's midpoint step to ...778
    cert = Certificate(0.01209699050392171, 1.8544624673696875, 3.213854545722011)
    assert hilbert_factor_sq(cert, 0.16744482538439873) == 0.7104017744373777
    assert hilbert_rule_factor() == -0.97


def test_select_lambda_hilbert_auto():
    prob = Problem(SpaceSpec(2, 2.0), Box([-1.0, -1.0], [1.0, 1.0]),
                   Affine(0.5 * np.eye(2)), cert=Certificate(0.1, 0.5, 0.5))
    lam, certification = select_lambda(prob)
    assert lam == pytest.approx(1.9, rel=1e-12)
    assert certification is Certification.HILBERT


def test_select_lambda_explicit_wins():
    prob = box_problem(cert=Certificate(0.1, 1.0, 1.0))
    lam, certification = select_lambda(prob, 2.5)
    assert (lam, certification) == (2.5, Certification.UNCERTIFIED)
    with pytest.raises(ConfigError):
        select_lambda(prob, 0.0)
    with pytest.raises(ConfigError):
        select_lambda(prob, -1.0)


def test_select_lambda_requires_certificate():
    with pytest.raises(ConfigError):
        select_lambda(box_problem())


def test_select_lambda_refuses_inconsistent_certificate():
    prob = box_problem(cert=Certificate(1.0, 10.0, 1.0))
    with pytest.raises(ConfigError, match="inconsistent"):
        select_lambda(prob)


def test_select_lambda_no_rule_outside_p2():
    prob = Problem(SpaceSpec(2, 3.0), Box([1.0, 1.0], [2.0, 2.0]),
                   Affine(np.eye(2)), cert=Certificate(0.1, 1.0, 1.0))
    with pytest.raises(ConfigError, match="explicit"):
        select_lambda(prob)


def test_select_lambda_uncertified_certificate_rejected():
    prob = box_problem(cert=Certificate(1.0, 0.5, 1.0))   # v <= u mu^2
    with pytest.raises(ConfigError):
        select_lambda(prob)


def test_a_certificate_with_v_at_u_mu2_is_uncertified():
    # the Hilbert window (0, 2 (v - u mu^2) / mu^2) is empty there
    assert certificate_feasibility(Certificate(1.0, 4.0, 2.0)).verdict \
        is Feasibility.UNCERTIFIED


def test_a_certificate_on_the_consistency_bound_is_hilbert_only():
    # v = mu + u mu^2 is still consistent, with window (0, 1)
    edge = Certificate(1.0, 6.0, 2.0)
    assert certificate_feasibility(edge).verdict is Feasibility.HILBERT_ONLY
    assert select_lambda(box_problem(cert=edge)) == (0.5, Certification.HILBERT)


# consistent, Hilbert-only certificates with no representable step: mu^2
# is 0.0, subnormal or inf, or the step (v - u mu^2) / mu^2 underflows
NO_STEP_CERTIFICATES = [
    pytest.param(1.0, 5e-171, 1e-170, id="mu2-zero"),
    pytest.param(1.0, 5e-161, 1e-160, id="mu2-subnormal"),
    pytest.param(1e-320, 2.0, 1e160, id="mu2-inf"),
    pytest.param(1e-323, 4.5e-323, 2.0, id="step-underflow"),
]


@pytest.mark.parametrize("u, v, mu", NO_STEP_CERTIFICATES)
def test_a_certificate_without_a_representable_step_certifies_none(u, v, mu):
    cert = Certificate(u, v, mu)
    assert certificate_feasibility(cert).verdict is Feasibility.HILBERT_ONLY
    assert hilbert_step_interval(cert) is None
    with pytest.raises(ConfigError, match="does not certify a step size"):
        select_lambda(box_problem(cert))


def _midpoint_or_refusal(u, mu, t):
    """select_lambda at p = 2 on the certificate (u, u mu^2 + t mu, mu):
    (v - u mu^2) / (mu mu) bit for bit where mu^2 is a finite normal
    float and that step is positive; otherwise refused."""
    v = u * mu * mu + t * mu
    if not 0.0 < v < math.inf:
        return
    cert = Certificate(u, v, mu)
    if certificate_feasibility(cert).verdict is Feasibility.INCONSISTENT:
        return   # t mu rounded v over the consistency bound
    normal = sys.float_info.min <= mu * mu < math.inf
    step = (v - u * mu * mu) / (mu * mu) if normal else 0.0
    if step > 0.0:
        lam, certification = select_lambda(box_problem(cert))
        assert lam.hex() == step.hex()
        assert certification is Certification.HILBERT
    else:
        with pytest.raises(ConfigError, match="does not certify a step size"):
            select_lambda(box_problem(cert))


positive = st.floats(min_value=0.0, exclude_min=True, allow_nan=False,
                     allow_infinity=False)


@given(u=positive, mu=positive, t=st.floats(0.0, 1.0, exclude_min=True))
@settings(max_examples=1000, deadline=None)
def test_select_lambda_is_the_midpoint_bit_for_bit(u, mu, t):
    _midpoint_or_refusal(u, mu, t)


def test_select_lambda_is_the_midpoint_bit_for_bit_on_seeded_certificates():
    rng = np.random.default_rng(14)
    u = 10.0 ** rng.uniform(-300.0, 300.0, 20_000)
    mu = 10.0 ** rng.uniform(-160.0, 160.0, 20_000)
    t = rng.uniform(0.0, 1.0, 20_000)
    for args in zip(u.tolist(), mu.tolist(), t.tolist()):
        _midpoint_or_refusal(*args)


def test_picard_identity_on_shifted_box():
    rep = picard_solve(box_problem(), lam=0.5, x0=[2.0, 2.0])
    assert np.array_equal(rep.final_point, [1.0, 1.0])
    assert rep.iterations == 2
    assert rep.status is SolveStatus.CONVERGED
    assert rep.final_residual == 0.0
    assert rep.trace[0] == (1, SQRT2, 0.0)
    assert rep.trace[1] == (2, 0.0, 0.0)


def test_picard_contraction_residual_at_p3():
    inner = Affine(0.5 * np.eye(2))
    prob = Problem(SpaceSpec(2, 3.0), Box([-1.0, -1.0], [1.0, 1.0]),
                   ResidualOfContraction(inner, 0.5))
    rep = picard_solve(prob, lam=1.0, x0=[1.0, 1.0])
    assert p_norm(rep.final_point, 3) <= 1e-9
    assert rep.status is SolveStatus.CONVERGED
    # steps decay geometrically at exactly the contraction rate 1/2
    steps = [row[1] for row in rep.trace]
    for a, b in zip(steps[1:10], steps[2:11]):
        assert b / a == pytest.approx(0.5, rel=1e-9)


def test_picard_orbit_stays_in_the_set():
    seen = []

    def probe(x):
        seen.append(x.copy())
        return x.copy()

    box = Box([1.0, 1.0], [2.0, 2.0])
    prob = Problem(SpaceSpec(2, 2.0), box, BlackBox(probe, 2))
    picard_solve(prob, lam=0.5, x0=[40.0, -7.0])
    assert len(seen) >= 2
    for pt in seen:
        assert contains(box, pt, tol=1e-12)


def test_picard_solution_independent_of_start():
    prob = box_problem(cert=Certificate(0.1, 1.0, 1.0))
    a = solve(prob, x0=[5.0, 5.0])
    b = solve(prob, x0=[-3.0, 0.7])
    assert a.certification is Certification.HILBERT
    assert p_norm(a.final_point - b.final_point, 2) <= 10 * 1e-10


def test_picard_final_residual_matches_vi_residual():
    prob = Problem(SpaceSpec(2, 2.0), Box([1.0, 1.0], [2.0, 2.0]),
                   Affine(np.eye(2), [-1.5, -1.25]))
    rep = picard_solve(prob, lam=0.9, x0=[2.0, 2.0])
    assert rep.final_residual == vi_residual(prob, rep.final_point, 0.9)
    assert rep.final_residual <= 2.0 * 1e-10 * (1.0 + p_norm(rep.final_point, 2))


def test_picard_iteration_limit_is_a_status_not_an_error():
    prob = Problem(SpaceSpec(2, 2.0), Box([0.0, 0.0], [1.0, 1.0]),
                   Affine(np.eye(2), [-0.5, -0.5]))
    rep = picard_solve(prob, lam=0.1, x0=[1.0, 1.0], max_iter=3)
    assert rep.status is SolveStatus.ITERATION_LIMIT
    assert rep.iterations == 3
    assert len(rep.trace) == 3


def test_picard_divergence_carries_trace():
    prob = Problem(SpaceSpec(2, 2.0), WholeSpace(2), Affine(-np.eye(2)))
    with pytest.raises(DivergenceError) as info:
        picard_solve(prob, lam=1.0, x0=[1.0, 1.0], max_iter=5000)
    trace = info.value.trace
    assert len(trace) > 10
    assert all(np.isfinite(row[1]) for row in trace)


def test_picard_validates_inputs():
    with pytest.raises(InvalidInputError):
        picard_solve(box_problem(), lam=0.0, x0=[1.5, 1.5])
    with pytest.raises(InvalidInputError):
        picard_solve(box_problem(), lam=0.5, x0=[1.5, 1.5], tol=0.0)
    with pytest.raises(InvalidInputError):
        picard_solve(box_problem(), lam=0.5, x0=[1.5, 1.5], max_iter=0)


def test_picard_hilbert_certification_needs_a_certificate():
    with pytest.raises(InvalidInputError, match="needs a certificate"):
        picard_solve(box_problem(), lam=0.5, x0=[1.5, 1.5],
                     certification=Certification.HILBERT)


def test_vi_residual_example():
    assert vi_residual(box_problem(), [2.0, 2.0], 0.5) == SQRT2
    assert vi_residual(box_problem(), [1.0, 1.0], 0.5) == 0.0


def test_hilbert_trace_ratio_stays_under_certified_rate():
    cert = Certificate(0.1, 1.0, 1.0)
    prob = Problem(SpaceSpec(2, 2.0), Box([1.0, 1.0], [2.0, 2.0]),
                   Affine(np.eye(2), [-1.5, -1.25]), cert=cert)
    rep = solve(prob, x0=[2.0, 2.0], tol=1e-12)
    q = math.sqrt(hilbert_factor_sq(cert, rep.lam))
    steps = [row[1] for row in rep.trace]
    floor = 50 * 1e-12 * (1.0 + p_norm(rep.final_point, 2))
    ratios = [b / a for a, b in zip(steps, steps[1:]) if a > floor]
    assert ratios, "trace too short to measure a rate"
    for r in ratios[-5:]:
        assert r <= q + 0.05


def reference_norm(x, p):
    # norm_rows as it was before it worked in place, on one vector
    xs = x[None, :]
    m = np.max(np.abs(xs), axis=1)
    safe = np.where(m > 0.0, m, 1.0)
    s = np.sum((np.abs(xs) / safe[:, None]) ** p, axis=1)
    return float(np.where(m > 0.0, safe * s ** (1.0 / p), 0.0)[0])


def reference_retract(cset, x):
    # the scalar retraction formulas, inner products through np.dot
    if isinstance(cset, WholeSpace):
        return x.copy()
    if isinstance(cset, Box):
        return np.clip(x, cset.lo, cset.hi)
    if isinstance(cset, Ball):
        nrm = float(np.sqrt(np.dot(x, x)))
        return x.copy() if nrm <= cset.radius else (cset.radius / nrm) * x
    a, b = cset.normal, cset.offset
    excess = float(np.dot(a, x)) - b
    if excess <= 0.0:
        return x.copy()
    return x - (excess / float(np.dot(a, a))) * a


def reference_picard_solve(problem, lam, x0, tol=1e-10, max_iter=10 ** 6):
    """The Picard loop before the row kernels: scalar retraction and
    evaluation on vectors and three norms per iteration. Returns
    (final_point, iterations, final_residual, status, trace)."""
    p = problem.space.p
    trace = []

    def advance(pt):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                image = pt - lam * evaluate(problem.mapping, pt)
        except EvaluationError as exc:
            raise DivergenceError(str(exc), trace=trace) from exc
        if not np.all(np.isfinite(image)):
            raise DivergenceError("iterate became non-finite", trace=trace)
        return reference_retract(problem.cset, image)

    x = reference_retract(problem.cset, np.asarray(x0, dtype=float))
    nxt = advance(x)
    status = SolveStatus.ITERATION_LIMIT
    iterations = 0
    residual = math.inf
    for k in range(1, max_iter + 1):
        step = reference_norm(nxt - x, p)
        after = advance(nxt)
        residual = reference_norm(nxt - after, p)
        trace.append((k, step, residual))
        iterations = k
        stop = step <= tol * (1.0 + reference_norm(x, p))
        x, nxt = nxt, after
        if stop:
            status = SolveStatus.CONVERGED
            break
    return x, iterations, residual, status, trace


def _affine(rng, n, spread=0.4):
    return Affine(np.eye(n) + spread * rng.standard_normal((n, n)) / math.sqrt(n),
                  4.0 * rng.standard_normal(n))


def _random_box(rng, n):
    lo = rng.uniform(-1.0, 0.0, size=n)
    return Box(lo, lo + rng.uniform(1.0, 3.0, size=n))


def _box_cutting(rng, b):
    # holds the free solution of Bx = 0 in every coordinate but the first
    free = np.linalg.solve(b.matrix, -b.offset)
    lo = free - rng.uniform(1.0, 3.0, size=free.size)
    hi = free + rng.uniform(1.0, 3.0, size=free.size)
    hi[0] = free[0] - 0.5
    return Box(lo, hi)


def _bit_identity_cases():
    rng = np.random.default_rng(2024)
    cases = []
    for p in (1.5, 3.0):
        for n in (2, 100):
            b = _affine(rng, n)
            cases.append(pytest.param(
                Problem(SpaceSpec(n, p), _box_cutting(rng, b), b),
                0.3, 3.0 * rng.standard_normal(n), 2000, id=f"box-p{p}-n{n}"))
    cases.append(pytest.param(
        Problem(SpaceSpec(3, 2.0), Ball(3, 0.5), _affine(rng, 3)),
        0.4, [2.0, -1.0, 0.5], 2000, id="ball"))
    b = _affine(rng, 4)
    free = np.linalg.solve(b.matrix, -b.offset)   # cut off the free solution
    cases.append(pytest.param(
        Problem(SpaceSpec(4, 2.0), Halfspace(free, 0.5 * float(free @ free)), b),
        0.4, rng.standard_normal(4), 2000, id="halfspace"))
    inner = Affine(0.3 * np.linalg.qr(rng.standard_normal((5, 5)))[0],
                   rng.standard_normal(5))
    cases.append(pytest.param(
        Problem(SpaceSpec(5, 3.0), _random_box(rng, 5),
                ResidualOfContraction(inner, 0.3)),
        0.7, rng.standard_normal(5), 2000, id="residual-map"))
    shift = rng.standard_normal(3)
    cases.append(pytest.param(
        Problem(SpaceSpec(3, 2.5), _random_box(rng, 3),
                BlackBox(lambda x: x + 0.3 * np.tanh(x) - shift, 3)),
        0.5, [1.0, -2.0, 0.25], 2000, id="black-box"))
    cases.append(pytest.param(
        Problem(SpaceSpec(3, 2.0), WholeSpace(3), _affine(rng, 3, 0.2)),
        0.5, rng.standard_normal(3), 2000, id="whole-space"))
    cases.append(pytest.param(
        Problem(SpaceSpec(2, 2.0), Box([0.0, 0.0], [1.0, 1.0]),
                Affine(np.eye(2), [-0.5, -0.5])),
        0.01, [1.0, 1.0], 40, id="iteration-limit"))
    # n = 1 norms its (2, 1) buffer in F order; n = 8 is the width where
    # numpy's row sum turns pairwise and the kernels stay in C order
    for p in (1.5, 3.0):
        for n in (1, 8):
            b = _affine(rng, n)
            box = _box_cutting(rng, b)
            # short steps from the far corner, so the orbit is not clipped
            # onto the answer at once
            cases.append(pytest.param(
                Problem(SpaceSpec(n, p), box, b),
                0.05, box.lo, 2000, id=f"box-p{p}-n{n}"))
    return cases


@pytest.mark.parametrize("problem, lam, x0, max_iter", _bit_identity_cases())
def test_picard_matches_the_reference_loop_bit_for_bit(problem, lam, x0, max_iter):
    rep = picard_solve(problem, lam, x0, tol=1e-13, max_iter=max_iter)
    point, iterations, residual, status, trace = reference_picard_solve(
        problem, lam, x0, tol=1e-13, max_iter=max_iter)
    assert len(trace) >= 5
    assert rep.trace == trace
    assert rep.final_point.tobytes() == point.tobytes()
    assert (rep.iterations, rep.final_residual, rep.status) == \
        (iterations, residual, status)
    if not isinstance(problem.cset, WholeSpace) and status is SolveStatus.CONVERGED:
        # the constraint is active at the answer: the retraction moves points
        assert not contains(problem.cset, point - lam * evaluate(problem.mapping, point))


@pytest.mark.parametrize("mapping, lam, message", [
    # Bx = -4x overflows one doubling before the iterate 2x does
    (Affine(-4.0 * np.eye(2)), 0.25, "mapping produced non-finite output"),
    # Bx = 4x is x - T(x) for T(x) = -3x: only the difference overflows
    (ResidualOfContraction(Affine(-3.0 * np.eye(2)), 0.5), 0.75,
     "mapping produced non-finite output"),
    # Bx = -x stays finite while the iterate 3x overflows
    (Affine(-np.eye(2)), 2.0, "iterate became non-finite"),
])
def test_picard_divergence_messages_and_partial_trace(mapping, lam, message):
    prob = Problem(SpaceSpec(2, 2.0), WholeSpace(2), mapping)
    with pytest.raises(DivergenceError) as info:
        picard_solve(prob, lam=lam, x0=[1.0, -1.0], max_iter=5000)
    with pytest.raises(DivergenceError) as ref:
        reference_picard_solve(prob, lam, [1.0, -1.0], max_iter=5000)
    assert str(info.value) == str(ref.value) == message
    assert len(info.value.trace) > 500
    assert info.value.trace == ref.value.trace


@pytest.mark.parametrize("kind", ["affine", "black-box"])
def test_picard_binds_its_kernels_and_checks_finiteness_per_block(
        monkeypatch, kind):
    calls = {"norm_rows": 0, "map": 0, "checks": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    def counted_kernel(mapping):
        kernel = rows_kernel(mapping)

        def wrapper(xs, out=None):
            calls["map"] += 1
            return kernel(xs, out)
        return wrapper

    def isfinite(*args, **kwargs):
        # the loop's checks write into its own mask; validation's do not
        calls["checks"] += "out" in kwargs
        return real_isfinite(*args, **kwargs)

    real_isfinite = np.isfinite
    monkeypatch.setattr(solver_module, "norm_rows",
                        counted("norm_rows", solver_module.norm_rows))
    monkeypatch.setattr(solver_module, "rows_kernel", counted_kernel)
    monkeypatch.setattr(np, "isfinite", isfinite)
    mapping = (Affine(np.eye(3), [-0.5, -0.5, -0.5]) if kind == "affine"
               else BlackBox(lambda x: x - 0.5, 3))
    prob = Problem(SpaceSpec(3, 3.0), Box([0.0] * 3, [1.0] * 3), mapping)
    for max_iter in (10, 30):
        calls.update(norm_rows=0, map=0, checks=0)
        rep = picard_solve(prob, 0.01, [1.0, 1.0, 1.0], max_iter=max_iter)
        assert rep.iterations == max_iter
        # one norm call per block; blocks of 1, 2, 4, 8 and 16 iterates
        # hold the 11 after x_0 in four blocks and the 31 in five
        blocks = {10: 4, 30: 5}[max_iter]
        assert calls["norm_rows"] == blocks
        assert calls["map"] == max_iter + 1
        # an affine block is checked once; a black box after every advance
        assert calls["checks"] == (blocks if kind == "affine"
                                   else max_iter + 1)


def assert_matches_reference(make_problem, lam, x0, tol, max_iter):
    """picard_solve on a fresh make_problem() gives the reference loop's
    report, or its DivergenceError message and partial trace. Returns
    the report, or None after a divergence."""
    try:
        point, iterations, residual, status, trace = reference_picard_solve(
            make_problem(), lam, x0, tol=tol, max_iter=max_iter)
    except DivergenceError as ref:
        with pytest.raises(DivergenceError) as info:
            picard_solve(make_problem(), lam, x0, tol=tol, max_iter=max_iter)
        assert str(info.value) == str(ref)
        assert info.value.trace == ref.trace
        return None
    rep = picard_solve(make_problem(), lam, x0, tol=tol, max_iter=max_iter)
    assert rep.trace == trace
    assert rep.final_point.tobytes() == point.tobytes()
    assert (rep.iterations, rep.final_residual, rep.status) == \
        (iterations, residual, status)
    return rep


BLOCK_AT_N2 = solver_module._block_size(2)


def test_picard_stops_at_every_offset_in_a_block():
    # steps halve every iteration, so halving tol in half-powers of two
    # moves the stop through every iteration of the first blocks, the
    # first full one (iterations 31 to 46) included
    prob = Problem(SpaceSpec(2, 3.0), Box([-1.0, -1.0], [1.0, 1.0]),
                   ResidualOfContraction(Affine(0.5 * np.eye(2)), 0.5))
    stops = set()
    for e in range(2, 130):
        rep = assert_matches_reference(lambda: prob, 1.0, [1.0, 0.7],
                                       tol=2.0 ** (-e / 2), max_iter=10 ** 6)
        assert rep.status is SolveStatus.CONVERGED
        stops.add(rep.iterations)
    assert set(range(1, 3 * BLOCK_AT_N2 + 2)) <= stops


def test_a_black_box_sees_at_most_s_calls_past_a_stop_at_iteration_s():
    # B(x) = x / 2 at lam = 1 halves every step, so these tolerances move
    # the stop through iterations 1 to 40. Blocks that double from one
    # iterate keep the advances past the stop below both s and K
    calls = [0]

    def half(x):
        calls[0] += 1
        return 0.5 * x

    prob = Problem(SpaceSpec(2, 3.0), Box([-1.0, -1.0], [1.0, 1.0]),
                   BlackBox(half, 2))
    stops = set()
    for e in range(2, 100):
        calls[0] = 0
        rep = picard_solve(prob, 1.0, [1.0, 0.7], tol=2.0 ** (-e / 2))
        s = rep.iterations
        assert rep.status is SolveStatus.CONVERGED
        # iteration s stops once B has been evaluated at x_0 to x_s
        assert 0 <= calls[0] - (s + 1) <= min(s, BLOCK_AT_N2 - 1)
        stops.add(s)
    assert set(range(1, 41)) <= stops


@pytest.mark.parametrize("max_iter", range(1, 2 * BLOCK_AT_N2 + 2))
def test_picard_iteration_limit_at_every_block_offset(max_iter):
    prob = Problem(SpaceSpec(2, 2.0), Box([0.0, 0.0], [1.0, 1.0]),
                   Affine(np.eye(2), [-0.5, -0.5]))
    rep = assert_matches_reference(lambda: prob, 0.01, [1.0, 1.0],
                                   tol=1e-10, max_iter=max_iter)
    assert rep.status is SolveStatus.ITERATION_LIMIT
    assert rep.iterations == max_iter


def _tanh_problem(good_calls):
    """A black box that raises on its (good_calls + 1)-th call; with
    every call good, the solve at tol 1e-8 stops at iteration 20."""
    shift = np.array([0.5, -0.25, 1.0])
    made = [0]

    def func(x):
        made[0] += 1
        if made[0] > good_calls:
            raise RuntimeError(f"gave out after {good_calls} calls")
        return x + 0.3 * np.tanh(x) - shift

    return Problem(SpaceSpec(3, 2.5), Box([-1.0, -1.0, -1.0], [0.25, 0.5, 2.0]),
                   BlackBox(func, 3))


@pytest.mark.parametrize("good_calls", range(2 * BLOCK_AT_N2 + 3))
def test_picard_black_box_failing_at_every_call(good_calls):
    rep = assert_matches_reference(lambda: _tanh_problem(good_calls), 0.5,
                                   [1.0, -2.0, 0.25], tol=1e-8, max_iter=10 ** 6)
    # iteration 20 stops only once B has been evaluated at x_20
    if good_calls >= 21:
        assert rep.status is SolveStatus.CONVERGED and rep.iterations == 20
    else:
        assert rep is None


@pytest.mark.parametrize("bad", ["nan", "inf", "raise"])
@pytest.mark.parametrize("good_calls", [5, 6])
def test_picard_failure_past_the_stop(bad, good_calls):
    # x <- clip(x - (0.25, 0.25)) on [0, 1]^2 from (1, 1) reaches 0 at
    # x_4 and stops at iteration 5, once B has been evaluated at x_5; the
    # block that advances x_4 to x_7 runs past that
    calls = [0]

    def func(x):
        calls[0] += 1
        if calls[0] <= good_calls:
            return np.full(2, 0.25)
        if bad == "raise":
            raise RuntimeError("gave out")
        return np.full(2, float(bad))

    def make_problem():
        calls[0] = 0
        return Problem(SpaceSpec(2, 2.0), Box([0.0, 0.0], [1.0, 1.0]),
                       BlackBox(func, 2))

    rep = assert_matches_reference(make_problem, 1.0, [1.0, 1.0], tol=1e-10,
                                   max_iter=100)
    if good_calls == 6:
        # the failing call came past the stop: the rows before it settle
        assert rep.status is SolveStatus.CONVERGED and rep.iterations == 5
    else:
        assert rep is None
    # B is never evaluated past the failing call
    assert calls[0] == good_calls + 1


def _doubling_problem(n, fail_at, message, cset):
    """An affine map whose iterates double each advance, from an x0 set so
    that advance fail_at is the first whose image is not finite: B = -I
    at lam 1 (Bx stays finite, the iterate overflows) or B = -4I at lam
    1/4 (Bx overflows first). Returns (problem, lam, x0)."""
    rng = np.random.default_rng([n, fail_at])
    # one entry far above the rest, so the norms stay finite at n = 1000
    x0 = np.ldexp(rng.uniform(0.25, 1.5, n), -12) * rng.choice([-1.0, 1.0], n)
    x0[n // 2] = 1.5
    if message == "iterate became non-finite":
        factor, lam, top = -1.0, 1.0, 1023 - fail_at
    else:
        factor, lam, top = -4.0, 0.25, 1022 - fail_at
    # x_j has entries up to 1.5 2^(top + j); 2 x_j (and -4 x_j) first
    # overflow at j = fail_at
    return (Problem(SpaceSpec(n, 3.0), cset, Affine(factor * np.eye(n))),
            lam, np.ldexp(x0, top))


@pytest.mark.parametrize("message", ["iterate became non-finite",
                                     "mapping produced non-finite output"])
@pytest.mark.parametrize("n", [2, 1000])
def test_affine_divergence_at_every_position_in_a_block(n, message):
    # advances 0 to 31 cover every position of the blocks of 1, 2, 4, 8
    # and 16 at n = 2 and the blocks of 4 at n = 1000; in the box, the
    # images past the failure clamp back to finite rows, which the block
    # must not trust either
    big = np.finfo(float).max
    for cset in (WholeSpace(n), Box([-big] * n, [big] * n)):
        for fail_at in range(32):
            prob, lam, x0 = _doubling_problem(n, fail_at, message, cset)
            with pytest.raises(DivergenceError) as ref:
                reference_picard_solve(prob, lam, x0, max_iter=100)
            with pytest.raises(DivergenceError) as info:
                picard_solve(prob, lam, x0, max_iter=100)
            assert str(info.value) == str(ref.value) == message
            assert info.value.trace == ref.value.trace
            assert len(info.value.trace) == max(fail_at - 1, 0)
            assert info.value.__cause__ is None


@pytest.mark.parametrize("bad", ["nan", "raise"])
@pytest.mark.parametrize("good_calls", range(2 * BLOCK_AT_N2 + 3))
def test_picard_residual_over_a_failing_black_box(good_calls, bad):
    # B = I - T with T(x) = x / 2 + shift a black box: the map calls out,
    # so every advance is checked and T is never called past its failure
    calls = [0]
    shift = np.array([0.25, -0.5])

    def func(x):
        calls[0] += 1
        if calls[0] <= good_calls:
            return 0.5 * x + shift
        if bad == "raise":
            raise RuntimeError("gave out")
        return np.full(2, np.nan)

    def make_problem():
        calls[0] = 0
        return Problem(SpaceSpec(2, 3.0), Box([-1.0, -1.0], [1.0, 1.0]),
                       ResidualOfContraction(BlackBox(func, 2), 0.5))

    rep = assert_matches_reference(make_problem, 1.0, [1.0, 1.0], tol=1e-8,
                                   max_iter=10 ** 6)
    if rep is None:
        assert calls[0] == good_calls + 1
    else:
        # a failure past the stop is settled, as in the test above
        assert rep.status is SolveStatus.CONVERGED
        assert calls[0] <= good_calls + 1


LONG_CLAMPED_SOLVE = """
    [space]
    n = 2
    p = {p}

    [set]
    kind = box
    lo = -1 -1
    hi = 1 1

    [map]
    kind = affine
    matrix = 0.001 0
             0 0.001
    offset = -0.0015 -0.0002

    [solver]
    x0 = 0.9 -0.3
    lambda = 1
"""


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_long_clamped_cli_solve_writes_the_reference_bytes(p, tmp_path,
                                                           capsys):
    # B = 0.001 (x - c) with c = (1.5, 0.2) outside the box: the first
    # coordinate is clamped at 1 from iteration 183 on while the second
    # closes in by a factor 0.999 per step, so blocks run full for
    # over 10^4 iterations
    config = tmp_path / "long.ini"
    config.write_text(textwrap.dedent(LONG_CLAMPED_SOLVE.format(p=p)))
    out = tmp_path / "trace.csv"
    assert cli.main(["solve", "--config", str(config), "--out", str(out)]) == 0
    record = json.loads(capsys.readouterr().out)
    cfg = load_config(str(config))
    point, iterations, residual, status, trace = reference_picard_solve(
        cfg.problem, 1.0, cfg.solver.x0)
    assert status is SolveStatus.CONVERGED and iterations >= 10 ** 4
    assert point[0] == 1.0
    expected = io.StringIO()
    cli._write_trace(expected, trace)
    assert out.read_bytes() == expected.getvalue().encode()
    assert record["final_point"] == cli._vec(point)
    assert (record["iterations"], record["final_residual"],
            record["status"]) == (iterations, residual, status.value)


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 1000])
def test_picard_matches_the_reference_across_widths(n, p):
    # n = 1 and 7 norm F-order moduli, 8 and 9 C-order ones by numpy's
    # pairwise row sum; n = 1000 runs blocks of 4
    rng = np.random.default_rng(n)
    b = _affine(rng, n)
    box = _box_cutting(rng, b)
    prob = Problem(SpaceSpec(n, p), box, b)
    lam = 0.01 if n == 1 else 0.3
    block = solver_module._block_size(n)
    for max_iter in range(1, 2 * block + 2):
        rep = assert_matches_reference(lambda: prob, lam, box.lo, tol=1e-13,
                                       max_iter=max_iter)
        assert rep.status is SolveStatus.ITERATION_LIMIT
    rep = assert_matches_reference(lambda: prob, lam, box.lo, tol=1e-13,
                                   max_iter=10 ** 4)
    assert rep.status is SolveStatus.CONVERGED
    assert rep.iterations > 2 * block + 1
    # a fresh array, not a view into the loop's buffer
    assert rep.final_point.base is None


@pytest.mark.parametrize("lo", [[0.0], [-0.0], [0.0, -0.0], [-0.0, 0.0, -0.0]])
def test_picard_through_signed_zeros_matches_the_reference(lo):
    # x <- clip(x - 0.25) from 1 meets the bounds of +-0.0 with images of
    # +0.0, then -0.25: the clamp decides the sign of each zero it returns
    n = len(lo)
    prob = Problem(SpaceSpec(n, 1.5), Box(lo, [1.0] * n),
                   Affine(np.zeros((n, n)), [0.25] * n))
    point = reference_picard_solve(prob, 1.0, [1.0] * n, max_iter=100)[0]
    assert (point == 0.0).all()
    for x0 in ([1.0] * n, lo, [-0.0] * n):
        rep = assert_matches_reference(lambda: prob, 1.0, x0, tol=1e-10,
                                       max_iter=100)
        assert rep.status is SolveStatus.CONVERGED


@pytest.mark.parametrize("u, v, mu", [(1e-300, 1e300, 1e-150),
                                      (1e-300, 1e200, 1e-60)])
def test_hilbert_step_interval_refuses_a_window_that_overflows(u, v, mu):
    # (v - u mu^2) / mu^2 overflows to inf; only inconsistent certificates
    # get there, and select_lambda refuses those before it asks
    cert = Certificate(u, v, mu)
    assert certificate_feasibility(cert).verdict is Feasibility.INCONSISTENT
    assert hilbert_step_interval(cert) is None


@pytest.mark.parametrize("lam", [math.inf, math.nan, 0.0, -1.0])
def test_select_lambda_refuses_an_explicit_step_by_the_step_rule(lam):
    prob = box_problem(cert=Certificate(0.1, 1.0, 1.0))
    with pytest.raises(ConfigError) as info:
        select_lambda(prob, lam)
    assert str(info.value) == (
        f"explicit step size must be positive and finite, got {lam}")

import itertools
import re

import numpy as np
import pytest

from lpvi import (Affine, Ball, Box, Halfspace, InvalidInputError,
                  RetractionMode, ShapeError, UnsupportedRetractionError,
                  WholeSpace, bounding_box, contains, draw_pairs,
                  pairing_inequality_sweep, pairing_sweeps, retract,
                  retraction_support, sample_in_set, verify_characterization,
                  verify_sunny)
from lpvi import sets
from lpvi.sets import members_mask, retract_rows, retraction_kernel
from lpvi.spaces import norm_rows
from lpvi.sweeps import duality_sweep, retraction_suite


UNIT_BOX = Box([0.0, 0.0], [2.0, 2.0])


@pytest.mark.parametrize("make", [WholeSpace, lambda n: Ball(n, 1.0)],
                         ids=["whole-space", "ball"])
@pytest.mark.parametrize("dim", [2.5, 2.9, True, "3", float("nan")])
def test_set_dimension_must_be_an_integer(make, dim):
    # not truncated, not parsed, and no bare ValueError
    with pytest.raises(InvalidInputError,
                       match=re.escape(f"dimension must be an integer, got {dim!r}")):
        make(dim)
    assert make(np.int64(3)).dim == 3 and type(make(np.int64(3)).dim) is int


# each library call that takes a count, with that count as `k`
COUNTED_CALLS = {
    "sample_in_set": lambda k: sample_in_set(UNIT_BOX, k, seed=0),
    "draw_pairs": lambda k: draw_pairs(Affine(np.eye(2)), UNIT_BOX, 2, k, seed=0),
    "verify_characterization": lambda k: verify_characterization(
        UNIT_BOX, [3.0, 1.0], 2, k, seed=0),
    "duality_sweep": lambda k: duality_sweep((2.0,), (2,), k, seed=0),
    "retraction_suite": lambda k: retraction_suite((2.0,), pairs=k),
    "pairing_sweeps-n": lambda k: pairing_sweeps((2.0,), k, 3, seed=0),
    "pairing_sweeps-pairs": lambda k: pairing_sweeps((2.0,), 2, k, seed=0),
}


@pytest.mark.parametrize("count", [2.5, True, "3"])
@pytest.mark.parametrize("call", COUNTED_CALLS.values(), ids=COUNTED_CALLS)
def test_counts_must_be_integers(call, count):
    # not truncated, not taken as 1, and no raw TypeError from numpy
    with pytest.raises(InvalidInputError,
                       match=re.escape(f"must be an integer, got {count!r}")):
        call(count)


# each library call that builds a seeded generator, with that seed as `s`
SEEDED_CALLS = {
    "sample_in_set": lambda s: sample_in_set(UNIT_BOX, 3, s),
    "draw_pairs": lambda s: draw_pairs(Affine(np.eye(2)), UNIT_BOX, 2, 3, s),
    "verify_characterization": lambda s: verify_characterization(
        UNIT_BOX, [3.0, 1.0], 2, 3, s),
    "duality_sweep": lambda s: duality_sweep((2.0,), (2,), 3, s),
    "retraction_suite": lambda s: retraction_suite((2.0,), pairs=3, seed=s),
    "pairing_sweeps": lambda s: pairing_sweeps((2.0,), 2, 3, s),
    "pairing_inequality_sweep": lambda s: pairing_inequality_sweep(2.0, 2, 3, s),
}


@pytest.mark.parametrize("seed, message", [
    (2.5, "seed must be an integer, got 2.5"),
    ("3", "seed must be an integer, got '3'"),
    (-1, "seed must be a nonnegative integer, got -1"),
    (True, "seed must be an integer, got True"),
    (None, "seed must be an integer, got None"),
], ids=["2.5", "str", "negative", "True", "None"])
@pytest.mark.parametrize("call", SEEDED_CALLS.values(), ids=SEEDED_CALLS)
def test_seeds_must_be_nonnegative_integers(call, seed, message):
    # no raw TypeError or ValueError from numpy, True is not taken as 1,
    # and None does not draw from OS entropy
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        call(seed)


def test_contains_box():
    assert contains(UNIT_BOX, [1.0, 1.0])
    assert contains(UNIT_BOX, [2.0, 0.0])          # boundary counts
    assert not contains(UNIT_BOX, [3.0, 1.0])
    assert contains(UNIT_BOX, [2.0 + 1e-12, 1.0], tol=1e-9)


def test_contains_ball_and_halfspace():
    ball = Ball(2, 1.0)
    assert contains(ball, [0.6, 0.8])
    assert not contains(ball, [0.8, 0.8])
    hs = Halfspace([1.0, 1.0], 2.0)
    assert contains(hs, [1.0, 1.0])
    assert not contains(hs, [1.5, 1.0])


def test_contains_rejects_negative_tol():
    with pytest.raises(InvalidInputError):
        contains(UNIT_BOX, [1.0, 1.0], tol=-1e-3)


def test_contains_rejects_a_nan_tol():
    # NaN fails every comparison, so it must not pass as a nonnegative tol
    with pytest.raises(InvalidInputError, match="tol must be nonnegative, got nan"):
        contains(UNIT_BOX, [1.0, 1.0], tol=float("nan"))


def test_retract_box_clamp_exact():
    out = retract(UNIT_BOX, [3.0, -1.0], 3)
    assert np.array_equal(out, [2.0, 0.0])


@pytest.mark.parametrize("p", [1.5, 2, 3])
def test_retract_is_identity_on_the_set(p):
    x = np.array([1.0, 0.25])
    assert np.array_equal(retract(UNIT_BOX, x, p), x)
    assert np.array_equal(retract(WholeSpace(2), x, p), x)
    if p == 2:
        assert np.array_equal(retract(Ball(2, 2.0), x, p), x)
        assert np.array_equal(retract(Halfspace([1.0, 0.0], 1.0), x, p), x)


def test_retract_ball_radial():
    out = retract(Ball(2, 1.0), [3.0, 4.0], 2)
    np.testing.assert_allclose(out, [0.6, 0.8], rtol=0, atol=1e-15)


def test_retract_halfspace_offset():
    out = retract(Halfspace([0.0, 1.0], 0.0), [1.0, 3.0], 2)
    np.testing.assert_allclose(out, [1.0, 0.0], rtol=0, atol=0)


def reference_retract(cset, x):
    # the scalar formulas retract used before it wrapped retract_rows
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


def _retraction_cases(n, rng):
    lo = rng.uniform(-2.0, 0.0, size=n)
    box = Box(lo, lo + rng.uniform(0.5, 2.0, size=n))
    normal = rng.standard_normal(n)
    normal[0] = -1.0
    hs = Halfspace(normal, float(rng.uniform(-1.0, 1.0)))
    ball = Ball(n, float(rng.uniform(0.5, 2.0)))
    xs = rng.uniform(-4.0, 4.0, size=(400, n))
    xs *= 10.0 ** rng.uniform(-3.0, 3.0, size=(400, 1))
    # points on the boundary of each set
    on_box = np.clip(xs[:20], box.lo, box.hi)
    on_box[:, 0] = box.hi[0]
    on_ball = ball.radius * xs[:20] / np.sqrt(np.sum(xs[:20] ** 2, axis=1))[:, None]
    e0 = np.zeros(n)
    e0[0] = 1.0
    on_hs = -hs.offset * e0[None, :]     # <normal, x> == offset exactly
    inside = np.vstack([np.clip(xs[20:40], box.lo, box.hi),
                        np.zeros((1, n)), -np.zeros((1, n))])
    pts = np.vstack([xs, on_box, on_ball, on_hs, inside])
    return (WholeSpace(n), box, ball, hs), pts


@pytest.mark.parametrize("n", [1, 2, 5, 100])
def test_retract_rows_matches_the_scalar_formulas_bit_for_bit(n):
    rng = np.random.default_rng(n)
    csets, pts = _retraction_cases(n, rng)
    for cset in csets:
        got = retract_rows(cset, pts, 2.0)
        for x, row in zip(pts, got):
            ref = reference_retract(cset, x)
            assert row.tobytes() == ref.tobytes()
            assert retract(cset, x, 2.0).tobytes() == ref.tobytes()
    box = csets[1]
    inside = pts[members_mask(box, pts)]
    assert inside.shape[0] >= 40
    assert retract_rows(box, inside, 2.0).tobytes() == inside.tobytes()


@pytest.mark.parametrize("n, radius", [(2, 1.0), (3, 0.7), (5, 1.3), (10, 2.5)])
def test_ball_membership_and_retraction_agree_on_the_sphere(n, radius):
    # points scaled onto the sphere land an ulp either side of it; the ones
    # contains() calls inside must be the ones retract() leaves alone
    rng = np.random.default_rng(n)
    xs = rng.standard_normal((2000, n))
    xs *= radius / np.linalg.norm(xs, axis=1)[:, None]
    ball = Ball(n, radius)
    inside = 0
    for x in xs:
        if contains(ball, x):
            inside += 1
            assert retract(ball, x, 2).tobytes() == x.tobytes()
    assert 0 < inside < len(xs)


def test_halfspace_membership_and_retraction_agree_on_the_boundary():
    # retracted rows land an ulp either side of the hyperplane; the ones
    # members_mask calls inside must be the ones retract_rows leaves alone
    rng = np.random.default_rng(0)
    inside = 0
    for k in range(400):
        n = 2 + k % 99
        hs = Halfspace(rng.standard_normal(n), rng.standard_normal())
        ys = retract_rows(hs, 3.0 * rng.standard_normal((50, n)), 2.0)
        kept = ys[members_mask(hs, ys)]
        inside += kept.shape[0]
        assert retract_rows(hs, kept, 2.0).tobytes() == kept.tobytes()
    assert 0 < inside < 400 * 50


def test_bounding_box_of_each_set():
    box = Box([-1.0, 0.0], [2.0, 3.0])
    lo, hi = bounding_box(box)
    assert lo.tolist() == [-1.0, 0.0] and hi.tolist() == [2.0, 3.0]
    lo[0] = 5.0   # a copy: the box keeps its corner
    assert box.lo[0] == -1.0
    lo, hi = bounding_box(Ball(3, 0.5))
    assert lo.tolist() == [-0.5] * 3 and hi.tolist() == [0.5] * 3
    assert bounding_box(WholeSpace(2)) is None
    assert bounding_box(Halfspace([1.0, 0.0], 1.0)) is None


def test_retract_rows_keeps_points_of_the_set_exactly():
    # signed zeros survive too: a shift by zero would turn -0.0 into 0.0
    hs = Halfspace([-1.0, 2.0], 1.0)
    pts = np.array([[-0.0, -0.0], [3.0, 2.0], [-1.0, 0.0], [-5.0, 0.0]])
    got = retract_rows(hs, pts, 2.0)
    assert got[:3].tobytes() == pts[:3].tobytes()
    assert np.dot(hs.normal, got[3]) == pytest.approx(1.0, rel=1e-15)
    ball = Ball(2, 1.0)
    pts = np.array([[-0.0, 0.0], [0.6, -0.8], [1.0, 0.0], [3.0, 4.0]])
    got = retract_rows(ball, pts, 2.0)
    assert got[:3].tobytes() == pts[:3].tobytes()
    assert got[3].tobytes() == ((1.0 / 5.0) * pts[3]).tobytes()


def test_retract_wrong_dimension():
    with pytest.raises(ShapeError):
        retract(UNIT_BOX, [1.0, 1.0, 1.0], 2)
    with pytest.raises(InvalidInputError):
        retract(UNIT_BOX, [np.nan, 0.0], 2)


@pytest.mark.parametrize("cset", [Ball(2, 1.0), Halfspace([1.0, 0.0], 0.0)])
@pytest.mark.parametrize("p", [1.5, 3, 4])
def test_ball_and_halfspace_need_p2(cset, p):
    support = retraction_support(cset, p)
    assert support.mode is RetractionMode.UNSUPPORTED
    assert "p = 2" in support.reason
    with pytest.raises(UnsupportedRetractionError):
        retract(cset, [5.0, 5.0], p)


def test_retraction_support_modes():
    assert retraction_support(UNIT_BOX, 3).mode is RetractionMode.EXACT_SUNNY
    assert retraction_support(WholeSpace(3), 1.5).mode is RetractionMode.EXACT_SUNNY
    assert retraction_support(Ball(2, 1.0), 2).mode is RetractionMode.METRIC_PROJECTION
    assert retraction_support(Halfspace([1.0], 0.0), 2.0).mode is RetractionMode.METRIC_PROJECTION


def test_degenerate_sets_rejected():
    with pytest.raises(InvalidInputError):
        Box([0.0, 1.0], [2.0, 0.5])
    with pytest.raises(InvalidInputError):
        Ball(2, 0.0)
    with pytest.raises(InvalidInputError):
        Ball(2, -1.0)
    with pytest.raises(InvalidInputError):
        Halfspace([0.0, 0.0], 1.0)
    with pytest.raises(InvalidInputError):
        WholeSpace(0)


def test_single_point_box_is_allowed():
    point = Box([1.0, 1.0], [1.0, 1.0])
    assert np.array_equal(retract(point, [9.0, -9.0], 1.5), [1.0, 1.0])


def test_verify_sunny_box_exact_zero():
    dev = verify_sunny(UNIT_BOX, [3.0, -1.0], 3, ts=(0.0, 0.5, 1.0, 2.0))
    assert dev == 0.0


def test_verify_sunny_inside_point():
    assert verify_sunny(UNIT_BOX, [1.0, 1.0], 2, ts=(0.0, 1.0, 7.0)) == 0.0


def test_verify_sunny_ball_p2():
    dev = verify_sunny(Ball(2, 1.0), [3.0, 4.0], 2, ts=(0.0, 1.0, 3.0))
    assert dev <= 1e-12


def test_verify_sunny_rejects_negative_t():
    with pytest.raises(InvalidInputError):
        verify_sunny(UNIT_BOX, [3.0, -1.0], 2, ts=(0.5, -1.0))


def test_characterization_box_example():
    worst = verify_characterization(UNIT_BOX, [3.0, -1.0], 3, 500, seed=0)
    assert worst >= -1e-9


def test_characterization_inside_point_is_exactly_zero():
    assert verify_characterization(UNIT_BOX, [1.5, 0.5], 3, 100, seed=1) == 0.0


def test_characterization_ball_p2():
    worst = verify_characterization(Ball(2, 1.0), [2.0, 0.0], 2, 300, seed=2)
    assert worst >= -1e-9


def test_characterization_halfspace_p2():
    hs = Halfspace([1.0, 1.0], 2.0)
    worst = verify_characterization(hs, [3.0, 3.0], 2, 300, seed=3)
    assert worst >= -1e-9


def test_box_retraction_nonexpansive_bulk():
    rng = np.random.default_rng(11)
    box = Box([-1.0, 0.5, -3.0], [1.0, 2.0, -1.0])
    xs = rng.uniform(-6.0, 6.0, size=(10_000, 3))
    ys = rng.uniform(-6.0, 6.0, size=(10_000, 3))
    for p in (1.5, 2.0, 3.0):
        qx = np.clip(xs, box.lo, box.hi)
        qy = np.clip(ys, box.lo, box.hi)
        excess = norm_rows(qx - qy, p) - norm_rows(xs - ys, p)
        assert float(np.max(excess)) <= 1e-12 * (1.0 + float(np.max(norm_rows(xs - ys, p))))


def test_p2_projection_inequality():
    # metric projection onto a ball / halfspace: <x - Qx, Qx - y> >= 0
    rng = np.random.default_rng(19)
    for cs, bounds in ((Ball(2, 1.5), None),
                       (Halfspace([1.0, -2.0], 0.5), ([-4.0, -4.0], [4.0, 4.0]))):
        ys = sample_in_set(cs, 200, seed=7, bounds=bounds)
        for _ in range(50):
            x = rng.uniform(-5.0, 5.0, size=2)
            qx = retract(cs, x, 2)
            vals = (ys - qx) @ (x - qx)
            assert float(np.max(vals)) <= 1e-9 * (1.0 + float(np.max(np.abs(vals))))


def test_sample_in_set_membership_and_prefix():
    for cset in (UNIT_BOX, Ball(3, 2.0)):
        long = sample_in_set(cset, 200, seed=5)
        short = sample_in_set(cset, 80, seed=5)
        assert long.shape == (200, cset.dim)
        assert np.array_equal(long[:80], short)
        assert contains(cset, long[0])
        assert all(contains(cset, row) for row in long[::37])


def test_sample_unbounded_needs_bounds():
    with pytest.raises(InvalidInputError):
        sample_in_set(WholeSpace(2), 10, seed=0)
    pts = sample_in_set(WholeSpace(2), 10, seed=0, bounds=([0.0, 0.0], [1.0, 1.0]))
    assert pts.shape == (10, 2)
    assert np.all((pts >= 0.0) & (pts <= 1.0))


def test_sample_gives_up_when_region_misses_the_set():
    ball = Ball(2, 1.0)
    with pytest.raises(InvalidInputError):
        sample_in_set(ball, 1, seed=0, bounds=([5.0, 5.0], [6.0, 6.0]))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


_ZERO_LO = [0.0, -0.0, -1.0, 0.0, -0.0, -0.0]
_ZERO_HI = [1.0, 0.0, -0.0, 0.0, -0.0, 0.0]


@pytest.mark.parametrize("n", [1, 2, 6, 17])
@pytest.mark.parametrize("rows", [1, 3, 17])
@pytest.mark.parametrize("order", ["C", "F"])
def test_box_clamp_has_np_clip_bits_at_signed_zeros_and_nan(n, rows, order):
    # bounds of +-0.0 against inputs of -+0.0: which zero np.clip returns
    # depends on its loop (numpy's widths and layouts), so compare bits,
    # NaN rows included
    lo = np.resize(_ZERO_LO, n)
    hi = np.resize(_ZERO_HI, n)
    box = Box(lo, hi)
    rng = np.random.default_rng(10 * n + rows)
    values = np.array([0.0, -0.0, 2.0, -2.0, 0.5, np.inf, -np.inf, np.nan])
    xs = rng.choice(values, (rows, n))
    xs[0] = np.nan
    xs[-1] = -0.0
    xs = np.asarray(xs, order=order)
    want = np.clip(xs, lo, hi)
    assert np.array_equal(_bits(retract_rows(box, xs, 2.0)), _bits(want))
    out = np.empty_like(xs)
    assert retraction_kernel(box, 2.0)(xs, out) is out
    assert np.array_equal(_bits(out), _bits(want))


@pytest.mark.parametrize("n", [1, 2, 6, 17])
def test_box_clamp_has_np_clip_bits_on_row_views(n):
    # the Picard loop's call: one row of a (K, n) buffer clamped into a
    # row of another, each a (1, n) view
    lo = np.resize(_ZERO_LO, n)
    hi = np.resize(_ZERO_HI, n)
    clamp = retraction_kernel(Box(lo, hi), 2.0)
    rng = np.random.default_rng(n)
    values = np.array([0.0, -0.0, 2.0, -2.0, 0.5, np.inf, -np.inf, np.nan])
    images = rng.choice(values, (17, n))
    rows = np.full((18, n), 7.0)
    for i in range(17):
        clamp(images[i:i + 1], rows[i + 1:i + 2])
        want = np.clip(images[i:i + 1], lo, hi)
        assert np.array_equal(_bits(rows[i + 1:i + 2]), _bits(want))
    assert (rows[0] == 7.0).all()


def test_box_clamp_has_np_clip_bits_on_seeded_blocks():
    # every n from 1 to 20 and 1 to 40 rows, both orders, entries and
    # bounds where np.clip's choice of zero or NaN shows in the bits
    rng = np.random.default_rng(2006)
    values = np.array([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, np.inf,
                       -np.inf, np.nan])
    bounds = np.array([0.0, -0.0, 1.0, -1.0])
    for n, rows, order in itertools.product(range(1, 21), range(1, 41), "CF"):
        for _ in range(6):
            lo, hi = np.sort(rng.choice(bounds, (2, n)), axis=0)
            xs = np.asarray(rng.choice(values, (rows, n)), order=order)
            want = _bits(np.clip(xs, lo, hi))
            got = _bits(retract_rows(Box(lo, hi), xs, 2.0))
            assert np.array_equal(got, want), (n, rows, order)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 20])
@pytest.mark.parametrize("rows", [1, 3, 32, 1030])
@pytest.mark.parametrize("tol", [0.0, 1e-12, 0.5])
def test_box_mask_is_the_same_in_every_layout(n, rows, tol):
    # comparisons and `and` are exact, so the mask must be the scalar
    # comparisons' in every layout, tall blocks and strided views included,
    # at NaN, +-inf, +-0 and the slackened bounds themselves
    lo = np.resize([0.0, -0.0, -1.0, -2.5], n)
    hi = np.resize([1.0, 0.0, -0.0, 2.5], n)
    box = Box(lo, hi)
    edges = np.concatenate([lo - tol, hi + tol,
                            np.nextafter(lo - tol, -np.inf),
                            np.nextafter(hi + tol, np.inf)])
    values = np.concatenate([[0.0, -0.0, 0.5, np.inf, -np.inf, np.nan], edges])
    rng = np.random.default_rng([n, rows, int(tol * 1e12)])
    # mostly inside, so that tall blocks keep members
    xs = rng.uniform(lo, hi, (rows, n))
    pick = rng.random((rows, n)) < 1.0 / n
    xs[pick] = rng.choice(values, int(pick.sum()))
    want = [all(lo[j] - tol <= x[j] <= hi[j] + tol for j in range(n))
            for x in xs.tolist()]
    assert rows < 32 or 0 < sum(want) < rows
    wide = np.repeat(xs, 2, axis=1)
    for a in (xs, np.asfortranarray(xs), wide[:, ::2],
              np.asfortranarray(wide)[:, 1::2]):
        got = members_mask(box, a, tol)
        assert got.dtype == bool and got.tolist() == want


@pytest.mark.parametrize("cset", [WholeSpace(2), Box([-0.0, 0.0], [1.0, 1.0]),
                                  Ball(2, 1.0), Halfspace([-1.0, 2.0], 1.0)])
def test_retract_rows_into_out_matches_a_fresh_result(cset):
    xs = np.array([[-0.0, 0.0], [3.0, 2.0], [-1.0, 0.0], [-5.0, 0.0],
                   [0.6, -0.8], [3.0, 4.0]])
    buf = np.full((xs.shape[0] + 2, 2), 7.0)
    got = retraction_kernel(cset, 2.0)(xs, buf[1:-1])
    assert got.base is buf
    assert np.array_equal(_bits(got), _bits(retract_rows(cset, xs, 2.0)))
    assert (buf[[0, -1]] == 7.0).all()


@pytest.mark.parametrize("scale, square", [(1e-170, "0.0"), (1e-160, "1e-320"),
                                           (1e170, "inf")])
def test_halfspace_refuses_a_normal_whose_square_leaves_the_normal_floats(
        scale, square):
    # <a, a> underflows to 0 or a subnormal, or overflows: the retraction
    # would divide by it and leave the set or return NaN
    with pytest.raises(InvalidInputError, match=re.escape(
            f"normal [{scale!r}, 0.0] must be nonzero")) as info:
        Halfspace([scale, 0.0], 0.0)
    assert str(info.value).endswith(f"got {square}")


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_halfspace_with_an_extreme_normal_retracts_into_the_set(scale):
    unit = Halfspace([1.0, -2.0], 0.5)
    hs = Halfspace([scale, -2.0 * scale], 0.5 * scale)
    for x in np.random.default_rng(0).uniform(-5.0, 5.0, size=(50, 2)):
        q = retract(hs, x, 2)
        assert contains(hs, q, tol=1e-12 * scale)
        np.testing.assert_allclose(q, retract(unit, x, 2), rtol=1e-12,
                                   atol=1e-12)


def test_sample_in_set_meets_every_request_its_budget_can(monkeypatch):
    line = Box([0.0], [1.0])
    full = sample_in_set(line, 1536, seed=0)
    monkeypatch.setattr(sets, "_MAX_CHUNKS", 3)
    # every draw lands in the box, so three chunks of 512 keep 1536 points
    assert np.array_equal(sample_in_set(line, 1536, seed=0), full)
    assert sample_in_set(line, 0, seed=0).shape == (0, 1)
    with pytest.raises(InvalidInputError) as info:
        sample_in_set(line, 1537, seed=0)
    assert str(info.value) == "count must be between 0 and 1536, got 1537"
    with pytest.raises(InvalidInputError, match="got -1$"):
        sample_in_set(line, -1, seed=0)


def test_sample_in_set_refusal_names_what_it_kept(monkeypatch):
    monkeypatch.setattr(sets, "_MAX_CHUNKS", 3)
    with pytest.raises(InvalidInputError) as info:
        sample_in_set(Ball(2, 1.0), 5, seed=0, bounds=([5.0, 5.0], [6.0, 6.0]))
    assert str(info.value) == ("sampling region barely intersects the set:"
                               " kept 0 of 5 points in 1536 draws")
    # about half of each draw lands in the box
    with pytest.raises(InvalidInputError) as info:
        sample_in_set(Box([0.0], [1.0]), 1000, seed=0, bounds=([0.0], [2.0]))
    match = re.fullmatch(r"sampling region barely intersects the set:"
                         r" kept (\d+) of 1000 points in 1536 draws",
                         str(info.value))
    assert match and 700 < int(match[1]) < 1000


def test_characterization_takes_the_corners_of_a_ten_dimensional_box():
    # each clamped coordinate of Qx lies on a face, and the corner on all
    # of those faces pairs to exactly 0; sampled points alone pair to
    # more, and above ten dimensions only samples are taken
    x = np.linspace(-1.0, 2.0, 10)
    assert verify_characterization(Box(np.zeros(10), np.ones(10)), x, 3, 50,
                                   seed=0) == 0.0
    x = np.linspace(-1.0, 2.0, 11)
    assert verify_characterization(Box(np.zeros(11), np.ones(11)), x, 3, 50,
                                   seed=0) > 0.0


def test_characterization_exposes_a_retraction_that_overshoots(monkeypatch):
    real = sets.retraction_kernel

    def reflecting(cset, p):
        # through the boundary instead of onto it: Q'x = 2 Qx - x
        kernel = real(cset, p)
        return lambda xs, out=None: 2.0 * kernel(xs) - xs

    monkeypatch.setattr(sets, "retraction_kernel", reflecting)
    # Q'[2, 0] = [-2, 0], so <x - Q'x, Q'x - y> = -4 (2 + y_1), which
    # falls to -8 as y nears the boundary y_1 = 0; the samples must reach it
    worst = verify_characterization(Halfspace([1.0, 0.0], 0.0), [2.0, 0.0], 2,
                                    300, seed=0)
    assert -8.0 <= worst < -7.0

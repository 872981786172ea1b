import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpvi import (Affine, Ball, Box, GridSpec, Halfspace, InvalidInputError,
                  Problem, ResourceError, ShapeError, SpaceSpec,
                  UnsupportedOracleError, WholeSpace, check_pairing_inequality,
                  grid_bounds, grid_vi_solve, hilbert_rule_factor,
                  pairing_inequality_sweep, picard_solve)
from lpvi import oracle, spaces
from lpvi.maps import evaluate_rows
from lpvi.sets import members_mask
from lpvi.spaces import duality_map_rows, norm_rows, p_norm

BOX12 = Box([1.0, 1.0], [2.0, 2.0])


def shifted_problem(c=(1.5, 1.5)):
    return Problem(SpaceSpec(2, 2.0), BOX12, Affine(np.eye(2), [-c[0], -c[1]]))


def test_grid_accepts_the_corner_solution_tightly():
    prob = Problem(SpaceSpec(2, 2.0), BOX12, Affine(np.eye(2)))
    sol = grid_vi_solve(prob, GridSpec((41, 41)))
    assert sol.searched == 41 * 41
    assert any(np.array_equal(row, [1.0, 1.0]) for row in sol.accepted)
    h = float(np.max(sol.spacing))
    assert h == pytest.approx(0.025, rel=1e-12)
    dists = np.max(np.abs(sol.accepted - np.array([1.0, 1.0])), axis=1)
    assert float(np.max(dists)) <= h + 1e-12


def test_grid_accepts_everything_for_the_zero_mapping():
    prob = Problem(SpaceSpec(2, 2.0), BOX12, Affine(np.zeros((2, 2))))
    sol = grid_vi_solve(prob, GridSpec((11, 11)))
    assert sol.accepted.shape[0] == sol.searched == 11 * 11
    assert float(np.min(sol.worst_pairings)) >= 0.0


def test_grid_finds_interior_solution():
    sol = grid_vi_solve(shifted_problem(), GridSpec((41, 41)))
    h = float(np.max(sol.spacing))
    dists = np.max(np.abs(sol.accepted - np.array([1.5, 1.5])), axis=1)
    assert sol.accepted.shape[0] >= 1
    assert float(np.max(dists)) <= h + 1e-12


def test_grid_agrees_with_the_fixed_point_route():
    prob = shifted_problem((1.5, 1.25))
    sol = grid_vi_solve(prob, GridSpec((41, 41)))
    rep = picard_solve(prob, lam=0.9, x0=[2.0, 2.0])
    h = float(np.max(sol.spacing))
    gaps = np.max(np.abs(sol.accepted - rep.final_point), axis=1)
    assert float(np.min(gaps)) <= h + 1e-12      # solver lands on an accepted cell
    assert float(np.max(gaps)) <= 2 * h + 1e-12  # and nothing accepted strays


def test_grid_refinement_shrinks_toward_the_same_point():
    prob = shifted_problem((1.5, 1.25))
    coarse = grid_vi_solve(prob, GridSpec((21, 21)))
    fine = grid_vi_solve(prob, GridSpec((41, 41)))
    c0 = np.mean(coarse.accepted, axis=0)
    c1 = np.mean(fine.accepted, axis=0)
    assert float(np.max(np.abs(c0 - c1))) <= 2 * float(np.max(coarse.spacing))


def test_grid_on_a_ball_region():
    prob = Problem(SpaceSpec(2, 2.0), Ball(2, 1.0), Affine(np.eye(2), [-0.3, 0.0]))
    sol = grid_vi_solve(prob, GridSpec((41, 41)))
    assert sol.searched < 41 * 41         # corners of the bounding box are outside
    dists = np.max(np.abs(sol.accepted - np.array([0.3, 0.0])), axis=1)
    assert sol.accepted.shape[0] >= 1
    assert float(np.max(dists)) <= float(np.max(sol.spacing)) + 1e-12


def test_grid_needs_a_bounded_set():
    for cset in (WholeSpace(2), Halfspace([1.0, 0.0], 0.0)):
        prob = Problem(SpaceSpec(2, 2.0), cset, Affine(np.eye(2)))
        with pytest.raises(UnsupportedOracleError):
            grid_vi_solve(prob, GridSpec((11, 11)))
        with pytest.raises(UnsupportedOracleError):
            grid_bounds(cset)


def test_grid_dimension_cap():
    prob = Problem(SpaceSpec(4, 2.0), Box([0.0] * 4, [1.0] * 4), Affine(np.eye(4)))
    with pytest.raises(UnsupportedOracleError):
        grid_vi_solve(prob, GridSpec((5, 5, 5, 5)))


def reference_grid_vi_solve(problem, counts, slack_scale=0.5):
    """The unscreened oracle: a full scan of every candidate."""
    n, p = problem.space.n, problem.space.p
    lo, hi = grid_bounds(problem.cset)
    axes = [np.linspace(lo[i], hi[i], counts[i]) for i in range(n)]
    h = max((hi[i] - lo[i]) / (counts[i] - 1) for i in range(n))
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    inside = pts[members_mask(problem.cset, pts, tol=1e-12)]
    images = evaluate_rows(problem.mapping, inside)
    image_norms = norm_rows(images, p)
    accepted = []
    worsts = []
    for i in range(inside.shape[0]):
        rivals = duality_map_rows(inside - inside[i], p)
        worst = float(np.min(rivals @ images[i]))
        if worst >= -slack_scale * h * (1.0 + image_norms[i]):
            accepted.append(inside[i])
            worsts.append(worst)
    return (np.array(accepted) if accepted else np.empty((0, n)),
            np.array(worsts))


def random_instance(rng, n, p, ball=False, scale=None):
    if ball:
        cset = Ball(n, float(rng.uniform(0.5, 2.0)))
    else:
        lo = rng.uniform(-2.0, 1.0, size=n)
        cset = Box(lo, lo + rng.uniform(0.5, 2.0, size=n))
    a = rng.standard_normal((n, n))
    matrix = (a @ a.T + 0.1 * np.eye(n) if scale is None
              else scale * np.eye(n))
    offset = rng.standard_normal(n) if scale is None else np.zeros(n)
    return Problem(SpaceSpec(n, p), cset, Affine(matrix, offset))


POINTS_PER_AXIS = {1: 40, 2: 13, 3: 6}


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_screened_oracle_matches_the_full_scan(p, n):
    rng = np.random.default_rng([int(10 * p), n])
    shapes = [False] * 3 + ([True] * 2 if p == 2.0 else [])
    for ball in shapes:
        prob = random_instance(rng, n, p, ball=ball)
        counts = (POINTS_PER_AXIS[n],) * n
        sol = grid_vi_solve(prob, GridSpec(counts))
        accepted, worsts = reference_grid_vi_solve(prob, counts)
        assert np.array_equal(sol.accepted, accepted)
        assert np.array_equal(sol.worst_pairings, worsts)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_screened_oracle_matches_when_every_candidate_survives(p):
    prob = random_instance(np.random.default_rng(5), 2, p, scale=1e-9)
    sol = grid_vi_solve(prob, GridSpec((13, 13)))
    accepted, worsts = reference_grid_vi_solve(prob, (13, 13))
    assert sol.accepted.shape[0] == sol.searched == 169
    assert np.array_equal(sol.accepted, accepted)
    assert np.array_equal(sol.worst_pairings, worsts)


SURVIVOR_GRIDS = {1: (40,), 2: (7, 7), 3: (5, 5, 5)}


def split(rows, step):
    """The row counts of spaces.row_blocks' blocks of `step` rows."""
    whole, rest = divmod(rows, step)
    return [step] * whole + ([rest] if rest else [])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("block", [None, 1, 3])
def test_blocked_full_scans_match_the_reference(monkeypatch, n, block):
    # every candidate survives, so the scans see all of them; 40, 49 and
    # 125 candidates are not multiples of 3 (nor 125 of the default 43),
    # so the last block is a short one. A scan block row is a candidate's
    # m differences and their J, 2 m n entries
    counts = SURVIVOR_GRIDS[n]
    m = int(np.prod(counts))
    if block is not None:
        monkeypatch.setattr(spaces, "_ROW_BLOCK_ELEMS", 2 * block * m * n)
    rows = []
    monkeypatch.setattr(oracle, "duality_map_rows",
                        lambda xs, p: rows.append(len(xs)) or duality_map_rows(xs, p))
    prob = random_instance(np.random.default_rng(n), n, 3.0, scale=1e-9)
    sol = grid_vi_solve(prob, GridSpec(counts))
    accepted, worsts = reference_grid_vi_solve(prob, counts)
    assert sol.accepted.shape[0] == sol.searched == m
    assert np.array_equal(sol.accepted, accepted)
    assert np.array_equal(sol.worst_pairings, worsts)
    # the screen's blocks against the box's 2^n corners, then blocks of
    # `per` candidates x m rivals; by default `per` is 2^14 // (m n)
    per = min(m, block or (1 << 14) // (m * n))
    screen = split(m, min(m, spaces._ROW_BLOCK_ELEMS // 2 ** n))
    assert per == min(m, spaces._ROW_BLOCK_ELEMS // (2 * m * n))
    assert rows == screen + [k * m for k in split(m, per)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scan_rows_are_the_broadcast_differences(monkeypatch, n):
    # 3 candidates a block: 40, 49 and 125 candidates end on a short block
    counts = SURVIVOR_GRIDS[n]
    m = int(np.prod(counts))
    monkeypatch.setattr(spaces, "_ROW_BLOCK_ELEMS", 2 * 3 * m * n)
    seen = []
    monkeypatch.setattr(oracle, "duality_map_rows",
                        lambda xs, p: seen.append(xs.copy()) or duality_map_rows(xs, p))
    prob = random_instance(np.random.default_rng(n), n, 3.0, scale=1e-9)
    grid_vi_solve(prob, GridSpec(counts))
    lo, hi = grid_bounds(prob.cset)
    axes = [np.linspace(lo[i], hi[i], counts[i]) for i in range(n)]
    inside = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    starts = range(0, m, 3)
    assert len(seen) == 1 + len(starts) and seen[-1].shape[0] < 3 * m
    for start, rows in zip(starts, seen[1:]):
        block = np.arange(start, min(start + 3, m))
        want = (inside[None] - inside[block, None]).reshape(-1, n)
        assert rows.flags.c_contiguous
        assert rows.tobytes() == want.tobytes()


@pytest.mark.parametrize("ball, p", [(False, 1.5), (False, 2.0), (False, 3.0),
                                     (True, 2.0)],
                         ids=["box-1.5", "box-2.0", "box-3.0", "ball-2.0"])
@pytest.mark.parametrize("screen_rows", [1, 3])
def test_screen_in_blocks_matches_the_reference(monkeypatch, ball, p, screen_rows):
    # a budget of `screen_rows` rows of the grid's extreme points cuts the
    # screen into blocks of that many candidates (and each scan block into
    # one candidate); the 13 x 13 grids leave 169 and 113 candidates, which
    # blocks of 3 do not divide (a ball lives at p = 2 only)
    counts = (13, 13)
    prob = random_instance(np.random.default_rng([int(10 * p), 6]), 2, p,
                           ball=ball)
    lo, hi = grid_bounds(prob.cset)
    axes = [np.linspace(lo[i], hi[i], counts[i]) for i in range(2)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    member = members_mask(prob.cset, pts, tol=1e-12)
    extreme = int(np.count_nonzero(oracle._extreme_mask(member.reshape(counts))))
    monkeypatch.setattr(spaces, "_ROW_BLOCK_ELEMS", screen_rows * extreme)
    rows = []
    monkeypatch.setattr(oracle, "duality_map_rows",
                        lambda xs, p: rows.append(len(xs)) or duality_map_rows(xs, p))
    sol = grid_vi_solve(prob, GridSpec(counts))
    accepted, worsts = reference_grid_vi_solve(prob, counts)
    screen = split(sol.searched, screen_rows)
    assert sol.searched == int(np.count_nonzero(member)) > screen_rows
    assert rows[:len(screen)] == screen
    # the screen rejects most candidates, so most are never scanned
    assert len(rows) - len(screen) < sol.searched // 2
    assert 0 < sol.accepted.shape[0] < sol.searched
    assert np.array_equal(sol.accepted, accepted)
    assert np.array_equal(sol.worst_pairings, worsts)


@pytest.mark.parametrize("counts", [(2,), (9,), (2, 5), (7, 4), (2, 2, 2),
                                    (3, 4, 5)])
def test_extreme_points_of_a_box_grid_are_its_corners(counts):
    kept = oracle._extreme_mask(np.ones(counts, dtype=bool))
    corners = set(itertools.product(*[(0, c - 1) for c in counts]))
    assert {tuple(map(int, ix)) for ix in np.argwhere(kept)} == corners


def extreme_points_property(extreme_mask):
    """A hypothesis test of an extreme-point helper on integer lattices
    with random member masks: every kept point is a member, a random
    integer functional has the same minimum over the kept points as over
    all members (exact arithmetic), and no kept point lies between two
    members next to it along an axis."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 3))
        shape = tuple(data.draw(st.lists(st.integers(1, 6), min_size=n,
                                         max_size=n)))
        size = int(np.prod(shape))
        member = np.array(data.draw(st.lists(st.booleans(), min_size=size,
                                              max_size=size))).reshape(shape)
        weights = np.array(data.draw(st.lists(st.integers(-9, 9), min_size=n,
                                              max_size=n)))
        kept = extreme_mask(member)
        assert not (kept & ~member).any()
        values = np.indices(shape).reshape(n, -1).T @ weights
        if member.any():
            assert kept.any()
            assert values[kept.reshape(-1)].min() == values[member.reshape(-1)].min()
        for point in np.argwhere(kept):
            for axis in range(n):
                if 0 < point[axis] < shape[axis] - 1:
                    before, after = point.copy(), point.copy()
                    before[axis] -= 1
                    after[axis] += 1
                    assert not (member[tuple(before)] and member[tuple(after)])

    return check


def test_extreme_points_keep_every_minimum_and_drop_midpoints():
    extreme_points_property(oracle._extreme_mask)()


def _wrapping_extreme_mask(member):
    keep = member.copy()
    for axis in range(member.ndim):
        keep &= ~(np.roll(member, 1, axis) & np.roll(member, -1, axis))
    return keep


def _one_axis_short_extreme_mask(member):
    keep = member.copy()
    for axis in range(member.ndim - 1):
        line = np.moveaxis(member, axis, 0)
        np.moveaxis(keep, axis, 0)[1:-1] &= ~(line[:-2] & line[2:])
    return keep


@pytest.mark.parametrize("mutant", [_wrapping_extreme_mask,
                                    _one_axis_short_extreme_mask])
def test_extreme_points_property_catches_broken_helpers(mutant):
    with pytest.raises(AssertionError):
        extreme_points_property(mutant)()


def _bits(sol):
    return (sol.accepted.shape, sol.accepted.tobytes(),
            sol.worst_pairings.tobytes(), sol.searched)


def _equivalence_cases():
    rng = np.random.default_rng(19)
    cases = [pytest.param(random_instance(rng, 2, p), (61, 61), id=f"box61-p{p}")
             for p in (1.5, 2.0, 3.0)]
    cases.append(pytest.param(random_instance(rng, 2, 2.0, ball=True),
                              (31, 31), id="ball31-p2"))
    cases.append(pytest.param(random_instance(rng, 3, 3.0), (9, 9, 9),
                              id="cube9-p3"))
    # every candidate survives the screen, and the scans accept them all
    cases.append(pytest.param(random_instance(rng, 2, 3.0, scale=1e-9),
                              (31, 31), id="near-zero31-p3"))
    return cases


@pytest.mark.parametrize("prob, counts", _equivalence_cases())
def test_extreme_rivals_give_the_bits_of_every_member_as_rival(monkeypatch,
                                                               prob, counts):
    # np.copy keeps every member: the all-points screen's rival set
    sol = grid_vi_solve(prob, GridSpec(counts))
    monkeypatch.setattr(oracle, "_extreme_mask", np.copy)
    assert _bits(grid_vi_solve(prob, GridSpec(counts))) == _bits(sol)
    near_zero = np.all(np.abs(prob.mapping.matrix) <= 1e-9)
    assert (sol.accepted.shape[0] == sol.searched) == near_zero


@pytest.mark.parametrize("prob, counts", _equivalence_cases())
def test_column_paths_give_the_bits_of_the_plain_kernels(monkeypatch,
                                                        prob, counts):
    # C-order buffers at every width: numpy then reduces and broadcasts
    # the oracle's narrow rows a row at a time
    sol = grid_vi_solve(prob, GridSpec(counts))
    monkeypatch.setattr(spaces, "_order", lambda a: "C")
    assert _bits(grid_vi_solve(prob, GridSpec(counts))) == _bits(sol)


def check_scan_takes_the_add(exact):
    """With exact(mags) as the duality kernel's once-a-block test, a p = 2
    grid under a near-zero map, where every candidate survives to the full
    scan, must map every screen and scan block by the Hilbert add: no
    np.ldexp or np.frexp call, which only the general formula makes."""
    calls = []

    def counted(ufunc):
        def call(*args, **kwargs):
            calls.append(ufunc.__name__)
            return ufunc(*args, **kwargs)
        return call

    prob = random_instance(np.random.default_rng(25), 2, 2.0, scale=1e-9)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spaces, "_exact_at_two", exact)
        mp.setattr(np, "ldexp", counted(np.ldexp))
        mp.setattr(np, "frexp", counted(np.frexp))
        sol = grid_vi_solve(prob, GridSpec((9, 9)))
    assert sol.accepted.shape[0] == sol.searched == 81
    assert calls == []


def test_p2_scan_maps_its_blocks_by_the_hilbert_add():
    check_scan_takes_the_add(spaces._exact_at_two)


def _exact_counting_zeros(mags):
    top = float(mags.max()) if mags.size else math.nan
    floor = math.ldexp(1.0, math.frexp(top)[1] - 1022)
    return top < math.inf and not (mags < floor).any()


def test_scan_check_catches_a_test_that_counts_zeros():
    # the zero coordinates of grid differences would force the formula
    with pytest.raises(AssertionError):
        check_scan_takes_the_add(_exact_counting_zeros)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_oracle_matches_the_reference_on_random_small_grids(data):
    n = data.draw(st.integers(1, 3))
    counts = tuple(data.draw(st.lists(st.integers(2, 7), min_size=n, max_size=n)))
    p = data.draw(st.one_of(st.just(2.0), st.floats(1.2, 4.0)))
    ball = p == 2.0 and data.draw(st.booleans())
    scale = data.draw(st.sampled_from([None, 1e-9]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    prob = random_instance(rng, n, p, ball=ball, scale=scale)
    sol = grid_vi_solve(prob, GridSpec(counts))
    accepted, worsts = reference_grid_vi_solve(prob, counts)
    assert np.array_equal(sol.accepted, accepted)
    assert np.array_equal(sol.worst_pairings, worsts)


def test_grid_with_no_point_inside_the_set():
    prob = Problem(SpaceSpec(2, 2.0), Ball(2, 1.0), Affine(np.eye(2)))
    sol = grid_vi_solve(prob, GridSpec((2, 2)))  # only the box corners
    assert sol.searched == 0 and sol.accepted.shape == (0, 2)


def test_full_scan_cap_is_checked_before_the_scans(monkeypatch):
    prob = Problem(SpaceSpec(2, 2.0), BOX12, Affine(np.zeros((2, 2))))
    monkeypatch.setattr(oracle, "MAX_SCAN_ROWS", 121 * 121 - 1)
    calls = []
    monkeypatch.setattr(oracle, "duality_map_rows",
                        lambda xs, p: calls.append(len(xs)) or duality_map_rows(xs, p))
    with pytest.raises(ResourceError, match="MAX_SCAN_ROWS"):
        grid_vi_solve(prob, GridSpec((11, 11)))
    assert len(calls) < 121  # screen blocks only: no candidate was scanned
    monkeypatch.setattr(oracle, "MAX_SCAN_ROWS", 121 * 121)
    assert grid_vi_solve(prob, GridSpec((11, 11))).accepted.shape[0] == 121


@pytest.mark.parametrize("count", [2.9, True, "3", float("nan")])
def test_grid_point_counts_must_be_integers(count):
    # (2.9, 3) once built a 2 x 3 grid
    with pytest.raises(InvalidInputError, match=re.escape(
            f"grid point count must be an integer, got {count!r}")):
        GridSpec((count, 3))
    assert GridSpec((np.int64(3), 4)).counts == (3, 4)


def test_grid_spec_validation():
    with pytest.raises(ResourceError, match="MAX_SCREEN_PAIRS"):
        GridSpec((1001, 1001))
    with pytest.raises(InvalidInputError):
        GridSpec((41, 1))
    with pytest.raises(InvalidInputError):
        GridSpec(())
    prob = Problem(SpaceSpec(2, 2.0), BOX12, Affine(np.eye(2)))
    with pytest.raises(ShapeError):
        grid_vi_solve(prob, GridSpec((41,)))
    with pytest.raises(InvalidInputError):
        grid_vi_solve(prob, GridSpec((11, 11)), slack_scale=0.0)


def test_pairing_inequality_coincident_points():
    x = [3.0, -4.0]
    for p in (1.5, 2.0, 4.0):
        slack = check_pairing_inequality(x, x, p)
        assert slack == pytest.approx(4.0 * p_norm(x, p) ** 2, rel=1e-12)


def test_pairing_inequality_hilbert_case_is_exactly_the_cross_term():
    rng = np.random.default_rng(21)
    for _ in range(50):
        x, y = rng.uniform(-5, 5, size=(2, 3))
        slack = check_pairing_inequality(x, y, 2)
        expect = 4.0 * p_norm(x, 2) * p_norm(y, 2)
        assert slack == pytest.approx(expect, rel=1e-9)


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
@pytest.mark.parametrize("n", [2, 5, 20])
def test_pairing_sweep_never_goes_negative(p, n):
    sweep = pairing_inequality_sweep(p, n, pairs=1000, seed=13)
    assert sweep.min_margin >= -1e-9


def test_pairing_sweep_worst_pair_reproduces():
    sweep = pairing_inequality_sweep(3.0, 4, pairs=500, seed=17)
    slack = check_pairing_inequality(sweep.worst_x, sweep.worst_y, 3.0)
    norm_prod = p_norm(sweep.worst_x, 3.0) * p_norm(sweep.worst_y, 3.0)
    assert slack / (1.0 + norm_prod) == pytest.approx(sweep.min_margin, rel=1e-9, abs=1e-12)


def test_hilbert_rule_factor_reference_value():
    assert hilbert_rule_factor() == -0.97


def test_hilbert_rule_factor_other_points():
    assert hilbert_rule_factor(s=0.0) == 1.0
    assert hilbert_rule_factor(r=1.0, gamma=1.0, s=1.0, mu=1.0) == 2.0
    with pytest.raises(InvalidInputError):
        hilbert_rule_factor(mu=np.inf)


def test_pairing_sweep_reports_the_pinned_pair_apart():
    sweep = pairing_inequality_sweep(3.0, 4, pairs=500, seed=17)
    # J(0) = 0 makes the pinned pair's slack exactly 0; the minimum is
    # over the drawn pairs, which the pinned one would mask
    assert sweep.pinned_slack == 0.0
    assert sweep.min_margin > 0.0
    assert np.any(sweep.worst_x != 0.0)
    with pytest.raises(InvalidInputError, match="pairs >= 2"):
        pairing_inequality_sweep(3.0, 4, pairs=1, seed=17)

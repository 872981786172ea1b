"""Independent brute-force checks for the solver's claims.

grid_vi_solve shares no code path with the fixed-point solver: it tests
the inequality <Bu, j(v - u)> >= -eps directly on every grid point pair,
so agreement between the two routes is meaningful evidence.

The acceptance tolerance is eps = slack_scale * h * (1 + |Bu|) with h
the largest grid spacing. The scale trades false accepts against false
rejects: a grid point one cell from the true solution picks up pairing
deficits of order h * (|Bu| + mu * diam), so the tolerance must carry
both h and |Bu|. slack_scale = 0.5 keeps the accepted set within about
one cell of the solution on unit-box instances whose solution lies on
the grid; larger scales accept proportionally wider bands.

Most grid points fail against a single rival, so every candidate u is
first screened against the v minimizing <Bu, v> over the grid's extreme
points in C, which include every vertex of the hull of C's grid points
(at p = 2 that v is the worst rival). Only survivors get the full scan
over all rivals. Both run a spaces.row_blocks block of candidates at a
time. A scan block's candidate x rival differences are written one axis
at a time into one buffer that every block reuses, then one duality-map
call over them and one batched matrix product give the same bits as one
scan per candidate: the kernel maps each row on its own and returns J
C-contiguous, the layout the product's bits depend on. At p = 2 that call is one add, as grid differences span
far less than the 2^1022 that the kernel's once-a-block test allows.
MAX_SCREEN_PAIRS bounds the pairs of grid points the screen could form,
MAX_SCAN_ROWS the duality-map rows the full scans form. On a 2-core
Intel Xeon VM (numpy 2.4, OpenBLAS on one thread) a grid at the screen
cap (376 x 376, a box at p = 3) takes about 0.13 s, one at the scan cap
about 4.5 s (100 x 100 at p = 3 under a near-zero map, where every
candidate survives).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ResourceError, ShapeError, UnsupportedOracleError
from .maps import evaluate_rows
from .sets import bounding_box, members_mask
from .solver import Problem
from .spaces import (as_vector, check_dimension, check_exponent, check_integer,
                     check_seed, duality_map_rows, duality_norm_rows,
                     norm_rows, pairing_rows, row_blocks)

MAX_GRID_DIM = 3
MAX_SCREEN_PAIRS = 20_000_000_000
MAX_SCAN_ROWS = 100_000_000
# relative rounding gap allowed between the screen's pairing and the full
# scan's pairing of the same rival (same J row, other reduction order)
_SCREEN_MARGIN = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Points per axis for a rectangular search grid."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(check_dimension(c, "grid point count")
                       for c in self.counts)
        if len(counts) == 0:
            raise InvalidInputError("grid needs at least one axis")
        if any(c < 2 for c in counts):
            raise InvalidInputError(f"each axis needs >= 2 points, got {counts}")
        total = math.prod(counts)
        # the screen pairs each grid point in C with each extreme one, at
        # most total^2 pairs; the cap is on that bound, known before the grid
        if total * total > MAX_SCREEN_PAIRS:
            raise ResourceError(
                f"grid of {total} points needs up to {total * total} screen"
                f" pairs, over the cap MAX_SCREEN_PAIRS = {MAX_SCREEN_PAIRS}")
        object.__setattr__(self, "counts", counts)


@dataclass(eq=False)
class GridSolution:
    accepted: np.ndarray        # (k, n) accepted grid points
    worst_pairings: np.ndarray  # (k,) min pairing over grid rivals, per point
    spacing: np.ndarray         # (n,) per-axis grid step
    searched: int               # grid points that lay inside C


def grid_bounds(cset) -> tuple[np.ndarray, np.ndarray]:
    """Bounding box of a bounded set; the oracle refuses anything else."""
    box = bounding_box(cset)
    if box is None:
        raise UnsupportedOracleError(
            f"grid oracle needs a bounded set (Box or Ball),"
            f" got {type(cset).__name__}")
    return box


def _extreme_mask(member: np.ndarray) -> np.ndarray:
    """The members of a grid's membership mask that have, along every
    axis, a side with no member next to them. These include every vertex
    of the members' convex hull, so a linear functional takes the same
    minimum over them as over all members; a box keeps its 2^n corners."""
    keep = member.copy()
    for axis in range(member.ndim):
        line = np.moveaxis(member, axis, 0)
        np.moveaxis(keep, axis, 0)[1:-1] &= ~(line[:-2] & line[2:])
    return keep


def _screen(inside: np.ndarray, rivals: np.ndarray, images: np.ndarray,
            floors: np.ndarray, p: float) -> np.ndarray:
    """Mask of the candidates that survive one pairing against their rival.

    Candidate i is paired with J(v - inside[i]) for the v in `rivals`
    minimizing <images[i], v>, a spaces.row_blocks block at a time. Any
    v in C is a sound rival: its pairing is one of the terms the full scan
    minimizes, so a candidate rejected here is rejected there too. The
    full scan sums the same products in another order, so a candidate is
    rejected only when it misses its floor by more than that rounding gap.
    """
    keep = np.ones(inside.shape[0], dtype=bool)
    for block in row_blocks(inside.shape[0], rivals.shape[0]):
        rival = np.argmin(images[block] @ rivals.T, axis=1)
        js = duality_map_rows(rivals[rival] - inside[block], p)
        screened = pairing_rows(js, images[block])
        margin = _SCREEN_MARGIN * pairing_rows(np.abs(js), np.abs(images[block]))
        keep[block] = screened >= floors[block] - margin
    return keep


def grid_vi_solve(problem: Problem, grid: GridSpec,
                  slack_scale: float = 0.5) -> GridSolution:
    """Accept every grid point u in C whose worst pairing against all grid
    rivals v in C stays above -slack_scale * h * (1 + |Bu|).

    Raises ResourceError when the screen's survivors would need more than
    MAX_SCAN_ROWS rival rows of full scan.
    """
    if not slack_scale > 0.0:
        raise InvalidInputError(f"slack_scale must be positive, got {slack_scale}")
    n = problem.space.n
    if n > MAX_GRID_DIM:
        raise UnsupportedOracleError(
            f"grid oracle supports dimension <= {MAX_GRID_DIM}, got {n}")
    if len(grid.counts) != n:
        raise ShapeError(
            f"grid has {len(grid.counts)} axes for a {n}-dimensional problem")
    lo, hi = grid_bounds(problem.cset)
    p = problem.space.p
    axes = [np.linspace(lo[i], hi[i], grid.counts[i]) for i in range(n)]
    spacing = np.array([(hi[i] - lo[i]) / (grid.counts[i] - 1) for i in range(n)])
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    member = members_mask(problem.cset, pts, tol=1e-12)
    inside = pts[member]
    rivals = pts[_extreme_mask(member.reshape(grid.counts)).reshape(-1)]
    h = float(np.max(spacing))
    images = evaluate_rows(problem.mapping, inside)
    floors = -slack_scale * h * (1.0 + norm_rows(images, p))
    survivors = np.flatnonzero(_screen(inside, rivals, images, floors, p))
    m = inside.shape[0]
    if survivors.size * m > MAX_SCAN_ROWS:
        raise ResourceError(
            f"{survivors.size} of {m} grid points survive the screen; their"
            f" full scans need {survivors.size * m} rival rows, over the cap"
            f" MAX_SCAN_ROWS = {MAX_SCAN_ROWS}")
    accepted = [np.empty((0, n))]
    worsts = [np.empty(0)]
    # a candidate's block row is its m x n differences and their J, so a
    # block holds 2^14 // (m n) candidates. Kept: rows of width m n moved
    # the benchmark's `oracle` op_ms.p50 1.268 -> 1.294 ms, in 7 of 10 pairs
    blocks = row_blocks(survivors.size, 2 * m * n)
    coords = inside.T.copy()
    diffs = np.empty((survivors[blocks[0]].size if blocks else 0, m, n))
    for b in blocks:
        block = survivors[b]
        # the rival - candidate rows, written one axis at a time into the
        # one buffer (the last short block takes a leading view of it).
        # Kept: one broadcast subtract a block cuts `oracle` ops/s 617 -> 509
        rows = diffs[:block.size]
        for axis in range(n):
            np.subtract(coords[axis], coords[axis, block, None],
                        out=rows[:, :, axis])
        rivals = duality_map_rows(rows.reshape(-1, n), p).reshape(block.size, m, n)
        worst = np.min((rivals @ images[block][:, :, None])[:, :, 0], axis=1)
        ok = worst >= floors[block]
        accepted.append(inside[block[ok]])
        worsts.append(worst[ok])
    return GridSolution(
        accepted=np.concatenate(accepted),
        worst_pairings=np.concatenate(worsts),
        spacing=spacing,
        searched=int(inside.shape[0]),
    )


def _pairing_slack_rows(xs: np.ndarray, ys: np.ndarray, p: float):
    """Slack of the pairing inequality for each row pair, with |x| and |y|."""
    d = xs - ys
    jx, nx = duality_norm_rows(xs, p)
    jy, ny = duality_norm_rows(ys, p)
    # J(y) is freed right after J(x) - J(y), and J(x) - J(y) after its
    # pairing, so J(d) is the only (rows, n) map alive when it is made
    jx -= jy
    del jy
    cross = pairing_rows(jx, d)
    del jx
    rhs = pairing_rows(duality_map_rows(d, p), d)
    return (cross + 4.0 * nx * ny) - rhs, nx, ny


def check_pairing_inequality(x, y, p) -> float:
    """Slack of <x - y, Jx - Jy> + 4 |x| |y| >= <x - y, J(x - y)>.

    The right side is |x - y|^2 by the duality identity; the inequality
    holds in every smooth space, so a materially negative return is a
    bug witness in the duality map.
    """
    p = check_exponent(p)
    x = as_vector(x)
    y = as_vector(y, dim=x.shape[0], name="y")
    return float(_pairing_slack_rows(x[None, :], y[None, :], p)[0][0])


@dataclass(eq=False)
class PairingSweep:
    min_margin: float           # min slack / (1 + |x| |y|) over the drawn pairs
    worst_x: np.ndarray
    worst_y: np.ndarray
    pinned_slack: float         # slack of the pair with x = 0: exactly 0 iff J(0) = 0


def pairing_sweeps(p_values, n: int, pairs: int, seed: int) -> list[PairingSweep]:
    """One seeded sweep of check_pairing_inequality per p, all over one draw.

    Pairs are drawn uniformly in [-5, 5]^n and then stretched by a random
    power of ten per pair so several magnitudes are probed. The margin is
    normalized by 1 + |x| |y| to make one tolerance meaningful across
    magnitudes. The first pair is pinned to x = 0, where the slack is
    exactly 0 when J(0) = 0; it is reported on its own, and the minimum
    margin is taken over the other pairs.

    Every input is checked, and an empty p_values refused, before the
    draw. The pairs are drawn whole, in one seeded stream, and only read
    after that; each p's slack chain runs one spaces.row_blocks block of
    about 2^15 entries at a time, so its temporaries stay block-sized.
    Every kernel in it is row-local, so each figure has its one-pass bits.
    """
    p_values = [check_exponent(p) for p in p_values]
    if not p_values:
        raise InvalidInputError("p_values must not be empty")
    n, pairs = check_integer(n, "n"), check_integer(pairs, "pairs")
    if n < 1 or pairs < 2:
        raise InvalidInputError(
            f"need n >= 1 and pairs >= 2 (one pair is pinned at x = 0),"
            f" got n = {n}, pairs = {pairs}")
    rng = np.random.default_rng(check_seed(seed))
    xs = rng.uniform(-5.0, 5.0, size=(pairs, n))
    ys = rng.uniform(-5.0, 5.0, size=(pairs, n))
    stretch = 10.0 ** rng.uniform(-2.0, 2.0, size=(pairs, 1))
    xs *= stretch
    ys *= stretch
    xs[0] = 0.0  # pin one degenerate endpoint; J(0) = 0 must hold too
    sweeps = []
    for p in p_values:
        slack, nx, ny = np.empty((3, pairs))
        for b in row_blocks(pairs, n):
            slack[b], nx[b], ny[b] = _pairing_slack_rows(xs[b], ys[b], p)
        margin = slack / (1.0 + nx * ny)
        i = 1 + int(np.argmin(margin[1:]))
        sweeps.append(PairingSweep(min_margin=float(margin[i]),
                                   worst_x=xs[i].copy(), worst_y=ys[i].copy(),
                                   pinned_slack=float(slack[0])))
    return sweeps


def pairing_inequality_sweep(p, n: int, pairs: int, seed: int) -> PairingSweep:
    """pairing_sweeps at the one exponent p."""
    return pairing_sweeps([p], n, pairs, seed)[0]

"""Closed convex sets and their sunny nonexpansive retractions.

Supported combinations of set and exponent:

  whole space        identity                 every p
  box                componentwise clamp      every p
  ball (origin)      radial scaling           p = 2 only
  halfspace          offset along the normal  p = 2 only

The clamp is an exact sunny nonexpansive retraction in every lp space:
each coordinate of x - Q(x) and of J(Q(x) - y) for y in C carries the same
sign pattern, so the characterization pairing is a sum of nonnegative
terms. At p = 2 the metric projection is the sunny nonexpansive
retraction, which covers balls and halfspaces. Radial scaling onto a ball
is sunny but not nonexpansive for p != 2, so that combination is refused
rather than silently wrong.

Each retraction has one rows-first kernel, bound once by
retraction_kernel(cset, p): a loop calls the function it returns, with
no dispatch per call. retract_rows applies it once, and retract adds
the validation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .errors import InvalidInputError, UnsupportedRetractionError
from .spaces import (as_vector, check_dimension, check_exponent, check_integer,
                     check_seed, duality_map_rows, norm_rows)


@dataclass(frozen=True, eq=False)
class WholeSpace:
    """All of R^n."""

    dim: int

    def __post_init__(self):
        object.__setattr__(self, "dim", check_dimension(self.dim))


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box {x : lo <= x <= hi} (componentwise)."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = as_vector(self.lo, name="lo")
        hi = as_vector(self.hi, dim=lo.shape[0], name="hi")
        if not np.all(lo <= hi):
            raise InvalidInputError("box is empty: needs lo <= hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]


@dataclass(frozen=True, eq=False)
class Ball:
    """Euclidean ball {x : |x|_2 <= radius} centered at the origin."""

    dim: int
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "dim", check_dimension(self.dim))
        r = float(self.radius)
        if not np.isfinite(r) or r <= 0.0:
            raise InvalidInputError(f"radius must be positive and finite, got {self.radius}")
        object.__setattr__(self, "radius", r)


@dataclass(frozen=True, eq=False)
class Halfspace:
    """Halfspace {x : <normal, x> <= offset}."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        a = as_vector(self.normal, name="normal")
        # the retraction divides by <a, a>: a zero, subnormal or infinite
        # square would send it off the set or to NaN
        with np.errstate(over="ignore", under="ignore"):
            a_sq = np.dot(a, a)
        if not np.finfo(float).tiny <= a_sq < np.inf:
            raise InvalidInputError(
                f"halfspace normal {a.tolist()} must be nonzero, with a"
                f" squared norm that is a finite normal float, got {a_sq}")
        b = float(self.offset)
        if not np.isfinite(b):
            raise InvalidInputError("halfspace offset must be finite")
        object.__setattr__(self, "normal", a)
        object.__setattr__(self, "offset", b)

    @property
    def dim(self) -> int:
        return self.normal.shape[0]


ConvexSet = WholeSpace | Box | Ball | Halfspace


class RetractionMode(str, Enum):
    EXACT_SUNNY = "exact-sunny"
    METRIC_PROJECTION = "metric-projection"
    UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class RetractionSupport:
    mode: RetractionMode
    reason: str = field(default="")


def retraction_support(cset, p) -> RetractionSupport:
    """How (and whether) retract() can serve this set at this exponent."""
    p = check_exponent(p)
    if isinstance(cset, (WholeSpace, Box)):
        return RetractionSupport(RetractionMode.EXACT_SUNNY)
    if isinstance(cset, (Ball, Halfspace)):
        if p == 2.0:
            return RetractionSupport(RetractionMode.METRIC_PROJECTION)
        kind = "ball" if isinstance(cset, Ball) else "halfspace"
        return RetractionSupport(
            RetractionMode.UNSUPPORTED,
            reason=(
                f"no closed-form sunny nonexpansive retraction onto a {kind}"
                f" for p = {p}; this set is supported only at p = 2"
            ),
        )
    raise InvalidInputError(f"unknown set type {type(cset).__name__}")


def members_mask(cset, xs: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """Boolean membership mask for the rows of a 2-d array. Balls and
    halfspaces sum each row as their retractions do, so that membership
    and retraction agree on their boundaries."""
    xs = np.asarray(xs, dtype=float)
    if isinstance(cset, WholeSpace):
        return np.ones(xs.shape[0], dtype=bool)
    if isinstance(cset, Box):
        inside = xs >= cset.lo - tol
        inside &= xs <= cset.hi + tol
        return np.logical_and.reduce(inside, axis=1)
    if isinstance(cset, Ball):
        return np.sqrt(_sq_norms(xs)) <= cset.radius + tol
    if isinstance(cset, Halfspace):
        return _normal_products(xs, cset.normal) <= cset.offset + tol
    raise InvalidInputError(f"unknown set type {type(cset).__name__}")


def contains(cset, x, tol: float = 0.0) -> bool:
    """Membership test, slackened by tol (coordinatewise for boxes, in the
    Euclidean norm for balls, in the pairing for halfspaces)."""
    if not tol >= 0.0:
        raise InvalidInputError(f"tol must be nonnegative, got {tol}")
    x = as_vector(x, dim=cset.dim)
    return bool(members_mask(cset, x[None, :], tol)[0])


def _sq_norms(xs: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row, summed in np.dot's order (a
    batched matmul), so membership and retraction agree on the sphere."""
    return (xs[:, None, :] @ xs[:, :, None])[:, 0, 0]


def _normal_products(xs: np.ndarray, a: np.ndarray) -> np.ndarray:
    """<x, a> for each row, summed the same way, so membership and
    retraction agree on a halfspace's boundary."""
    return (xs[:, None, :] @ a)[:, 0]


def retract_rows(cset, xs: np.ndarray, p) -> np.ndarray:
    """retract on each row of a 2-d array, without validation:
    retraction_kernel(cset, p) applied once."""
    return retraction_kernel(cset, p)(np.asarray(xs, dtype=float))


def retraction_kernel(cset, p) -> Callable[..., np.ndarray]:
    """The function g(xs, out=None) that writes the retraction of each row
    of a 2-d float array into out (a new array when out is None) and
    returns it. No validation: callers check retraction_support(cset, p)
    once. The dispatch on the set's kind happens here, once, so a loop
    binds g before it starts. Rows in C come back unchanged. Row inner
    products use a batched matmul, which sums in np.dot's order. It takes
    2-d blocks only: for n >= 2 the box bounds are bound as (1, n) rows,
    and a 1-d input would come back as a (1, n) block."""
    if isinstance(cset, WholeSpace):
        return np.positive  # a copy, -0.0 and NaN included
    if isinstance(cset, Box):
        lo, hi = cset.lo, cset.hi
        # (1, n) bounds keep the clamp of a (1, n) row on numpy's one-loop
        # path; at n = 1 that path returns the bound at a +-0 tie where
        # np.clip keeps the input, so n = 1 keeps the (n,) bounds
        if cset.dim > 1:
            lo, hi = lo[None, :], hi[None, :]

        def box(xs, out=None):
            # the method np.clip calls, so np.clip's bits, signed zeros
            # included
            return xs.clip(lo, hi, out=out)
        return box
    if isinstance(cset, Ball):
        radius = cset.radius

        def ball(xs, out=None):
            # radius / max(|x|, radius) is exactly 1.0 inside the ball
            nrm = np.sqrt(_sq_norms(xs))
            return np.multiply((radius / np.maximum(nrm, radius))[:, None],
                               xs, out=out)
        return ball
    a, offset = cset.normal, cset.offset
    a_sq = np.dot(a, a)

    def halfspace(xs, out=None):
        # shift along the normal by the constraint violation
        excess = _normal_products(xs, a) - offset
        over = ~(excess <= 0.0)
        shift = np.where(over, excess, 0.0) / a_sq
        out = np.positive(xs, out=out)
        return np.subtract(xs, shift[:, None] * a, out=out, where=over[:, None])
    return halfspace


def retract(cset, x, p) -> np.ndarray:
    """Sunny nonexpansive retraction of x onto the set.

    Identity on C. Raises UnsupportedRetractionError for set/exponent
    pairs with no closed form (see retraction_support).
    """
    support = retraction_support(cset, p)
    if support.mode is RetractionMode.UNSUPPORTED:
        raise UnsupportedRetractionError(support.reason)
    x = as_vector(x, dim=cset.dim)
    return retract_rows(cset, x[None, :], p)[0]


def bounding_box(cset) -> tuple[np.ndarray, np.ndarray] | None:
    """(lo, hi) copies of the smallest box holding a box or ball, or None
    for the unbounded sets."""
    if isinstance(cset, Box):
        return cset.lo.copy(), cset.hi.copy()
    if isinstance(cset, Ball):
        return np.full(cset.dim, -cset.radius), np.full(cset.dim, cset.radius)
    return None


_SAMPLE_CHUNK = 512
_MAX_CHUNKS = 10_000


def sample_budget() -> int:
    """The most points sample_in_set draws, and so keeps, in one call."""
    return _MAX_CHUNKS * _SAMPLE_CHUNK


def sample_in_set(cset, count: int, seed: int, bounds=None) -> np.ndarray:
    """Draw `count` seeded uniform points from the set, as rows.

    Points come from uniform draws over a bounding box, filtered by
    membership; an unbounded set needs a `bounds = (lo, hi)` box. Draws
    stop once `count` points are kept, so for a given seed the accepted
    sequence is a prefix of any longer request. A count over the budget of
    _MAX_CHUNKS chunks, or one the region cannot fill in it, is refused.
    """
    budget = sample_budget()
    count = check_integer(count, "count")
    if not 0 <= count <= budget:
        raise InvalidInputError(f"count must be between 0 and {budget}, got {count}")
    if bounds is None:
        bounds = bounding_box(cset)
        if bounds is None:
            raise InvalidInputError(
                "sampling an unbounded set requires an explicit bounds box")
        lo, hi = bounds
    else:
        lo = as_vector(bounds[0], dim=cset.dim, name="bounds lo")
        hi = as_vector(bounds[1], dim=cset.dim, name="bounds hi")
        if not np.all(lo <= hi):
            raise InvalidInputError("bounds box is empty")
    rng = np.random.default_rng(check_seed(seed))
    kept, have, drawn = [np.empty((0, lo.shape[0]))], 0, 0
    while have < count and drawn < budget:
        cand = rng.uniform(lo, hi, size=(_SAMPLE_CHUNK, lo.shape[0]))
        kept.append(cand[members_mask(cset, cand)])
        have += kept[-1].shape[0]
        drawn += _SAMPLE_CHUNK
    if have < count:
        raise InvalidInputError(
            f"sampling region barely intersects the set: kept {have} of"
            f" {count} points in {drawn} draws")
    return np.vstack(kept)[:count]


def verify_sunny(cset, x, p, ts) -> float:
    """Max deviation of the sunny property over the given ray parameters.

    For Q = retract and each t >= 0 checks Q(Qx + t*(x - Qx)) == Qx,
    returning the largest p-norm deviation. Exactly 0.0 for boxes.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise InvalidInputError("ts must be a nonempty 1-d collection")
    if not np.all(np.isfinite(ts)) or np.any(ts < 0.0):
        raise InvalidInputError("ray parameters must be finite and >= 0")
    qx = retract(cset, x, p)
    x = as_vector(x, dim=cset.dim)
    again = retract_rows(cset, qx + ts[:, None] * (x - qx), p)
    return float(np.max(norm_rows(again - qx, p)))


def verify_characterization(cset, x, p, sample_count: int, seed: int) -> float:
    """Worst value of <x - Qx, J(Qx - y)> over sampled y in C.

    The retraction characterization says this pairing is >= 0 for every
    y in C; a materially negative minimum is a counterexample. Samples
    are seeded; for boxes of dimension <= 10 all vertices are appended
    since extreme points are where violations would show.
    """
    sample_count = check_integer(sample_count, "sample_count")
    if sample_count < 1:
        raise InvalidInputError(f"sample_count must be >= 1, got {sample_count}")
    p = check_exponent(p)
    x0 = retract(cset, x, p)
    x = as_vector(x, dim=cset.dim)
    half = 1.0 + 2.0 * float(np.sqrt(np.sum((x - x0) ** 2)))
    # an unbounded set is sampled in a box around x and Qx
    bounds = (x0 - half, x0 + half) if bounding_box(cset) is None else None
    ys = sample_in_set(cset, sample_count, seed, bounds=bounds)
    if isinstance(cset, Box) and cset.dim <= 10:
        corners = np.array(list(itertools.product(*zip(cset.lo, cset.hi))))
        ys = np.vstack([ys, corners])
    funcs = duality_map_rows(x0 - ys, p)
    return float(np.min(funcs @ (x - x0)))

"""Fixed-point solver for VI(C, B) on (R^n, |.|_p).

The problem: find u in C with <Bu, j(v - u)> >= 0 for all v in C, where j
is the normalized duality map. With Q the sunny nonexpansive retraction
onto C, u solves the inequality iff u = Q(u - lam * Bu) for any lam > 0,
so the solver runs plain Picard iteration on G(x) = Q(x - lam * B x).

Step-size certification comes in two regimes, both driven by a
(u, v, mu) certificate:

  strict rule    needs v > u mu^2 + 5 mu; admissible lam in (0, bound)
                 additionally satisfying lam * mu^2 * (bound - lam) < 1,
                 where bound = (v - u mu^2 - 5 mu) / mu^2. Valid in any
                 lp space, but no consistent certificate reaches it (see
                 certificate_feasibility), so select_lambda never picks
                 it; strict_step_intervals is kept as the record of the
                 rule.
  hilbert rule   p = 2 only; admissible lam in (0, 2 (v - u mu^2) / mu^2),
                 the cocoercive-descent window of hilbert_step_interval,
                 with midpoint (v - u mu^2) / mu^2 as the automatic lam.

An explicit user lam is always accepted and marked uncertified.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (ConfigError, DivergenceError, EvaluationError,
                     InvalidInputError, ShapeError, UnsupportedRetractionError)
from .maps import (Certificate, Feasibility, Mapping, certificate_feasibility,
                   evaluate, has_black_box, rows_kernel)
from .sets import (ConvexSet, RetractionMode, retract, retraction_kernel,
                   retraction_support)
from .spaces import SpaceSpec, as_vector, norm_rows, p_norm


@dataclass(frozen=True, eq=False)
class Problem:
    """A variational inequality instance VI(C, B) in (R^n, |.|_p).

    Construction fails loudly if the set has no supported retraction at
    this exponent, so a Problem in hand is always solvable in principle.
    """

    space: SpaceSpec
    cset: ConvexSet
    mapping: Mapping
    cert: Certificate | None = None

    def __post_init__(self):
        if self.cset.dim != self.space.n:
            raise ShapeError(
                f"set dimension {self.cset.dim} does not match space"
                f" dimension {self.space.n}")
        if self.mapping.dim != self.space.n:
            raise ShapeError(
                f"mapping dimension {self.mapping.dim} does not match space"
                f" dimension {self.space.n}")
        support = retraction_support(self.cset, self.space.p)
        if support.mode is RetractionMode.UNSUPPORTED:
            raise UnsupportedRetractionError(support.reason)


class Certification(str, Enum):
    HILBERT = "hilbert"
    UNCERTIFIED = "uncertified"


class SolveStatus(str, Enum):
    CONVERGED = "converged"
    ITERATION_LIMIT = "iteration-limit"


@dataclass(eq=False)
class SolveReport:
    final_point: np.ndarray
    iterations: int
    final_residual: float
    lam: float
    certification: Certification
    status: SolveStatus
    contraction_factor_sq: float | None = None  # certifying rule's; None if uncertified
    trace: list = field(default_factory=list)


def _normal_square(x: float) -> float | None:
    """x * x, or None unless it is a finite normal float."""
    x2 = x * x
    return x2 if sys.float_info.min <= x2 < math.inf else None


def strict_step_intervals(cert: Certificate) -> list[tuple[float, float]]:
    """Open intervals of lam admissible under the strict (two-sided) rule.

    Empty unless mu^2 is a finite normal float and bound = (v - u mu^2 -
    5 mu) / mu^2 is positive and finite. The window (0, bound) meets the
    cap lam mu^2 (bound - lam) < 1, which splits it at h -+ sqrt(h^2 - s^2)
    once h = bound / 2 reaches s = 1 / mu: the small root as s^2 over the
    large, with no square formed, and the large as bound minus the small.
    Windows that round empty are dropped.
    """
    mu, mu2 = cert.mu, _normal_square(cert.mu)
    bound = 0.0 if mu2 is None else (cert.v - cert.u * mu2 - 5.0 * mu) / mu2
    if not 0.0 < bound < math.inf:
        return []
    half, s = bound / 2.0, 1.0 / mu
    if half < s:
        return [(0.0, bound)]
    small = s / (half + math.sqrt(half - s) * math.sqrt(half + s)) * s
    return [(a, b) for a, b in ((0.0, small), (bound - small, bound)) if a < b]


def hilbert_step_interval(cert: Certificate) -> tuple[float, float] | None:
    """Admissible open window (0, 2 (v - u mu^2) / mu^2) at p = 2, or None
    when v <= u mu^2, when mu^2 is not a finite normal float (the rule
    Halfspace applies to its normal) or when its end is not in (0, inf)."""
    mu2 = _normal_square(cert.mu)
    # (u mu) mu, as certificate_feasibility rounds it, not u mu2
    step = (0.0 if mu2 is None
            else (cert.v - cert.u * cert.mu * cert.mu) / mu2)
    return (0.0, 2.0 * step) if 0.0 < 2.0 * step < math.inf else None


def _check_step(lam) -> float:
    """lam as a float, refused unless positive and finite."""
    lam = float(lam)
    if not np.isfinite(lam) or lam <= 0.0:
        raise InvalidInputError(f"step size must be positive and finite, got {lam}")
    return lam


def hilbert_rule_factor(r: float = 1.0, gamma: float = 1.0, s: float = 1.0,
                        mu: float = 0.1) -> float:
    """Value of 1 - s mu^2 (2 (r - gamma mu^2) / mu^2 - s) for a
    gamma-cocoercive, r-strongly monotone, mu-Lipschitz mapping.

    This is the squared factor a Hilbert-space step rule would assign at
    step size s. At the defaults it is -0.97: negative, so no real
    contraction factor exists, which exhibits constants that satisfy a
    formally weaker hypothesis while leaving the certified regime empty.

    Evaluated in the expanded form 1 - 2 s (r - gamma mu^2) + s^2 mu^2,
    with gamma mu^2 as (gamma mu) mu and s^2 mu^2 as ((s s) mu) mu; the
    nested form rounds the default case to -0.97000...02 instead of the
    exact double -0.97.
    """
    r, gamma, s, mu = float(r), float(gamma), float(s), float(mu)
    for name, val in (("r", r), ("gamma", gamma), ("s", s), ("mu", mu)):
        if not np.isfinite(val):
            raise InvalidInputError(f"{name} must be finite, got {val}")
    return 1.0 - 2.0 * s * (r - gamma * mu * mu) + s * s * mu * mu


def hilbert_factor_sq(cert: Certificate, lam: float) -> float:
    """Empirical-rate proxy at p = 2: hilbert_rule_factor(v, u, lam, mu),
    clipped into [0, 1)."""
    q2 = hilbert_rule_factor(cert.v, cert.u, _check_step(lam), cert.mu)
    return min(max(q2, 0.0), math.nextafter(1.0, 0.0))


def select_lambda(problem: Problem, lam: float | None = None
                  ) -> tuple[float, Certification]:
    """Choose a step size, preferring certified ones.

    An explicit lam wins and is marked uncertified. Otherwise the
    certificate decides: inconsistent certificates are refused outright,
    and at p = 2 the step is the midpoint of hilbert_step_interval's
    window (no consistent certificate meets the strict rule). No window
    is a configuration error asking for an explicit step size.
    """
    if lam is not None:
        try:
            return _check_step(lam), Certification.UNCERTIFIED
        except InvalidInputError as exc:
            raise ConfigError(f"explicit {exc}") from exc
    if problem.cert is None:
        raise ConfigError(
            "no step size: supply lambda explicitly or attach a certificate")
    if certificate_feasibility(problem.cert).verdict is Feasibility.INCONSISTENT:
        raise ConfigError(
            "certificate is inconsistent (v > mu + u mu^2 is impossible for"
            " any mapping); refusing to auto-select a step size")
    if problem.space.p == 2.0:
        window = hilbert_step_interval(problem.cert)
        if window is not None:
            return window[1] / 2.0, Certification.HILBERT
    raise ConfigError(
        "certificate does not certify a step size for this space;"
        " supply lambda explicitly")


def check_stopping_rule(tol: float, max_iter: int) -> None:
    """Refuse a stopping rule picard_solve could not run."""
    if not tol > 0.0:
        raise InvalidInputError(f"tol must be positive, got {tol}")
    if tol == math.inf:
        raise InvalidInputError(f"tol must be finite, got {tol}")
    if max_iter < 1:
        raise InvalidInputError(f"max_iter must be >= 1, got {max_iter}")


def _block_size(n: int) -> int:
    """K, the most iterates per block over a Picard solve's first 8 K
    iterates: 16, and fewer above n = 256, where one norm call already
    spans 4096 entries and each advance past the stop is a costly matvec.
    Later blocks hold up to an eighth of the iterates done, and at most
    max(K, min(64, 4096 // n))."""
    return max(1, min(16, 4096 // n))


def picard_solve(problem: Problem, lam: float, x0, tol: float = 1e-10,
                 max_iter: int = 10 ** 6,
                 certification: Certification = Certification.UNCERTIFIED
                 ) -> SolveReport:
    """Iterate x <- Q(x - lam * Bx) until steps stall.

    x0 is retracted into C first, and every subsequent iterate is a
    retraction output, so the whole orbit lives in C. Stops when
    |x_{k+1} - x_k| <= tol * (1 + |x_k|), reporting the iteration-limit
    status (not an exception) when max_iter runs out first. A non-finite
    iterate or evaluator failure raises DivergenceError carrying the
    trace so far. Trace rows are (iteration, step_norm, residual).

    Arguments are validated once, up front, and the map and retraction
    kernels (maps.rows_kernel, sets.retraction_kernel) are bound once per
    solve. The loop advances blocks of 1, 2, 4, ... iterates, at most
    K = _block_size(n), over the first 8 K iterates, and after that
    blocks of at most an eighth of the iterates done and at most
    C = max(K, min(64, 4096 // n)). It advances a block into one buffer,
    then norms every step |x_j - x_{j+1}| and size |x_j| of the block in
    one norm_rows call and settles the stop tests and trace rows in
    order, as Python floats, before the next block. norm_rows reduces
    each row apart, in a one-row call's order, so every number, the
    trace and the final point have the bits of a loop that norms each
    iterate alone. An advance writes Bx, then x - lam * Bx, into the
    block's preallocated (C, n) rows through the kernels' and ufuncs'
    out= arguments, and retracts straight into the next buffer row; a
    box clamp has np.clip's bits.

    Divergence is tested on the images x - lam * Bx, which a non-finite
    Bx always makes non-finite; Bx only names the failure. An affine
    chain has no side effects, so its block is advanced in full and
    tested once, and the first non-finite image ends it. A map with a
    BlackBox (maps.has_black_box) is tested after every advance instead,
    so B is never evaluated past a failure. A failed block's rows before
    the failure are settled first: DivergenceError is raised only if none
    of them stops.

    A block may advance past the stop at iteration s: by at most
    min(s, K - 1) iterates for s < 8 K, and by at most min(s // 8, C) - 1
    after that, so by fewer than s / 8 + 1 and 64. They are dropped,
    though a black-box map sees the calls, which is why blocks start
    from one iterate and grow only with the iterates done.
    """
    lam = _check_step(lam)
    check_stopping_rule(tol, max_iter)
    if certification is Certification.HILBERT and problem.cert is None:
        raise InvalidInputError("hilbert certification needs a certificate")
    n, p = problem.space.n, problem.space.p
    evaluate_into = rows_kernel(problem.mapping)
    retract_into = retraction_kernel(problem.cset, p)
    # a 0-d lam, like the kernels' (1, n) offset and bounds, keeps (1, n)
    # rows on numpy's one-loop path. Kept: a float lam and (n,) operands
    # move `solve` p90 52.4 -> 60.4 ms (a float lam alone 52.4 -> 52.9)
    lam_0d = np.array(lam)
    # Kept: checking every map per advance moves `solve` p90 52.4 -> 67.4 ms
    per_advance = has_black_box(problem.mapping)
    block = _block_size(n)
    # past 8 K iterates a block holds an eighth of them, up to this cap
    cap = max(block, min(64, 4096 // n))
    xs = np.empty((cap + 1, n))    # x_j, then the block's new iterates
    pairs = np.empty((2 * cap, n))  # the block's steps, then its sizes
    bxs, images = np.empty((cap, n)), np.empty((cap, n))  # Bx, x - lam Bx
    finite = np.empty((cap, n), dtype=bool)
    # row views, made when a block first needs the row. Kept: slicing these
    # per advance moves `solve` p90 52.4 -> 54.8 ms
    rows, bx_rows, image_rows = [xs[:1]], [], []
    trace: list[tuple[int, float, float]] = []

    def non_finite(start, stop):
        """The failure (index, message, cause) of the first non-finite
        image in rows start to stop, or None."""
        if np.isfinite(images[start:stop], out=finite[start:stop]).all():
            return None
        i = start + int(np.argmin(finite[start:stop].all(axis=1)))
        return i, ("iterate became non-finite" if np.isfinite(bxs[i]).all()
                   else "mapping produced non-finite output"), None

    def advance_block(count):
        """Advance rows[0] count times; the failure (index, message,
        cause) of the first failed advance, or None."""
        for i in range(count):
            x, bx, image = rows[i], bx_rows[i], image_rows[i]
            try:
                evaluate_into(x, bx)
            except EvaluationError as exc:
                return i, str(exc), exc
            np.multiply(bx, lam_0d, out=image)
            np.subtract(x, image, out=image)
            if per_advance and (failure := non_finite(i, i + 1)):
                return failure
            retract_into(image, rows[i + 1])
        return None if per_advance else non_finite(0, count)

    # overflow in the loop is divergence, reported by the finiteness tests,
    # not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        xs[0] = retract(problem.cset, as_vector(x0, n, name="x0"), p)
        status = SolveStatus.ITERATION_LIMIT
        base, length = 0, 1   # iterates done, the index of xs[0]; block rows
        while True:
            count = min(length, max_iter + 1 - base)
            for j in range(len(bx_rows), count):
                rows.append(xs[j + 1:j + 2])
                bx_rows.append(bxs[j:j + 1])
                image_rows.append(images[j:j + 1])
            failure = advance_block(count)
            if failure is not None:
                count = failure[0]
            np.subtract(xs[:count], xs[1:count + 1], out=pairs[:count])
            pairs[count:2 * count] = xs[:count]
            norms = norm_rows(pairs[:2 * count], p).tolist()
            # row k - base of the block: x_k, its step |x_k - x_{k+1}| and its
            # size |x_k|; iteration k tests the row before it
            for k, residual, size_k in zip(range(base, base + count), norms,
                                           norms[count:]):
                if k:
                    trace.append((k, step, residual))
                    if step <= tol * (1.0 + size):
                        status = SolveStatus.CONVERGED
                        break
                step, size = residual, size_k
            if status is SolveStatus.CONVERGED:
                break
            if failure is not None:
                raise DivergenceError(failure[1], trace=trace) from failure[2]
            if base + count > max_iter:
                break
            base += count
            xs[0] = xs[count]
            length = (min(2 * length, block) if base < 8 * block
                      else min(base // 8, cap))
    factor = (hilbert_factor_sq(problem.cert, lam)
              if certification is Certification.HILBERT else None)
    return SolveReport(final_point=xs[k - base].copy(), iterations=len(trace),
                       final_residual=residual, lam=lam,
                       certification=certification, status=status,
                       contraction_factor_sq=factor, trace=trace)


def vi_residual(problem: Problem, x, lam: float) -> float:
    """Fixed-point residual |x - Q(x - lam * Bx)|_p; zero exactly at solutions."""
    lam = _check_step(lam)
    x = as_vector(x, dim=problem.space.n)
    p = problem.space.p
    image = x - lam * evaluate(problem.mapping, x)
    return p_norm(x - retract(problem.cset, image, p), p)


def solve(problem: Problem, x0, lam: float | None = None, tol: float = 1e-10,
          max_iter: int = 10 ** 6) -> SolveReport:
    """select_lambda followed by picard_solve, as one call."""
    chosen, certification = select_lambda(problem, lam)
    return picard_solve(problem, chosen, x0, tol=tol, max_iter=max_iter,
                        certification=certification)

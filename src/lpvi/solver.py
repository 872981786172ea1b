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
                 it; its intervals and factor are kept as the record of
                 the rule.
  hilbert rule   p = 2 only; admissible lam in (0, 2 (v - u mu^2) / mu^2),
                 the classical cocoercive-descent window, with midpoint
                 lam = (v - u mu^2) / mu^2 as the automatic choice.

An explicit user lam is always accepted and marked uncertified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (ConfigError, DivergenceError, EvaluationError,
                     InvalidInputError, ShapeError, UnsupportedRetractionError)
from .maps import (Certificate, Feasibility, Mapping, certificate_feasibility,
                   evaluate, evaluate_rows_unchecked)
from .sets import (ConvexSet, RetractionMode, retract, retract_rows,
                   retraction_support, set_dim)
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
        if set_dim(self.cset) != self.space.n:
            raise ShapeError(
                f"set dimension {set_dim(self.cset)} does not match space"
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


def strict_step_intervals(cert: Certificate) -> list[tuple[float, float]]:
    """Open intervals of lam admissible under the strict (two-sided) rule.

    Empty when v <= u mu^2 + 5 mu. Otherwise the base window is
    (0, bound) with bound = (v - u mu^2 - 5 mu) / mu^2, intersected with
    lam mu^2 (bound - lam) < 1. That quadratic cap only bites when its
    peak mu^2 bound^2 / 4 reaches 1, in which case the window splits at
    the roots of lam^2 - bound lam + 1/mu^2.
    """
    u, v, mu = cert.u, cert.v, cert.mu
    mu2 = mu * mu
    bound = (v - u * mu2 - 5.0 * mu) / mu2
    if bound <= 0.0:
        return []
    disc = bound * bound - 4.0 / mu2
    if disc < 0.0:
        return [(0.0, bound)]
    root = math.sqrt(disc)
    return [(0.0, (bound - root) / 2.0), ((bound + root) / 2.0, bound)]


def hilbert_step_interval(cert: Certificate) -> tuple[float, float] | None:
    """Admissible open window (0, 2 (v - u mu^2) / mu^2) at p = 2, or None."""
    excess = cert.v - cert.u * cert.mu * cert.mu
    if excess <= 0.0:
        return None
    return (0.0, 2.0 * excess / (cert.mu * cert.mu))


def contraction_factor_sq(cert: Certificate, lam: float) -> float:
    """Squared contraction factor 1 - lam (v - u mu^2 - 5 mu) + lam^2 mu^2.

    This is the expanded form of 1 - lam mu^2 (bound - lam) with bound as
    in strict_step_intervals; values below 1 certify geometric decay of
    the strict rule. Can exceed 1 (no certification) or go negative
    (hypotheses empty at those constants; see the oracle module's
    hilbert_rule_factor for the classical example).
    """
    lam = float(lam)
    if not np.isfinite(lam) or lam <= 0.0:
        raise InvalidInputError(f"step size must be positive and finite, got {lam}")
    u, v, mu = cert.u, cert.v, cert.mu
    return 1.0 - lam * (v - u * mu * mu - 5.0 * mu) + lam * lam * mu * mu


def hilbert_factor_sq(cert: Certificate, lam: float) -> float:
    """Empirical-rate proxy at p = 2: 1 - 2 lam (v - u mu^2) + lam^2 mu^2,
    clipped into [0, 1)."""
    lam = float(lam)
    if not np.isfinite(lam) or lam <= 0.0:
        raise InvalidInputError(f"step size must be positive and finite, got {lam}")
    u, v, mu = cert.u, cert.v, cert.mu
    q2 = 1.0 - 2.0 * lam * (v - u * mu * mu) + lam * lam * mu * mu
    return min(max(q2, 0.0), math.nextafter(1.0, 0.0))


def select_lambda(problem: Problem, lam: float | None = None
                  ) -> tuple[float, Certification]:
    """Choose a step size, preferring certified ones.

    An explicit lam wins and is marked uncertified. Otherwise the
    certificate decides: inconsistent certificates are refused outright,
    and the Hilbert rule applies when p = 2 (no consistent certificate
    meets the strict rule). No applicable rule is a configuration error
    asking for an explicit step size.
    """
    if lam is not None:
        lam = float(lam)
        if not np.isfinite(lam) or lam <= 0.0:
            raise ConfigError(f"explicit step size must be positive, got {lam}")
        return lam, Certification.UNCERTIFIED
    if problem.cert is None:
        raise ConfigError(
            "no step size: supply lambda explicitly or attach a certificate")
    report = certificate_feasibility(problem.cert)
    if report.verdict is Feasibility.INCONSISTENT:
        raise ConfigError(
            "certificate is inconsistent (v > mu + u mu^2 is impossible for"
            " any mapping); refusing to auto-select a step size")
    if problem.space.p == 2.0:
        window = hilbert_step_interval(problem.cert)
        if window is not None:
            c = problem.cert
            return (c.v - c.u * c.mu * c.mu) / (c.mu * c.mu), Certification.HILBERT
    raise ConfigError(
        "certificate does not certify a step size for this space;"
        " supply lambda explicitly")


def check_stopping_rule(tol: float, max_iter: int) -> None:
    """Refuse a stopping rule picard_solve could not run."""
    if not tol > 0.0:
        raise InvalidInputError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise InvalidInputError(f"max_iter must be >= 1, got {max_iter}")


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

    Arguments are validated once, up front; the loop runs the row kernels
    on one-row arrays. Each iteration makes one norm_rows call, on a
    two-row buffer: |x_{k+1} - G(x_{k+1})|, the residual and bitwise the
    next step, and |x_{k+1}|, the next stop test's size. norm_rows reduces
    rows apart (one reduce call for n >= 2, an exact column fold of the
    moduli at n = 1), so both keep the bits of one-row calls. It makes one
    finiteness check, on x - lam * Bx, which a non-finite Bx always makes
    non-finite; Bx is looked at only to name the failure.
    """
    lam = float(lam)
    if not np.isfinite(lam) or lam <= 0.0:
        raise InvalidInputError(f"step size must be positive and finite, got {lam}")
    check_stopping_rule(tol, max_iter)
    if certification is Certification.HILBERT and problem.cert is None:
        raise InvalidInputError("hilbert certification needs a certificate")
    p, cset, mapping = problem.space.p, problem.cset, problem.mapping
    trace: list[tuple[int, float, float]] = []
    pair = np.empty((2, problem.space.n))

    def advance(xs):
        try:
            bx = evaluate_rows_unchecked(mapping, xs)
        except EvaluationError as exc:
            raise DivergenceError(str(exc), trace=trace) from exc
        image = xs - lam * bx
        if not np.isfinite(image).all():
            raise DivergenceError(
                "iterate became non-finite" if np.isfinite(bx).all()
                else "mapping produced non-finite output", trace=trace)
        return retract_rows(cset, image, p)

    def norms(a, b):
        """|a - b| and |a| of two one-row arrays, in one norm_rows call."""
        np.subtract(a[0], b[0], out=pair[0])
        pair[1] = a[0]
        return norm_rows(pair, p).tolist()

    # overflow in the loop is divergence, reported by advance, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        x = retract(cset, as_vector(x0, problem.space.n, name="x0"), p)[None, :]
        nxt = advance(x)
        step, size = norms(x, nxt)
        for k in range(1, max_iter + 1):
            after = advance(nxt)
            residual, next_size = norms(nxt, after)
            trace.append((k, step, residual))
            stop = step <= tol * (1.0 + size)
            x, nxt, step, size = nxt, after, residual, next_size
            if stop:
                break
    status = SolveStatus.CONVERGED if stop else SolveStatus.ITERATION_LIMIT
    factor = (hilbert_factor_sq(problem.cert, lam)
              if certification is Certification.HILBERT else None)
    return SolveReport(final_point=x[0], iterations=len(trace),
                       final_residual=residual, lam=lam,
                       certification=certification, status=status,
                       contraction_factor_sq=factor, trace=trace)


def vi_residual(problem: Problem, x, lam: float) -> float:
    """Fixed-point residual |x - Q(x - lam * Bx)|_p; zero exactly at solutions."""
    lam = float(lam)
    if not np.isfinite(lam) or lam <= 0.0:
        raise InvalidInputError(f"step size must be positive and finite, got {lam}")
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

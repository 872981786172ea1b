"""Mappings B : R^n -> R^n and sampling-based certificate checks.

A mapping enters the solver through a monotonicity certificate (u, v, mu):
relaxed (u, v)-cocoercivity

    <Bx - By, j(x - y)> >= -u |Bx - By|^2 + v |x - y|^2

together with mu-Lipschitz continuity. Certificates are claims supplied by
the caller. draw_pairs draws seeded pairs once and forms |x - y|_p,
|Bx - By|_p and <Bx - By, j(x - y)>; estimate_lipschitz and the check_*
probes are arithmetic over that one sample and report the worst ratio or
slack found. A sampling check can falsify a claim, never prove it, which
is why the verdict vocabulary is "no violation found", not "holds".

Evaluation has one kernel per kind of map, bound once by
rows_kernel(mapping): a loop calls the function it returns, with no
dispatch per call. evaluate_rows applies it once and adds the finiteness
check, and evaluate adds the validation of its vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import EstimationError, EvaluationError, InvalidInputError, ShapeError
from .sets import bounding_box, sample_budget, sample_in_set
from .spaces import (as_vector, check_dimension, check_exponent, check_integer,
                     duality_norm_rows, norm_rows, pairing_rows)


@dataclass(frozen=True, eq=False)
class Affine:
    """B(x) = matrix @ x + offset."""

    matrix: np.ndarray
    offset: np.ndarray | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeError(f"matrix must be square, got shape {m.shape}")
        check_dimension(m.shape[0])
        if not np.all(np.isfinite(m)):
            raise InvalidInputError("matrix contains non-finite entries")
        q = (np.zeros(m.shape[0]) if self.offset is None
             else as_vector(self.offset, dim=m.shape[0], name="offset"))
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "offset", q)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class ResidualOfContraction:
    """B = I - T for a declared alpha-contraction T.

    Solving VI(C, B) then finds the fixed point of T constrained to C;
    such a B is (1 - alpha)-strongly monotone and (1 + alpha)-Lipschitz.
    """

    inner: "Mapping"
    alpha: float

    def __post_init__(self):
        a = float(self.alpha)
        if not 0.0 <= a < 1.0:
            raise InvalidInputError(f"contraction constant must be in [0, 1), got {self.alpha}")
        object.__setattr__(self, "alpha", a)

    @property
    def dim(self) -> int:
        return self.inner.dim


@dataclass(frozen=True, eq=False)
class BlackBox:
    """B given only as a callable on vectors."""

    func: Callable[[np.ndarray], np.ndarray]
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "dim", check_dimension(self.dim))


Mapping = Affine | ResidualOfContraction | BlackBox


def evaluate(mapping, x) -> np.ndarray:
    """Evaluate B(x), guaranteeing a finite vector of the right dimension."""
    x = as_vector(x, dim=mapping.dim)
    return evaluate_rows(mapping, x[None, :])[0]


def evaluate_rows(mapping, xs: np.ndarray) -> np.ndarray:
    """Evaluate B on each row, guaranteeing finite output."""
    out = rows_kernel(mapping)(np.asarray(xs, dtype=float))
    if not np.isfinite(out).all():
        raise EvaluationError("mapping produced non-finite output")
    return out


def rows_kernel(mapping) -> Callable[..., np.ndarray]:
    """The function f(xs, out=None) that writes B of each row of a 2-d
    float array into out (a new array when out is None) and returns it,
    without checks: its output may be non-finite. The dispatch on the
    mapping's kind happens here, once, so a loop binds f before it starts.
    Vectorized for affine chains, a row loop for black boxes; a black box
    that raises or returns the wrong shape is an EvaluationError. It takes
    2-d blocks only: the affine offset is bound as a (1, n) row, which a
    1-d input does not broadcast against."""
    if isinstance(mapping, Affine):
        matrix_t, offset = mapping.matrix.T, mapping.offset[None, :]

        def affine(xs, out=None):
            out = np.matmul(xs, matrix_t, out=out)
            return np.add(out, offset, out=out)
        return affine
    if isinstance(mapping, ResidualOfContraction):
        inner = rows_kernel(mapping.inner)

        def residual(xs, out=None):
            # xs minus a non-finite value is non-finite, so a check of this
            # result covers the inner map too
            inner_out = inner(xs, out)
            return np.subtract(xs, inner_out, out=inner_out)
        return residual
    if isinstance(mapping, BlackBox):
        func = mapping.func

        def black_box(xs, out=None):
            if out is None:
                out = np.empty_like(xs)
            for i, row in enumerate(xs):
                try:
                    value = np.asarray(func(row), dtype=float)
                except Exception as exc:
                    raise EvaluationError(f"mapping evaluator raised: {exc}") from exc
                if value.shape != row.shape:
                    raise EvaluationError(
                        f"mapping returned shape {value.shape}, expected {row.shape}")
                out[i] = value
            return out
        return black_box
    raise InvalidInputError(f"unknown mapping type {type(mapping).__name__}")


def has_black_box(mapping) -> bool:
    """Whether evaluating the mapping calls a BlackBox, alone or inside a
    ResidualOfContraction. Its calls are observable and may fail, so a
    loop must not evaluate it past a failure; an affine chain has no such
    effects and may be evaluated ahead and checked afterwards."""
    while isinstance(mapping, ResidualOfContraction):
        mapping = mapping.inner
    return isinstance(mapping, BlackBox)


@dataclass(frozen=True, eq=False)
class PairSample:
    """The non-degenerate pairs of one seeded draw, with what the probes read."""

    xs: np.ndarray
    ys: np.ndarray
    seps: np.ndarray
    image_seps: np.ndarray
    pairings: np.ndarray
    degenerate_skipped: int


def draw_pairs(mapping, region, p, pairs: int, seed: int,
               bounds=None) -> PairSample:
    """Draw seeded pairs from the region (or `bounds`, which an unbounded one
    needs), drop those with |x - y|_p < 1e-12 and form the probes' inputs.
    Needs 1 <= pairs <= sample_budget() // 2: each pair takes two points."""
    p = check_exponent(p)
    most = sample_budget() // 2
    pairs = check_integer(pairs, "pairs")
    if not 1 <= pairs <= most:
        raise InvalidInputError(f"pairs must be between 1 and {most}, got {pairs}")
    if bounds is None and bounding_box(region) is None:
        raise EstimationError(
            "region is unbounded: supply a bounds box for sampling")
    pts = sample_in_set(region, 2 * pairs, seed, bounds=bounds)
    xs, ys = pts[0::2], pts[1::2]
    jd, seps = duality_norm_rows(xs - ys, p)
    valid = seps >= 1e-12
    if not np.any(valid):
        raise EstimationError("all sampled pairs were degenerate (x == y)")
    dbs = evaluate_rows(mapping, xs)[valid] - evaluate_rows(mapping, ys)[valid]
    return PairSample(xs[valid], ys[valid], seps[valid], norm_rows(dbs, p),
                      pairing_rows(dbs, jd[valid]), int(np.sum(~valid)))


@dataclass(frozen=True, eq=False)
class LipschitzEstimate:
    """Largest sampled difference-quotient of B; a lower bound on mu."""

    mu_hat: float
    witness_x: np.ndarray
    witness_y: np.ndarray


@dataclass(frozen=True, eq=False)
class SlackReport:
    """Worst sampled slack of a monotonicity inequality (negative = violation)."""

    worst_slack: float
    slacks: np.ndarray
    witness_x: np.ndarray
    witness_y: np.ndarray


def estimate_lipschitz(sample: PairSample) -> LipschitzEstimate:
    """The largest ratio |Bx - By|_p / |x - y|_p in the sample; monotone in
    the pairs drawn for a fixed seed, as a larger draw extends a smaller one."""
    ratios = sample.image_seps / sample.seps
    i = int(np.argmax(ratios))
    return LipschitzEstimate(
        mu_hat=float(ratios[i]),
        witness_x=sample.xs[i].copy(),
        witness_y=sample.ys[i].copy(),
    )


def _slack_report(slacks, sample: PairSample) -> SlackReport:
    i = int(np.argmin(slacks))
    return SlackReport(
        worst_slack=float(slacks[i]),
        slacks=slacks,
        witness_x=sample.xs[i].copy(),
        witness_y=sample.ys[i].copy(),
    )


def check_relaxed_cocoercive(sample: PairSample, u, v) -> SlackReport:
    """Probe relaxed (u, v)-cocoercivity on a sample.

    Per-pair slack: <Bx - By, j(x - y)> + u |Bx - By|^2 - v |x - y|^2.
    A clearly negative worst slack falsifies the claim at the witness pair.
    """
    u, v = float(u), float(v)
    if not (0.0 < u < np.inf and 0.0 < v < np.inf):
        raise InvalidInputError(
            "cocoercivity constants u, v must be positive and finite")
    slacks = (sample.pairings
              + u * sample.image_seps ** 2
              - v * sample.seps ** 2)
    return _slack_report(slacks, sample)


def check_strongly_monotone(sample: PairSample, v) -> SlackReport:
    """Probe v-strong monotonicity: <Bx - By, j(x - y)> >= v |x - y|^2."""
    v = float(v)
    if not 0.0 < v < np.inf:
        raise InvalidInputError(
            "strong monotonicity constant v must be positive and finite")
    slacks = sample.pairings - v * sample.seps ** 2
    return _slack_report(slacks, sample)


@dataclass(frozen=True)
class Certificate:
    """Claimed constants: relaxed (u, v)-cocoercive and mu-Lipschitz."""

    u: float
    v: float
    mu: float

    def __post_init__(self):
        for name in ("u", "v", "mu"):
            val = float(getattr(self, name))
            if not np.isfinite(val) or val <= 0.0:
                raise InvalidInputError(
                    f"certificate constant {name} must be positive and finite,"
                    f" got {getattr(self, name)}")
            object.__setattr__(self, name, val)


class Feasibility(str, Enum):
    STRICT = "strict"
    HILBERT_ONLY = "hilbert-only"
    UNCERTIFIED = "uncertified"
    INCONSISTENT = "inconsistent"


@dataclass(frozen=True)
class FeasibilityReport:
    verdict: Feasibility


def certificate_feasibility(cert: Certificate) -> FeasibilityReport:
    """Classify a certificate by which step-size regime it can certify.

    strict condition:   v > u mu^2 + 5 mu   (two-sided step rule)
    consistency bound:  v <= mu + u mu^2

    The consistency bound is forced by the definitions: applying the
    cocoercivity inequality and the Lipschitz bound to any pair x != y
    gives v |x-y|^2 <= mu |x-y|^2 + u mu^2 |x-y|^2. A certificate above
    that line claims constants no mapping can realize. Together the two
    conditions would force 5 mu < mu, impossible for mu > 0, so the
    strict verdict can never coexist with a consistent certificate. That
    holds in floating point too: rounding is monotone, so
    v > fl(u mu^2 + 5 mu) >= fl(u mu^2 + mu) makes v inconsistent.
    """
    u, v, mu = cert.u, cert.v, cert.mu
    if not v <= mu + u * mu * mu:
        return FeasibilityReport(Feasibility.INCONSISTENT)
    if v > u * mu * mu:
        return FeasibilityReport(Feasibility.HILBERT_ONLY)
    return FeasibilityReport(Feasibility.UNCERTIFIED)

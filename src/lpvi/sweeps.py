"""Seeded verification sweeps over the duality map and the retractions.

These back the `verify` CLI suites and double as the acceptance probes.
Each sweep returns worst-case margins, normalized where a single
tolerance should cover all magnitudes; callers compare against their
thresholds and can replay any failure from the seed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .sets import (Ball, Box, Halfspace, retract, retract_rows, sample_in_set,
                   verify_characterization, verify_sunny)
from .spaces import (check_dimension, check_exponent, check_integer,
                     check_seed, dual_exponent, duality_map_rows,
                     duality_norm_rows, norm_rows, pairing_rows, row_blocks)


def _worst(pick, worst: float, value) -> float:
    """pick(worst, value) for pick max or min, but NaN once either is
    NaN: Python's max(0.0, nan) is 0.0 and min(inf, nan) is inf, which
    would print a failed check as a pass."""
    value = float(value)
    return math.nan if math.isnan(worst) or math.isnan(value) \
        else pick(worst, value)


@dataclass(eq=False)
class DualityReport:
    worst_identity: float      # |<x, Jx> - |x|^2| / (1 + |x|^2)
    worst_norm: float          # ||Jx|_q - |x|_p| / (1 + |x|_p)
    worst_homogeneity: float   # |J(t x) - t Jx|_q / (1 + t |x|_p)
    worst_attainment: float    # |<Jx/|x|, x> - |x|_p| / (1 + |x|_p)
    worst_bound_excess: float  # max over unit f of (<f, x> - |x|_p) / (1 + |x|_p)
    worst_hilbert: float | None  # max |Jx - x| entrywise at p = 2


def _nonempty(values, name: str) -> list:
    """values as a list, refused when empty: a sweep over no sample would
    report its starting figures, which read as a pass."""
    values = list(values)
    if not values:
        raise InvalidInputError(f"{name} must not be empty")
    return values


def _sample_vectors(rng, count: int, n: int) -> np.ndarray:
    xs = rng.uniform(-10.0, 10.0, size=(count, n))
    xs *= 10.0 ** rng.uniform(-2.0, 2.0, size=(count, 1))
    xs[0] = 0.0  # always include the origin; J(0) = 0 is part of the contract
    return xs


def duality_sweep(p_values, n_values, count: int, seed: int) -> DualityReport:
    """Check the duality map's defining identities on seeded vectors.

    For each (p, n) draws `count` vectors across several magnitudes and
    checks pairing identity, norm identity, positive homogeneity, the
    Hoelder upper bound against random unit functionals, and that
    J x / |x| attains it. At p = 2 additionally checks J == identity.
    The first vector is pinned at the origin, where the Hoelder and
    attainment checks have nothing to sample, so `count` must be >= 2.
    Every input is checked, and an empty list refused, before the first draw.
    """
    p_values = [check_exponent(p) for p in _nonempty(p_values, "p_values")]
    n_values = [check_dimension(n, "n")
                for n in _nonempty(n_values, "n_values")]
    count = check_integer(count, "count")
    if count < 2:
        raise InvalidInputError(
            f"need count >= 2 (one vector is pinned at the origin),"
            f" got count = {count}")
    rng = np.random.default_rng(check_seed(seed))
    report = DualityReport(0.0, 0.0, 0.0, 0.0, -np.inf, None)
    for p in p_values:
        q = dual_exponent(p)
        for n in n_values:
            xs = _sample_vectors(rng, count, n)
            js, nx = duality_norm_rows(xs, p)
            nj = norm_rows(js, q)
            pairings = pairing_rows(js, xs)
            report.worst_identity = _worst(
                max, report.worst_identity,
                np.max(np.abs(pairings - nx ** 2) / (1.0 + nx ** 2)))
            report.worst_norm = _worst(
                max, report.worst_norm, np.max(np.abs(nj - nx) / (1.0 + nx)))
            ts = rng.uniform(0.0, 4.0, size=count)
            ts[0] = 0.0
            scaled = duality_map_rows(ts[:, None] * xs, p)
            report.worst_homogeneity = _worst(
                max, report.worst_homogeneity,
                np.max(norm_rows(scaled - ts[:, None] * js, q)
                       / (1.0 + ts * nx)))
            if p == 2.0:
                report.worst_hilbert = _worst(
                    max, report.worst_hilbert or 0.0, np.max(np.abs(js - xs)))
            # Hoelder bound <f, x> <= |f|_q |x|_p, spot-checked on random
            # unit functionals, with equality attained by Jx / |x|_p
            nonzero = nx > 0.0
            probe = xs[nonzero][:16]
            if probe.shape[0]:
                pn = nx[nonzero][:16]
                fs = rng.standard_normal(size=(64, probe.shape[1]))
                fs /= norm_rows(fs, q)[:, None]
                vals = fs @ probe.T  # (functionals, probe points)
                report.worst_bound_excess = _worst(
                    max, report.worst_bound_excess,
                    np.max((vals - pn[None, :]) / (1.0 + pn[None, :])))
                # the kernel maps each row of a C-order array on its own,
                # so these are the probe rows' maps
                jprobe = js[nonzero][:16] / pn[:, None]
                attained = pairing_rows(jprobe, probe)
                report.worst_attainment = _worst(
                    max, report.worst_attainment,
                    np.max(np.abs(attained - pn) / (1.0 + pn)))
    return report


@dataclass(eq=False)
class RetractionReport:
    max_box_sunny_dev: float          # must be exactly 0.0
    max_hilbert_sunny_dev: float      # ball/halfspace at p = 2
    max_idempotence_dev: float
    max_identity_dev: float           # retract must fix points of C
    max_nonexpansive_excess: float    # |Qx - Qy| - |x - y|, positive part
    min_characterization: float       # normalized by 1 + |x|_p^2
    min_projection_inequality: float  # p = 2: <x-y, Qx-Qy> - |Qx-Qy|^2


# retraction_suite's box dimensions; its balls and halfspaces are no wider
RETRACTION_DIMS = (2, 3, 7)


def _random_box(rng, n: int) -> Box:
    lo = rng.uniform(-3.0, 0.0, size=n)
    return Box(lo, lo + rng.uniform(0.5, 3.0, size=n))


def retraction_suite(p_values=(1.5, 2.0, 3.0), pairs: int = 10_000,
                     characterization_samples: int = 500, seed: int = 0,
                     ts=(0.0, 0.5, 1.0, 2.0)) -> RetractionReport:
    """Exercise the retractions on seeded boxes (every p) plus balls and
    halfspaces (p = 2): sunny property, idempotence, identity on C,
    nonexpansiveness on `pairs` point pairs, the characterization
    pairing, and at p = 2 the projection inequality. Every p is checked,
    and an empty p_values (no box) refused, before the first draw.

    Each set's point pairs are drawn whole, in one seeded stream; the
    nonexpansiveness and projection chains then run one block of about
    2^15 entries at a time (spaces.row_blocks), folded into the report
    with NaN kept. Every kernel in them is row-local and max and min are
    exact, so each figure has the bits of one pass over all the pairs."""
    p_values = [check_exponent(p) for p in _nonempty(p_values, "p_values")]
    pairs = check_integer(pairs, "pairs")
    if pairs < 1:
        raise InvalidInputError(f"pairs must be >= 1, got {pairs}")
    rng = np.random.default_rng(check_seed(seed))
    rep = RetractionReport(0.0, 0.0, 0.0, 0.0, -np.inf, np.inf, np.inf)

    def common_checks(cset, p):
        n = cset.dim
        xs = rng.uniform(-6.0, 6.0, size=(pairs, n))
        ys = rng.uniform(-6.0, 6.0, size=(pairs, n))
        qx = retract_rows(cset, xs[:64], p)
        qqx = retract_rows(cset, qx, p)
        rep.max_idempotence_dev = _worst(
            max, rep.max_idempotence_dev, np.max(np.abs(qqx - qx)))
        # centred on the point of C nearest the origin, the box always
        # keeps half its volume inside a halfspace
        centre = retract(cset, np.zeros(n), p)
        members = sample_in_set(cset, 64, seed + 1,
                                bounds=((centre - 6.0, centre + 6.0)
                                        if isinstance(cset, Halfspace) else None))
        fixed = retract_rows(cset, members, p)
        rep.max_identity_dev = _worst(
            max, rep.max_identity_dev, np.max(np.abs(fixed - members)))
        probe = xs[0]
        rep_char = verify_characterization(cset, probe, p,
                                           characterization_samples, seed + 2)
        scale = 1.0 + norm_rows(probe[None, :], p)[0] ** 2
        rep.min_characterization = _worst(min, rep.min_characterization,
                                          rep_char / scale)
        dev = verify_sunny(cset, probe, p, ts)
        if isinstance(cset, Box):
            rep.max_box_sunny_dev = _worst(max, rep.max_box_sunny_dev, dev)
        else:
            rep.max_hilbert_sunny_dev = _worst(max, rep.max_hilbert_sunny_dev,
                                               dev)
        for b in row_blocks(pairs, n):
            dq = retract_rows(cset, xs[b], p)
            dq -= retract_rows(cset, ys[b], p)
            dx = xs[b] - ys[b]
            nq, nd = norm_rows(dq, p), norm_rows(dx, p)
            rep.max_nonexpansive_excess = _worst(
                max, rep.max_nonexpansive_excess, np.max(nq - nd))
            if p == 2.0:
                gap = pairing_rows(dx, dq) - nq ** 2
                rep.min_projection_inequality = _worst(
                    min, rep.min_projection_inequality,
                    np.min(gap / (1.0 + nd ** 2)))

    for p in p_values:
        for n in RETRACTION_DIMS:
            common_checks(_random_box(rng, n), p)
    for n in (2, 5):
        common_checks(Ball(n, float(rng.uniform(0.5, 3.0))), 2.0)
        normal = rng.standard_normal(n)
        common_checks(Halfspace(normal, float(rng.uniform(-1.0, 1.0))), 2.0)
    return rep

"""Finite-dimensional lp spaces: norms, duality pairing, duality mapping.

The ambient space is E = (R^n, |.|_p) with 1 < p < inf. These spaces are
uniformly smooth and uniformly convex, so the normalized duality mapping
J : E -> E* (the functionals f with <x, f> = |x|^2 = |f|^2) is single
valued and has the closed form

    J(x)_i = |x|_p^(2-p) * |x_i|^(p-1) * sign(x_i),      J(0) = 0,

with values measured in the dual norm |.|_q, 1/p + 1/q = 1. At p = 2 the
formula collapses to the identity, which is how Hilbert-space results are
recovered throughout the package. In floating point the formula, which
rescales each row by a power of two, turns -0.0 into +0.0 at p = 2 and
rounds entries below about 2^-1022 times their row max (to 0.0 below
about 2^-1074 times it): J([1e300, 1e-300]) = [1e300, 0.0]. The kernel
looks for such entries once per block of rows; a finite block with none
maps to x + 0.0, the same bits with no norms or powers, and any other
block takes the formula.

Since <x, J(x)> = |x|^2, every J(x) already holds |x|_p: duality_norm_rows
returns J(x) and |x|_p of each row from one pass over |x|, one row max and
one p-th-power row sum, so a caller that needs both never norms its rows
again. duality_map_rows is its J half.

Functionals are represented as plain vectors of coefficients; pairing(f, x)
is the Euclidean dot product of the coefficient vectors.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ShapeError, UnsupportedSpaceError


def check_exponent(p) -> float:
    """Validate a space exponent, returning it as a float. Needs 1 < p < inf."""
    if isinstance(p, bool) or not isinstance(p, numbers.Real):
        raise UnsupportedSpaceError(f"exponent must be a real number, got {p!r}")
    p = float(p)
    if math.isnan(p) or not 1.0 < p < math.inf:
        raise UnsupportedSpaceError(f"exponent must satisfy 1 < p < inf, got {p}")
    return p


def as_vector(x, dim: int | None = None, name: str = "x") -> np.ndarray:
    """Coerce x to a finite 1-d float array, optionally checking its length."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    if arr.size == 0:
        raise ShapeError(f"{name} must have positive dimension")
    if dim is not None and arr.shape[0] != dim:
        raise ShapeError(f"{name} has dimension {arr.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def check_integer(n, name: str) -> int:
    """Validate an integer (numpy's too, not bool), returning it as an int."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise InvalidInputError(f"{name} must be an integer, got {n!r}")
    return int(n)


def check_dimension(n, name: str = "dimension") -> int:
    """Validate a dimension or other count, returning it as an int. Needs
    an integer (check_integer) n >= 1."""
    n = check_integer(n, name)
    if n < 1:
        raise InvalidInputError(f"{name} must be positive, got {n}")
    return n


def check_seed(seed, name: str = "seed") -> int:
    """Validate a seed for numpy's generators, returning it as an int.
    Needs an integer (check_integer) seed >= 0."""
    seed = check_integer(seed, name)
    if seed < 0:
        raise InvalidInputError(f"{name} must be a nonnegative integer, got {seed}")
    return seed


@dataclass(frozen=True)
class SpaceSpec:
    """The space (R^n, |.|_p)."""

    n: int
    p: float

    def __post_init__(self):
        object.__setattr__(self, "n", check_dimension(self.n))
        object.__setattr__(self, "p", check_exponent(self.p))


def dual_exponent(p) -> float:
    """Conjugate exponent q with 1/p + 1/q = 1."""
    p = check_exponent(p)
    return p / (p - 1.0)


# This module alone decides how a block of rows is laid out. The moduli and
# J buffers of rows narrower than 8 entries are worked in F order, where
# numpy reduces and broadcasts a column at a time, not a short row at a
# time. The width is not tuned: below 8 entries numpy sums a row in the same
# order in either layout, and from 8 up its pairwise sum takes another order
# in F order, so wider rows stay in C order and every input layout gets C's
# bits. Kept: C order at every width cut the benchmark's `verify` ops/s
# 54.2 -> 40.4 and `oracle` 544 -> 487. The row max alone, exact in any
# order, reads a block with more rows than columns from an F-order copy at
# every width. Kept: the C reduce there cut `verify` 57.5 -> 54.6, in 8 of
# 10 pairs. J comes back C-contiguous.
def _order(a: np.ndarray) -> str:
    return "F" if a.shape[1] < 8 else "C"


def _row_max(mags: np.ndarray) -> np.ndarray:
    """np.maximum.reduce(mags, axis=1) for a block of moduli, with its
    bits, from an F-order copy on a tall block (see _order)."""
    if mags.shape[0] > mags.shape[1]:
        mags = np.asfortranarray(mags)
    return np.maximum.reduce(mags, axis=1)


# row_blocks cuts an array into row blocks of about this many entries, so
# each step of a row kernel chain writes a buffer the allocator reuses
# instead of a large fresh array whose pages fault in on first touch
_ROW_BLOCK_ELEMS = 1 << 15


def row_blocks(rows: int, width: int) -> list[slice]:
    """Slices covering rows 0 .. rows - 1 of a (rows, width) array in
    order, each block holding about 2^15 entries (at least one row). The
    row kernels reduce each row on its own, so a chain of them run block
    by block gives the bits of one call over all the rows."""
    step = max(1, _ROW_BLOCK_ELEMS // max(width, 1))
    return [slice(start, start + step) for start in range(0, rows, step)]


def _power_sums(mags: np.ndarray, m: np.ndarray, p: float) -> np.ndarray:
    """sum_i (mags_i / m)^p for each row of the moduli `mags`, m their row
    max. Works in place: `mags` ends up holding the powers, and m is 1 on
    zero and infinite rows."""
    # zero and infinite rows go unscaled: their sums are 0 and inf as they
    # stand, while inf / inf would be NaN (a NaN row keeps its NaN max)
    m[(m == 0.0) | (m == math.inf)] = 1.0
    # `**=` keeps numpy's array power, whose last bits a Python-scalar
    # power would not reproduce
    mags /= m[:, None]
    mags **= p
    return np.add.reduce(mags, axis=1)


def _moduli_norms(mags: np.ndarray, p: float) -> np.ndarray:
    """norm_rows of the rows whose moduli are `mags`, which it overwrites."""
    m = _row_max(mags)
    s = _power_sums(mags, m, p)
    s **= 1.0 / p
    s *= m  # m is 1 on zero rows, whose sums are 0
    return s


def norm_rows(xs: np.ndarray, p: float) -> np.ndarray:
    """p-norm of each row of a 2-d array. Rows are scaled by their max
    modulus before exponentiation so large entries do not overflow. A row
    with a NaN has a NaN norm, and any other row with an infinite entry
    has norm inf."""
    xs = np.asarray(xs, dtype=float)
    return _moduli_norms(np.abs(xs, order=_order(xs)), p)


def p_norm(x, p) -> float:
    """|x|_p = (sum_i |x_i|^p)^(1/p)."""
    x = as_vector(x)
    p = check_exponent(p)
    return float(norm_rows(x[None, :], p)[0])


def pairing(f, x) -> float:
    """sum_i f_i x_i, with the bits of pairing_rows on one row."""
    f = as_vector(f, name="f")
    x = as_vector(x, dim=f.shape[0])
    return float(pairing_rows(f[None, :], x[None, :])[0])


def pairing_rows(fs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Row-wise pairing of two equally shaped 2-d arrays. The products are
    summed in C's order whatever the layout of the inputs."""
    fs, xs = np.asarray(fs, float), np.asarray(xs, float)
    return np.add.reduce(np.multiply(fs, xs, order=_order(xs)), axis=1)


def _exact_at_two(mags: np.ndarray) -> bool:
    """Whether every row of a block of moduli `mags` comes through the
    p = 2 formula's power-of-two rescaling exactly: the largest modulus,
    below 2^E (frexp), is finite and no nonzero one is below 2^(E - 1022),
    a floor that underflows to 0.0 when no rescaling can round."""
    top = float(mags.max()) if mags.size else math.nan
    floor = math.ldexp(1.0, math.frexp(top)[1] - 1022)
    return top < math.inf and not ((mags < floor) & (mags > 0.0)).any()


def _duality_rows(xs: np.ndarray, p: float, with_norms: bool):
    """J(x) and |x|_p of each row of a 2-d array, in one pass over |x|.
    The Hilbert case skips the norms (None) unless `with_norms` is set."""
    xs = np.asarray(xs, dtype=float)
    mags = np.abs(xs, order=_order(xs))
    if p == 2.0 and _exact_at_two(mags):
        # Hilbert case, J = I; `+ 0.0` turns -0.0 into +0.0 as the formula
        # does. Kept: the formula here cuts `oracle` ops/s 600 -> 398
        js = np.add(xs, 0.0, order="C")
        return js, (_moduli_norms(mags, p) if with_norms else None)
    m = _row_max(mags)
    zero = m == 0.0
    # J is homogeneous of degree 1, so each row is rescaled by an exact
    # power of two first; |x_i|^(p-1) and |x|^(2-p) can over/underflow
    # separately at extreme magnitudes even though J(x) is representable.
    # frac = m / 2^e is the rescaled row's max, exactly
    frac, e = np.frexp(m)
    e = np.where(m > 0.0, e, 0)
    scaled = np.ldexp(xs, -e[:, None], order=_order(xs))
    # one p-th-power row sum r^p serves both norms and the rescue below:
    # |x| = r m, and the rescaled row's norm is r frac. It is the sum the
    # rescaled row would give, bit for bit: |s_i| / frac equals |x_i| / m
    # for every entry the rescaling does not round, and a rounded entry is
    # below 2^-1021 of its row max, so its p-th power cannot move a sum >= 1
    sums = _power_sums(mags, m, p)
    r = sums ** (1.0 / p)
    norms = r * m  # m is 1 on zero rows, whose sums are 0
    scaled_norms = r * frac
    # 0 ** (2 - p) is inf for p > 2; zero rows keep the factor 1. J is
    # built in the buffer of the spent powers
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        factor = np.where(zero, 1.0, scaled_norms ** (2.0 - p))
        out = np.abs(scaled, out=mags)
        out **= p - 1.0
        out *= factor[:, None]
        out *= np.sign(scaled)
    # above p of about 1100, |x|^(2-p) can overflow while |x_i|^(p-1)
    # underflows. With m the row max and s = sum_i (|x_i| / m)^p, the
    # same J(x)_i is m (|x_i| / m)^(p-1) s^(2/p - 1), whose factors stay
    # in range; s^(2/p - 1) also keeps ties at the max right where
    # |x| = m s^(1/p) rounds to m (p above about 1e16). Rows with a
    # finite factor keep the formula above and its bits; so do infinite
    # rows (norm inf), which come out of it not finite.
    big = np.isinf(factor) & np.isfinite(scaled_norms)
    if big.any():
        m_big = frac[big][:, None]
        t = np.abs(scaled[big]) / m_big
        s = sums[big][:, None]
        out[big] = (m_big * t ** (p - 1.0) * s ** (2.0 / p - 1.0)
                    * np.sign(scaled[big]))
    out[zero] = 0.0
    return np.ascontiguousarray(np.ldexp(out, e[:, None], out=out)), norms


def duality_map_rows(xs: np.ndarray, p: float) -> np.ndarray:
    """Normalized duality map applied to each row of a 2-d array, as a
    C-contiguous array. A row that is not finite maps to a row that is not
    finite."""
    return _duality_rows(xs, p, False)[0]


def duality_norm_rows(xs: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """J(x) and |x|_p of each row of a 2-d array, from one pass: the norms
    have the bits of norm_rows(xs, p), the maps those of
    duality_map_rows(xs, p)."""
    return _duality_rows(xs, p, True)


def duality_map(x, p) -> np.ndarray:
    """Normalized duality map J(x) in (R^n, |.|_p).

    Satisfies pairing(J(x), x) = |x|_p^2 and |J(x)|_q = |x|_p with
    q = p/(p-1). At p = 2 it returns x but for the rounding the module
    docstring names: -0.0 becomes +0.0, and duality_map([1e300, 1e-300], 2)
    is [1e300, 0.0].
    """
    x = as_vector(x)
    p = check_exponent(p)
    return duality_map_rows(x[None, :], p)[0]

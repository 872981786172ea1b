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


@dataclass(frozen=True)
class SpaceSpec:
    """The space (R^n, |.|_p)."""

    n: int
    p: float

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral):
            raise InvalidInputError(f"dimension must be an integer, got {self.n!r}")
        if self.n < 1:
            raise InvalidInputError(f"dimension must be positive, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "p", check_exponent(self.p))


def dual_exponent(p) -> float:
    """Conjugate exponent q with 1/p + 1/q = 1."""
    p = check_exponent(p)
    return p / (p - 1.0)


# numpy reduces a narrow row one row at a time, so below this width a
# reduction over axis 1 runs as a loop over columns instead, a call per
# column, once the array has at least 16 (cols - 1) rows (in process, max
# plus sum break even near 16, 32, 48, 64, 72 and 88 rows at 2 to 7
# columns). The sum fold has the same bits as np.add.reduce only below 8
# columns, where numpy does not yet switch to pairwise summation. Kept:
# plain reduces cut the benchmark's `verify` ops/s 51.2 -> 39.4 and
# `oracle` 483 -> 268.
_FOLD_COLS = 8
_FOLD_ROWS_PER_COL = 16


def _folds(a: np.ndarray) -> bool:
    rows, cols = a.shape
    return 0 < cols < _FOLD_COLS and rows >= _FOLD_ROWS_PER_COL * (cols - 1)


# numpy also broadcasts a row scalar (a * v[:, None]) one narrow row at a
# time, but a call per column pays for itself later than a fold does: in
# process, over the duality kernel, near 512 rows at 2 columns and 1500 at
# 3, 4096 at 4, and not by 16384 rows at 1 or 5 columns. So row scalars
# go a column at a time on 2 or 3 columns and 1024 rows or more; the ufunc
# is elementwise, so both paths give the same bits. Kept: broadcasts cut
# the benchmark's `oracle` ops/s 483 -> 430.
_SCALE_COLS = 4
_SCALE_ROWS = 1024


def _by_rows(ufunc, a: np.ndarray, v: np.ndarray, out=None) -> np.ndarray:
    """ufunc(a, v[:, None], out=out): each row of the 2-d array a with its
    own scalar v[i], a call per column on 2 or 3 columns and 1024 rows or
    more."""
    rows, cols = a.shape
    if not (1 < cols < _SCALE_COLS and rows >= _SCALE_ROWS):
        return ufunc(a, v[:, None], out=out)
    if out is None:
        out = np.empty_like(a)
    for j in range(cols):
        ufunc(a[:, j], v, out=out[:, j])
    return out


def _row_max(a: np.ndarray) -> np.ndarray:
    """np.maximum.reduce(a, axis=1), folded over columns when _folds(a)."""
    if _folds(a):
        m = a[:, 0].copy()
        for j in range(1, a.shape[1]):
            np.maximum(m, a[:, j], out=m)
        return m
    return np.maximum.reduce(a, axis=1)


def _row_sum(a: np.ndarray) -> np.ndarray:
    """np.add.reduce(a, axis=1), folded over columns when _folds(a)."""
    if _folds(a):
        # add.reduce starts from +0.0, which turns an all -0.0 row into +0.0
        s = a[:, 0] + 0.0
        for j in range(1, a.shape[1]):
            s += a[:, j]
        return s
    return np.add.reduce(a, axis=1)


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
    _by_rows(np.divide, mags, m, out=mags)
    mags **= p
    return _row_sum(mags)


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
    # C-order moduli: numpy sums a row of 8 or more entries in another
    # order when the array is in F order, so every layout gets C's bits
    return _moduli_norms(np.abs(np.asarray(xs, dtype=float), order="C"), p)


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
    summed in C order whatever the layout of the inputs."""
    return _row_sum(np.multiply(np.asarray(fs, float), np.asarray(xs, float),
                                order="C"))


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
    mags = np.abs(xs, order="C")  # C-order sums, as in norm_rows
    if p == 2.0 and _exact_at_two(mags):
        # Hilbert case, J = I; `+ 0.0` turns -0.0 into +0.0 as the formula
        # does. Kept: the formula here ran `oracle` at 272 ops/s, not 510
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
    scaled = _by_rows(np.ldexp, xs, -e)
    # one p-th-power row sum r^p serves both norms: |x| = r m, and the
    # rescaled row's norm is r frac. That is the sum the rescaled row
    # would give, bit for bit: |s_i| / frac equals |x_i| / m for every
    # entry the rescaling does not round, and a rounded entry is below
    # 2^-1021 of its row max, so its p-th power cannot move a sum >= 1
    r = _power_sums(mags, m, p) ** (1.0 / p)
    norms = r * m  # m is 1 on zero rows, whose sums are 0
    scaled_norms = r * frac
    # 0 ** (2 - p) is inf for p > 2; zero rows keep the factor 1. J is
    # built in the buffer of the spent powers
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        factor = np.where(zero, 1.0, scaled_norms ** (2.0 - p))
        out = np.abs(scaled, out=mags)
        out **= p - 1.0
        _by_rows(np.multiply, out, factor, out=out)
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
        # summed again over the rescued rows' own t, as the two-pass
        # formula summed them
        s = _row_sum(t ** p)[:, None]
        out[big] = (m_big * t ** (p - 1.0) * s ** (2.0 / p - 1.0)
                    * np.sign(scaled[big]))
    out[zero] = 0.0
    return _by_rows(np.ldexp, out, e, out=out), norms


def duality_map_rows(xs: np.ndarray, p: float) -> np.ndarray:
    """Normalized duality map applied to each row of a 2-d array. A row
    that is not finite maps to a row that is not finite."""
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

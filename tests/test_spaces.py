import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpvi import (InvalidInputError, ShapeError, SpaceSpec,
                  UnsupportedSpaceError, dual_exponent, duality_map, p_norm,
                  pairing)
from lpvi import spaces
from lpvi.spaces import (duality_map_rows, duality_norm_rows, norm_rows,
                         pairing_rows)

# frozen reference values (high-precision arithmetic, rounded to double)
ROOT4_2 = 1.189207115002721    # 2**(1/4)
SQRT2 = 1.4142135623730951     # 2**(1/2)


def test_p_norm_euclidean():
    assert p_norm([3.0, 4.0], 2) == 5.0


def test_p_norm_zero_vector():
    for p in (1.5, 2, 3, 7.5):
        assert p_norm([0.0, 0.0, 0.0], p) == 0.0


def test_p_norm_p4():
    assert p_norm([1.0, 1.0], 4) == pytest.approx(ROOT4_2, rel=1e-15)


def test_p_norm_huge_entries_do_not_overflow():
    # naive sum of |x|^p would overflow; the row-scaled form must not
    assert p_norm([1e300, 1e300], 4) == pytest.approx(1e300 * ROOT4_2, rel=1e-12)


def reference_norm_rows(xs, p):
    # the formula norm_rows computed before it worked in place
    m = np.max(np.abs(xs), axis=1)
    safe = np.where(m > 0.0, m, 1.0)
    s = np.sum((np.abs(xs) / safe[:, None]) ** p, axis=1)
    return np.where(m > 0.0, safe * s ** (1.0 / p), 0.0)


@pytest.mark.parametrize("p", [1.05, 1.5, 2.0, 3.0, 20.0])
@pytest.mark.parametrize("n", [1, 2, 7, 100])
def test_norm_rows_matches_the_reference_formula_bit_for_bit(p, n):
    rng = np.random.default_rng(int(p * 100) + n)
    xs = rng.standard_normal((64, n))
    xs *= 10.0 ** rng.uniform(-5.0, 5.0, size=(64, 1))
    xs[0] = 0.0                           # zero row
    xs[1] *= 1e300 / np.max(np.abs(xs[1]))
    xs[2] *= 1e-300 / np.max(np.abs(xs[2]))
    xs[3] = 1e300                         # constant huge row
    xs[4] = -1e-300                       # constant tiny row
    xs[5, 0] = 0.0
    got = norm_rows(xs, p)
    assert got.tobytes() == reference_norm_rows(xs, p).tobytes()
    assert got[0] == 0.0
    assert float(got[3]) == p_norm(xs[3], p)


def axis_norm_rows(xs, p):
    # norm_rows as it was while every row reduction ran over axis 1
    mags = np.abs(np.asarray(xs, dtype=float))
    m = mags.max(axis=1)
    zero = ~(m > 0.0)
    m[zero] = 1.0
    mags /= m[:, None]
    mags **= p
    s = mags.sum(axis=1)
    s **= 1.0 / p
    s *= m
    s[zero] = 0.0
    return s


def axis_duality_map_rows(xs, p):
    xs = np.asarray(xs, dtype=float)
    m = np.max(np.abs(xs), axis=1)
    _, e = np.frexp(m)
    e = np.where(m > 0.0, e, 0)
    scaled = np.ldexp(xs, -e[:, None])
    norms = axis_norm_rows(scaled, p)
    nonzero = norms > 0.0
    factor = np.ones_like(norms)
    factor[nonzero] = norms[nonzero] ** (2.0 - p)
    out = factor[:, None] * np.abs(scaled) ** (p - 1.0) * np.sign(scaled)
    out[~nonzero] = 0.0
    return np.ldexp(out, e[:, None])


def axis_pairing_rows(fs, xs):
    return np.sum(np.asarray(fs, float) * np.asarray(xs, float), axis=1)


def awkward_rows(rng, rows, n):
    """Rows over many magnitudes, with the edge cases of every reduction:
    zero rows, signed zeros, entries near 1e+-300 and subnormals."""
    xs = rng.standard_normal((rows, n))
    xs *= 10.0 ** rng.uniform(-8.0, 8.0, size=(rows, 1))
    special = [0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -4e-320]
    mask = rng.random((rows, n)) < 0.25
    xs[mask] = rng.choice(special, size=int(mask.sum()))
    edge = [np.zeros(n), np.full(n, -0.0), np.full(n, 1e300),
            np.full(n, -5e-324), np.full(n, 1e-300)]
    for i, row in enumerate(edge[:rows]):
        xs[i] = row
    return xs


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


@pytest.mark.parametrize("p", [1.05, 1.5, 2.0, 3.0, 20.0])
@pytest.mark.parametrize("n", range(1, 10))
def test_row_kernels_match_axis_reductions_bit_for_bit(p, n):
    # widths 1-9 straddle the width where narrow rows stop being folded
    rng = np.random.default_rng([n, int(p * 100)])
    for rows in (1, 3, 1200):
        xs = awkward_rows(rng, rows, n)
        ys = awkward_rows(rng, rows, n)
        # F-order rows must give the bits of the C-order reference
        for a in (xs, np.asfortranarray(xs)):
            assert same_bits(norm_rows(a, p), axis_norm_rows(xs, p))
            assert same_bits(duality_map_rows(a, p),
                             axis_duality_map_rows(xs, p))
            js, norms = duality_norm_rows(a, p)
            assert same_bits(js, axis_duality_map_rows(xs, p))
            assert same_bits(norms, axis_norm_rows(xs, p))
            with np.errstate(over="ignore", invalid="ignore"):  # 1e300^2
                assert same_bits(pairing_rows(a, ys),
                                 axis_pairing_rows(xs, ys))


class UfuncSpy(np.ndarray):
    """An array that records how each ufunc is applied to it: "reduce"
    for one reduce call, "__call__" for an elementwise one. Views and
    copies of it record into the same list."""

    def __array_finalize__(self, obj):
        self.methods = getattr(obj, "methods", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        self.methods.append(method)
        inputs = [np.asarray(x) for x in inputs]
        if "out" in kwargs:
            kwargs["out"] = tuple(np.asarray(o) for o in kwargs["out"])
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize("cols", range(1, 8))
def test_row_reductions_fold_from_16_rows_per_extra_column(cols):
    # below the gate a call per column costs more than one reduce call
    gate = 16 * (cols - 1)
    rng = np.random.default_rng(cols)
    for rows, folds in ((max(gate, 1), True), (gate - 1, False)):
        if rows < 1:
            continue
        a = np.abs(rng.standard_normal((rows, cols)))
        a[0] = -0.0
        for kernel, reduce in ((spaces._row_max, np.maximum.reduce),
                               (spaces._row_sum, np.add.reduce)):
            spy = a.view(UfuncSpy)
            spy.methods = []
            out = np.asarray(kernel(spy))
            assert ("reduce" not in spy.methods) == folds
            assert same_bits(out, reduce(a, axis=1))


ROW_SCALE_SPECIALS = [0.0, -0.0, 5e-324, -4e-320, math.inf, -math.inf,
                      math.nan, 1e300, -1e-300]


def check_by_rows(by_rows):
    """by_rows(ufunc, a, v, out) must give the bits of ufunc(a, v[:, None])
    for divide, ldexp and multiply, fresh and in place, at widths 1-8 and
    on both sides of the 1024-row gate, with special entries in a and v;
    and it must call the ufunc once per column exactly on 2 or 3 columns
    and 1024 rows or more."""
    rng = np.random.default_rng(21)
    for cols in range(1, 9):
        for rows in (3, 16 * cols, 1023, 1024, 1061):
            a = rng.standard_normal((rows, cols))
            a *= 10.0 ** rng.uniform(-8.0, 8.0, size=(rows, 1))
            mask = rng.random((rows, cols)) < 0.3
            a[mask] = rng.choice(ROW_SCALE_SPECIALS, size=int(mask.sum()))
            v = rng.uniform(0.5, 4.0, size=rows)
            mask = rng.random(rows) < 0.3
            v[mask] = rng.choice(ROW_SCALE_SPECIALS, size=int(mask.sum()))
            e = rng.integers(-1074, 1075, size=rows)
            by_column = cols in (2, 3) and rows >= 1024
            for ufunc, scale in ((np.divide, v), (np.ldexp, e),
                                 (np.multiply, v)):
                with np.errstate(all="ignore"):
                    want = ufunc(a, scale[:, None])
                    spy = a.view(UfuncSpy)
                    spy.methods = []
                    assert same_bits(np.asarray(by_rows(ufunc, spy, scale)), want)
                    assert spy.methods == ["__call__"] * (cols if by_column else 1)
                    inplace = a.copy()
                    by_rows(ufunc, inplace, scale, out=inplace)
                    assert same_bits(inplace, want)


def test_row_scalars_keep_the_bits_of_the_broadcast():
    check_by_rows(spaces._by_rows)


def _by_rows_with_the_next_rows_scalar(ufunc, a, v, out=None):
    if not (a.shape[1] in (2, 3) and a.shape[0] >= 1024):
        return ufunc(a, v[:, None], out=out)
    out = np.empty_like(a) if out is None else out
    for j in range(a.shape[1]):
        ufunc(a[:, j], np.roll(v, -1), out=out[:, j])
    return out


def _by_rows_without_the_last_column(ufunc, a, v, out=None):
    if not (a.shape[1] in (2, 3) and a.shape[0] >= 1024):
        return ufunc(a, v[:, None], out=out)
    out = np.empty_like(a) if out is None else out
    for j in range(a.shape[1] - 1):
        ufunc(a[:, j], v, out=out[:, j])
    return out


@pytest.mark.parametrize("mutant", [_by_rows_with_the_next_rows_scalar,
                                    _by_rows_without_the_last_column])
def test_row_scalar_check_catches_broken_helpers(mutant):
    with pytest.raises(AssertionError):
        check_by_rows(mutant)


@pytest.mark.parametrize("n", [*range(10, 65), 257, 1000])
def test_hilbert_path_matches_the_general_formula_bit_for_bit(n):
    # p = 2 skips the norms and powers; the bits must stay the formula's
    rng = np.random.default_rng([n, 200])
    for rows in (1, 3, 300):
        xs = awkward_rows(rng, rows, n)
        for a in (xs, np.asfortranarray(xs)):
            assert same_bits(duality_map_rows(a, 2.0),
                             axis_duality_map_rows(a, 2.0))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("n", [8, 9, 64, 257])
def test_every_layout_gets_the_bits_of_c_order(n, p):
    # numpy sums a row of 8 or more entries in another order when the
    # array is not C-contiguous; the kernels sum C-order copies
    rng = np.random.default_rng([n, int(p * 10), 8])
    wide = rng.standard_normal((300, 2 * n))
    wide *= 10.0 ** rng.uniform(-8.0, 8.0, size=(300, 1))
    xs, ys = np.ascontiguousarray(wide[:, ::2]), wide[:, 1::2].copy()
    js, norms = duality_norm_rows(xs, p)
    for a in (np.asfortranarray(xs), wide[:, ::2]):
        assert same_bits(norm_rows(a, p), norm_rows(xs, p))
        assert same_bits(duality_map_rows(a, p), duality_map_rows(xs, p))
        got_js, got_norms = duality_norm_rows(a, p)
        assert same_bits(got_js, js) and same_bits(got_norms, norms)
        assert same_bits(pairing_rows(a, np.asfortranarray(ys)),
                         pairing_rows(xs, ys))


@pytest.mark.parametrize("row, expected", [
    ([1e300, 1e-300], [1e300, 0.0]),          # underflows when rescaled
    ([-0.0, 1.0], [0.0, 1.0]),                # -0.0 comes back as +0.0
    ([5e-324, -0.0], [5e-324, 0.0]),
    ([1e308, -1e308], [1e308, -1e308]),
    ([2.0 ** -1074, 2.0 ** -1060], [2.0 ** -1074, 2.0 ** -1060]),
])
def test_hilbert_path_edge_rows(row, expected):
    xs = np.array([row])
    got = duality_map_rows(xs, 2.0)
    assert same_bits(got, axis_duality_map_rows(xs, 2.0))
    assert same_bits(got, np.array([expected]))
    assert same_bits(duality_map(row, 2), np.array(expected))


def general_formula(xs, p):
    """J(x) and |x|_p from the kernel with the Hilbert add switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spaces, "_exact_at_two", lambda mags: False)
        return spaces._duality_rows(xs, p, True)


def clean_rows(rng, rows, n):
    """Rows over 16 decades with signed zeros, but no entry 2^1022 times
    below the largest: every block of them takes the Hilbert add."""
    xs = rng.standard_normal((rows, n))
    xs *= 10.0 ** rng.uniform(-8.0, 8.0, size=(rows, 1))
    mask = rng.random((rows, n)) < 0.2
    xs[mask] = rng.choice([0.0, -0.0], size=int(mask.sum()))
    xs[0] = -0.0
    return xs


@pytest.mark.parametrize("n", range(1, 10))
def test_hilbert_add_keeps_the_bits_of_the_formula_on_clean_rows(n):
    # the oracle's widths (1-3) and both sides of the 8-wide fold limit, in
    # C order, F order and a strided view
    rng = np.random.default_rng([n, 22])
    for rows in (1, 3, 1200):
        xs = clean_rows(rng, rows, n)
        wide = np.repeat(xs, 2, axis=1)
        for a in (xs, np.asfortranarray(xs), wide[:, ::2]):
            assert spaces._exact_at_two(np.abs(a))
            js, norms = duality_norm_rows(a, 2.0)
            want_js, want_norms = general_formula(a, 2.0)
            assert same_bits(js, want_js) and same_bits(norms, want_norms)
            # C order whatever the input's layout, as the formula gives
            assert js.flags.c_contiguous and want_js.flags.c_contiguous
            assert same_bits(js, axis_duality_map_rows(xs, 2.0))
            assert same_bits(js, xs + 0.0)
            assert same_bits(duality_map_rows(a, 2.0), js)
            assert same_bits(norms, norm_rows(xs, 2.0))
            assert same_bits(norms, axis_norm_rows(xs, 2.0))


# frexp(1.5) = (0.75, 1): a block whose largest modulus is 1.5 has E = 1,
# and its floor 2^(E - 1022) is 2^-1021
FLOOR = 2.0 ** -1021
BIGGEST = np.finfo(float).max  # E = 1024, floor 4.0


def exactness_blocks():
    """(block, whether the Hilbert add may take it) at the edges of the
    once-a-block test."""
    return [
        (np.array([[1.5, FLOOR], [-FLOOR, 0.0]]), True),
        # one ulp below the floor rounds when its row is rescaled by 2^-1
        (np.array([[1.5, np.nextafter(FLOOR, 0.0)], [1.0, -0.0]]), False),
        (np.array([[BIGGEST, -4.0]]), True),
        (np.array([[BIGGEST, np.nextafter(4.0, 0.0)]]), False),
        # at E = -52 the floor is the least subnormal; below, it is 0.0
        (np.array([[2.0 ** -53, 5e-324]]), True),
        (np.array([[2.0 ** -60, -5e-324, 0.0]]), True),
        (np.array([[1.0, 5e-324]]), False),               # flushed to 0.0
        (np.array([[2.0 ** -52, 5e-324]]), False),
        # rows whose maxima lie 2^1000 apart
        (np.array([[2.0 ** 500, 1.0], [2.0 ** -500, -2.0 ** -510]]), True),
        (np.array([[2.0 ** 600, 3.0], [2.0 ** -500, 0.0]]), False),
        (np.array([[1.0, np.nan], [2.0, 3.0]]), False),
        (np.array([[np.inf, 1.0], [2.0, -3.0]]), False),
        (np.array([[-np.inf, np.nan]]), False),
        (np.empty((0, 3)), False),
    ]


def check_exactness_test(exact):
    """With exact(mags) as the kernel's once-a-block test, each block above
    must take the path listed and map, at p = 2, to the general formula's
    bits (and, when finite, the axis reference's); a block that takes the
    add maps to x + 0.0."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spaces, "_exact_at_two", exact)
        for block, hilbert in exactness_blocks():
            assert exact(np.abs(block)) == hilbert
            with np.errstate(invalid="ignore"):
                js, norms = duality_norm_rows(block, 2.0)
                want_js, want_norms = general_formula(block, 2.0)
                assert same_bits(js, want_js) and same_bits(norms, want_norms)
                assert js.flags.c_contiguous
                if np.isfinite(block).all():
                    assert same_bits(js, axis_duality_map_rows(block, 2.0))
            if hilbert:
                assert same_bits(js, block + 0.0)


def test_exactness_test_draws_its_line_at_the_floor():
    check_exactness_test(spaces._exact_at_two)


def _exact_one_binade_lower(mags):
    top = float(mags.max()) if mags.size else math.nan
    floor = math.ldexp(1.0, math.frexp(top)[1] - 1023)
    return top < math.inf and not ((mags < floor) & (mags > 0.0)).any()


def _exact_for_every_finite_block(mags):
    return mags.size > 0 and bool(np.isfinite(mags).all())


@pytest.mark.parametrize("mutant", [_exact_one_binade_lower,
                                    _exact_for_every_finite_block])
def test_exactness_check_catches_broken_tests(mutant):
    with pytest.raises(AssertionError):
        check_exactness_test(mutant)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_rows_that_are_not_finite_stay_that_way(p):
    rng = np.random.default_rng(int(p * 10))
    for n in (1, 2, 9):
        xs = rng.standard_normal((6, n))
        xs[1, 0] = np.nan
        xs[3, -1] = np.nan
        xs[4] = np.nan
        xs[5, 0] = np.inf
        norms = norm_rows(xs, p)
        js = duality_map_rows(xs, p)
        assert np.isnan(norms[[1, 3, 4]]).all() and norms[5] == np.inf
        assert not np.isfinite(js[[1, 3, 4, 5]]).all(axis=1).any()
        # the finite rows keep the bits they have on their own
        clean = xs[[0, 2]]
        assert same_bits(norms[[0, 2]], norm_rows(clean, p))
        assert same_bits(js[[0, 2]], duality_map_rows(clean, p))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 2000.0])
@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 100])
def test_infinite_rows_have_norm_inf_without_warnings(n, p):
    xs = np.ones((6, n))
    xs[0, 0] = np.inf
    xs[1, -1] = -np.inf
    xs[2] = -np.inf
    xs[3, -1] = np.inf
    xs[3, 0] = np.nan            # NaN wins over inf
    xs[4, -1] = np.nan
    xs[5, 0] = 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (xs, np.asfortranarray(xs)):
            norms = norm_rows(a, p)
            js = duality_map_rows(a, p)
            assert (norms[:3] == np.inf).all() and np.isnan(norms[3:5]).all()
            assert not np.isfinite(js[:5]).all(axis=1).any()
            # the finite row keeps the bits it has on its own
            assert same_bits(norms[5:], norm_rows(xs[5:], p))
            assert same_bits(js[5:], duality_map_rows(xs[5:], p))


def test_dual_exponent_values():
    assert dual_exponent(2) == 2.0
    assert dual_exponent(4) == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert dual_exponent(1.5) == pytest.approx(3.0, rel=1e-15)


@pytest.mark.parametrize("p", [1, 1.0, 0.5, 0, -2, math.inf, math.nan, "2"])
def test_exponent_out_of_range_rejected(p):
    with pytest.raises(UnsupportedSpaceError):
        p_norm([1.0, 2.0], p)
    with pytest.raises(UnsupportedSpaceError):
        dual_exponent(p)


def test_pairing_values():
    assert pairing([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert pairing([2.0, 3.0], [1.0, 1.0]) == 5.0


def test_pairing_with_duality_map_gives_norm_squared():
    f = duality_map([3.0, 4.0], 2)
    assert pairing(f, [3.0, 4.0]) == 25.0


def test_pairing_shape_mismatch():
    with pytest.raises(ShapeError):
        pairing([1.0, 2.0, 3.0], [1.0, 2.0])


def test_vectors_must_be_one_dimensional_and_finite():
    with pytest.raises(ShapeError):
        p_norm([[1.0, 2.0]], 2)
    with pytest.raises(ShapeError):
        p_norm(np.empty(0), 2)
    with pytest.raises(InvalidInputError):
        p_norm([1.0, np.inf], 2)
    with pytest.raises(InvalidInputError):
        duality_map([np.nan, 0.0], 3)


def test_duality_map_is_identity_at_p2():
    x = np.array([3.0, 4.0])
    assert np.array_equal(duality_map(x, 2), x)


def test_duality_map_of_zero_is_zero():
    for p in (1.5, 2, 4):
        assert np.array_equal(duality_map([0.0, 0.0, 0.0], p), np.zeros(3))


def test_duality_map_p4_closed_form():
    x = np.array([1.0, 1.0])
    f = duality_map(x, 4)
    np.testing.assert_allclose(f, [2.0 ** -0.5, 2.0 ** -0.5], rtol=1e-15)
    # both defining identities at this point
    assert pairing(f, x) == pytest.approx(SQRT2, rel=1e-13)          # |x|_4^2
    assert p_norm(f, dual_exponent(4)) == pytest.approx(ROOT4_2, rel=1e-13)


def test_duality_map_handles_zero_components_for_small_p():
    # 0 ** (p-1) terms must come out as 0, not nan
    f = duality_map([0.0, 2.0], 1.5)
    assert f[0] == 0.0 and np.isfinite(f[1])


def test_space_spec_validation():
    s = SpaceSpec(3, 2.5)
    assert (s.n, s.p) == (3, 2.5)
    with pytest.raises(InvalidInputError):
        SpaceSpec(0, 2)
    with pytest.raises(InvalidInputError):
        SpaceSpec(2.5, 2)
    with pytest.raises(UnsupportedSpaceError):
        SpaceSpec(2, 1)


vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1, max_size=12,
)
exponents = st.floats(min_value=1.05, max_value=12.0)


@given(xs=vectors, p=exponents)
@settings(max_examples=200, deadline=None)
def test_defining_identities(xs, p):
    x = np.asarray(xs)
    f = duality_map(x, p)
    nx = p_norm(x, p)
    assert abs(pairing(f, x) - nx ** 2) <= 1e-9 * (1.0 + nx ** 2)
    assert abs(p_norm(f, dual_exponent(p)) - nx) <= 1e-9 * (1.0 + nx)


@given(xs=vectors, p=exponents,
       t=st.floats(min_value=0.0, max_value=1e3))
@settings(max_examples=200, deadline=None)
def test_positive_homogeneity(xs, p, t):
    x = np.asarray(xs)
    lhs = duality_map(t * x, p)
    rhs = t * duality_map(x, p)
    dev = float(np.max(np.abs(lhs - rhs)))
    assert dev <= 1e-9 * (1.0 + t * p_norm(x, p))


@given(xs=vectors)
@settings(max_examples=200, deadline=None)
def test_hilbert_degeneration(xs):
    x = np.asarray(xs)
    dev = np.max(np.abs(duality_map(x, 2) - x)) if x.size else 0.0
    assert dev <= 1e-12 * (1.0 + float(np.max(np.abs(x))))


def test_dual_exponent_is_an_involution():
    for p in (1.2, 1.5, 2.0, 3.0, 7.7):
        assert dual_exponent(dual_exponent(p)) == pytest.approx(p, rel=1e-12)
        assert 1.0 / p + 1.0 / dual_exponent(p) == pytest.approx(1.0, rel=1e-12)


def test_norm_duality_spot_check():
    # |x|_p = sup over unit-q f of <f, x>, attained by Jx / |x|_p
    rng = np.random.default_rng(5)
    for p in (1.5, 2.0, 3.0):
        q = dual_exponent(p)
        x = rng.uniform(-3.0, 3.0, size=6)
        nx = p_norm(x, p)
        best = max(
            pairing(f / p_norm(f, q), x)
            for f in rng.standard_normal(size=(200, 6))
        )
        assert best <= nx * (1.0 + 1e-9)
        attain = pairing(duality_map(x, p) / nx, x)
        assert attain == pytest.approx(nx, rel=1e-12)


@pytest.mark.parametrize("p", [100.0, 500.0, 999.0, 1000.0, 1001.0])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 9])
def test_duality_map_rows_keeps_its_bits_up_to_p_1000(p, n):
    # the regrouped formula for huge p must leave every other row alone
    rng = np.random.default_rng([n, int(p)])
    for rows in (1, 3, 1200):
        xs = awkward_rows(rng, rows, n)
        for a in (xs, np.asfortranarray(xs)):
            assert same_bits(duality_map_rows(a, p),
                             axis_duality_map_rows(xs, p))


def two_pass_duality_map_rows(xs, p):
    # duality_map_rows as it was while it normed the rescaled rows in a
    # second pass, with the regrouped formula for rows whose factor
    # |x|^(2-p) overflows
    xs = np.asarray(xs, dtype=float)
    m = np.max(np.abs(xs), axis=1)
    _, e = np.frexp(m)
    e = np.where(m > 0.0, e, 0)
    scaled = np.ldexp(xs, -e[:, None])
    zero = m == 0.0
    norms = norm_rows(scaled, p)
    factor = np.ones_like(norms)
    with np.errstate(over="ignore", invalid="ignore"):
        factor[~zero] = norms[~zero] ** (2.0 - p)
        out = factor[:, None] * np.abs(scaled) ** (p - 1.0) * np.sign(scaled)
    big = np.isinf(factor) & np.isfinite(norms)
    mags = np.abs(scaled[big])
    m_big = np.max(mags, axis=1)[:, None]
    t = mags / m_big
    s = np.sum(t ** p, axis=1)[:, None]
    out[big] = (m_big * t ** (p - 1.0) * s ** (2.0 / p - 1.0)
                * np.sign(scaled[big]))
    out[zero] = 0.0
    return np.ldexp(out, e[:, None])


@pytest.mark.parametrize("p", [1026.5, 1500.0, 1e300])
@pytest.mark.parametrize("n", [1, 2, 5, 9, 20])
def test_one_pass_kernel_keeps_the_bits_of_two_passes_at_huge_p(p, n):
    # the rescue path (row 5 takes it at every p here, row 6 above
    # p = 1026.5), on rows with NaN, +-inf and 2^-1070 entries and rows
    # whose rescaling rounds entries next to a huge max, in C and F order
    rng = np.random.default_rng([n, 1026])
    xs = rng.standard_normal((300, n)) * 10.0 ** rng.uniform(-300, 300, (300, 1))
    special = [np.nan, np.inf, -np.inf, 2.0 ** -1070, -(2.0 ** -1070), 0.0]
    mask = rng.random((300, n)) < 0.1
    xs[mask] = rng.choice(special, size=int(mask.sum()))
    xs[0] = 2.0 ** -1070
    xs[1] = np.nan
    xs[2] = -np.inf
    xs[3] = 1e300
    xs[3, ::2] = 1e-300
    xs[4] = 0.0
    xs[5] = 1e-20
    xs[5, 0] = -(2.0 ** 100)  # a max at the bottom of its binade
    xs[6] = 2.0 ** -200 * (1.0 - rng.uniform(0.0, 0.02, n))
    xs[6, 0] = 2.0 ** -200  # near ties: an inexact sum at p = 1500
    for a in (xs, np.asfortranarray(xs)):
        # a row with an infinite entry takes finite entries to the p-th
        # power unscaled, which overflows in every one of these kernels
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            js, norms = duality_norm_rows(a, p)
            assert same_bits(js, two_pass_duality_map_rows(a, p))
            assert same_bits(js, duality_map_rows(a, p))
            assert same_bits(norms, norm_rows(a, p))
        finite = np.isfinite(a).all(axis=1)
        assert np.isfinite(js[finite]).all()
        assert not np.isfinite(js[~finite]).all(axis=1).any()


@pytest.mark.parametrize("p", [1100.0, 1200.0, 2000.0, 1e6, 1e300])
@pytest.mark.parametrize("n", [1, 2, 5, 20])
def test_duality_map_identities_hold_at_huge_p(p, n):
    rng = np.random.default_rng([n, 7])
    xs = rng.standard_normal((200, n)) * 10.0 ** rng.uniform(-200, 200, (200, 1))
    xs[0] = 3.0            # ties at the max
    xs[1, 0] = 0.5         # a max at the bottom of its binade
    xs[2] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        js = duality_map_rows(xs, p)
    assert np.isfinite(js).all()
    assert not js[2].any()
    q = p / (p - 1.0)      # 1.0 at p = 1e300, below what p_norm accepts
    for x, j in zip(np.delete(xs, 2, 0), np.delete(js, 2, 0)):
        nx = p_norm(x, p)
        # unit-scaled so the squares stay in range
        assert np.dot(j / nx, x / nx) == pytest.approx(1.0, rel=1e-12)
        mj = np.max(np.abs(j))
        jq = mj * np.sum((np.abs(j) / mj) ** q) ** (1.0 / q)
        assert jq == pytest.approx(nx, rel=1e-12)

"""Each scalar API returns the bits of its rows-first kernel.

The scalar functions validate their arguments and hand one row to the
kernel; these tests hold them to the kernel's bits on seeded rows of
several widths, so a scalar path that computes on its own (np.dot in
place of pairing_rows, say) shows up as a bit difference.
"""

import numpy as np
import pytest

from lpvi import (Affine, Ball, BlackBox, Box, Halfspace,
                  ResidualOfContraction, WholeSpace, contains, duality_map,
                  evaluate, p_norm, pairing, retract)
from lpvi.maps import rows_kernel
from lpvi.sets import members_mask, retract_rows
from lpvi.spaces import duality_map_rows, norm_rows, pairing_rows

WIDTHS = [2, 3, 8, 20, 100]
EXPONENTS = [1.5, 2.0, 3.0]
ROWS = 200


def _rows(n, seed=0):
    """Seeded rows of mixed scale, about 1 in size on most rows."""
    rng = np.random.default_rng(1000 * n + seed)
    scale = 10.0 ** rng.uniform(-2.0, 2.0, (ROWS, 1))
    return rng.standard_normal((ROWS, n)) * scale


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("n", WIDTHS)
def test_p_norm_is_norm_rows(n):
    xs = _rows(n)
    for p in EXPONENTS:
        assert _bits([p_norm(x, p) for x in xs]) == _bits(norm_rows(xs, p))


@pytest.mark.parametrize("n", WIDTHS)
def test_duality_map_is_duality_map_rows(n):
    xs = _rows(n)
    for p in EXPONENTS:
        got = [duality_map(x, p) for x in xs]
        assert _bits(got) == _bits(duality_map_rows(xs, p))


@pytest.mark.parametrize("n", WIDTHS)
def test_pairing_is_pairing_rows(n):
    fs, xs = _rows(n, 1), _rows(n, 2)
    got = [pairing(f, x) for f, x in zip(fs, xs)]
    assert _bits(got) == _bits(pairing_rows(fs, xs))


def _sets(n):
    rng = np.random.default_rng(n)
    at_every_p = [WholeSpace(n), Box(-np.ones(n), 2.0 * np.ones(n))]
    at_p2 = [Ball(n, 3.0), Halfspace(rng.standard_normal(n), 0.5)]
    return ([(cset, p) for cset in at_every_p for p in EXPONENTS]
            + [(cset, 2.0) for cset in at_p2])


@pytest.mark.parametrize("n", WIDTHS)
def test_retract_is_retract_rows(n):
    xs = _rows(n)
    for cset, p in _sets(n):
        got = [retract(cset, x, p) for x in xs]
        assert _bits(got) == _bits(retract_rows(cset, xs, p)), (cset, p)


@pytest.mark.parametrize("n", WIDTHS)
def test_contains_is_members_mask(n):
    xs = _rows(n)
    for cset, _ in _sets(n):
        for tol in (0.0, 0.5):
            got = [contains(cset, x, tol) for x in xs]
            assert got == members_mask(cset, xs, tol).tolist(), (cset, tol)


@pytest.mark.parametrize("n", WIDTHS)
def test_evaluate_is_rows_kernel(n):
    rng = np.random.default_rng(n)
    affine = Affine(rng.standard_normal((n, n)), rng.standard_normal(n))
    xs = _rows(n)
    for mapping in (affine, ResidualOfContraction(affine, 0.5),
                    BlackBox(lambda x: np.tanh(x) - 0.5, n)):
        kernel = rows_kernel(mapping)
        # a matrix product over one row and over many runs different BLAS
        # calls, so the kernel is held to one row at a time
        got = [evaluate(mapping, x) for x in xs]
        assert _bits(got) == _bits([kernel(x[None, :])[0] for x in xs])

import dataclasses
import math

import pytest

from lpvi import InvalidInputError
from lpvi.sweeps import duality_sweep, retraction_suite

TOL = 1e-9


def test_duality_sweep_clean_across_exponents():
    rep = duality_sweep((1.5, 2.0, 3.0, 4.0), (2, 10, 50), 300, seed=0)
    assert rep.worst_identity <= TOL
    assert rep.worst_norm <= TOL
    assert rep.worst_homogeneity <= TOL
    assert rep.worst_attainment <= TOL
    assert rep.worst_bound_excess <= TOL
    assert rep.worst_hilbert is not None and rep.worst_hilbert <= 1e-12
    assert rep.checks == 4 * 3 * 300


def test_duality_sweep_without_p2_has_no_hilbert_entry():
    rep = duality_sweep((1.5, 3.0), (2,), 100, seed=1)
    assert rep.worst_hilbert is None


def test_duality_sweep_is_deterministic():
    a = duality_sweep((3.0,), (2, 10), 200, seed=42)
    b = duality_sweep((3.0,), (2, 10), 200, seed=42)
    assert dataclasses.astuple(a) == dataclasses.astuple(b)


def test_duality_sweep_validates_count():
    with pytest.raises(InvalidInputError):
        duality_sweep((2.0,), (2,), 0, seed=0)


def test_retraction_suite_clean():
    rep = retraction_suite(pairs=2000, characterization_samples=200, seed=3)
    assert rep.max_box_sunny_dev == 0.0
    assert rep.max_hilbert_sunny_dev <= 1e-12
    assert rep.max_idempotence_dev <= 1e-12
    assert rep.max_identity_dev <= 1e-12
    assert rep.max_nonexpansive_excess <= 1e-12
    assert rep.min_characterization >= -TOL
    assert rep.min_projection_inequality >= -TOL
    assert rep.pairs == 2000


def test_retraction_suite_validates_pairs():
    with pytest.raises(InvalidInputError):
        retraction_suite(pairs=0)


def test_retraction_suite_samples_a_halfspace_far_from_the_origin():
    # at the default sizes, seed 1257 draws a halfspace that misses the
    # [-6, 6]^n box around the origin
    rep = retraction_suite(seed=1257)
    assert rep.max_hilbert_sunny_dev <= 1e-12
    assert rep.max_identity_dev <= 1e-12
    assert rep.min_characterization >= -TOL
    assert rep.min_projection_inequality >= -TOL


def test_worst_is_python_max_and_min_unless_nan():
    from lpvi.sweeps import _worst
    values = [-math.inf, -1.5, -0.0, 0.0, 2.0, math.inf]
    for pick in (max, min):
        for a in values:
            for b in values:
                got = _worst(pick, a, b)
                assert (got, math.copysign(1.0, got)) == \
                    (pick(a, b), math.copysign(1.0, pick(a, b)))
            # Python's max(0.0, nan) is 0.0; the fold keeps the NaN
            assert math.isnan(_worst(pick, a, math.nan))
            assert math.isnan(_worst(pick, math.nan, a))

import dataclasses
import math
import re

import numpy as np
import pytest

from lpvi import InvalidInputError, UnsupportedSpaceError
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


def test_duality_sweep_needs_a_vector_past_the_pinned_origin():
    # with the origin alone, the Hoelder and attainment checks sample
    # nothing and would report -inf and 0.0 as passes
    with pytest.raises(InvalidInputError, match=(
            r"^need count >= 2 \(one vector is pinned at the origin\),"
            r" got count = 1$")):
        duality_sweep((1.5, 2.0), (2, 10), 1, seed=0)
    rep = duality_sweep((1.5, 2.0), (2, 10), 2, seed=0)
    assert -1.0 < rep.worst_bound_excess <= TOL
    assert 0.0 <= rep.worst_attainment <= TOL


@pytest.mark.parametrize("p_values, n_values, error, message", [
    ((2.0,), (2.5,), InvalidInputError, "n must be an integer, got 2.5"),
    ((2.0,), (True,), InvalidInputError, "n must be an integer, got True"),
    ((2.0,), (0,), InvalidInputError, "n must be positive, got 0"),
    ((2.0, 0.5), (2,), UnsupportedSpaceError,
     "exponent must satisfy 1 < p < inf, got 0.5"),
], ids=["n-2.5", "n-True", "n-0", "p-0.5"])
def test_duality_sweep_checks_every_p_and_n_before_its_first_draw(
        monkeypatch, p_values, n_values, error, message):
    # not truncated, not taken as 1, no raw numpy error, and no sweep run
    # before a later exponent is refused
    def no_draw(*args, **kwargs):
        raise AssertionError("a generator was built before the refusal")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(error, match=re.escape(message)):
        duality_sweep(p_values, n_values, 3, seed=0)


def test_retraction_suite_clean():
    rep = retraction_suite(pairs=2000, characterization_samples=200, seed=3)
    assert rep.max_box_sunny_dev == 0.0
    assert rep.max_hilbert_sunny_dev <= 1e-12
    assert rep.max_idempotence_dev <= 1e-12
    assert rep.max_identity_dev <= 1e-12
    assert rep.max_nonexpansive_excess <= 1e-12
    assert rep.min_characterization >= -TOL
    assert rep.min_projection_inequality >= -TOL


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

"""Smeared continuum-completeness probe for the free radial modes."""
from __future__ import annotations

import math

import pytest

from radialqm.errors import DomainError
from radialqm.radial import Dimension
from radialqm.solvers import closure_check


def test_diagonal_recovers_unit_mass():
    for n in (1, 2, 3):
        probe = closure_check(Dimension(n), 1.0, 1.0, 200.0, 0.05)
        assert probe.value == pytest.approx(1.0, abs=1e-6)
        assert probe.k == probe.k_prime == 1.0
        assert probe.r_max == 200.0 and probe.smear_width == 0.05


def test_probe_is_symmetric_in_the_two_wavenumbers():
    a = closure_check(Dimension(2), 1.0, 1.05, 120.0, 0.05)
    b = closure_check(Dimension(2), 1.05, 1.0, 120.0, 0.05)
    assert a.value == b.value


def test_one_width_off_diagonal_sits_on_the_gaussian_shoulder():
    probe = closure_check(Dimension(2), 1.0, 1.05, 120.0, 0.05)
    assert probe.value == pytest.approx(math.exp(-0.5), abs=1e-6)


def test_far_off_diagonal_mass_vanishes():
    probe = closure_check(Dimension(1), 1.0, 1.4, 120.0, 0.05)
    assert abs(probe.value) < 1e-6


def test_truncation_ripple_shrinks_with_r_max():
    near = closure_check(Dimension(1), 1.0, 1.05, 60.0, 0.05)
    far = closure_check(Dimension(1), 1.0, 1.05, 400.0, 0.05)
    target = math.exp(-0.5)
    assert abs(far.value - target) <= abs(near.value - target) + 1e-12


def test_probe_validation():
    with pytest.raises(DomainError):
        closure_check(Dimension(1), -1.0, 1.0, 100.0, 0.05)
    with pytest.raises(DomainError):
        closure_check(Dimension(1), 1.0, 1.0, -5.0, 0.05)
    with pytest.raises(DomainError):
        closure_check(Dimension(1), 1.0, 1.0, 100.0, 0.0)
    with pytest.raises(DomainError):
        closure_check(Dimension(1), 1.0, 1.0, math.inf, 0.05)

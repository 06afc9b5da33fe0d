"""Smeared continuum-completeness probe for the free radial modes."""
from __future__ import annotations

import math

import pytest

from radialqm.errors import DomainError
from radialqm.radial import Dimension
from radialqm.radial.quadrature import integrate
from radialqm.solvers import closure_check
from radialqm.specfun.bessel_jy import j_pair


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


def _probe_with_calls_per_node(nu, k, k_prime, r_max, sigma):
    """The probe with one j_pair call per Bessel argument at every node."""

    def overlap(k1, k2):
        mean = 0.5 * (k1 + k2)
        if abs(k1 - k2) <= 1e-7 * mean:
            x = mean * r_max
            j0, j1 = j_pair(nu, x)
            return 0.5 * r_max * r_max * (j0 * j0 + j1 * j1 - 2.0 * nu * j0 * j1 / x)
        ja0, ja1 = j_pair(nu, k1 * r_max)
        jb0, jb1 = j_pair(nu, k2 * r_max)
        return r_max * (k1 * ja1 * jb0 - k2 * ja0 * jb1) / (k1 * k1 - k2 * k2)

    def smeared(k_fix, center):
        def integrand(q):
            arg = (q - center) / sigma
            return math.exp(-0.5 * arg * arg) * math.sqrt(k_fix * q) * overlap(k_fix, q)

        lo = max(center - 8.0 * sigma, 0.0)
        return integrate(integrand, lo, center + 8.0 * sigma, 1e-7)[0]

    return 0.5 * (smeared(k, k_prime) + smeared(k_prime, k))


@pytest.mark.parametrize("n, k, k_prime, r_max, sigma", [
    (1, 1.0, 1.0, 200.0, 0.05),     # diagonal branch at the nodes near the center
    (2, 1.0, 1.05, 120.0, 0.05),
    (3, 0.35, 0.4, 80.0, 0.05),     # the window centred at 0.35 reaches q = 0
    (6, 2.5, 2.2, 150.0, 0.1),      # asymptotic and continued-fraction arguments
])
def test_probe_equals_per_node_kernel_calls(n, k, k_prime, r_max, sigma):
    nu = Dimension(n).nu
    probe = closure_check(Dimension(n), k, k_prime, r_max, sigma)
    assert probe.value == _probe_with_calls_per_node(nu, k, k_prime, r_max, sigma)

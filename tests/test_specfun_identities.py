"""Cross-function identities exercised on fixed grids and random points."""
from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from radialqm.errors import ComputationError, PoleError
from radialqm.specfun import (
    bessel_i,
    bessel_j,
    bessel_k,
    bessel_y,
    gamma_fn,
    hermite,
    kummer_m,
    kummer_u,
    laguerre,
)
from radialqm.specfun.bessel_ik import ik_reciprocal_rise, scaled_bessel_i, scaled_bessel_k

# contract grid for the Wronskian suites
WRONSKIAN_NUS = (0.0, 0.5, 1.0, 2.5)
WRONSKIAN_XS = tuple(0.1 * (50.0 / 0.1) ** (i / 23.0) for i in range(24))


@pytest.mark.parametrize("nu", WRONSKIAN_NUS)
def test_cross_wronskian_cylinder(nu):
    for x in WRONSKIAN_XS:
        lhs = (bessel_j(nu, x).value * bessel_y(nu + 1.0, x).value
               - bessel_j(nu + 1.0, x).value * bessel_y(nu, x).value)
        target = -2.0 / (math.pi * x)
        assert abs(lhs - target) <= 1e-11 * abs(target)


@pytest.mark.parametrize("nu", WRONSKIAN_NUS)
def test_cross_wronskian_modified(nu):
    for x in WRONSKIAN_XS:
        lhs = (bessel_i(nu, x).value * bessel_k(nu + 1.0, x).value
               + bessel_i(nu + 1.0, x).value * bessel_k(nu, x).value)
        assert abs(lhs - 1.0 / x) <= 1e-11 / x


def test_derivative_wronskian_spot():
    # J_nu Y'_nu - J'_nu Y_nu = 2/(pi x), derivatives via the recurrence
    nu, x = 1.5, 2.7
    jp = 0.5 * (bessel_j(nu - 1.0, x).value - bessel_j(nu + 1.0, x).value)
    yp = 0.5 * (bessel_y(nu - 1.0, x).value - bessel_y(nu + 1.0, x).value)
    lhs = bessel_j(nu, x).value * yp - jp * bessel_y(nu, x).value
    assert abs(lhs - 2.0 / (math.pi * x)) <= 1e-12


def test_modified_wronskian_spot():
    nu, x = 0.5, 1.3
    lhs = (bessel_i(nu, x).value * bessel_k(nu + 1.0, x).value
           + bessel_i(nu + 1.0, x).value * bessel_k(nu, x).value)
    assert abs(lhs - 1.0 / x) <= 1e-12


def test_half_integer_closed_forms():
    for x in (0.3, 1.0, 2.0, 5.5, 12.0):
        front = math.sqrt(2.0 / (math.pi * x))
        assert bessel_j(0.5, x).value == pytest.approx(front * math.sin(x), abs=1e-14)
        assert bessel_j(-0.5, x).value == pytest.approx(front * math.cos(x), abs=1e-14)
        assert bessel_y(0.5, x).value == pytest.approx(-front * math.cos(x), abs=1e-14)


# regime seams of the kernels: the series edge, the series reach of J,
# the K trapezoid-to-asymptotic switch, the J/Y asymptotic edge at
# orders nu and nu + 1, and the I K product expansion's edge
KERNEL_SEAMS = (
    lambda nu: 2.0,
    lambda nu: 2.0 * math.sqrt(nu + 1.0),
    lambda nu: 20.0,
    lambda nu: max(60.0, 0.5 * (nu + 1.0) ** 2 + 20.0),
    lambda nu: max(60.0, 0.5 * (nu + 2.0) ** 2 + 20.0),
    lambda nu: max(25.0, 2.0 * nu),
)


@st.composite
def near_a_seam(draw):
    nu = draw(st.floats(-0.5, 40.0))
    seam = draw(st.sampled_from(KERNEL_SEAMS))(nu)
    offset = draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-12.0, -1.0))
    return nu, seam * (1.0 + offset)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(near_a_seam())
def test_cross_wronskian_cylinder_at_the_seams(point):
    nu, x = point
    j0, j1 = bessel_j(nu, x).value, bessel_j(nu + 1.0, x).value
    y0, y1 = bessel_y(nu, x).value, bessel_y(nu + 1.0, x).value
    lhs = j1 * y0 - j0 * y1
    scale = abs(j1 * y0) + abs(j0 * y1)
    assert abs(lhs - 2.0 / (math.pi * x)) <= 1e-12 * scale


@settings(max_examples=400, deadline=None, derandomize=True)
@given(near_a_seam())
def test_cross_wronskian_modified_at_the_seams(point):
    # in the e^{-x} I and e^{x} K forms, as I alone overflows past x ~ 700
    nu, x = point
    i0, k0 = scaled_bessel_i(nu, x).value, scaled_bessel_k(nu, x).value
    lhs = (i0 * scaled_bessel_k(nu + 1.0, x).value
           + scaled_bessel_i(nu + 1.0, x).value * k0)
    assert abs(lhs - 1.0 / x) <= 1e-12 / x
    # the same identity in ratio form: F = x (K_{nu+1}/K_nu + I_{nu+1}/I_nu) = 1/(I_nu K_nu)
    f = ik_reciprocal_rise(nu, x) + 2.0 * max(nu, 0.0)
    assert abs(f * i0 * k0 - 1.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(nu=st.floats(0.5, 8.0), x=st.floats(0.2, 30.0))
def test_bessel_j_recurrence(nu, x):
    lhs = bessel_j(nu - 1.0, x).value + bessel_j(nu + 1.0, x).value
    rhs = (2.0 * nu / x) * bessel_j(nu, x).value
    scale = max(1.0, abs(bessel_j(nu - 1.0, x).value), abs(rhs))
    assert abs(lhs - rhs) <= 1e-10 * scale


@settings(max_examples=60, deadline=None)
@given(nu=st.floats(0.5, 6.0), x=st.floats(0.2, 20.0))
def test_bessel_i_recurrence(nu, x):
    lhs = bessel_i(nu - 1.0, x).value - bessel_i(nu + 1.0, x).value
    rhs = (2.0 * nu / x) * bessel_i(nu, x).value
    scale = max(1.0, abs(bessel_i(nu - 1.0, x).value))
    assert abs(lhs - rhs) <= 1e-10 * scale


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 10), alpha=st.floats(-0.4, 4.0), x=st.floats(0.0, 12.0))
def test_laguerre_is_terminating_kummer(n, alpha, x):
    binom = math.gamma(n + alpha + 1.0) / (math.gamma(alpha + 1.0) * math.factorial(n))
    lhs = laguerre(n, alpha, x)
    rhs = binom * kummer_m(-float(n), alpha + 1.0, x).value
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_hermite_parity_and_recurrence():
    for n in range(8):
        for z in (0.3, 0.9, 2.1):
            assert hermite(n, -z) == pytest.approx((-1.0) ** n * hermite(n, z), rel=1e-12)
    # three-term recurrence
    for n in range(1, 9):
        z = 1.7
        assert hermite(n + 1, z) == pytest.approx(
            2.0 * z * hermite(n, z) - 2.0 * n * hermite(n - 1, z), rel=1e-12)


def test_odd_hermite_from_polynomial_kummer_u():
    # U((1-N)/2, 3/2, z^2) = H_N(z) / (2^N z) for odd N, where the first
    # parameter is a non-positive integer and U terminates
    for N in (1, 3, 5, 7):
        for z in (0.4, 1.3, 2.6):
            lhs = kummer_u((1.0 - N) / 2.0, 1.5, z * z).value
            rhs = hermite(N, z) / (2.0**N * z)
            assert lhs == pytest.approx(rhs, rel=1e-11)


def test_kummer_m_terminates_on_non_positive_integer_first_parameter():
    got = kummer_m(-2.0, 1.5, 0.7)
    # 1 - (2/1.5) x + (2/(1.5*2.5)) x^2 / 2 * 2 ... check against direct sum
    direct = 1.0 + (-2.0 / 1.5) * 0.7 + ((-2.0) * (-1.0) / (1.5 * 2.5)) * 0.7**2 / 2.0
    assert got.value == pytest.approx(direct, rel=1e-13)


def test_gamma_fn_values_and_poles():
    assert gamma_fn(4.5).value == pytest.approx(11.631728396567448, rel=1e-13)
    assert gamma_fn(1.0).value == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(PoleError):
        gamma_fn(0.0)
    with pytest.raises(PoleError):
        gamma_fn(-3.0)


def test_kummer_domain_errors():
    with pytest.raises(PoleError):
        kummer_m(1.0, -2.0, 0.5)
    with pytest.raises(ComputationError):
        kummer_u(0.3, 2.0, 1.0)


def test_series_converge_where_the_stop_test_would_underflow():
    # the leading term 2.1e-307 times 1e-18 underflows to 0
    import mpmath

    for kernel, ref in ((bessel_i, mpmath.besseli), (bessel_j, mpmath.besselj)):
        got = kernel(149.5, 1.0).value
        want = float(ref(149.5, 1.0))
        assert 2.0e-307 < want < 2.2e-307
        assert abs(got - want) <= 1e-12 * want
    # (x/2)^nu alone overflows here, I itself does not
    want = float(mpmath.besseli(149.5, 600.0))
    assert abs(bessel_i(149.5, 600.0).value - want) <= 1e-12 * want


def test_gamma_pair_small_memo_returns_the_computed_tuple():
    from radialqm.specfun._temme import gamma_pair_small

    assert gamma_pair_small.cache_info().maxsize is not None
    for mu in (0.0, -0.0, 0.5, -0.5, 0.25, 1e-9, 0.25):
        assert gamma_pair_small(mu) == gamma_pair_small.__wrapped__(mu)

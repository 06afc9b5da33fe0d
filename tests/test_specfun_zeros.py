"""Positive zeros of the regular cylinder function."""
from __future__ import annotations

import math

import mpmath
import pytest

from radialqm.errors import DomainError
from radialqm.specfun import bessel_j, bessel_j_zero, bessel_j_zeros, bessel_y
from radialqm.specfun import zeros
from radialqm.specfun.zeros import _STEP, _first_zero_floor, _refine

# the orders (n - 1)/2 of the dimensions the benchmark draws
BENCH_ORDERS = [(n - 1) / 2.0 for n in (0, 1, 2, 3, 4, 5, 9, 25)]


def _rescanned_zero(nu, N):
    """The N-th zero by a fresh scan from the first zero, one scan per N."""
    _j = lambda order, x: bessel_j(order, x).value
    x = _first_zero_floor(nu)
    f_prev = _j(nu, x)
    found = 0
    while True:
        x_next = x + _STEP
        f_next = _j(nu, x_next)
        if f_next == 0.0:
            found += 1
            if found == N:
                return x_next
            x, f_prev = x_next + 1e-9, _j(nu, x_next + 1e-9)
            continue
        if (f_prev > 0.0) != (f_next > 0.0):
            found += 1
            if found == N:
                return _refine(_j, nu, x, x_next)
        x, f_prev = x_next, f_next


def test_first_zero_of_order_zero():
    assert bessel_j_zero(0.0, 1) == pytest.approx(2.404825557695773, abs=1e-12)


def test_half_integer_zeros_are_multiples_of_pi():
    for N in range(1, 9):
        assert bessel_j_zero(0.5, N) == pytest.approx(N * math.pi, rel=1e-13)
        assert bessel_j_zero(-0.5, N) == pytest.approx((N - 0.5) * math.pi, rel=1e-13)


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.5, 7.0, 31.5])
def test_zeros_are_roots(nu):
    for N in (1, 2, 5, 11):
        z = bessel_j_zero(nu, N)
        # |J'| is O(1/sqrt(z)) at a zero, so the residual scale follows
        assert abs(bessel_j(nu, z).value) < 1e-12 * max(1.0, z)


def test_zeros_increase_and_interlace():
    for nu in (0.0, 1.0, 3.5):
        z = [bessel_j_zero(nu, N) for N in range(1, 8)]
        z_up = [bessel_j_zero(nu + 1.0, N) for N in range(1, 8)]
        assert all(a < b for a, b in zip(z, z[1:]))
        # j_{nu,N} < j_{nu+1,N} < j_{nu,N+1}
        for N in range(6):
            assert z[N] < z_up[N] < z[N + 1]


def test_zero_spacing_approaches_pi():
    # gap excess decays like (4 nu^2 - 1) pi / (8 j^2); measured
    # 3.51e-4 and 8.8e-5 at N = 40 and 80 for nu = 2
    gaps = [bessel_j_zero(2.0, N + 1) - bessel_j_zero(2.0, N) for N in (40, 80)]
    assert abs(gaps[0] - math.pi) < 5e-4
    assert abs(gaps[1] - math.pi) < 1.3e-4
    assert abs(gaps[1] - math.pi) < abs(gaps[0] - math.pi)


def test_zero_domain_validation():
    with pytest.raises(DomainError):
        bessel_j_zero(0.5, 0)
    with pytest.raises(DomainError):
        bessel_j_zero(0.5, -3)
    with pytest.raises(DomainError):
        bessel_j_zero(-0.6, 1)


@pytest.mark.parametrize("nu", BENCH_ORDERS)
def test_one_pass_table_equals_per_index_scans(nu):
    table = bessel_j_zeros(nu, 25)
    assert table == [_rescanned_zero(nu, N) for N in range(1, 26)]
    assert [table[N - 1] for N in (1, 5, 25)] == [bessel_j_zero(nu, N) for N in (1, 5, 25)]


@pytest.mark.parametrize("nu, N", [(0.268203, 2), (0.180675, 6)])
def test_zero_where_the_order_sweep_lands_on_a_zero(nu, N):
    # Newton's slope evaluates J_{nu+1} at a zero of J_nu, where the one-step
    # backward sweep of the continued-fraction regime hits J_nu = 0 exactly
    want = float(mpmath.besseljzero(nu, N))
    assert bessel_j_zero(nu, N) == pytest.approx(want, rel=1e-14)
    z = bessel_j_zero(nu, N)
    assert bessel_j(nu + 1.0, z).value == pytest.approx(float(mpmath.besselj(nu + 1.0, z)), rel=1e-13)
    assert bessel_y(nu + 1.0, z).value == pytest.approx(float(mpmath.bessely(nu + 1.0, z)), rel=1e-13)


# float(mpmath.besseljzero(nu, N)); computed once, as mpmath takes seconds at this order
@pytest.mark.parametrize("nu, N, want", [
    (180.0, 1, 190.66094899323141),
    (199.5, 1, 210.520262549388),
    (199.5, 2, 218.9987202516306),
])
def test_high_order_zeros_skip_the_underflowed_start(nu, N, want):
    # J underflows to an exact zero near 2 sqrt(nu + 1); that is no root
    assert bessel_j_zero(nu, N) == pytest.approx(want, rel=1e-14)


class _Recorder:
    """bessel_j that remembers every (order, x) it is asked for."""

    def __init__(self):
        self.asked = []

    def __call__(self, nu, x):
        self.asked.append((nu, x))
        return bessel_j(nu, x)


@pytest.mark.parametrize("nu", BENCH_ORDERS)
def test_a_table_asks_for_each_point_once(nu, monkeypatch):
    recorder = _Recorder()
    monkeypatch.setattr(zeros, "bessel_j", recorder)
    table = bessel_j_zeros(nu, 60)
    assert len(recorder.asked) == len(set(recorder.asked))
    # the same search with every point asked again gives the same zeros
    monkeypatch.setattr(zeros, "_memo_j", lambda: lambda order, x: bessel_j(order, x).value)
    assert table == bessel_j_zeros(nu, 60)


def test_kernel_calls_per_zero_over_the_bench_tables(monkeypatch):
    recorder = _Recorder()
    monkeypatch.setattr(zeros, "bessel_j", recorder)
    counts = (1, 5, 13, 25)
    for nu in BENCH_ORDERS:
        for count in counts:
            bessel_j_zeros(nu, count)
    # 7,910 calls for 352 zeros; asking again at revisited points made 14,669
    assert len(recorder.asked) / (len(BENCH_ORDERS) * sum(counts)) <= 23.0

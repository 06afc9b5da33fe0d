"""Closed-form bound spectra: hard box, oscillator, finite well, shell."""
from __future__ import annotations

import math
import random

import mpmath
import pytest

from radialqm.errors import ComputationError, DomainError
from radialqm.radial import Dimension, PhysicalScales
from radialqm.solvers import (
    delta_bound_energy,
    delta_bound_wavefunction,
    finite_well_bound_spectrum,
    finite_well_bound_wavefunction,
    infinite_well_spectrum,
    oscillator_spectrum,
)
from radialqm.solvers import rootfind
from radialqm.specfun import bessel_j, bessel_j_zero


def test_box_levels_are_squared_zeros(scales):
    for n in (0, 1, 3, 5):
        nu = (n - 1) / 2.0
        for lv in infinite_well_spectrum(Dimension(n), 1.0, 4, scales):
            assert lv.eps == pytest.approx(bessel_j_zero(nu, lv.N) ** 2, rel=1e-14)


def test_box_in_three_dimensions_is_sine_series(scales):
    levels = infinite_well_spectrum(Dimension(2), 1.0, 3, scales)
    for lv in levels:
        assert lv.eps == pytest.approx((lv.N * math.pi) ** 2, rel=1e-13)
    # half-line even sector: cosine zeros instead
    even = infinite_well_spectrum(Dimension(0), 1.0, 3, scales)
    for lv in even:
        assert lv.eps == pytest.approx(((lv.N - 0.5) * math.pi) ** 2, rel=1e-13)


def test_box_radius_scaling_is_exact(scales):
    one = infinite_well_spectrum(Dimension(4), 1.0, 3, scales)
    two = infinite_well_spectrum(Dimension(4), 2.0, 3, scales)
    for a, b in zip(one, two):
        assert b.eps == pytest.approx(a.eps / 4.0, rel=1e-15)


def test_box_argument_validation(scales):
    with pytest.raises(DomainError):
        infinite_well_spectrum(Dimension(2), 0.0, 3, scales)
    with pytest.raises(DomainError):
        infinite_well_spectrum(Dimension(2), 1.0, 0, scales)


def test_oscillator_ladder(scales):
    # eps = 2 mu (2N + (n+1)/2) in reduced units, E = hbar omega (2N + (n+1)/2)
    for n in (1, 2, 3, 5):
        for lv in oscillator_spectrum(Dimension(n), 1.0, 4, scales):
            assert lv.eps == pytest.approx(2.0 * (2 * lv.N + 0.5 * (n + 1)), rel=1e-14)
            assert lv.E == pytest.approx(2 * lv.N + 0.5 * (n + 1), rel=1e-14)


def test_half_line_oscillator_merges_both_parities(scales):
    eps = [lv.eps for lv in oscillator_spectrum(Dimension(0), 1.0, 5, scales)]
    assert eps == pytest.approx([1.0, 3.0, 5.0, 7.0, 9.0], rel=1e-14)
    # the even-sector subset carries the half-line spectrum
    assert eps[::2] == pytest.approx([2.0 * (2 * N + 0.5) for N in range(3)], rel=1e-14)


def test_oscillator_scale_dependence():
    sc = PhysicalScales(hbar=2.0, mass=0.5)
    levels = oscillator_spectrum(Dimension(1), 3.0, 2, sc)
    assert [lv.E for lv in levels] == pytest.approx([6.0, 18.0], rel=1e-14)
    mu = sc.oscillator_scale(3.0)
    assert [lv.eps for lv in levels] == pytest.approx([2.0 * mu, 6.0 * mu], rel=1e-14)


def test_finite_well_spectrum_frozen_case(scales):
    pairs = finite_well_bound_spectrum(Dimension(2), 18.0, 1.0, scales)
    assert [lv.eps for lv, _ in pairs] == pytest.approx(
        [28.82412105776268, 8.689305179835998], rel=1e-10)
    assert [lv.E for lv, _ in pairs] == pytest.approx(
        [-14.41206052888134, -4.344652589917999], rel=1e-10)
    assert [lv.N for lv, _ in pairs] == [1, 2]
    for _, root in pairs:
        assert abs(root.residual) < 1e-10
        lo, hi = root.bracket
        assert lo <= root.eps <= hi


def test_finite_well_empty_below_threshold(scales):
    # the first even zero sets the n=2 binding threshold v0 R^2 = (pi/2)^2
    assert finite_well_bound_spectrum(Dimension(2), 1.0, 1.0, scales) == []
    assert finite_well_bound_spectrum(Dimension(2), 1.3, 1.0, scales) != []


def test_half_line_well_always_binds(scales):
    pairs = finite_well_bound_spectrum(Dimension(0), 2.0, 1.0, scales)
    assert len(pairs) == 1
    assert pairs[0][0].eps == pytest.approx(2.939374931781726, rel=1e-10)


def test_finite_well_level_count_grows_with_depth(scales):
    shallow = finite_well_bound_spectrum(Dimension(2), 12.5, 1.0, scales)
    deep = finite_well_bound_spectrum(Dimension(2), 80.0, 1.0, scales)
    assert len(shallow) == 2
    assert [lv.eps for lv, _ in shallow] == pytest.approx(
        [18.26213863037881, 0.9282678926832162], rel=1e-10)
    assert len(deep) > len(shallow)
    eps = [lv.eps for lv, _ in deep]
    assert eps == sorted(eps, reverse=True)


@pytest.mark.parametrize("n, V0", [
    (0, 2.0), (2, 18.0), (2, 80.0), (5, 300.0), (9, 5000.0),
    # J_nu underflows at small t: zero residuals there count as no level
    (250, 50000.0), (300, 5000.0),
])
def test_cut_spectrum_is_the_head_of_the_full_one(scales, n, V0):
    full = finite_well_bound_spectrum(Dimension(n), V0, 1.0, scales)
    for L in sorted({1, 2, len(full) - 1, len(full), len(full) + 1, len(full) + 5} - {-1, 0}):
        assert finite_well_bound_spectrum(Dimension(n), V0, 1.0, scales, levels=L) == full[:L], L


def test_cut_spectrum_needs_a_positive_count(scales):
    for bad in (0, -2, 1.5):
        with pytest.raises(DomainError):
            finite_well_bound_spectrum(Dimension(2), 18.0, 1.0, scales, levels=bad)


def test_level_n_mode_bisects_n_roots(scales, monkeypatch):
    bisected = []
    real = rootfind.bisect

    def counted(*args):
        bisected.append(args)
        return real(*args)

    monkeypatch.setattr(rootfind, "bisect", counted)
    full = finite_well_bound_spectrum(Dimension(2), 80.0, 1.0, scales)
    assert len(full) == 4 and len(bisected) == 4
    for N in (1, 2, 3, 4):
        bisected.clear()
        finite_well_bound_wavefunction(Dimension(2), 80.0, 1.0, N, scales)
        assert len(bisected) == N
    # past the last level the scan runs to its end, and the error names the full count
    bisected.clear()
    with pytest.raises(DomainError, match="well holds 4 bound levels, index 5 out of range"):
        finite_well_bound_wavefunction(Dimension(2), 80.0, 1.0, 5, scales)
    assert len(bisected) == 4


def test_shell_bound_state_frozen_cases(scales):
    lv, root = delta_bound_energy(Dimension(2), 6.0, 1.0, scales)
    assert lv.eps == pytest.approx(8.954760672448813, rel=1e-10)
    assert abs(root.residual) < 1e-12
    lv0, _ = delta_bound_energy(Dimension(0), 50.0, 1.0, scales)
    assert lv0.eps == pytest.approx(625.0, rel=1e-12)
    lv1, _ = delta_bound_energy(Dimension(1), 4.0, 1.0, scales)
    assert lv1.eps == pytest.approx(4.295669534025858, rel=1e-10)


def test_shell_threshold_is_sharp(scales):
    for n in (2, 3, 4, 5):
        nu = (n - 1) / 2.0
        assert delta_bound_energy(Dimension(n), 2.0 * nu, 1.0, scales) is None
        assert delta_bound_energy(Dimension(n), 2.0 * nu * 0.98, 1.0, scales) is None
        assert delta_bound_energy(Dimension(n), 2.0 * nu * 1.02, 1.0, scales) is not None
    # no threshold on the half line
    weak = delta_bound_energy(Dimension(0), 0.3, 1.0, scales)
    assert weak is not None
    assert weak[0].eps == pytest.approx(0.05874673350544825, rel=1e-9)


def _mp_shell_eps(n, gr, start, dps):
    """kappa^2 R^2 at the root of I_nu K_nu = 1/(gamma R), at dps digits.

    1/(I_nu K_nu) is monotone in x, so the start only sets the speed.
    """
    with mpmath.workdps(dps):
        nu, target = mpmath.mpf(n - 1) / 2, mpmath.mpf(gr)
        x = mpmath.findroot(
            lambda t: 1 / (mpmath.besseli(nu, t) * mpmath.besselk(nu, t)) - target,
            mpmath.mpf(start))
        return x * x


def _assert_shell_level_matches_mpmath(n, gr, scales):
    lv, _ = delta_bound_energy(Dimension(n), gr, 1.0, scales)
    want = _mp_shell_eps(n, gr, math.sqrt(lv.eps), 80)
    assert abs(_mp_shell_eps(n, gr, math.sqrt(lv.eps), 40) - want) < 1e-30 * want
    # gamma R is exact; its distance to 2 nu bounds how well eps is conditioned
    nu = 0.5 * (n - 1)
    delta = gr / (2.0 * nu) - 1.0 if nu > 0 else math.inf
    assert abs(lv.eps - want) <= (1e-15 + 4e-16 / delta) * want, (n, gr, lv.eps)
    return lv


def test_shell_level_beyond_the_double_range_is_an_error(scales):
    # nu <= 0 always binds; these levels sit below the smallest doubles
    for n, gamma in ((1, 0.001), (1, 0.0015), (1, 0.002), (0, 1e-305)):
        with pytest.raises(ComputationError, match="double range"):
            delta_bound_energy(Dimension(n), gamma, 1.0, scales)
    # kappa R ~ 5e299 squares to inf; gamma R = 1e310 is inf itself; gamma R = 1e-600
    # underflows to 0, where nu = 0 still binds
    for n, gamma, R in ((2, 1e300, 1.0), (2, 1e300, 1e10), (1, 1e-300, 1e-300)):
        with pytest.raises(ComputationError, match="double range"):
            delta_bound_energy(Dimension(n), gamma, R, scales)
    # just above the n = 2 threshold the level is shallow but in range, kappa R ~ 1e-10
    lv = _assert_shell_level_matches_mpmath(2, 1.0 + 1e-10, scales)
    assert 1e-21 < lv.eps < 1e-19
    # a weak n = 1 coupling still in range: kappa R = 2 exp(-euler - 1/(gamma R))
    lv, _ = delta_bound_energy(Dimension(1), 0.005, 1.0, scales)
    kappa = 2.0 * math.exp(-0.5772156649015329 - 200.0)
    assert lv.eps == pytest.approx(kappa * kappa, rel=1e-10)


def test_high_order_underflow_is_no_level(scales):
    # J_nu underflows at small t for nu = 149.5: a zero residual there is no root,
    # and Q = 100 lies below the first zero of J_nu, so no level binds
    assert finite_well_bound_spectrum(Dimension(300), 5000.0, 1.0, scales) == []
    # the shell level at nu = 149.5, where I_nu underflows and K_nu overflows
    _assert_shell_level_matches_mpmath(300, 2000.0, scales)
    # at n = 250 the first level binds and its mode builds; r^(-nu) overflows only near 0
    psi = finite_well_bound_wavefunction(Dimension(250), 50000.0, 1.0, 1, scales)
    with mpmath.workdps(30):
        nu, q, kappa = mpmath.mpf(249) / 2, mpmath.sqrt(100000 - psi.eps), mpmath.sqrt(psi.eps)
        a, b = mpmath.besselk(nu, kappa), mpmath.besselj(nu, q)

        def form(r):
            return (a * mpmath.besselj(nu, q * r) if r < 1 else b * mpmath.besselk(nu, kappa * r)) * r**-nu

        # the mass sits where J_nu turns over (q r near nu) and within 20/kappa past the wall
        inner = [0.0, 0.6] + mpmath.linspace(0.8, 1, 21)
        outer = mpmath.linspace(1, 1 + 20 / kappa, 21) + [1 + 80 / kappa]
        mass = (mpmath.quad(lambda r: r**250 * form(r) ** 2, inner)
                + mpmath.quad(lambda r: r**250 * form(r) ** 2, outer))
        for r in (0.01, 0.1, 0.5, 0.9, 1.0, 1.02):
            want = float(form(mpmath.mpf(r)) / mpmath.sqrt(mass))
            assert psi.sample(r) == pytest.approx(want, rel=1e-11)
    with pytest.raises(ComputationError, match="double range"):
        psi.sample(0.001)


# beyond the reach of the product scan that solved the shell before the
# ratio form: nu = 33, 33.5 and 124.5
@pytest.mark.parametrize("n, gr", ((67, 70.0), (67, 66.5), (68, 80.0), (250, 300.0)))
def test_high_order_shell_level_matches_mpmath(n, gr, scales):
    _assert_shell_level_matches_mpmath(n, gr, scales)


@pytest.mark.parametrize("n", (2, 50))
def test_shell_level_matches_mpmath_at_the_product_expansion_seam(n, scales):
    # kappa R just below and just above x = max(25, 2 nu)
    seam = max(25.0, n - 1.0)
    for side in (1.0 - 1e-9, 1.0 + 1e-9):
        x = seam * side
        with mpmath.workdps(40):
            nu = mpmath.mpf(n - 1) / 2
            gr = float(1 / (mpmath.besseli(nu, x) * mpmath.besselk(nu, x)))
        lv = _assert_shell_level_matches_mpmath(n, gr, scales)
        assert (math.sqrt(lv.eps) < seam) == (side < 1.0)


def test_shell_levels_near_threshold_match_mpmath(scales):
    # seeded draws up to n = 250, a relative 1e-10 to 1e-1 above gamma R = 2 nu
    rng = random.Random(20141)
    for _ in range(12):
        n = rng.randint(2, 250)
        gr = (n - 1.0) * (1.0 + 10.0 ** rng.uniform(-10.0, -1.0))
        _assert_shell_level_matches_mpmath(n, gr, scales)


def test_shell_coupling_validation(scales):
    for bad in (0.0, -3.0, math.inf):
        with pytest.raises(DomainError):
            delta_bound_energy(Dimension(1), bad, 1.0, scales)


def test_shell_mode_satisfies_its_matching(scales):
    # continuity at the shell plus the correct interior shape
    psi = delta_bound_wavefunction(Dimension(2), 6.0, 1.0, scales)
    gap = psi.sample(1.0 - 1e-12) - psi.sample(1.0 + 1e-12)
    assert abs(gap) < 1e-9 * abs(psi.sample(1.0))
    kappa = math.sqrt(8.954760672448813)
    inner = psi.sample(0.4) / psi.sample(0.2)
    from radialqm.specfun import bessel_i
    ref = (bessel_i(0.5, kappa * 0.4).value / 0.4**0.5) / (bessel_i(0.5, kappa * 0.2).value / 0.2**0.5)
    assert inner == pytest.approx(ref, rel=1e-10)


def test_deep_shell_energy_approaches_quarter_coupling_squared(scales):
    lv, _ = delta_bound_energy(Dimension(3), 400.0, 1.0, scales)
    assert lv.eps == pytest.approx(400.0**2 / 4.0, rel=1e-3)

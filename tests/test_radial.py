"""Reduction bookkeeping, wave-function containers and weighted integrals."""
from __future__ import annotations

import math
from fractions import Fraction

import pytest

from radialqm.errors import (
    DomainError,
    NonNormalizableError,
    OriginDivergenceError,
)
from radialqm.radial import (
    Dimension,
    EnergyLevel,
    Free,
    Harmonic,
    DeltaShell,
    FiniteWell,
    PhysicalScales,
    energy_functional,
    norm_integral,
    normalize,
    reduce,
    whittaker_form_constant,
)
from radialqm.radial.wavefunction import BESSEL_K, Piece, RadialWaveFunction
from radialqm.solvers import (
    delta_bound_wavefunction,
    finite_well_bound_wavefunction,
    free_mode,
    infinite_well_wavefunction,
    oscillator_wavefunction,
)


def test_dimension_order():
    for n, nu in ((0, -0.5), (1, 0.0), (2, 0.5), (3, 1.0), (6, 2.5)):
        d = Dimension(n)
        assert d.nu == nu
        assert d.nu_exact == Fraction(n - 1, 2)
    with pytest.raises(DomainError):
        Dimension(-1)


@pytest.mark.parametrize("n", range(7))
def test_reduction_lands_on_bessel_form(n):
    eq = reduce(Dimension(n), Free(), PhysicalScales())
    # both coefficients are exact rationals, no float drift allowed
    assert eq.first_order_coeff == Fraction(1)
    assert eq.constant_term == -Fraction(n - 1, 2) ** 2
    assert eq.is_bessel_form


def test_whittaker_form_constant():
    assert whittaker_form_constant(Dimension(3)) == 0
    for n in (0, 1, 2, 4, 5):
        assert whittaker_form_constant(Dimension(n)) == Fraction((n + 1) * (n - 3))
    assert whittaker_form_constant(Dimension(3), M=Fraction(2)) == 8


def test_scale_conversions_round_trip():
    sc = PhysicalScales(hbar=2.0, mass=3.0)
    for E in (0.7, -4.2, 31.0):
        assert sc.physical_energy(sc.reduced_energy(E)) == pytest.approx(E, rel=1e-15)
    assert sc.reduced_energy(1.0) == pytest.approx(2.0 * 3.0 / 4.0)
    assert sc.reduced_coupling(5.0) == pytest.approx(2.0 * 3.0 * 5.0 / 4.0)
    assert sc.oscillator_scale(2.0) == pytest.approx(3.0)
    with pytest.raises(DomainError):
        PhysicalScales(hbar=0.0)
    with pytest.raises(DomainError):
        PhysicalScales(mass=-1.0)


def test_energy_level_validation():
    sc = PhysicalScales()
    lv = EnergyLevel.bound(2, 9.0, sc)
    assert lv.E == pytest.approx(4.5)
    neg = EnergyLevel.bound_magnitude(1, -8.0, sc)
    assert neg.eps == 8.0 and neg.E == pytest.approx(-4.0)
    with pytest.raises(DomainError):
        EnergyLevel(N=-1, eps=1.0, E=0.5)


def test_piece_validation():
    with pytest.raises(DomainError):
        Piece(1.0, 0.5, BESSEL_K, 1.0, scale=1.0)
    with pytest.raises(DomainError):
        Piece(0.0, 1.0, "NoSuchForm", 1.0, scale=1.0)
    with pytest.raises(DomainError):
        Piece(0.0, 1.0, BESSEL_K, 1.0, scale=-2.0)


def test_wavefunction_ordering_and_eps():
    sc = PhysicalScales()
    psi = infinite_well_wavefunction(Dimension(2), 1.0, 1, sc)
    assert psi.eps == pytest.approx(math.pi**2)
    with pytest.raises(DomainError):
        RadialWaveFunction(
            dimension=Dimension(2),
            energy=1.0,
            pieces=(
                Piece(0.5, 2.0, BESSEL_K, 1.0, scale=1.0),
                Piece(0.0, 1.0, BESSEL_K, 1.0, scale=1.0),
            ),
        )


@pytest.mark.parametrize(
    "label, factory, r_max",
    [
        ("well", lambda sc: infinite_well_wavefunction(Dimension(3), 1.0, 2, sc), 1.0),
        ("oscillator", lambda sc: oscillator_wavefunction(Dimension(2), 1.0, 3, sc), math.inf),
        ("finite-well", lambda sc: finite_well_bound_wavefunction(Dimension(2), 18.0, 1.0, 1, sc), math.inf),
        ("shell", lambda sc: delta_bound_wavefunction(Dimension(1), 4.0, 1.0, sc), math.inf),
    ],
)
def test_solver_modes_come_back_normalized(label, factory, r_max, scales):
    psi = factory(scales)
    assert norm_integral(psi, r_max, 1e-10) == pytest.approx(1.0, abs=1e-9)


def test_normalize_rescales_to_unit_mass(scales):
    psi = oscillator_wavefunction(Dimension(2), 1.0, 2, scales)
    doubled = psi.with_norm_constant(2.0 * psi.norm_constant)
    again = normalize(doubled)
    assert norm_integral(again, math.inf, 1e-10) == pytest.approx(1.0, abs=1e-9)
    assert again.norm_constant == pytest.approx(psi.norm_constant, rel=1e-9)


def test_irregular_origin_piece_is_rejected():
    bad = RadialWaveFunction(
        dimension=Dimension(3),
        energy=2.0,
        pieces=(Piece(0.0, math.inf, BESSEL_K, 1.0, scale=math.sqrt(2.0)),),
    )
    with pytest.raises(OriginDivergenceError):
        norm_integral(bad, 10.0, 1e-8)
    with pytest.raises(OriginDivergenceError):
        bad.sample(0.0)
    with pytest.raises(OriginDivergenceError):
        bad.derivative(0.0)


def test_regular_mode_takes_its_limit_at_the_origin(scales):
    # r^(-nu) J_nu(k r) at r = 0 is (k/2)^nu / Gamma(nu + 1), flat to O(r^2)
    psi = infinite_well_wavefunction(Dimension(2), 1.0, 1, scales)
    assert psi.sample(0.0) == pytest.approx(psi.sample(1e-7), rel=1e-12)
    assert psi.derivative(0.0) == 0.0
    assert abs(psi.derivative(1e-7)) < 1e-5


def test_oscillatory_tail_cannot_be_normalized_to_infinity(scales):
    mode = free_mode(Dimension(2), 4.0)
    with pytest.raises(NonNormalizableError):
        norm_integral(mode, math.inf, 1e-8)
    # truncated mass is still a plain number
    assert norm_integral(mode, 10.0, 1e-10) == pytest.approx(1.5619023202556706, rel=1e-9)


def test_energy_functional_matches_closed_energies(scales):
    osc = oscillator_wavefunction(Dimension(2), 1.0, 1, scales)
    assert energy_functional(osc, scales, Harmonic(1.0)) == pytest.approx(3.5, rel=1e-10)
    shell = delta_bound_wavefunction(Dimension(1), 4.0, 1.0, scales)
    assert energy_functional(shell, scales, DeltaShell(2.0, -1, 1.0)) == pytest.approx(
        -2.147834767012929, rel=1e-10)
    well = finite_well_bound_wavefunction(Dimension(2), 18.0, 1.0, 1, scales)
    assert energy_functional(well, scales, FiniteWell(18.0, 1.0)) == pytest.approx(
        -14.41206052888134, rel=1e-10)


def test_norm_integral_rejects_bad_tolerance(scales):
    psi = oscillator_wavefunction(Dimension(2), 1.0, 0, scales)
    with pytest.raises(Exception):
        norm_integral(psi, math.inf, 0.0)


def test_high_oscillator_mode_certifies_its_tail(scales):
    # t0**p of the tail bound overflows a double here; mpmath gives the mode
    import mpmath

    psi = oscillator_wavefunction(Dimension(2), 1.0, 52, scales)
    norm = mpmath.sqrt(2 * mpmath.factorial(52) / mpmath.gamma(53.5))
    for r in (3.0, 9.0, 15.0):
        want = float(norm * mpmath.laguerre(52, 0.5, r * r) * mpmath.exp(-r * r / 2))
        assert abs(psi.sample(r)) == pytest.approx(abs(want), rel=1e-9)

"""Reduction bookkeeping, wave-function containers and weighted integrals."""
from __future__ import annotations

import math
from fractions import Fraction

import pytest

from radialqm.errors import (
    ComputationError,
    DivergenceError,
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
    norm_integral,
    normalize,
    reduce,
    whittaker_form_constant,
)
from radialqm.radial.quadrature import integrate
from radialqm.radial.wavefunction import (
    BESSEL_I,
    BESSEL_J,
    BESSEL_K,
    GAUSS_HERMITE,
    GAUSS_LAGUERRE,
    Piece,
    RadialWaveFunction,
)
from radialqm.solvers import (
    delta_bound_wavefunction,
    finite_well_bound_wavefunction,
    free_mode,
    infinite_well_wavefunction,
    oscillator_wavefunction,
)
from radialqm.specfun import bessel_i, bessel_j, bessel_k, laguerre


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
        normalize(bad)


def test_regular_mode_takes_its_limit_at_the_origin(scales):
    # r^(-nu) J_nu(k r) at r = 0 is (k/2)^nu / Gamma(nu + 1), flat to O(r^2)
    psi = infinite_well_wavefunction(Dimension(2), 1.0, 1, scales)
    assert psi.sample(0.0) == pytest.approx(psi.sample(1e-7), rel=1e-12)


def test_oscillatory_tail_cannot_be_normalized_to_infinity(scales):
    mode = free_mode(Dimension(2), 4.0)
    with pytest.raises(NonNormalizableError):
        norm_integral(mode, math.inf, 1e-8)
    # truncated mass is still a plain number
    assert norm_integral(mode, 10.0, 1e-10) == pytest.approx(1.5619023202556706, rel=1e-9)


# d/dr [r^(-nu) Z_nu(k r)] = sign k r^(-nu) Z_(nu+1)(k r)
_SLOPES = {BESSEL_J: (-1.0, bessel_j), BESSEL_I: (1.0, bessel_i), BESSEL_K: (-1.0, bessel_k)}


def _slope(psi, r):
    """dPsi/dr of a Bessel- or Laguerre-form mode."""
    piece = psi.pieces[psi.piece_index_at(r)]
    nu, k = psi.dimension.nu, piece.scale
    if piece.tag == GAUSS_LAGUERRE:
        # d/dz L_N^(a)(z) = -L_(N-1)^(a+1)(z), with z = k r^2
        N, alpha, z = piece.degree, piece.alpha, k * r * r
        poly_slope = -laguerre(N - 1, alpha + 1.0, z) if N else 0.0
        form = math.exp(-0.5 * z) * k * r * (2.0 * poly_slope - laguerre(N, alpha, z))
    else:
        sign, kernel = _SLOPES[piece.tag]
        form = sign * k * r ** (-nu) * kernel(nu + 1.0, k * r).value
    return psi.norm_constant * piece.coeff * form


def _mean_energy(psi, scales, potential, r_max):
    """<H> = int r^n [(hbar^2/2m) Psi'^2 + V Psi^2] dr, plus the shell term."""
    n = psi.dimension.n
    kin = scales.hbar**2 / (2.0 * scales.mass)

    def potential_at(r):
        if isinstance(potential, Harmonic):
            return 0.5 * scales.mass * potential.omega**2 * r * r
        if isinstance(potential, FiniteWell) and r < potential.R:
            return -potential.V0
        return 0.0

    def density(r):
        return r**n * (kin * _slope(psi, r) ** 2 + potential_at(r) * psi.sample(r) ** 2)

    edges = [0.0, r_max]
    if isinstance(potential, (FiniteWell, DeltaShell)):
        edges.insert(1, potential.R)
    total = sum(integrate(density, a, b, 1e-13)[0] for a, b in zip(edges, edges[1:]))
    if isinstance(potential, DeltaShell):
        total += potential.sign * potential.g * potential.R**n * psi.sample(potential.R) ** 2
    return total


def test_energy_functional_matches_closed_energies(scales):
    osc = oscillator_wavefunction(Dimension(2), 1.0, 1, scales)
    assert _mean_energy(osc, scales, Harmonic(1.0), 12.0) == pytest.approx(3.5, rel=1e-10)
    shell = delta_bound_wavefunction(Dimension(1), 4.0, 1.0, scales)
    assert _mean_energy(shell, scales, DeltaShell(2.0, -1, 1.0), 20.0) == pytest.approx(
        -2.147834767012929, rel=1e-10)
    well = finite_well_bound_wavefunction(Dimension(2), 18.0, 1.0, 1, scales)
    assert _mean_energy(well, scales, FiniteWell(18.0, 1.0), 8.0) == pytest.approx(
        -14.41206052888134, rel=1e-10)


def test_norm_integral_rejects_bad_tolerance(scales):
    psi = oscillator_wavefunction(Dimension(2), 1.0, 0, scales)
    with pytest.raises(Exception):
        norm_integral(psi, math.inf, 0.0)


def test_high_oscillator_mode_certifies_its_tail(scales):
    # Gamma(53.5) / 52! sets the norm constant here; mpmath gives the mode
    import mpmath

    psi = oscillator_wavefunction(Dimension(2), 1.0, 52, scales)
    norm = mpmath.sqrt(2 * mpmath.factorial(52) / mpmath.gamma(53.5))
    for r in (3.0, 9.0, 15.0):
        want = float(norm * mpmath.laguerre(52, 0.5, r * r) * mpmath.exp(-r * r / 2))
        assert abs(psi.sample(r)) == pytest.approx(abs(want), rel=1e-9)


def _mode(n, *pieces):
    return RadialWaveFunction(Dimension(n), 1.0, pieces)


@pytest.mark.parametrize("n", [0, 1, 2, 5])
@pytest.mark.parametrize("tag, lo, hi", [
    (BESSEL_J, 0.0, 2.5), (BESSEL_J, 0.7, 2.5),
    (BESSEL_I, 0.0, 2.5), (BESSEL_I, 0.7, 2.5),
    (BESSEL_K, 0.7, 2.5), (BESSEL_K, 0.7, math.inf),
])
def test_hand_built_cylinder_pieces_normalize(tag, lo, hi, n):
    psi = normalize(_mode(n, Piece(lo, hi, tag, -3.7, scale=1.9)))
    assert norm_integral(psi, math.inf, 1e-11) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n, tag, alpha", [
    (0, GAUSS_HERMITE, None), (1, GAUSS_LAGUERRE, 0.0), (4, GAUSS_LAGUERRE, 1.5),
])
@pytest.mark.parametrize("degree", [0, 3])
def test_hand_built_gauss_pieces_normalize(n, tag, alpha, degree):
    piece = Piece(0.0, math.inf, tag, 0.25, scale=2.3, degree=degree, alpha=alpha)
    psi = normalize(_mode(n, piece))
    assert norm_integral(psi, math.inf, 1e-11) == pytest.approx(1.0, abs=1e-9)


def test_pieces_of_several_tags_normalize_together():
    psi = normalize(_mode(3, Piece(0.0, 1.0, BESSEL_J, 2.0, scale=3.0),
                          Piece(1.0, 2.0, BESSEL_I, 0.5, scale=1.5),
                          Piece(2.0, 4.0, BESSEL_J, 0.0, scale=1.0),
                          Piece(4.0, math.inf, BESSEL_K, 7.0, scale=0.8)))
    assert norm_integral(psi, math.inf, 1e-11) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n, piece", [
    (2, Piece(0.0, 5.0, GAUSS_LAGUERRE, 1.0, scale=1.0, degree=1, alpha=0.5)),
    (2, Piece(1.0, math.inf, GAUSS_LAGUERRE, 1.0, scale=1.0, degree=1, alpha=0.5)),
    (2, Piece(0.0, math.inf, GAUSS_LAGUERRE, 1.0, scale=1.0, degree=1, alpha=1.5)),
    (0, Piece(0.0, 5.0, GAUSS_HERMITE, 1.0, scale=1.0, degree=2)),
    (2, Piece(0.0, math.inf, GAUSS_HERMITE, 1.0, scale=1.0, degree=2)),
])
def test_gauss_pieces_without_a_closed_form_norm_are_domain_errors(n, piece):
    with pytest.raises(DomainError):
        normalize(_mode(n, piece))


def test_normalize_rejects_growing_and_massless_modes():
    with pytest.raises(NonNormalizableError):
        normalize(_mode(2, Piece(0.0, math.inf, BESSEL_J, 1.0, scale=1.0)))
    with pytest.raises(DivergenceError):
        normalize(_mode(2, Piece(1.0, math.inf, BESSEL_I, 1.0, scale=1.0)))
    with pytest.raises(ComputationError):
        normalize(_mode(2, Piece(0.0, 1.0, BESSEL_J, 0.0, scale=1.0)))


def test_modes_build_without_quadrature(scales, monkeypatch):
    import radialqm.radial as radial
    import radialqm.radial.norms as norms
    import radialqm.radial.quadrature as quadrature

    def refuse(*args):
        raise AssertionError("quadrature called while building a mode")

    for module in (radial, norms, quadrature):
        monkeypatch.setattr(module, "integrate", refuse)
    modes = [
        infinite_well_wavefunction(Dimension(3), 1.0, 2, scales),
        oscillator_wavefunction(Dimension(2), 1.0, 3, scales),
        finite_well_bound_wavefunction(Dimension(2), 18.0, 1.0, 1, scales),
        delta_bound_wavefunction(Dimension(1), 4.0, 1.0, scales),
    ]
    assert all(psi.norm_constant > 0.0 for psi in modes)


@pytest.mark.parametrize("n, N, omega", [(200, 2, 0.25), (300, 2, 1.0), (300, 10, 1.0)])
def test_norm_integral_at_high_dimension(n, N, omega, scales):
    # r^n and Psi^2 each leave the double range here; their product does not
    psi = oscillator_wavefunction(Dimension(n), omega, N, scales)
    assert norm_integral(psi, math.inf, 1e-10) == pytest.approx(1.0, abs=1e-9)

"""Domain model: dimensions, unit scales, potentials, reduced equations.

The radial problems live in (n+1) spatial dimensions with n angular
coordinates.  Substituting s(r) = u(r)/r^nu with nu = (n-1)/2 turns the
radial equation into canonical Bessel-like form; the bookkeeping here is
done in exact rational arithmetic so structural identities can be
asserted symbolically rather than to rounding tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from ..errors import DomainError, require_count, require_positive


@dataclass(frozen=True)
class Dimension:
    """Spatial dimension bookkeeping: n angular coordinates, (n+1) total."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise DomainError(f"angular coordinate count must be an integer, got {self.n!r}")
        if self.n < 0:
            raise DomainError(f"angular coordinate count must be >= 0, got {self.n}")

    @property
    def nu_exact(self) -> Fraction:
        return Fraction(self.n - 1, 2)

    @property
    def nu(self) -> float:
        # float(nu_exact) for every int n, without building a Fraction
        return 0.5 * (self.n - 1)


@dataclass(frozen=True)
class PhysicalScales:
    """hbar and mass, plus the maps between physical and reduced quantities.

    Reduced energy eps = 2mE/hbar^2 carries 1/length^2 units; all solver
    arithmetic happens there and converts back only at the boundary.
    """

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self) -> None:
        require_positive("hbar", self.hbar)
        require_positive("mass", self.mass)

    def reduced_energy(self, energy: float) -> float:
        return 2.0 * self.mass * energy / (self.hbar * self.hbar)

    def physical_energy(self, eps: float) -> float:
        return self.hbar * self.hbar * eps / (2.0 * self.mass)

    def reduced_potential(self, potential_energy: float) -> float:
        return 2.0 * self.mass * potential_energy / (self.hbar * self.hbar)

    def reduced_coupling(self, g: float) -> float:
        return 2.0 * self.mass * g / (self.hbar * self.hbar)

    def oscillator_scale(self, omega: float) -> float:
        """Inverse-square length mu = m*omega/hbar of the oscillator ground state."""
        return self.mass * omega / self.hbar


@dataclass(frozen=True)
class InfiniteWell:
    """Hard spherical box: V = 0 for r < R, infinite outside."""

    R: float

    def __post_init__(self) -> None:
        require_positive("well radius", self.R)


@dataclass(frozen=True)
class Harmonic:
    """Isotropic oscillator V = (1/2) m omega^2 r^2."""

    omega: float

    def __post_init__(self) -> None:
        require_positive("oscillator frequency", self.omega)


@dataclass(frozen=True)
class Free:
    """No potential anywhere."""


@dataclass(frozen=True)
class DeltaShell:
    """Shell potential V = sign * g * delta(r - R); sign -1 well, +1 barrier."""

    g: float
    sign: int
    R: float

    def __post_init__(self) -> None:
        require_positive("shell coupling", self.g)
        if self.sign not in (-1, 1):
            raise DomainError(f"shell sign must be -1 or +1, got {self.sign!r}")
        require_positive("shell radius", self.R)


@dataclass(frozen=True)
class FiniteWell:
    """Attractive square well: V = -V0 for r < R, 0 outside."""

    V0: float
    R: float

    def __post_init__(self) -> None:
        require_positive("well depth", self.V0)
        require_positive("well radius", self.R)


Potential = Union[InfiniteWell, Harmonic, Free, DeltaShell, FiniteWell]


@dataclass(frozen=True)
class EnergyLevel:
    """One bound-spectrum entry: quantum number, reduced and physical energy."""

    N: int
    eps: float
    E: float

    def __post_init__(self) -> None:
        require_count("quantum number", self.N, 0)

    @classmethod
    def bound(cls, N: int, eps: float, scales: PhysicalScales) -> "EnergyLevel":
        return cls(N=N, eps=eps, E=scales.physical_energy(eps))

    @classmethod
    def bound_magnitude(cls, N: int, eps_signed: float, scales: PhysicalScales) -> "EnergyLevel":
        """Negative-energy level stored by |eps|, physical E kept signed."""
        return cls(N=N, eps=abs(eps_signed), E=scales.physical_energy(eps_signed))


@dataclass(frozen=True)
class ReducedEquation:
    """Canonical form r^2 u'' + c1 r u' + [(eps - v) r^2 + c0] u = 0.

    c1 = n - 2*nu_tilde and c0 = nu_tilde*(nu_tilde - n + 1) - M, both
    exact Fractions.  With the canonical substitution power
    nu_tilde = (n-1)/2 and M = 0 this is the Bessel equation of order
    |nu_tilde| wherever the potential is constant.
    """

    dimension: Dimension
    exponent_choice: Fraction
    M: Fraction
    potential: Potential
    scales: PhysicalScales

    @property
    def first_order_coeff(self) -> Fraction:
        return self.dimension.n - 2 * self.exponent_choice

    @property
    def constant_term(self) -> Fraction:
        nt = self.exponent_choice
        return nt * (nt - self.dimension.n + 1) - self.M

    @property
    def is_bessel_form(self) -> bool:
        return (
            self.first_order_coeff == 1
            and self.constant_term == -self.exponent_choice**2
        )


def reduce(dim: Dimension, pot: Potential, scales: PhysicalScales) -> ReducedEquation:
    """Apply s = u/r^nu with nu = (n-1)/2 in the angular-invariant sector."""
    return ReducedEquation(
        dimension=dim,
        exponent_choice=dim.nu_exact,
        M=Fraction(0),
        potential=pot,
        scales=scales,
    )


def whittaker_form_constant(dim: Dimension, M: Fraction = Fraction(0)) -> Fraction:
    """Constant (n+1)(n-3) + 4M left over when the oscillator equation is
    driven to Whittaker form by the square-argument substitution with
    power (n+1)/2.  Vanishes exactly at n = 3 in the invariant sector.
    """
    n = dim.n
    return Fraction((n + 1) * (n - 3)) + 4 * M

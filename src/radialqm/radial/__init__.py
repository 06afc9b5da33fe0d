"""Domain model, wave-function pieces, and r^n-weighted integrals."""

from .model import (
    DeltaShell,
    Dimension,
    EnergyLevel,
    FiniteWell,
    Free,
    Harmonic,
    InfiniteWell,
    PhysicalScales,
    Potential,
    ReducedEquation,
    reduce,
    whittaker_form_constant,
)
from .norms import norm_integral, normalize
from .quadrature import integrate
from .wavefunction import (
    ALL_TAGS,
    BESSEL_I,
    BESSEL_J,
    BESSEL_K,
    GAUSS_HERMITE,
    GAUSS_LAGUERRE,
    Piece,
    RadialWaveFunction,
)

__all__ = [
    "Dimension",
    "PhysicalScales",
    "Potential",
    "InfiniteWell",
    "Harmonic",
    "Free",
    "DeltaShell",
    "FiniteWell",
    "EnergyLevel",
    "ReducedEquation",
    "reduce",
    "whittaker_form_constant",
    "Piece",
    "RadialWaveFunction",
    "ALL_TAGS",
    "BESSEL_J",
    "BESSEL_I",
    "BESSEL_K",
    "GAUSS_LAGUERRE",
    "GAUSS_HERMITE",
    "norm_integral",
    "normalize",
    "integrate",
]

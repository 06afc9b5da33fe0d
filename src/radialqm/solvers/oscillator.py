"""Isotropic harmonic confinement: ladder spectrum and Gauss-type modes.

For n >= 1 the modes are a Gaussian envelope times an associated
Laguerre polynomial in the scaled radius squared, with ladder spacing
twice the base quantum.  The n = 0 line collapses to the half-line
even-parity problem whose full ladder interleaves both parities, so that
case returns the merged Hermite ladder instead.
"""
from __future__ import annotations

import math
from typing import List

from ..errors import require_count, require_positive
from ..radial import (
    GAUSS_HERMITE,
    GAUSS_LAGUERRE,
    Dimension,
    EnergyLevel,
    PhysicalScales,
    Piece,
    RadialWaveFunction,
)
from ..radial.norms import normalize


def oscillator_spectrum(
    dim: Dimension, omega: float, count: int, scales: PhysicalScales
) -> List[EnergyLevel]:
    """E_N = hbar*omega*(2N + (n+1)/2); merged half-step ladder when n = 0."""
    omega = require_positive("oscillator frequency", omega)
    count = require_count("level count", count, 1)
    mu = scales.oscillator_scale(omega)
    levels = []
    for N in range(count):
        if dim.n == 0:
            eps = 2.0 * mu * (N + 0.5)
        else:
            eps = 2.0 * mu * (2.0 * N + 0.5 * (dim.n + 1))
        levels.append(EnergyLevel.bound(N, eps, scales))
    return levels


def oscillator_wavefunction(
    dim: Dimension, omega: float, N: int, scales: PhysicalScales
) -> RadialWaveFunction:
    """Normalized N-th mode; Laguerre form for n >= 1, Hermite form for n = 0."""
    omega = require_positive("oscillator frequency", omega)
    N = require_count("mode index", N, 0)
    mu = scales.oscillator_scale(omega)
    if dim.n == 0:
        eps = 2.0 * mu * (N + 0.5)
        piece = Piece(0.0, math.inf, GAUSS_HERMITE, 1.0, scale=mu, degree=N)
    else:
        eps = 2.0 * mu * (2.0 * N + 0.5 * (dim.n + 1))
        piece = Piece(0.0, math.inf, GAUSS_LAGUERRE, 1.0, scale=mu, degree=N, alpha=dim.nu)
    psi = RadialWaveFunction(dim, EnergyLevel.bound(N, eps, scales), (piece,))
    return normalize(psi)

"""Impenetrable radial box: exact levels and normalized modes.

The regular interior solution vanishes on the wall when the scaled
wavenumber sits on a first-kind cylinder zero, so the spectrum is the
zero table squared.  The mode normalizes through Lommel's closed-form
weighted integral, which at the zero collapses to (R^2/2) J_(nu+1)(z)^2.
"""
from __future__ import annotations

from typing import List

from ..errors import require_count, require_positive
from ..radial import (
    BESSEL_J,
    Dimension,
    EnergyLevel,
    PhysicalScales,
    Piece,
    RadialWaveFunction,
)
from ..radial.norms import normalize
from ..specfun import bessel_j_zero, bessel_j_zeros


def infinite_well_spectrum(
    dim: Dimension, R: float, count: int, scales: PhysicalScales
) -> List[EnergyLevel]:
    """Levels E_N = (hbar^2/2m)(z_N/R)^2 with z_N the N-th zero of J_nu."""
    R = require_positive("well radius", R)
    zeros = bessel_j_zeros(dim.nu, require_count("level count", count, 1))
    return [EnergyLevel.bound(N, (z / R) ** 2, scales) for N, z in enumerate(zeros, start=1)]


def infinite_well_wavefunction(
    dim: Dimension, R: float, N: int, scales: PhysicalScales
) -> RadialWaveFunction:
    """Normalized N-th mode, zero at the wall and beyond."""
    R = require_positive("well radius", R)
    N = require_count("mode index", N, 1)
    k = bessel_j_zero(dim.nu, N) / R
    piece = Piece(0.0, R, BESSEL_J, 1.0, scale=k)
    level = EnergyLevel.bound(N, k * k, scales)
    return normalize(RadialWaveFunction(dim, level, (piece,)))

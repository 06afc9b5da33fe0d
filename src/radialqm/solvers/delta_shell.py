"""Contact shell at radius R: single bound level and stationary scattering.

The bound level solves 1/(I_nu K_nu) = gamma R at x = kappa R in ratio form; the
left side rises from 2 max(nu, 0) at x = 0, so one bracket holds the level when
gamma R exceeds that.  Scattering solves the interface system (continuity plus
slope jump) for the interior and outgoing amplitudes of a unit incoming wave.
"""
from __future__ import annotations

import math
import sys
from typing import Optional, Tuple

from ..errors import ComputationError, DomainError, MatchingError, require_positive
from ..radial import (
    BESSEL_I,
    BESSEL_K,
    Dimension,
    EnergyLevel,
    PhysicalScales,
    Piece,
    RadialWaveFunction,
)
from ..radial.norms import normalize
from ..specfun.bessel_ik import bessel_i, bessel_k, ik_reciprocal_rise
from ..specfun.bessel_jy import bessel_jy
from .interface import solve_interface
from .results import ScatteringResult, TranscendentalRoot
from .rootfind import bisect

_COEFF_LIMIT = 650.0


def delta_bound_energy(
    dim: Dimension, gamma: float, R: float, scales: PhysicalScales
) -> Optional[Tuple[EnergyLevel, TranscendentalRoot]]:
    """The unique attractive-shell level, or None below the coupling threshold.

    Only nu > 0 has a threshold, gamma R <= 2 nu.  Every other coupling
    binds, and a level outside the double range raises ComputationError.
    """
    gamma = require_positive("shell coupling", gamma)
    R = require_positive("shell radius", R)
    nu = dim.nu
    gr = gamma * R
    if not gr < math.inf:
        raise ComputationError("the coupling times the radius leaves the double range")
    # both sides of 1/(I K) = gamma R less the x -> 0 limit of the left
    rise = gr - 2.0 * max(nu, 0.0)
    if nu > 0.0 and rise <= 0.0:
        return None
    f = lambda x: ik_reciprocal_rise(nu, x) - rise
    lo, hi = 1e-300, 0.75 * gr + 10.0
    f_lo = f(lo)
    if f_lo >= 0.0:
        raise ComputationError("the shell level is below kappa R = 1e-300, outside the double range")
    _, _, (ta, tb) = bisect(lambda t: f(math.exp(t)), math.log(lo), math.log(hi), f_lo, f(hi))
    xa, xb = math.exp(ta), math.exp(tb)
    x, fx, (xa, xb) = bisect(f, xa, xb, f(xa), f(xb))
    square = lambda v: (v / R) * (v / R)
    eps_mag = square(x)
    if not sys.float_info.min <= eps_mag < math.inf:
        raise ComputationError(f"the shell level at kappa R = {x:.3g} leaves the double range")
    root = TranscendentalRoot(eps=eps_mag, residual=fx, bracket=(square(xa), square(xb)))
    return EnergyLevel.bound_magnitude(1, -eps_mag, scales), root


def delta_bound_wavefunction(
    dim: Dimension, gamma: float, R: float, scales: PhysicalScales
) -> RadialWaveFunction:
    """Normalized bound mode: regular inside the shell, decaying outside."""
    found = delta_bound_energy(dim, gamma, R, scales)
    if found is None:
        raise MatchingError("no bound level exists for this coupling and radius")
    level, _ = found
    kappa = math.sqrt(level.eps)
    xr = kappa * R
    if xr > _COEFF_LIMIT:
        raise ComputationError("interface coefficients exceed the double range")
    a = bessel_k(dim.nu, xr).value
    b = bessel_i(dim.nu, xr).value
    pieces = (
        Piece(0.0, R, BESSEL_I, a, scale=kappa),
        Piece(R, math.inf, BESSEL_K, b, scale=kappa),
    )
    psi = RadialWaveFunction(dim, level, pieces)
    return normalize(psi)


def delta_scattering(
    dim: Dimension,
    gamma_signed: float,
    R: float,
    eps: float,
    scales: PhysicalScales,
) -> ScatteringResult:
    """Interface solve at reduced energy eps; gamma_signed < 0 attracts."""
    R = require_positive("shell radius", R)
    eps = require_positive("scattering energy", eps)
    g = float(gamma_signed)
    if not math.isfinite(g):
        raise DomainError(f"coupling must be finite, got {gamma_signed!r}")
    nu = dim.nu
    k = math.sqrt(eps)
    x = k * R
    j0, j1, y0, y1 = (r.value for r in bessel_jy(nu, x))
    # the slope jumps by g times the value across the shell
    a, b = solve_interface(j0, k * j1 - g * j0, k, j0, j1, y0, y1)
    t1 = math.pi * g * R * j0 * y0
    t2 = math.pi * g * R * j0 * j0 - 2.0
    return ScatteringResult(
        eps=eps,
        interior_coeff=a,
        exterior_out_coeff=b,
        exterior_reflection=abs(b) ** 2,
        interior_intensity=abs(a) ** 2,
        paper_T=16.0 / (t1 * t1 + t2 * t2),
    )

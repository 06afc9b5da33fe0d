"""Contact shell at radius R: single bound level and stationary scattering.

The bound level solves a product condition between the two modified
cylinder functions evaluated on the shell; the product decreases from
its small-argument supremum, so for positive order a level exists only
when the coupling-radius product exceeds twice the order.  Scattering
solves the two-condition interface system (continuity plus slope jump)
for the interior and outgoing amplitudes with a unit incoming wave.
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
from ..specfun.bessel_ik import bessel_i, bessel_k, scaled_bessel_i, scaled_bessel_k
from ..specfun.bessel_jy import bessel_jy
from .interface import solve_interface
from .results import ScatteringResult, TranscendentalRoot
from .rootfind import log_grid, scan_roots

_EULER = 0.5772156649015329
_COEFF_LIMIT = 650.0


def _ik_product(nu: float, x: float) -> float:
    """I_nu(x) K_nu(x) without overflow at large argument."""
    if x <= 600.0:
        product = bessel_i(nu, x).value * bessel_k(nu, x).value
    else:
        product = scaled_bessel_i(nu, x).value * scaled_bessel_k(nu, x).value
    if not math.isfinite(product):
        # at high order I underflows where K overflows
        raise ComputationError(f"I K product leaves the double range at order {nu}, x = {x:.3g}")
    return product


def delta_bound_energy(
    dim: Dimension, gamma: float, R: float, scales: PhysicalScales
) -> Optional[Tuple[EnergyLevel, TranscendentalRoot]]:
    """The unique attractive-shell level, or None below the coupling threshold.

    Only nu > 0 has a threshold, gamma R <= 2 nu.  Every other coupling
    binds, and a level too shallow for doubles raises ComputationError.
    """
    gamma = require_positive("shell coupling", gamma)
    R = require_positive("shell radius", R)
    nu = dim.nu
    gr = gamma * R
    if nu > 0.0 and gr <= 2.0 * nu:
        return None
    target = 1.0 / gr
    f = lambda x: _ik_product(nu, x) - target

    x_lo = 1e-8
    if nu == 0.0:
        # product grows only logarithmically, so tiny couplings root far down
        x_lo = min(x_lo, 0.2 * 2.0 * math.exp(-_EULER - target))
    elif nu < 0.0:
        x_lo = min(x_lo, 0.02 * gr)
    x_lo = max(x_lo, 1e-300)
    x_hi = 0.75 * gr + 10.0
    # the product decreases for every order >= -1/2, so 8 samples per decade
    # bracket the one crossing; index bisection then finds its 512-per-decade cell
    found = scan_roots(f, log_grid(x_lo, x_hi, 512), stride=64)
    if not found:
        # a level exists here (nu <= 0, or gamma R above 2 nu) but lies below the scan
        edge = ", at the edge of the double range" if x_lo == 1e-300 else ""
        raise ComputationError(f"the shell level lies below kappa R = {x_lo:.3g}{edge}")
    if len(found) > 1:
        raise ComputationError("shell product condition crossed more than once")
    x, fx, (xa, xb) = found[0]
    eps_mag = (x / R) ** 2
    if eps_mag < sys.float_info.min:
        raise ComputationError(
            f"the shell level kappa R = {x:.3g} squares below the double range"
        )
    bracket = tuple(sorted(((xa / R) ** 2, (xb / R) ** 2)))
    root = TranscendentalRoot(eps=eps_mag, residual=fx, bracket=bracket)
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

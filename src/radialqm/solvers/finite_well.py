"""Finite spherical well of depth V0 and radius R.

Bound levels solve a two-sided matching condition between the regular
oscillatory interior and the decaying exterior.  The condition is scanned
uniformly in the interior phase t = qR (steps well under the root
spacing, which approaches pi in t for deep wells); a log-spaced energy
scan provably undersamples that spacing for deep wells, so the uniform
phase grid replaces it here.  The exterior function enters through its
exponentially scaled form so depth never underflows.

Scattering solves the continuity plus slope-continuity system for the
interior and outgoing amplitudes against a unit incoming wave.
"""
from __future__ import annotations

import math
from typing import Callable, List, Optional, Tuple

from ..errors import ComputationError, DomainError, require_count, require_positive
from ..radial import (
    BESSEL_J,
    BESSEL_K,
    Dimension,
    EnergyLevel,
    PhysicalScales,
    Piece,
    RadialWaveFunction,
)
from ..radial.norms import normalize
from ..specfun.bessel_ik import scaled_bessel_k, scaled_bessel_k_pair
from ..specfun.bessel_jy import bessel_j, bessel_jy, j_pair
from .interface import solve_interface
from .results import ScatteringResult, TranscendentalRoot
from .rootfind import iter_roots, uniform_grid

_SCALED_COEFF_LIMIT = 330.0
_EDGE = 1.0 - 1e-10


def _residual_factory(
    nu: float, Q: float, R: float
) -> Tuple[Callable[[float], float], Callable[[float], float]]:
    """Matching residual in the interior phase t = qR, plus its local scale.

    Root condition: q J_{nu+1}(qR) K*_nu(kR) = k K*_{nu+1}(kR) J_nu(qR)
    with q^2 + k^2 = v0 and K* the e^{+x}-scaled decaying function.
    """

    def parts(t: float) -> Tuple[float, float]:
        kr = math.sqrt(max(Q * Q - t * t, 0.0))
        kr = max(kr, 5e-324)
        k0, k1 = (r.value for r in scaled_bessel_k_pair(nu, kr))
        j0, j1 = j_pair(nu, t)
        first = (t / R) * j1 * k0
        second = (kr / R) * k1 * j0
        return first, second

    def residual(t: float) -> float:
        first, second = parts(t)
        return first - second

    def local_scale(t: float) -> float:
        first, second = parts(t)
        return abs(first) + abs(second)

    return residual, local_scale


def finite_well_bound_spectrum(
    dim: Dimension,
    V0: float,
    R: float,
    scales: PhysicalScales,
    levels: Optional[int] = None,
) -> List[Tuple[EnergyLevel, TranscendentalRoot]]:
    """Bound levels, shallowest binding last; empty list if none.

    All of them, or the first `levels` of them: the scan then stops once it
    has that many, and bisects no root past the last one returned.
    """
    V0 = require_positive("well depth", V0)
    R = require_positive("well radius", R)
    if levels is not None:
        levels = require_count("level count", levels, 1)
    v0 = scales.reduced_potential(V0)
    Q = math.sqrt(v0) * R
    nu = dim.nu
    residual, local_scale = _residual_factory(nu, Q, R)
    t_hi = Q * _EDGE
    grid = uniform_grid(t_hi * 1e-6, t_hi, 0.25 * math.pi)
    out: List[Tuple[EnergyLevel, TranscendentalRoot]] = []
    N = 0
    for t, res, (ta, tb) in iter_roots(residual, grid):
        scale = local_scale(t)
        # a zero where both terms underflow (high order, small t) is no root
        if not scale > 0.0:
            continue
        N += 1
        eps_mag = (Q * Q - t * t) / (R * R)
        if not eps_mag > 0.0:
            continue
        rel_res = res / scale
        bracket = tuple(
            sorted(((Q * Q - ta * ta) / (R * R), (Q * Q - tb * tb) / (R * R)))
        )
        root = TranscendentalRoot(eps=eps_mag, residual=rel_res, bracket=bracket)
        out.append((EnergyLevel.bound_magnitude(N, -eps_mag, scales), root))
        if len(out) == levels:
            break
    return out


def finite_well_bound_wavefunction(
    dim: Dimension, V0: float, R: float, N: int, scales: PhysicalScales
) -> RadialWaveFunction:
    """Normalized N-th bound mode: oscillatory core, decaying tail."""
    N = require_count("mode index", N, 1)
    # fewer than N levels means the scan ran to its end: that is the full count
    spectrum = finite_well_bound_spectrum(dim, V0, R, scales, levels=N)
    if N > len(spectrum):
        raise DomainError(
            f"well holds {len(spectrum)} bound levels, index {N} out of range"
        )
    level, _ = spectrum[N - 1]
    v0 = scales.reduced_potential(float(V0))
    kappa = math.sqrt(level.eps)
    q = math.sqrt(max(v0 - level.eps, 0.0))
    kr = kappa * R
    if kr > _SCALED_COEFF_LIMIT:
        raise ComputationError(
            "bound mode too deeply confined for coefficient arithmetic"
        )
    # matched amplitudes: interior gets the scaled exterior boundary value,
    # exterior the interior boundary value with the matching unscale factor
    a = scaled_bessel_k(dim.nu, kr).value
    b = bessel_j(dim.nu, q * R).value * math.exp(kr)
    pieces = (
        Piece(0.0, R, BESSEL_J, a, scale=q),
        Piece(R, math.inf, BESSEL_K, b, scale=kappa),
    )
    psi = RadialWaveFunction(dim, level, pieces)
    return normalize(psi)


def finite_well_scattering(
    dim: Dimension, V0: float, R: float, eps: float, scales: PhysicalScales
) -> ScatteringResult:
    """Interface solve at reduced energy eps > 0 over a well of depth V0."""
    V0 = float(V0)
    if not (V0 >= 0.0 and math.isfinite(V0)):
        raise DomainError(f"well depth must be nonnegative, got {V0!r}")
    R = require_positive("well radius", R)
    eps = require_positive("scattering energy", eps)
    v0 = scales.reduced_potential(V0)
    nu = dim.nu
    k = math.sqrt(eps)
    p = math.sqrt(eps + v0)
    x = k * R
    y = p * R
    jt0, jt1 = j_pair(nu, y)
    j0, j1, y0, y1 = (r.value for r in bessel_jy(nu, x))
    a, b = solve_interface(jt0, p * jt1, k, j0, j1, y0, y1)
    # printed closed form, kept verbatim for comparison
    E = scales.physical_energy(eps)
    mu_ratio = math.sqrt(V0 / E + 1.0) if V0 > 0.0 else 1.0
    d1 = jt0 * j1 - mu_ratio * j0 * jt1
    d2 = jt0 * y1 - mu_ratio * y0 * jt1
    rate = (16.0 / (math.pi * eps * R * R)) / (d1 * d1 + d2 * d2)
    return ScatteringResult(
        eps=eps,
        interior_coeff=a,
        exterior_out_coeff=b,
        exterior_reflection=abs(b) ** 2,
        interior_intensity=abs(a) ** 2,
        paper_T=rate,
    )

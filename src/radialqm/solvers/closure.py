"""Truncated continuum-overlap probe for the regular radial modes.

The weighted overlap of two regular modes over (0, r_max) has a closed
form (the cross-product rule for cylinder functions), so the probe only
integrates that closed form against a narrow unit-height Gaussian in the
second wavenumber.  As r_max grows the smeared value approaches the
Gaussian evaluated at the wavenumber separation: one on the diagonal,
zero far off it.  The probe symmetrizes the two slot assignments, so the
result is exactly invariant under swapping the wavenumbers.
"""
from __future__ import annotations

import math
from typing import Tuple

from ..errors import require_positive
from ..radial import BESSEL_J, Dimension
from ..radial.norms import lommel_primitive
from ..radial.quadrature import integrate
from ..specfun.bessel_jy import j_pair
from .results import ClosureProbe

_WINDOW_SIGMAS = 8.0
_QUAD_TOL = 1e-7
_DIAGONAL_CUT = 1e-7


def _overlap(nu: float, a: float, k1: float, ja: Tuple[float, float], k2: float) -> float:
    """Integral of r J_nu(k1 r) J_nu(k2 r) dr over (0, a); ja is j_pair(nu, k1 a)."""
    mean = 0.5 * (k1 + k2)
    if abs(k1 - k2) <= _DIAGONAL_CUT * mean:
        x = mean * a
        return lommel_primitive(BESSEL_J, nu, a, x, *j_pair(nu, x))
    ja0, ja1 = ja
    jb0, jb1 = j_pair(nu, k2 * a)
    return a * (k1 * ja1 * jb0 - k2 * ja0 * jb1) / (k1 * k1 - k2 * k2)


def _smeared(nu: float, a: float, k_fix: float, center: float, sigma: float) -> float:
    lo = max(center - _WINDOW_SIGMAS * sigma, 0.0)
    hi = center + _WINDOW_SIGMAS * sigma
    # the fixed slot's values do not depend on the node
    ja = j_pair(nu, k_fix * a)

    def integrand(q: float) -> float:
        arg = (q - center) / sigma
        weight = math.exp(-0.5 * arg * arg)
        return weight * math.sqrt(k_fix * q) * _overlap(nu, a, k_fix, ja, q)

    value, _ = integrate(integrand, lo, hi, _QUAD_TOL)
    return value


def closure_check(
    dim: Dimension, k: float, k_prime: float, r_max: float, smear_width: float
) -> ClosureProbe:
    """Smeared truncated overlap of the modes at k and k_prime."""
    k = require_positive("wavenumber k", k)
    k_prime = require_positive("wavenumber k_prime", k_prime)
    r_max = require_positive("r_max", r_max)
    smear_width = require_positive("smear width", smear_width)
    nu = dim.nu
    straight = _smeared(nu, r_max, k, k_prime, smear_width)
    swapped = _smeared(nu, r_max, k_prime, k, smear_width)
    value = 0.5 * (straight + swapped)
    return ClosureProbe(
        k=k, k_prime=k_prime, r_max=r_max, smear_width=smear_width, value=value
    )

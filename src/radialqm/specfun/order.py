"""The argument checks of the cylinder-function kernels."""

from __future__ import annotations

import math

from ..errors import DomainError
from .result import EvalResult, overflow_result


def check_order(nu: float) -> float:
    """nu as a float; DomainError unless finite and >= -1/2.

    The radial problems only produce nu = (n - 1)/2 with n >= 0.
    """
    nu = float(nu)
    if not math.isfinite(nu) or nu < -0.5 - 1e-12:
        raise DomainError(f"order must be finite and >= -1/2, got {nu!r}")
    return nu


def check_args(name: str, nu: float, x: float, origin: bool) -> tuple[float, float]:
    """(nu, x) as floats; DomainError unless nu passes check_order and x is
    finite and positive, or zero too when origin is true."""
    nu = check_order(nu)
    x = float(x)
    if not math.isfinite(x) or x < 0.0 or (x == 0.0 and not origin):
        raise DomainError(f"{name} requires x {'>=' if origin else '>'} 0, got {x!r}")
    return nu, x


def origin_value(nu: float) -> EvalResult:
    """J_nu(0) = I_nu(0): 1 at order 0, 0 above it, unbounded below it."""
    if nu == 0.0:
        return EvalResult(1.0, 2.2e-16)
    if nu > 0.0:
        return EvalResult(0.0, 0.0)
    return overflow_result()

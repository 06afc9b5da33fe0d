"""The one order check of the cylinder-function kernels."""

from __future__ import annotations

import math

from ..errors import DomainError


def check_order(nu: float) -> float:
    """nu as a float; DomainError unless finite and >= -1/2.

    The radial problems only produce nu = (n - 1)/2 with n >= 0.
    """
    nu = float(nu)
    if not math.isfinite(nu) or nu < -0.5 - 1e-12:
        raise DomainError(f"order must be finite and >= -1/2, got {nu!r}")
    return nu

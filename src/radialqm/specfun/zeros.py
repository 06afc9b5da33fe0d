"""Positive zeros of the first-kind cylinder functions.

The N-th zero is located by a miss-proof bracket scan and polished by
Newton iterations with a bisection fallback.  The scan starts below the
first zero (the ascending series is strictly positive for x < 2 sqrt(nu+1),
so no zero can hide there) and advances in unit steps; consecutive zeros of
any cylinder function of order >= -1/2 are more than 2.8 apart beyond that
point, so a unit step can never straddle two sign changes.  At high order
J underflows to an exact zero below its first root; the scan steps over
those points before it counts roots.  A table asks the kernel for each
(order, x) once.
"""
from __future__ import annotations

import math
from typing import Callable, Dict, List, Tuple

from ..errors import ComputationError, require_count
from .bessel_jy import bessel_j
from .order import check_order

_STEP = 1.0

JValue = Callable[[float, float], float]


def _memo_j() -> JValue:
    """J as a float of (order, x), asking bessel_j once per point.

    One table's scan, bisections and Newton steps revisit points (a bracket
    end, J_nu at the Newton point for the slope, a Newton cycle); the memo
    lives only as long as the table's search.
    """
    values: Dict[Tuple[float, float], float] = {}

    def j(order: float, x: float) -> float:
        key = (order, x)
        value = values.get(key)
        if value is None:
            value = values[key] = bessel_j(order, x).value
        return value

    return j


def _first_zero_floor(nu: float) -> float:
    # J_nu > 0 strictly below 2 sqrt(nu+1): alternating series with
    # decreasing terms there
    return max(2.0 * math.sqrt(nu + 1.0) - 0.25 * _STEP, 0.9)


def _refine(j: JValue, nu: float, lo: float, hi: float) -> float:
    f_lo = j(nu, lo)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        f_mid = j(nu, mid)
        if f_mid == 0.0:
            lo = hi = mid
            break
        if (f_lo > 0.0) != (f_mid > 0.0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
        if hi - lo < 1e-5 * (1.0 + lo):
            break
    root = 0.5 * (lo + hi)
    for _ in range(60):
        f = j(nu, root)
        fp = (nu / root) * f - j(nu + 1.0, root)
        if fp == 0.0:
            break
        step = f / fp
        candidate = root - step
        if not lo <= candidate <= hi:
            # fall back to bisection inside the bracket
            f_lo = j(nu, lo)
            mid = 0.5 * (lo + hi)
            if (f_lo > 0.0) != (j(nu, mid) > 0.0):
                hi = mid
            else:
                lo = mid
            candidate = 0.5 * (lo + hi)
        if abs(candidate - root) <= 4e-16 * candidate:
            return candidate
        root = candidate
    return root


def bessel_j_zeros(nu: float, count: int) -> List[float]:
    """The first count positive zeros of J_nu, count >= 1, to ~1e-14 relative.

    One scan walks past all of them, so a table costs what its last
    zero costs; each zero equals bessel_j_zero(nu, N) bit for bit.
    """
    nu = check_order(nu)
    count = require_count("zero count", count, 1)
    x = _first_zero_floor(nu)
    limit = x + (count + 2) * (math.pi + 3.0) + 2.0 * max(nu, 0.0) + 10.0 * count
    j = _memo_j()
    f_prev = j(nu, x)
    while f_prev == 0.0 and x < limit:
        # at high order J underflows to an exact zero below its first root
        x += _STEP
        f_prev = j(nu, x)
    zeros: List[float] = []
    while x < limit:
        x_next = x + _STEP
        f_next = j(nu, x_next)
        if f_next == 0.0:
            zeros.append(x_next)
            x_next += 1e-9
            f_next = j(nu, x_next)
        elif (f_prev > 0.0) != (f_next > 0.0):
            zeros.append(_refine(j, nu, x, x_next))
        if len(zeros) == count:
            return zeros
        x, f_prev = x_next, f_next
    raise ComputationError(f"failed to locate zero {len(zeros) + 1} of order {nu}")


def bessel_j_zero(nu: float, N: int) -> float:
    """The N-th positive zero of J_nu, N >= 1, to ~1e-14 relative."""
    return bessel_j_zeros(nu, require_count("zero index", N, 1))[-1]

"""Deterministic adaptive quadrature on finite intervals.

Gauss-Kronrod 7/15 pairs with a worst-first subdivision heap.  The
integrands this package produces are smooth inside each piece, so the
embedded-rule error difference is a dependable driver.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

from ..errors import ComputationError

# 15-point Kronrod abscissae (positive half) and weights; rows marked
# True carry the embedded 7-point Gauss weight in the last column.
_K15 = (
    (0.991455371120813, 0.022935322010529, 0.0, False),
    (0.949107912342759, 0.063092092629979, 0.129484966168870, True),
    (0.864864423359769, 0.104790010322250, 0.0, False),
    (0.741531185599394, 0.140653259715525, 0.279705391489277, True),
    (0.586087235467691, 0.169004726639267, 0.0, False),
    (0.405845151377397, 0.190350578064785, 0.381830050505119, True),
    (0.207784955007898, 0.204432940075298, 0.0, False),
)
_K15_CENTER_W = 0.209482141084728
_G7_CENTER_W = 0.417959183673469

_MAX_INTERVALS = 4000
# Relative accuracy floor of a result, a few ulp of the panel sums.
_ROUNDING = 1e-14


def _rule(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One G7/K15 application on [a, b]; returns (K15 value, error estimate)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(mid)
    k_sum = _K15_CENTER_W * fc
    g_sum = _G7_CENTER_W * fc
    for x, wk, wg, is_gauss in _K15:
        lo = f(mid - half * x)
        hi = f(mid + half * x)
        k_sum += wk * (lo + hi)
        if is_gauss:
            g_sum += wg * (lo + hi)
    value = k_sum * half
    err = abs((k_sum - g_sum) * half)
    return value, err


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
) -> tuple[float, float]:
    """Integrate f over [a, b] to absolute tolerance tol.

    The tolerance never goes below 1e-14 of the running |value|: finer
    than that is below the rounding of the panel sums themselves.
    Returns (value, estimated absolute error).  Raises ComputationError
    if the subdivision budget runs out before the estimate drops below
    that target, rather than returning a value that misses its contract.
    """
    if not tol > 0.0:
        raise ComputationError(f"quadrature tolerance must be positive, got {tol!r}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ComputationError("integrate requires finite endpoints")
    if a == b:
        return 0.0, 0.0
    if b < a:
        value, err = integrate(f, b, a, tol)
        return -value, err

    value, err = _rule(f, a, b)
    heap = [(-err, 0, a, b, value, err)]
    total_value = value
    total_err = err
    counter = 1
    # Width floor stops runaway splitting at a rough point.
    min_width = 1e-14 * (abs(a) + abs(b) + 1.0)
    while total_err > max(tol, _ROUNDING * abs(total_value)) and len(heap) < _MAX_INTERVALS:
        neg_err, _, lo, hi, val, err_est = heapq.heappop(heap)
        if hi - lo < min_width:
            # Cannot usefully split further; put it back and stop.
            heapq.heappush(heap, (neg_err, counter, lo, hi, val, err_est))
            counter += 1
            break
        mid = 0.5 * (lo + hi)
        v1, e1 = _rule(f, lo, mid)
        v2, e2 = _rule(f, mid, hi)
        total_value += v1 + v2 - val
        total_err += e1 + e2 - err_est
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, counter + 1, mid, hi, v2, e2))
        counter += 2
    # Recompute the totals from the heap to shed accumulated rounding.
    total_value = math.fsum(item[4] for item in heap)
    total_err = math.fsum(item[5] for item in heap)
    target = max(tol, _ROUNDING * abs(total_value))
    if total_err > target:
        raise ComputationError(
            f"quadrature stalled at estimated error {total_err:.3e} > tol {target:.3e}"
        )
    return total_value, total_err


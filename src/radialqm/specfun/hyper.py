"""Confluent hypergeometric functions and the classical polynomials.

The regular Kummer function is an ascending series (finite when the first
parameter is a non-positive integer); the irregular companion has two
routes: an explicit terminating form for polynomial cases, computed
independently of the Laguerre recurrence so the two can cross-check each
other, and the two-term connection formula for non-integer second
parameter.  Hermite and Laguerre use their exact three-term recurrences.
"""
from __future__ import annotations

import math

from ..errors import ComputationError, DomainError, PoleError, require_count
from .gammafn import gamma_fn
from .result import EvalResult

_EPS = 2.2e-16
_MAX_TERMS = 4000


def _is_nonpositive_int(v: float) -> bool:
    return v == round(v) and v <= 0.0


def _m_series(p: float, q: float, z: float):
    """Ascending series for M(p, q, z); terminates when p is 0, -1, -2, ..."""
    term = 1.0
    total = 1.0
    peak = 1.0
    n_terms = int(-round(p)) if _is_nonpositive_int(p) else _MAX_TERMS
    for k in range(n_terms):
        term *= (p + k) * z / ((q + k) * (k + 1.0))
        total += term
        peak = max(peak, abs(term))
        if not _is_nonpositive_int(p) and abs(term) < 1e-17 * max(1.0, abs(total)) and k > abs(z):
            break
    else:
        if not _is_nonpositive_int(p):
            raise ComputationError("Kummer series did not converge")
    return total, 2.0 * _EPS * (peak + abs(total))


def kummer_m(p: float, q: float, z: float) -> EvalResult:
    """Regular confluent hypergeometric function M(p, q, z)."""
    p, q, z = float(p), float(q), float(z)
    if _is_nonpositive_int(q):
        raise PoleError(f"kummer_m pole: second parameter {q:g} is a non-positive integer")
    if z == 0.0:
        return EvalResult(1.0, 0.0)
    if z < 0.0 and not _is_nonpositive_int(p):
        # reflected series avoids alternating-term cancellation
        value, est = _m_series(q - p, q, -z)
        scale = math.exp(z)
        return EvalResult(scale * value, scale * est + _EPS * abs(scale * value))
    value, est = _m_series(p, q, z)
    return EvalResult(value, est)


def _pochhammer(a: float, n: int) -> float:
    out = 1.0
    for i in range(n):
        out *= a + i
    return out


def _recip_gamma(x: float) -> float:
    if _is_nonpositive_int(x):
        return 0.0
    return 1.0 / gamma_fn(x).value


def kummer_u(p: float, q: float, z: float) -> EvalResult:
    """Irregular confluent hypergeometric function U(p, q, z), z > 0.

    Polynomial cases (p a non-positive integer) terminate exactly.  The
    general evaluation uses the connection formula through two regular
    series, which requires a non-integer second parameter; integer q
    outside the polynomial case is reported as unsupported.
    """
    p, q, z = float(p), float(q), float(z)
    if not z > 0.0:
        raise DomainError(f"kummer_u requires z > 0, got {z!r}")
    if _is_nonpositive_int(p):
        n = int(-round(p))
        sign = -1.0 if n % 2 else 1.0
        scale = _pochhammer(q, n)
        m_val = kummer_m(p, q, z)
        value = sign * scale * m_val.value
        return EvalResult(value, abs(value) * 1e-14 + abs(scale) * m_val.est_abs_error)
    if q == round(q):
        raise ComputationError(
            "kummer_u outside the polynomial case needs a non-integer second parameter"
        )
    # U = Gamma(1-q)/Gamma(p+1-q) M(p,q,z) + Gamma(q-1)/Gamma(p) z^{1-q} M(p-q+1,2-q,z)
    # 1/Gamma at a non-positive integer is an exact zero, not a pole.
    first = _recip_gamma(p + 1.0 - q)
    if first != 0.0:
        first *= gamma_fn(1.0 - q).value * kummer_m(p, q, z).value
    second = _recip_gamma(p)
    if second != 0.0:
        second *= (
            gamma_fn(q - 1.0).value
            * z ** (1.0 - q)
            * kummer_m(p - q + 1.0, 2.0 - q, z).value
        )
    value = first + second
    est = (abs(first) + abs(second)) * 3e-14
    return EvalResult(value, est)


def hermite(N: int, z: float) -> float:
    """Hermite polynomial H_N(z) by the three-term recurrence."""
    N = require_count("hermite index", N, 0)
    h_prev, h = 1.0, 2.0 * z
    if N == 0:
        return 1.0
    for k in range(1, N):
        h_prev, h = h, 2.0 * z * h - 2.0 * k * h_prev
    return h


def laguerre(N: int, alpha: float, z: float) -> float:
    """Generalized Laguerre polynomial L_N^{(alpha)}(z), alpha > -1."""
    N = require_count("laguerre index", N, 0)
    alpha = float(alpha)
    if not alpha > -1.0:
        raise DomainError(f"laguerre weight exponent must exceed -1, got {alpha!r}")
    l_prev, l_cur = 1.0, 1.0 + alpha - z
    if N == 0:
        return 1.0
    for k in range(1, N):
        l_prev, l_cur = (
            l_cur,
            ((2.0 * k + 1.0 + alpha - z) * l_cur - (k + alpha) * l_prev) / (k + 1.0),
        )
    return l_cur

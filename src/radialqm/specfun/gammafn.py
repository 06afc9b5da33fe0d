"""Gamma function on the real line.

A nine-term rational kernel covers 0.5 <= x <= 26; larger arguments climb
from a base point in [24, 25) by the functional equation so the kernel never
sees the region where its own power factor loses accuracy; x < 0.5 goes
through the recurrence (0 < x < 0.5) or the reflection formula (x < 0).
"""
from __future__ import annotations

import functools
import math

from ..errors import PoleError
from .result import EvalResult, overflow_result

_G = 7.0
_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

# Gamma(x) first exceeds the double range just above this x
_OVERFLOW_EDGE = 171.624376956

_KERNEL_RELERR = 3e-15
_STEP_RELERR = 1.2e-16
_EPS = 2.2e-16
_LOG_MAX = math.log(1.7976931348623157e308)


def _kernel(x: float) -> float:
    """Rational-approximation core, reliable for 0.5 <= x <= 26."""
    acc = _COEF[0]
    for i in range(1, 9):
        acc += _COEF[i] / (x - 1.0 + i)
    t = x + _G - 0.5
    return math.sqrt(2.0 * math.pi) * t ** (x - 0.5) * math.exp(-t) * acc


def _sin_pi(x: float) -> float:
    """sin(pi*x) with argument reduced relative to the nearest integer."""
    r = x - round(x)
    s = math.sin(math.pi * r)
    return s if round(x) % 2 == 0 else -s


def _positive(x: float):
    """(value, est_rel_error) for x > 0, or None on overflow."""
    if x < 0.5:
        base, rel = _positive(x + 1.0)
        return base / x, rel + _STEP_RELERR
    if x <= 26.0:
        return _kernel(x), _KERNEL_RELERR
    if x > _OVERFLOW_EDGE:
        return None
    steps = int(math.floor(x - 24.0))
    base = x - steps
    value = _kernel(base)
    for i in range(steps):
        value *= base + i
    return value, _KERNEL_RELERR + steps * _STEP_RELERR


def gamma_fn(x: float) -> EvalResult:
    """Gamma(x) for real x away from the poles at 0, -1, -2, ...

    Relative accuracy a few 1e-15 through x = 170; overflow beyond
    ~171.62 is flagged with an infinite error estimate.  Negative
    non-integer arguments go through the reflection formula.
    """
    x = float(x)
    if not math.isfinite(x):
        raise PoleError("gamma_fn requires a finite argument")
    if x <= 0.0 and x == round(x):
        raise PoleError(f"gamma_fn pole at non-positive integer {x:g}")
    if x > 0.0:
        res = _positive(x)
        if res is None:
            return overflow_result()
        value, rel = res
        return EvalResult(value, abs(value) * rel)
    # reflection: Gamma(x) = pi / (sin(pi x) * Gamma(1-x))
    s = _sin_pi(x)
    res = _positive(1.0 - x)
    if res is None:
        # |Gamma(x)| underflows; keep the sign from the reflection
        return EvalResult(math.copysign(0.0, s), 2.3e-308)
    gval, rel = res
    value = math.pi / (s * gval)
    # conditioning near the poles enters through sin(pi x)
    r = x - round(x)
    rel_total = rel + _KERNEL_RELERR + abs(math.pi * r) / max(abs(s), 1e-300) * 1e-16
    return EvalResult(value, abs(value) * rel_total)


@functools.lru_cache(maxsize=64)
def gamma_plus_one(nu: float) -> tuple[float, float]:
    """(gamma_fn(nu + 1.0), its relative error as a value of Gamma(nu + 1)).

    The sum nu + 1.0 rounds by up to half an ulp, which moves Gamma by
    psi(nu + 1) times that shift, with |psi(t)| <= |log t| + 1/t for
    t >= 1/2; gamma_fn adds its own estimate.  The value is inf past the
    double range, and the error then that shift alone, which
    log Gamma(nu + 1) carries as well.  Memoized: the series kernels see
    few distinct orders.
    """
    top = nu + 1.0
    g = gamma_fn(top)
    shift = (abs(math.log(top)) + 1.0 / top) * 0.5 * math.ulp(top)
    if math.isinf(g.value):
        return g.value, shift
    return g.value, shift + g.est_abs_error / g.value


def series_seed(nu: float, x: float) -> tuple[float, float]:
    """((x/2)^nu / Gamma(nu + 1), its relative error) for x > 0.

    The leading term of the ascending series of J_nu and I_nu.  The
    quotient is formed directly while both of its parts are finite, and
    from nu log(x/2) - log Gamma(nu + 1) past that, where the logs round
    relative to their own size and exp turns that into relative error.
    The value is inf when the seed itself leaves the double range.
    """
    g, g_rel = gamma_plus_one(nu)
    if math.isfinite(g):
        try:
            return (0.5 * x) ** nu / g, g_rel + 2.0 * _EPS
        except OverflowError:
            log_g = math.log(g)
    else:
        log_g = math.lgamma(nu + 1.0)
    log_power = nu * math.log(0.5 * x)
    log_seed = log_power - log_g
    if log_seed > _LOG_MAX:
        return math.inf, math.inf
    return math.exp(log_seed), g_rel + 2.0 * _EPS * (abs(log_power) + abs(log_g) + 1.0)

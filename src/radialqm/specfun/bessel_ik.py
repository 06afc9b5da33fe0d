"""Modified cylinder functions of real order nu >= -1/2.

The first kind comes from its ascending series everywhere (all terms are
positive, so the series is cancellation-free at any argument the double
range can hold).  The second kind is built at the fractional base order in
[-1/2, 1/2) by one of three routes -- the small-x companion series (x <= 2),
a trapezoidal evaluation of the decaying integral representation
(2 < x < 20), or the large-argument expansion (x >= 20) -- and then carried
up in order by the stable upward recurrence.  The second-kind internals work
on the e^{+x}-scaled function so deep exponential decay cannot underflow
before the final unscaling; the scaled form also feeds the solvers that
need ratios at large argument.
"""
from __future__ import annotations

import math
from typing import Tuple

from ..errors import ComputationError
from ._temme import temme_start
from .gammafn import series_seed
from .order import check_args, origin_value
from .result import EvalResult, overflow_result

_EPS = 2.2e-16
_MAX_SERIES = 2600
# relative error of the K recurrence
_K_REL = 4e-15


def _i_series(nu: float, x: float):
    """(I_nu, est) by the ascending series; x > 0."""
    seed, seed_rel = series_seed(nu, x)
    if math.isinf(seed):
        return math.inf, math.inf
    if seed == 0.0:
        return 0.0, 5e-324
    z = 0.25 * x * x
    terms = [seed]
    t = seed
    for k in range(_MAX_SERIES):
        t *= z / ((k + 1.0) * (nu + k + 1.0))
        if math.isinf(t):
            return math.inf, math.inf
        terms.append(t)
        # t == 0 stops a series whose seed is so small that 1e-18 * seed underflows
        if t < 1e-18 * terms[0] or (k > z and t < 1e-18 * max(terms)) or t == 0.0:
            break
    else:
        raise ComputationError("modified series did not converge")
    value = math.fsum(terms)
    if math.isinf(value):
        return math.inf, math.inf
    # rounding, which grows along the term recurrence, plus the seed's
    # error, which scales every term
    rel = (2.0 + math.sqrt(len(terms))) * _EPS + seed_rel
    return value, max(rel * value, 5e-324 * len(terms))


def _temme_k_scaled(mu: float, x: float):
    """(e^x K_mu, e^x K_{mu+1}) for |mu| <= 1/2, 0 < x <= 2."""
    f, p, q = temme_start(mu, x)
    z = 0.25 * x * x
    d = 1.0
    sum_k = f
    sum_k1 = p
    for k in range(1, _MAX_SERIES):
        f = (k * f + p + q) / (k * k - mu * mu)
        p /= k - mu
        q /= k + mu
        d *= z / k
        sum_k += d * f
        sum_k1 += d * (p - k * f)
        if d * (abs(f) + abs(p)) < 1e-17 * (abs(sum_k) + abs(sum_k1)):
            break
    else:
        raise ComputationError("second-kind modified series did not converge")
    scale = math.exp(x)
    return scale * sum_k, scale * (2.0 / x) * sum_k1


def _quad_k_scaled(mu: float, x: float):
    """e^x K_mu by the trapezoidal rule on the integral representation.

    Integrand e^{-x(cosh t - 1)} cosh(mu t) decays doubly-exponentially;
    step 0.17 puts the discretization error far below double precision
    for the range 2 < x < 20 where this route is used.
    """
    h = 0.17
    total = 0.5  # t = 0 contributes cosh(0) = 1 with trapezoid half-weight
    k = 1
    while True:
        t = k * h
        expo = x * (math.cosh(t) - 1.0)
        if expo > 45.0:
            break
        total += math.exp(-expo) * math.cosh(mu * t)
        k += 1
        if k > 4000:
            raise ComputationError("integral tail did not close")
    return total * h


def _asym_k_scaled(mu: float, x: float):
    """e^x K_mu by the large-argument expansion, x >= 20."""
    mu4 = 4.0 * mu * mu
    t = 1.0
    total = 1.0
    for k in range(1, 40):
        t *= (mu4 - (2.0 * k - 1.0) ** 2) / (8.0 * k * x)
        total += t
        if abs(t) < 1e-18:
            break
    return math.sqrt(math.pi / (2.0 * x)) * total


def _k_scaled_base(mu: float, x: float):
    """(e^x K_mu, e^x K_{mu+1}) at the base order."""
    if x <= 2.0:
        return _temme_k_scaled(mu, x)
    if x < 20.0:
        k0 = _quad_k_scaled(mu, x)
        k1 = _quad_k_scaled(mu + 1.0, x)
        return k0, k1
    k0 = _asym_k_scaled(mu, x)
    k1 = _asym_k_scaled(mu + 1.0, x)
    return k0, k1


def _k_scaled_engine(nu: float, x: float):
    """(e^x K_nu, e^x K_{nu+1}) for nu >= -1/2, x > 0; inf past the double range."""
    nl = int(nu + 0.5)
    mu = nu - nl
    k0, k1 = _k_scaled_base(mu, x)
    for m in range(1, nl + 1):
        k0, k1 = k1, (2.0 * (mu + m) / x) * k1 + k0
        if math.isinf(k1) and m < nl:
            # the orders above grow from here, order nu included
            return math.inf, math.inf
    return k0, k1


def _scaled_k_result(k: float) -> EvalResult:
    if math.isinf(k):
        return overflow_result()
    return EvalResult(k, abs(k) * _K_REL)


def bessel_i(nu: float, x: float) -> EvalResult:
    """I_nu(x) for nu >= -1/2, x >= 0; overflow is flagged, not raised."""
    nu, x = check_args("bessel_i", nu, x, origin=True)
    if x == 0.0:
        return origin_value(nu)
    value, est = _i_series(nu, x)
    if math.isinf(value):
        return overflow_result()
    return EvalResult(value, est)


def bessel_k(nu: float, x: float) -> EvalResult:
    """K_nu(x) for nu >= -1/2, x > 0."""
    nu, x = check_args("bessel_k", nu, x, origin=False)
    k_nu = _k_scaled_engine(nu, x)[0]
    if math.isinf(k_nu):
        return overflow_result()
    value = k_nu * math.exp(-x)
    return EvalResult(value, abs(value) * _K_REL + 5e-324)


def scaled_bessel_k(nu: float, x: float) -> EvalResult:
    """e^x K_nu(x): internal helper for deep-decay ratios (not public API)."""
    nu, x = check_args("scaled_bessel_k", nu, x, origin=False)
    return _scaled_k_result(_k_scaled_engine(nu, x)[0])


def scaled_bessel_k_pair(nu: float, x: float) -> Tuple[EvalResult, EvalResult]:
    """(e^x K_nu, e^x K_{nu+1}) from one recurrence, each equal to its own
    scaled_bessel_k call."""
    nu, x = check_args("scaled_bessel_k_pair", nu, x, origin=False)
    k0, k1 = _k_scaled_engine(nu, x)
    nu1 = nu + 1.0
    nl = int(nu + 0.5)
    if int(nu1 + 0.5) != nl + 1 or nu1 - (nl + 1) != nu - nl:
        # nu + 1 rounds to another base order, whose recurrence differs in the last bits
        k1 = _k_scaled_engine(nu1, x)[0]
    return _scaled_k_result(k0), _scaled_k_result(k1)


def scaled_bessel_i(nu: float, x: float) -> EvalResult:
    """e^{-x} I_nu(x): pairs with scaled_bessel_k where I alone overflows."""
    nu, x = check_args("scaled_bessel_i", nu, x, origin=True)
    if x == 0.0:
        return origin_value(nu)
    if x <= 600.0:
        # series value stays inside double range up to x ~ 700
        value, est = _i_series(nu, x)
        damp = math.exp(-x)
        scaled = value * damp
        return EvalResult(scaled, est * damp + 2.0 * _EPS * abs(scaled))
    mu4 = 4.0 * nu * nu
    term = 1.0
    total = 1.0
    for k in range(1, 60):
        term *= -(mu4 - (2.0 * k - 1.0) ** 2) / (8.0 * k * x)
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    else:
        raise ComputationError("modified large-argument expansion stalled")
    value = total / math.sqrt(2.0 * math.pi * x)
    return EvalResult(value, abs(value) * 1e-14)


def ik_reciprocal_rise(nu: float, x: float) -> float:
    """1/(I_nu(x) K_nu(x)) - 2 max(nu, 0), which rises from 0 at x = 0.

    By DLMF 10.28.2 it is (s - 2 nu) + x I_{nu+1}/I_nu with s = x K_{nu+1}/K_nu, carried up
    from the base order by s <- x^2/s + 2(mu + m); the last step gives s - 2 nu as x^2/s, so
    the rise keeps its relative accuracy as x -> 0.  The I ratio is a continued fraction
    (DLMF 10.33.1); from x = max(25, 2 nu) the expansion of 2x I_nu K_nu (DLMF 10.40.6) is used.
    """
    nu, x = check_args("ik_reciprocal_rise", nu, x, origin=False)
    if x >= max(25.0, 2.0 * nu):
        mu4, z2, k, term, total = 4.0 * nu * nu, 4.0 * x * x, 0, 1.0, 1.0
        while abs(term) >= 1e-17 * total:  # the least term is near e^{-2x}
            k += 1
            term *= -(2.0 * k - 1.0) / (2.0 * k) * (mu4 - (2.0 * k - 1.0) ** 2) / z2
            total += term
        return 2.0 * x / total - 2.0 * max(nu, 0.0)
    nl = int(nu + 0.5)
    mu = nu - nl
    if mu == -0.5:
        s = x  # K_{1/2} = K_{-1/2}
    elif 1.0 < x < 20.0:
        # the trapezoid pair: Temme's series loses up to 1e-14 of the ratio on (1.3, 2]
        s = x * _quad_k_scaled(mu + 1.0, x) / _quad_k_scaled(mu, x)
    else:
        k0, k1 = _k_scaled_base(mu, x)
        s = x * k1 / k0
    rise = s - 2.0 * max(mu, 0.0)
    for m in range(1, nl + 1):
        rise = x * (x / s)
        s = rise + 2.0 * (mu + m)
    # x I_{nu+1}/I_nu = a/(2(nu+1) + a/(2(nu+2) + ...)) by modified Lentz; all terms positive
    a = x * x
    f = c = 2.0 * (nu + 1.0)
    d = 0.0
    for k in range(2, 64 + int(8.0 * math.sqrt(x))):
        b = 2.0 * (nu + k)
        d = 1.0 / (b + a * d)
        c = b + a / c
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < _EPS:
            return rise + a / f
    raise ComputationError("modified ratio continued fraction did not converge")

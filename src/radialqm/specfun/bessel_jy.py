"""Cylinder functions of the first and second kind, real order nu >= -1/2.

Three regimes:

* ascending series for the first kind at small argument (x <= 2, or
  x^2 <= 4(nu+1) where the series has no destructive cancellation), with
  the companion small-x series for the second kind at the fractional base
  order followed by the stable upward order recurrence;
* continued fractions at intermediate argument: the ratio J'/J at the
  target order (with sign tracking), a backward order sweep to the base
  order in [-1/2, 1/2), the complex continued fraction for the outgoing
  combination at the base order, and the Wronskian to fix magnitudes;
* the large-argument amplitude-phase expansions once they converge to
  double precision, x >= max(60, (nu+1)^2/2 + 20).

The pairs bessel_jy and j_pair, which an interface match needs at one
argument, share work between orders nu and nu + 1.  Where (nu + 1, x) is
asymptotic, so is (nu, x): one call runs the expansion loop for both
orders with one argument check and one amplitude sqrt(2/(pi x)), and
gives the bits of separate calls.  For 2 < x below the asymptotic
threshold of nu, one continued-fraction run gives both orders:
J_{nu+1} = (nu/x - J'_nu/J_nu) J_nu and Y_{nu+1} from the same upward
recurrence as Y_nu (Steed's method).  Elsewhere, the seam where only
(nu, x) is asymptotic included, each order runs alone.

Everything is computed here from recurrences and series; no library Bessel
routines are involved anywhere in the package.
"""
from __future__ import annotations

import functools
import math
from typing import Tuple

from ..errors import ComputationError
from ._temme import temme_start
from .gammafn import series_seed
from .order import check_args, origin_value
from .result import EvalResult, overflow_result

_EPS = 2.2e-16
_TINY = 1e-290
_SEED = 1e-30
_RESCALE = 1e250
_MAX_SERIES = 600
_MAX_CF = 40000


def _series_region(nu: float, x: float) -> bool:
    return x <= 2.0 or x * x <= 4.0 * (nu + 1.0)


def _asym_region(nu: float, x: float) -> bool:
    top = nu + 1.0
    return x >= max(60.0, 0.5 * top * top + 20.0)


def _j_series(nu: float, x: float):
    """(J_nu, est_abs_error) by the ascending series; x > 0."""
    seed, seed_rel = series_seed(nu, x)
    if seed == 0.0:
        # below the double range
        return 0.0, 5e-324
    z = 0.25 * x * x
    terms = [seed]
    t = seed
    peak = abs(seed)
    for k in range(_MAX_SERIES):
        t *= -z / ((k + 1.0) * (nu + k + 1.0))
        terms.append(t)
        peak = max(peak, abs(t))
        # t == 0 stops a series whose peak is so small that 1e-18 * peak underflows
        if (abs(t) < 1e-18 * peak or t == 0.0) and k >= 2:
            break
    else:
        raise ComputationError("first-kind series did not converge")
    value = math.fsum(terms)
    # rounding, which grows along the term recurrence, plus the seed's
    # error, which scales every term
    est = (2.0 + math.sqrt(len(terms))) * _EPS * (peak + abs(value)) + seed_rel * abs(value)
    return value, max(est, 5e-324 * len(terms))


# orders nu and nu + 1 share the base order mu, so a caller that runs them
# one after the other asks for the same (mu, x) twice in a row: the zero
# search's J at both orders (_cf2) and the x <= 2 pair of bessel_jy
# (_temme_y); both are pure, so a one-entry memo answers the second call
@functools.lru_cache(maxsize=1)
def _temme_y(mu: float, x: float):
    """(Y_mu, Y_{mu+1}) for |mu| <= 1/2 and 0 < x <= 2, by the small-x series."""
    f, p, q = temme_start(mu, x)
    half_pimu = 0.5 * (math.pi * mu)
    if abs(mu) < 1e-8:
        e_factor = mu * (math.pi * math.pi / 2.0) * (1.0 - half_pimu * half_pimu / 3.0)
    else:
        s = math.sin(half_pimu)
        e_factor = 2.0 / mu * s * s
    z = 0.25 * x * x
    c = 1.0
    g = f + e_factor * q
    h = p
    sum_y = c * g
    sum_y1 = c * h
    for k in range(1, _MAX_SERIES):
        f = (k * f + p + q) / (k * k - mu * mu)
        p /= k - mu
        q /= k + mu
        g = f + e_factor * q
        h = p - k * g
        c *= -z / k
        sum_y += c * g
        sum_y1 += c * h
        if abs(c) * (abs(g) + abs(h)) < 1e-17 * (abs(sum_y) + abs(sum_y1)):
            break
    else:
        raise ComputationError("second-kind small-x series did not converge")
    y_mu = -(2.0 / math.pi) * sum_y
    y_mu1 = -(4.0 / (math.pi * x)) * sum_y1
    return y_mu, y_mu1


def _cf1(nu: float, x: float):
    """J'_nu/J_nu by continued fraction; also the sign of J_nu(x)."""
    f = nu / x
    if -_TINY < f < _TINY:
        f = _TINY
    b = 2.0 * nu / x
    step = 2.0 / x
    c = f
    d = 0.0
    isign = 1
    for _ in range(_MAX_CF):
        b += step
        d = b - d
        if -_TINY < d < _TINY:
            d = _TINY
        c = b - 1.0 / c
        if -_TINY < c < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = c * d
        f *= delta
        if d < 0.0:
            isign = -isign
        if -4e-16 < delta - 1.0 < 4e-16:
            return f, isign
    raise ComputationError("ratio continued fraction did not converge")


@functools.lru_cache(maxsize=1)
def _cf2(mu: float, x: float):
    """(p, q) with H'(x)/H(x) = p + iq at order |mu| <= 1/2, x > 2."""
    base = complex(-0.5 / x, 1.0)
    f = complex(_SEED, 0.0)
    c = f
    d = complex(0.0, 0.0)
    a = 0.25 - mu * mu
    for k in range(1, _MAX_CF):
        bk = complex(2.0 * x, 2.0 * k)
        d = bk + a * d
        if abs(d) < _TINY:
            d = complex(_TINY, 0.0)
        c = bk + a / c
        if abs(c) < _TINY:
            c = complex(_TINY, 0.0)
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 4e-16:
            pq = base + complex(0.0, 1.0 / x) * f
            return pq.real, pq.imag
        a += 2.0 * k
    raise ComputationError("outgoing continued fraction did not converge")


# term k of the amplitude-phase expansion (DLMF 10.17.3-4) is the term
# before it times (4 nu^2 - (2k - 1)^2)/(8k x); odd k enter Q, even k enter
# P, with the signs +, -, -, + of k mod 4 = 1, 2, 3, 0: (8k, sign, k odd)
_ASYM_K = tuple((8.0 * k, 1.0 if k % 4 in (0, 1) else -1.0, k % 2) for k in range(1, 40))


# the order sets the numerators, so a pair or a quadrature that returns to
# the same orders builds each order's table once
@functools.lru_cache(maxsize=16)
def _asym_table(nu: float):
    """(4 nu^2 - (2k - 1)^2, 8k, sign, k odd) for the terms k = 1, ..., 39."""
    mu4 = 4.0 * nu * nu
    return tuple((mu4 - (2.0 * k - 1.0) ** 2, *rest) for k, rest in enumerate(_ASYM_K, 1))


def _asym_sums(nu: float, x: float):
    """(P, Q, last, t, chi) of the expansion at (nu, x) in the asym region.

    The sums stop before the first term that does not shrink or after one
    below 1e-17; last is the size of the last term taken, t the term the
    loop ended on, and chi = x - (nu/2 + 1/4) pi the phase.
    """
    t = p_sum = last = 1.0
    q_sum = 0.0
    for num, eight_k, sign, odd in _asym_table(nu):
        t *= num / (eight_k * x)
        size = abs(t)
        if size >= last:
            break
        last = size
        if odd:
            q_sum += sign * t
        else:
            p_sum += sign * t
        if size < 1e-17:
            break
    return p_sum, q_sum, last, t, x - (0.5 * nu + 0.25) * math.pi


def _asym_jy(nu: float, x: float, amp: float):
    """(J_nu, Y_nu, est, est) from the expansion; amp = sqrt(2/(pi x))."""
    p_sum, q_sum, last, t, chi = _asym_sums(nu, x)
    cos_chi = math.cos(chi)
    sin_chi = math.sin(chi)
    est = amp * (last * 1e-16 + abs(t) + 1.2e-16 * x)
    return (amp * (p_sum * cos_chi - q_sum * sin_chi), amp * (p_sum * sin_chi + q_sum * cos_chi),
            est, est)


def _asym_j(nu: float, x: float, amp: float) -> float:
    """J_nu alone from the expansion, the value _asym_jy gives."""
    p_sum, q_sum, _, _, chi = _asym_sums(nu, x)
    return amp * (p_sum * math.cos(chi) - q_sum * math.sin(chi))


def _cf_run(nu: float, x: float):
    """(J_nu, J'_nu/J_nu, Y_mu, Y_{mu+1}) at the base order mu = nu - int(nu + 1/2).

    For 2 < x below the asymptotic threshold of nu: the ratio continued
    fraction at nu, the backward order sweep to mu, the outgoing continued
    fraction at mu and the Wronskian.
    """
    nl = int(nu + 0.5)
    mu = nu - nl
    f_nu, isign = _cf1(nu, x)
    rj = isign * _SEED
    rjp = f_nu * rj
    resc = 1.0
    for m in range(nl, 0, -1):
        order = mu + m
        rj_lower = (order / x) * rj + rjp
        rjp_lower = ((order - 1.0) / x) * rj_lower - rj
        rj, rjp = rj_lower, rjp_lower
        if abs(rj) > _RESCALE:
            rj /= _RESCALE
            rjp /= _RESCALE
            resc /= _RESCALE
    p, q = _cf2(mu, x)
    w = 2.0 / (math.pi * x)
    if rj == 0.0:
        # the sweep sits on a zero of J_mu: there (J' + iY')/(iY) = p + iq
        # gives J' = -q Y and Y' = p Y, and the Wronskian -J' Y = w fixes Y
        jp_mu = math.copysign(math.sqrt(w * q), rjp)
        y_mu = -jp_mu / q
        yp_mu = p * y_mu
        j_nu = jp_mu * (isign * _SEED) * resc / rjp
    else:
        f_mu = rjp / rj
        gam = (p - f_mu) / q
        j_mu = math.copysign(math.sqrt(w / (q + gam * (p - f_mu))), rj)
        y_mu = gam * j_mu
        yp_mu = q * j_mu + p * y_mu
        j_nu = j_mu * (isign * _SEED) * resc / rj
    return j_nu, f_nu, y_mu, (mu / x) * y_mu - yp_mu


def _j_cf(nu: float, x: float, j: float):
    """(J_nu, est_abs_error) from a continued-fraction value j, x > 2.

    The ascending series is cleaner where it has no cancellation; there
    its value replaces j.
    """
    if _series_region(nu, x):
        return _j_series(nu, x)
    return j, abs(j) * 1e-14


def _j_pair_cf(nu: float, x: float):
    """((J_nu, est), (J_{nu+1}, est), Y_mu, Y_{mu+1}) from one _cf_run at nu.

    J_{nu+1} = (nu/x - J'_nu/J_nu) J_nu (DLMF 10.6.2); each order keeps
    its series value where the series is clean.
    """
    j, f_nu, y_mu, y_mu1 = _cf_run(nu, x)
    return _j_cf(nu, x, j), _j_cf(nu + 1.0, x, (nu / x - f_nu) * j), y_mu, y_mu1


def _y_up(mu: float, x: float, y_mu: float, y_mu1: float, steps: int):
    """(Y_{mu+steps}, est_abs_error) by the stable upward recurrence from Y_mu, Y_{mu+1}.

    (inf, inf), the flag of an out-of-range value, once Y_{mu+steps+1}
    overflows.
    """
    y, y_next = y_mu, y_mu1
    for m in range(1, steps + 1):
        y, y_next = y_next, (2.0 * (mu + m) / x) * y_next - y
        if not math.isfinite(y_next):
            return math.inf, math.inf
    if not (math.isfinite(y) and math.isfinite(y_next)):
        return math.inf, math.inf
    est_y = abs(y) * 1e-14
    if x <= 2.0:
        est_y += abs(y_next) * 1e-15
    return y, est_y


def _engine(nu: float, x: float):
    """(J, Y, est_j, est_y) for nu >= -1/2, x > 0; J is the value bessel_j returns."""
    if _asym_region(nu, x):
        return _asym_jy(nu, x, math.sqrt(2.0 / (math.pi * x)))

    nl = int(nu + 0.5)
    mu = nu - nl
    if x <= 2.0:
        j, est_j = _j_series(nu, x)
        y_mu, y_mu1 = _temme_y(mu, x)
    else:
        j, _, y_mu, y_mu1 = _cf_run(nu, x)
        j, est_j = _j_cf(nu, x, j)
    y, est_y = _y_up(mu, x, y_mu, y_mu1, nl)
    return j, y, est_j, est_y


def _y_result(y: float, est_y: float) -> EvalResult:
    if not math.isfinite(y):
        return overflow_result(math.copysign(math.inf, y))
    return EvalResult(y, est_y)


def _j(nu: float, x: float):
    """(J_nu, est_abs_error) for checked arguments, x > 0."""
    if _series_region(nu, x):
        return _j_series(nu, x)
    j, _, est_j, _ = _engine(nu, x)
    return j, est_j


def bessel_j(nu: float, x: float) -> EvalResult:
    """J_nu(x) for nu >= -1/2, x >= 0."""
    nu, x = check_args("bessel_j", nu, x, origin=True)
    if x == 0.0:
        return origin_value(nu)
    return EvalResult(*_j(nu, x))


def j_pair(nu: float, x: float) -> Tuple[float, float]:
    """(J_nu(x), J_{nu+1}(x)) as floats, x >= 0: the J values of bessel_jy.

    For callers inside the package that drop the error estimate at once:
    the arguments are checked once and no EvalResult is built.  Where
    (nu + 1, x) is asymptotic, both orders run the expansion loop in this
    call and neither Y nor an estimate is formed.  J_nu is the value
    bessel_j returns; so is J_{nu+1}, except where both orders come from
    one continued-fraction run, where it agrees to rounding.
    """
    nu, x = check_args("bessel_j", nu, x, origin=True)
    if x == 0.0:
        return origin_value(nu).value, origin_value(nu + 1.0).value
    if _asym_region(nu + 1.0, x):
        amp = math.sqrt(2.0 / (math.pi * x))
        return _asym_j(nu, x, amp), _asym_j(nu + 1.0, x, amp)
    # at the seam, where only (nu, x) is asymptotic, each order runs alone;
    # unlike bessel_jy, which needs Y there, no continued fraction runs
    # where the series gives both orders
    if _series_region(nu, x) or _asym_region(nu, x):
        return _j(nu, x)[0], _j(nu + 1.0, x)[0]
    (j0, _), (j1, _), _, _ = _j_pair_cf(nu, x)
    return j0, j1


def bessel_y(nu: float, x: float) -> EvalResult:
    """Y_nu(x) for nu >= -1/2, x > 0."""
    nu, x = check_args("bessel_y", nu, x, origin=False)
    _, y, _, est_y = _engine(nu, x)
    return _y_result(y, est_y)


def bessel_jy(nu: float, x: float) -> Tuple[EvalResult, EvalResult, EvalResult, EvalResult]:
    """(J_nu, J_{nu+1}, Y_nu, Y_{nu+1}) at x > 0; a match at one argument needs all four.

    Where (nu + 1, x) is asymptotic, both orders run the expansion loop
    here with one shared amplitude.  For 2 < x below the asymptotic
    threshold of nu, one continued-fraction run gives both orders; J_{nu+1}
    keeps the series value where x^2 <= 4(nu+2), as bessel_j does.
    Elsewhere, for x <= 2 and at the seam where only (nu + 1, x) falls
    short of the asymptotic regime, the engine runs once per order.  J_nu
    and Y_nu equal their own bessel_j and bessel_y calls, value and
    estimate alike, and so do the nu + 1 results outside the one-run
    regime; inside it they agree to rounding, with the same overflow flag.
    """
    nu, x = check_args("bessel_jy", nu, x, origin=False)
    if _asym_region(nu + 1.0, x):
        amp = math.sqrt(2.0 / (math.pi * x))
        j0, y0, est_j0, est_y0 = _asym_jy(nu, x, amp)
        j1, y1, est_j1, est_y1 = _asym_jy(nu + 1.0, x, amp)
    elif x <= 2.0 or _asym_region(nu, x):
        j0, y0, est_j0, est_y0 = _engine(nu, x)
        j1, y1, est_j1, est_y1 = _engine(nu + 1.0, x)
    else:
        nl = int(nu + 0.5)
        mu = nu - nl
        (j0, est_j0), (j1, est_j1), y_mu, y_mu1 = _j_pair_cf(nu, x)
        y0, est_y0 = _y_up(mu, x, y_mu, y_mu1, nl)
        y1, est_y1 = _y_up(mu, x, y_mu, y_mu1, nl + 1)
    return (EvalResult(j0, est_j0), EvalResult(j1, est_j1),
            _y_result(y0, est_y0), _y_result(y1, est_y1))

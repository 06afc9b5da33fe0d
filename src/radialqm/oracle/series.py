"""Arbitrary-precision series reference values.

Independent verification route for the double-precision cylinder-function
kernels.  Everything is computed from the defining ascending power series with
an explicit geometric truncation bound, at a working precision that is raised
until two successive evaluations agree to the requested number of digits.

mpmath supplies only the big-float arithmetic and the constants (pi, euler,
plus one Gamma seed per series).  The series themselves, the integer-order
logarithmic series for the second-kind functions and the truncation control
live here; mpmath's own Bessel implementations are never called, so this
module and the production kernels share no code path.
"""
from __future__ import annotations

from mpmath import mp

FUNCTIONS = ("bessel_j", "bessel_y", "bessel_i", "bessel_k")

MAX_X = 30.0
MAX_DIGITS = 50
_MAX_TERMS = 4000


class SeriesDomainError(ValueError):
    """Argument outside the supported reference domain."""


def _first_kind_series(nu, x, alternating):
    """sum_k s^k (x/2)^(nu+2k) / (k! Gamma(nu+k+1)) at current precision.

    s = -1 gives J_nu, s = +1 gives I_nu.  The tail after the last added term
    is bounded geometrically once the term ratio has dropped below 1/2, which
    is guaranteed for k >= nu; the bound must fall below 10^-(dps-6) relative
    to the partial sum before the loop may stop.
    """
    z = x * x / 4
    sign = -1 if alternating else 1
    term = (x / 2) ** nu / mp.gamma(nu + 1)
    total = term
    tol = mp.mpf(10) ** (-(mp.dps - 6))
    half = mp.mpf("0.5")
    scale = mp.mpf(10) ** (-2 * mp.dps)
    for k in range(_MAX_TERMS):
        term = sign * term * z / ((k + 1) * (nu + k + 1))
        total += term
        ratio = z / ((k + 2) * abs(nu + k + 2))
        if k + 2 > abs(nu) and ratio < half:
            tail_bound = 2 * abs(term) * ratio
            if tail_bound <= tol * max(abs(total), scale):
                return total
    raise ArithmeticError("series truncation bound not reached")


def _harmonic_series_part(m, x, alternating):
    """sum_k s^k (H_k + H_{m+k}) (x^2/4)^k / (k! (m+k)!) at current precision."""
    z = x * x / 4
    sign = -1 if alternating else 1
    h_k = mp.mpf(0)
    h_mk = mp.fsum(mp.mpf(1) / j for j in range(1, m + 1))
    coeff = mp.mpf(1) / mp.factorial(m)
    total = (h_k + h_mk) * coeff
    tol = mp.mpf(10) ** (-(mp.dps - 6))
    scale = mp.mpf(10) ** (-2 * mp.dps)
    eighth = mp.mpf("0.125")
    for k in range(1, _MAX_TERMS):
        coeff = sign * coeff * z / (k * (m + k))
        h_k += mp.mpf(1) / k
        h_mk += mp.mpf(1) / (m + k)
        term = (h_k + h_mk) * coeff
        total += term
        ratio = z / ((k + 1) * (m + k + 1))
        if ratio < eighth:
            tail_bound = 4 * abs(term) * ratio
            if tail_bound <= tol * max(abs(total), scale):
                return total
    raise ArithmeticError("series truncation bound not reached")


def _finite_part(m, x, alternating):
    """sum_{k=0}^{m-1} ((m-k-1)!/k!) (s x^2/4)^k * (x/2)^(-m), s as above."""
    z = x * x / 4
    if alternating:
        z = -z
    total = mp.mpf(0)
    for k in range(m):
        total += mp.factorial(m - k - 1) / mp.factorial(k) * z**k
    return total * (x / 2) ** (-m)


def _y_integer(m, x):
    """Y_m(x), integer m >= 0, via the logarithmic ascending series."""
    j = _first_kind_series(mp.mpf(m), x, alternating=True)
    lead = (mp.log(x / 2) + mp.euler) * j * 2 / mp.pi
    finite = _finite_part(m, x, alternating=False) / mp.pi
    harm = (x / 2) ** m * _harmonic_series_part(m, x, alternating=True) / mp.pi
    return lead - finite - harm


def _k_integer(m, x):
    """K_m(x), integer m >= 0, via the logarithmic ascending series."""
    i = _first_kind_series(mp.mpf(m), x, alternating=False)
    sgn = -1 if m % 2 == 0 else 1
    lead = sgn * (mp.log(x / 2) + mp.euler) * i
    finite = _finite_part(m, x, alternating=True) / 2
    harm = (x / 2) ** m * _harmonic_series_part(m, x, alternating=False) / 2
    return lead + finite - sgn * harm


def _eval_once(function, nu, x):
    nearest = mp.nint(nu)
    is_integer = abs(nu - nearest) < mp.mpf(10) ** (-(mp.dps - 4))
    if function == "bessel_j":
        return _first_kind_series(nu, x, alternating=True)
    if function == "bessel_i":
        return _first_kind_series(nu, x, alternating=False)
    if function == "bessel_y":
        if is_integer and nearest >= 0:
            return _y_integer(int(nearest), x)
        if is_integer:
            m = int(-nearest)
            val = _y_integer(m, x)
            return val if m % 2 == 0 else -val
        jp = _first_kind_series(nu, x, alternating=True)
        jm = _first_kind_series(-nu, x, alternating=True)
        return (jp * mp.cos(nu * mp.pi) - jm) / mp.sin(nu * mp.pi)
    if function == "bessel_k":
        if is_integer:
            return _k_integer(int(abs(nearest)), x)
        ip = _first_kind_series(nu, x, alternating=False)
        im = _first_kind_series(-nu, x, alternating=False)
        return mp.pi / 2 * (im - ip) / mp.sin(nu * mp.pi)
    raise SeriesDomainError(f"unknown function id {function!r}")


def series_reference(function, nu, x, digits=30):
    """High-precision reference value of a cylinder function.

    Parameters
    ----------
    function : one of "bessel_j", "bessel_y", "bessel_i", "bessel_k".
    nu : real order (any sign, integer or not).
    x : argument, 0 < x <= 30.
    digits : requested significant digits, at most 50.

    Returns an mpmath.mpf carrying at least `digits` correct significant
    digits.  The working precision is raised until two successive evaluations
    agree to the requested accuracy, which also absorbs the cancellation in
    the alternating series and in the second-kind connection formulas.
    """
    if function not in FUNCTIONS:
        raise SeriesDomainError(f"unknown function id {function!r}")
    if not x > 0:
        raise SeriesDomainError("argument must be positive")
    if x > MAX_X:
        raise SeriesDomainError(f"argument above series reference limit {MAX_X}")
    if not 1 <= digits <= MAX_DIGITS:
        raise SeriesDomainError(f"digits must lie in [1, {MAX_DIGITS}]")

    extra = 20 + int(x)
    previous = None
    for _ in range(8):
        with mp.workdps(digits + extra):
            value = _eval_once(function, mp.mpf(nu), mp.mpf(x))
            if previous is not None:
                diff = abs(value - previous)
                floor = mp.mpf(10) ** (-3 * digits)
                if diff <= max(abs(value), floor) * mp.mpf(10) ** (1 - digits):
                    return +value
            previous = value
        extra += 12
    raise ArithmeticError("reference evaluation failed to stabilise")

"""Arbitrary-precision series reference values.

Independent verification route for the double-precision cylinder-function
kernels.  Everything is computed from the defining ascending power series with
an explicit geometric truncation bound, at a working precision that is raised
until two successive evaluations agree to the requested number of digits.

The power series are summed in scaled integers.  The order and the argument
enter as the exact rationals their doubles stand for, so each term follows
from the one before by one integer multiply and one integer division, and the
truncation bound is decided exactly in integers.  Each sum is kept relative to
its leading term, with _GUARD_BITS more bits than the working precision, so
it keeps its accuracy relative to the largest term.

mpmath supplies the leading term of each series (the power (x/2)^nu and one
Gamma seed), log, pi, Euler's constant, the sine and cosine of the
connection formulas, the short finite part of the logarithmic series and the
returned mpf.  mpmath's own Bessel implementations are never called, so this
module and the production kernels share no code path.
"""
from __future__ import annotations

from mpmath import mp

FUNCTIONS = ("bessel_j", "bessel_y", "bessel_i", "bessel_k")

MAX_X = 30.0
MAX_DIGITS = 50
_MAX_TERMS = 4000
# bits kept below the working precision by the scaled-integer sums
_GUARD_BITS = 24


class SeriesDomainError(ValueError):
    """Argument outside the supported reference domain."""


def _fraction(v):
    """(p, q) with v = p / q exactly and q > 0 a power of two; v is an mpf."""
    sign, man, exp, _ = v._mpf_
    if sign:
        man = -man
    return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)


def _stop_rule(lead, wbits):
    """The truncation tolerance in integers, for sums scaled to lead / 2^wbits.

    Returns (p, fn, fd) with p = 10^(dps-6), the inverse tolerance, and
    fn / fd = 10^(-2 dps) / |lead| * 2^wbits, the floor 10^(-2 dps) below
    which the bound is taken absolute instead of relative to the sum.
    """
    man, exp = abs(lead).man_exp
    p, fd = 10 ** (mp.dps - 6), 10 ** (2 * mp.dps) * man
    shift = wbits - exp
    return (p, 1 << shift, fd) if shift >= 0 else (p, 1, fd << -shift)


def _tail_within(bound, bound_den, total, rule):
    """Whether bound / bound_den <= 10^-(dps-6) * max(|total|, floor), exactly."""
    p, fn, fd = rule
    scaled = bound * p
    return scaled <= bound_den * abs(total) or scaled * fd <= bound_den * fn


def _first_kind_series(nu, x, alternating):
    """sum_k s^k (x/2)^(nu+2k) / (k! Gamma(nu+k+1)) at current precision.

    s = -1 gives J_nu, s = +1 gives I_nu.  With nu = a/b and x^2/4 = zn/zd the
    term ratio is s zn b / (zd (k+1) (a + (k+1) b)).  The tail after the last
    added term is bounded geometrically once the ratio has dropped below 1/2,
    which is guaranteed for k >= nu; the bound must fall below 10^-(dps-6)
    relative to the partial sum before the loop may stop.
    """
    a, b = _fraction(nu)
    zn, zd = _fraction(x)
    zn, zd = zn * zn, 4 * zd * zd
    num = -zn * b if alternating else zn * b
    lead = (x / 2) ** nu / mp.gamma(nu + 1)
    wbits = mp.prec + _GUARD_BITS
    rule = _stop_rule(lead, wbits)
    term = total = 1 << wbits
    den = zd * (a + b)
    for k in range(_MAX_TERMS):
        term = term * num // den
        total += term
        den = zd * (k + 2) * (a + (k + 2) * b)
        # ratio of the next term: |num| / |den| < 1/2
        if (k + 2) * b > abs(a) and 2 * abs(num) < abs(den):
            if _tail_within(2 * abs(term * num), abs(den), total, rule):
                return lead * mp.ldexp(total, -wbits)
    raise ArithmeticError("series truncation bound not reached")


def _harmonic_series_part(m, x, alternating):
    """sum_k s^k (H_k + H_{m+k}) (x^2/4)^k / (k! (m+k)!) at current precision.

    The harmonic numbers are scaled integers too, on the sum's 2^wbits scale.
    """
    zn, zd = _fraction(x)
    zn, zd = zn * zn, 4 * zd * zd
    num = -zn if alternating else zn
    lead = 1 / mp.factorial(m)
    wbits = mp.prec + _GUARD_BITS
    one = 1 << wbits
    rule = _stop_rule(lead, wbits)
    h_k = 0
    h_mk = sum(one // j for j in range(1, m + 1))
    coeff = one
    total = h_mk
    den = zd * (m + 1)
    for k in range(1, _MAX_TERMS):
        coeff = coeff * num // den
        h_k += one // k
        h_mk += one // (m + k)
        term = (h_k + h_mk) * coeff >> wbits
        total += term
        den = zd * (k + 1) * (m + k + 1)
        # ratio of the next coefficient: |num| / den < 1/8
        if 8 * abs(num) < den:
            if _tail_within(4 * abs(term * num), den, total, rule):
                return lead * mp.ldexp(total, -wbits)
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
    if function in ("bessel_j", "bessel_i"):
        alternating = function == "bessel_j"
        if is_integer and nearest < 0:
            # 1/Gamma(nu + 1) vanishes at a negative integer, where the series
            # seed has a pole: J_{-m} = (-1)^m J_m and I_{-m} = I_m
            m = int(-nearest)
            val = _first_kind_series(mp.mpf(m), x, alternating)
            return -val if alternating and m % 2 else val
        return _first_kind_series(nu, x, alternating)
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

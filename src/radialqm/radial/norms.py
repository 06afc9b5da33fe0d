"""r^n-weighted mode norms: closed forms for normalize, quadrature for norm_integral.

The probability measure is dtau = r^n dr.  normalize takes each piece's
mass in closed form: Lommel's integrals (DLMF 10.22(i), 10.43(i)) for
the cylinder tags, the weighted orthogonality of the Laguerre and
Hermite polynomials (DLMF 18.3) for the Gauss tags.  norm_integral is
the independent check: adaptive quadrature, truncated to infinity where
a certified analytic tail bound drops below a small fraction of the
requested tolerance.
"""

from __future__ import annotations

import math
import sys

from ..errors import (
    ComputationError,
    DivergenceError,
    DomainError,
    NonNormalizableError,
    OriginDivergenceError,
)
from ..specfun import bessel_k
from .model import Dimension
from .quadrature import integrate
from .wavefunction import (
    _CYLINDER,
    BESSEL_I,
    BESSEL_J,
    BESSEL_K,
    GAUSS_LAGUERRE,
    GAUSS_TAGS,
    Piece,
    RadialWaveFunction,
)

# Fraction of the tolerance granted to the truncated analytic tail.
_TAIL_FRACTION = 1e-3


def _abs_coeff_sum_hermite(N: int) -> float:
    """Sum of |coefficients| of H_N, via the coefficient recurrence."""
    if N == 0:
        return 1.0
    prev = [1.0]
    cur = [0.0, 2.0]
    for k in range(1, N):
        nxt = [0.0] * (k + 2)
        for i, c in enumerate(cur):
            nxt[i + 1] += 2.0 * c
        for i, c in enumerate(prev):
            nxt[i] -= 2.0 * k * c
        prev, cur = cur, nxt
    return sum(abs(c) for c in cur)


def _abs_coeff_sum_laguerre(N: int, alpha: float) -> float:
    """Sum of |coefficients| of L_N^(alpha); binomials positive for alpha > -1."""
    total = 0.0
    for k in range(N + 1):
        binom = 1.0
        for j in range(1, N - k + 1):
            binom *= (alpha + k + j) / j
        total += abs(binom) / math.factorial(k)
    return total


def _certified_t0(p: float, amp: float, t_start: float, budget: float) -> float:
    """Smallest convenient t0 with amp * int_{t0}^inf t^p e^-t dt <= budget.

    Uses int_{t0}^inf t^p e^-t dt <= 2 t0^p e^-t0 once t0 >= 2p, which
    the search enforces before testing the bound.
    """
    t0 = max(t_start, 2.0 * max(p, 0.5), 1.0)
    for _ in range(600):
        try:
            bound = 2.0 * amp * t0**p * math.exp(-t0)
        except OverflowError:
            # t0**p is past the double range: test the bound in logs
            log_bound = math.log(2.0 * amp) + p * math.log(t0) - t0
            bound = math.exp(log_bound) if log_bound <= math.log(budget) else math.inf
        if bound <= budget:
            return t0
        t0 *= 1.2
    raise ComputationError("could not certify a Gaussian tail truncation radius")


def _gauss_tail(piece: Piece, n: int, norm_constant: float, budget: float) -> float:
    """Radius past which the norm density of a Gauss piece integrates to at most budget."""
    mu = piece.scale
    amp_front = (norm_constant * abs(piece.coeff)) ** 2 / (2.0 * mu ** (0.5 * (n + 1)))
    if piece.tag == GAUSS_LAGUERRE:
        poly = _abs_coeff_sum_laguerre(piece.degree, piece.alpha)
        deg_t = piece.degree
    else:
        poly = _abs_coeff_sum_hermite(piece.degree)
        deg_t = 0.5 * piece.degree
    p_norm = 0.5 * (n - 1) + 2.0 * deg_t
    t0 = _certified_t0(p_norm, amp_front * poly * poly, mu * piece.r_lo**2, budget)
    return math.sqrt(t0 / mu)


def _k_tail(piece: Piece, nu: float, norm_constant: float, budget: float) -> float:
    """Radius past which the norm density of a BesselK piece integrates to at most budget.

    K_nu(x) e^x decreases in x, so past r0 the norm density r |c K_nu|^2
    sits under r K_nu(kappa r0)^2 e^(-2 kappa (r - r0)).
    """
    kappa = piece.scale
    amp = norm_constant * abs(piece.coeff)
    r0 = piece.r_lo + 1.0 / kappa
    for _ in range(600):
        k_val = bessel_k(max(nu, -nu), kappa * r0).value
        bound = (amp * k_val) ** 2 * (r0 / (2.0 * kappa) + 1.0 / (4.0 * kappa * kappa))
        if bound <= budget:
            return r0
        r0 *= 1.25
    raise ComputationError("could not certify an exponential tail truncation radius")


def _check_origin(psi: RadialWaveFunction) -> None:
    for piece in psi.pieces:
        if piece.irregular_at_origin():
            raise OriginDivergenceError(
                "second-kind component at the origin: non-normalizable for "
                "n >= 3, infinite kinetic energy at n in {1,2}, parity-odd at n = 0"
            )


def _check_decays(tag: str) -> None:
    """Typed error for a form that cannot extend to infinity."""
    if tag == BESSEL_J:
        raise NonNormalizableError(
            "oscillatory piece extends to infinity; the mode is not square-integrable"
        )
    if tag == BESSEL_I:
        raise DivergenceError(
            "exponentially growing piece extends to infinity; integral diverges"
        )


def _segments(psi: RadialWaveFunction, r_max: float, budget_tail: float) -> list[tuple[float, float]]:
    """Finite integration segments covering the support up to r_max."""
    segments: list[tuple[float, float]] = []
    for piece in psi.pieces:
        lo = piece.r_lo
        if lo >= r_max:
            break
        if not piece.is_unbounded:
            segments.append((lo, min(piece.r_hi, r_max)))
            continue
        if math.isinf(r_max):
            # a zero coefficient decays like anything: bound it as a K tail
            tag = piece.tag if piece.coeff != 0.0 else BESSEL_K
            _check_decays(tag)
            if tag in GAUSS_TAGS:
                cut = _gauss_tail(piece, psi.dimension.n, psi.norm_constant, budget_tail)
            else:
                cut = _k_tail(piece, psi.dimension.nu, psi.norm_constant, budget_tail)
            if cut > lo:
                segments.append((lo, cut))
        else:
            segments.append((lo, r_max))
    if not segments:
        raise ComputationError(f"no support below r_max = {r_max!r}")
    return segments


def norm_integral(psi: RadialWaveFunction, r_max: float, tol: float) -> float:
    """Integral of r^n |Psi|^2 dr from 0 to r_max (r_max may be inf)."""
    if not tol > 0.0:
        raise ComputationError(f"tolerance must be positive, got {tol!r}")
    _check_origin(psi)
    half_n = 0.5 * psi.dimension.n

    def integrand(r: float) -> float:
        # r^(n/2) |Psi| stays in range where r^n and |Psi|^2 alone do not
        return (r**half_n * psi.sample(r)) ** 2

    segments = _segments(psi, r_max, budget_tail=tol * _TAIL_FRACTION)
    per_segment_tol = tol * (1.0 - _TAIL_FRACTION) / len(segments)
    total = 0.0
    for lo, hi in segments:
        value, _ = integrate(integrand, lo, hi, per_segment_tol)
        total += value
    return total


def lommel_primitive(tag: str, nu: float, r: float, x: float, v0: float, v1: float) -> float:
    """Antiderivative at r of t c^2 Z_nu(k t)^2 for a cylinder tag.

    v0 = c Z_nu(x) and v1 = c Z_(nu+1)(x) at x = k r.  The primitive
    vanishes at r = 0 for the regular forms and as r -> inf for K.
    """
    s1, s2 = _CYLINDER[tag][1]
    return 0.5 * r * r * (v0 * v0 + s1 * (v1 * v1) + s2 * (2.0 * nu * v0 * v1 / x))


def _cylinder_mass(piece: Piece, nu: float, amp: float) -> float:
    """Weighted mass of amp r^(-nu) Z_nu(k r) over the piece: int r (amp Z_nu)^2 dr."""
    if piece.is_unbounded:
        _check_decays(piece.tag)
    kernel = _CYLINDER[piece.tag][0]

    def primitive(r: float) -> float:
        if r == 0.0 or math.isinf(r):
            return 0.0
        x = piece.scale * r
        # amp enters before squaring: the coefficient alone may square past the range
        v0 = amp * kernel(nu, x).value
        v1 = amp * kernel(nu + 1.0, x).value
        return lommel_primitive(piece.tag, nu, r, x, v0, v1)

    return primitive(piece.r_hi) - primitive(piece.r_lo)


def _gauss_root_mass(piece: Piece, dim: Dimension) -> float:
    """Square root of the weighted mass of the unit-coefficient Gauss form on [0, inf)."""
    if piece.r_lo != 0.0 or not piece.is_unbounded:
        raise DomainError("a Gauss form has a closed-form norm only on [0, inf)")
    N, mu, nu = piece.degree, piece.scale, dim.nu
    if piece.tag == GAUSS_LAGUERRE:
        if piece.alpha != nu:
            raise DomainError(f"a Laguerre form needs alpha = nu = {nu}, got {piece.alpha!r}")
        # Gamma(N + nu + 1) / (2 mu^(nu + 1) N!)
        direct = lambda: math.gamma(N + nu + 1.0) / math.factorial(N) / (2.0 * mu ** (nu + 1.0))
        log_mass = (math.lgamma(N + nu + 1.0) - math.lgamma(N + 1.0) - math.log(2.0)
                    - (nu + 1.0) * math.log(mu))
    else:
        if dim.n != 0:
            raise DomainError(f"a Hermite form is the n = 0 mode, got n = {dim.n}")
        # sqrt(pi) 2^N N! / (2 sqrt(mu))
        direct = lambda: math.sqrt(math.pi) * math.ldexp(math.factorial(N), N - 1) / math.sqrt(mu)
        log_mass = (0.5 * math.log(math.pi) + (N - 1) * math.log(2.0) + math.lgamma(N + 1.0)
                    - 0.5 * math.log(mu))
    try:
        mass = direct() if N <= 170 else 0.0
    except (OverflowError, ZeroDivisionError):
        mass = 0.0
    if sys.float_info.min <= mass < math.inf:
        return math.sqrt(mass)
    # past the double range the constant is kept in logs
    return math.exp(0.5 * log_mass)


def normalize(psi: RadialWaveFunction) -> RadialWaveFunction:
    """Copy of psi scaled so its r^n-weighted mass is 1, from the closed forms."""
    _check_origin(psi)
    nc = psi.norm_constant
    gauss = [piece for piece in psi.pieces if piece.tag in GAUSS_TAGS]
    if gauss:
        # a Gauss piece spans [0, inf), so it is the mode's only piece
        root_mass = nc * abs(gauss[0].coeff) * _gauss_root_mass(gauss[0], psi.dimension)
    else:
        nu = psi.dimension.nu
        mass = math.fsum(_cylinder_mass(piece, nu, nc * piece.coeff)
                         for piece in psi.pieces if piece.coeff != 0.0)
        root_mass = math.sqrt(mass) if mass > 0.0 else mass
    constant = nc / root_mass if root_mass > 0.0 else math.nan
    if not (constant > 0.0 and math.isfinite(constant)):
        raise ComputationError(f"mode norm came out {root_mass!r}; cannot normalize")
    return psi.with_norm_constant(constant)

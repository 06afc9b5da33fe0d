"""r^n-weighted normalization and energy integrals.

The probability measure is dtau = r^n dr.  Every admissible piece
family decays in a way that admits a certified analytic tail bound, so
integrals to infinity are truncated where the bound drops below a small
fraction of the requested tolerance.
"""

from __future__ import annotations

import math
from typing import Optional

from ..errors import (
    ComputationError,
    DivergenceError,
    NonNormalizableError,
    OriginDivergenceError,
)
from ..specfun import bessel_k
from .model import DeltaShell, FiniteWell, Free, Harmonic, InfiniteWell, PhysicalScales, Potential
from .quadrature import integrate
from .wavefunction import (
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
# Relative accuracy of the norm constant of every normalized mode.
_NORM_TOL = 1e-10


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


def _certified_t0(p: float, amp: float, t_start: float, budget: float) -> tuple[float, float]:
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
            return t0, bound
        t0 *= 1.2
    raise ComputationError("could not certify a Gaussian tail truncation radius")


def _gauss_tail(piece: Piece, n: int, norm_constant: float, budget: float,
                kin_scale: Optional[float], harmonic_v_coeff: float) -> tuple[float, float]:
    """Truncation radius and certified tail bound for a Gauss-family piece.

    With kin_scale None the integrand is the norm density r^n |Psi|^2;
    otherwise it is the energy density, whose polynomial envelope is one
    power of t = mu r^2 wider for the derivative and, when
    harmonic_v_coeff = (1/2) m omega^2 is nonzero, for the potential.
    """
    mu = piece.scale
    amp_front = (norm_constant * abs(piece.coeff)) ** 2 / (2.0 * mu ** (0.5 * (n + 1)))
    if piece.tag == GAUSS_LAGUERRE:
        poly = _abs_coeff_sum_laguerre(piece.degree, piece.alpha)
        slope = 2.0 * _abs_coeff_sum_laguerre(piece.degree - 1, piece.alpha + 1.0) + poly \
            if piece.degree > 0 else poly
        deg_t = piece.degree
    else:
        poly = _abs_coeff_sum_hermite(piece.degree)
        slope = (2.0 * piece.degree * _abs_coeff_sum_hermite(piece.degree - 1) + poly
                 if piece.degree > 0 else poly)
        deg_t = 0.5 * piece.degree
    p_norm = 0.5 * (n - 1) + 2.0 * deg_t
    t_start = mu * piece.r_lo**2
    if kin_scale is None:
        t0, bound = _certified_t0(p_norm, amp_front * poly * poly, t_start, budget)
        return math.sqrt(t0 / mu), bound
    # |Psi'|^2 <= mu * slope^2 * t^(2 deg_t + 1) e^-t  (both families).
    amp_kin = kin_scale * amp_front * mu * slope * slope
    amp_pot = harmonic_v_coeff / mu * amp_front * poly * poly
    p_energy = p_norm + 1.0
    half_budget = 0.5 * budget
    t0a, b1 = _certified_t0(p_energy, amp_kin, t_start, half_budget)
    t0b, b2 = _certified_t0(p_energy, amp_pot, t_start, half_budget) if amp_pot > 0.0 else (1.0, 0.0)
    t0 = max(t0a, t0b)
    return math.sqrt(t0 / mu), b1 + b2


def _k_tail(piece: Piece, nu: float, norm_constant: float, budget: float,
            kin_scale: Optional[float]) -> tuple[float, float]:
    """Truncation radius for a decaying BesselK piece.

    K_nu(x) e^x decreases in x, so past r0 the norm density r |c K_nu|^2
    sits under r K_nu(kappa r0)^2 e^(-2 kappa (r - r0)); the energy
    density does the same with order nu+1 and a kappa^2 factor.
    """
    kappa = piece.scale
    try:
        front = (norm_constant * abs(piece.coeff)) ** 2
    except OverflowError:
        raise ComputationError("tail bound of a decaying piece exceeds the double range") from None
    if kin_scale is not None:
        front *= kin_scale * kappa * kappa
        order = nu + 1.0
    else:
        order = max(nu, -nu)
    r0 = piece.r_lo + 1.0 / kappa
    for _ in range(600):
        k_val = bessel_k(order, kappa * r0).value
        bound = front * k_val * k_val * (r0 / (2.0 * kappa) + 1.0 / (4.0 * kappa * kappa))
        if bound <= budget:
            return r0, bound
        r0 *= 1.25
    raise ComputationError("could not certify an exponential tail truncation radius")


def _check_origin(psi: RadialWaveFunction) -> None:
    for piece in psi.pieces:
        if piece.irregular_at_origin():
            raise OriginDivergenceError(
                "second-kind component at the origin: non-normalizable for "
                "n >= 3, infinite kinetic energy at n in {1,2}, parity-odd at n = 0"
            )


def _segments(psi: RadialWaveFunction, r_max: float, budget_tail: float,
              kin_scale: Optional[float] = None,
              harmonic_v_coeff: float = 0.0) -> tuple[list[tuple[float, float]], float]:
    """Finite integration segments covering the support up to r_max."""
    segments: list[tuple[float, float]] = []
    tail_total = 0.0
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
            if tag == BESSEL_J:
                raise NonNormalizableError(
                    "oscillatory piece extends to infinity; the mode is not square-integrable"
                )
            if tag == BESSEL_I:
                raise DivergenceError(
                    "exponentially growing piece extends to infinity; integral diverges"
                )
            if tag in GAUSS_TAGS:
                cut, bound = _gauss_tail(piece, psi.dimension.n, psi.norm_constant,
                                         budget_tail, kin_scale, harmonic_v_coeff)
            else:
                cut, bound = _k_tail(piece, psi.dimension.nu, psi.norm_constant,
                                     budget_tail, kin_scale)
            if cut > lo:
                segments.append((lo, cut))
            tail_total += bound
        else:
            segments.append((lo, r_max))
    if not segments:
        raise ComputationError(f"no support below r_max = {r_max!r}")
    return segments, tail_total


def norm_integral(psi: RadialWaveFunction, r_max: float, tol: float) -> float:
    """Integral of r^n |Psi|^2 dr from 0 to r_max (r_max may be inf)."""
    if not tol > 0.0:
        raise ComputationError(f"tolerance must be positive, got {tol!r}")
    _check_origin(psi)
    n = psi.dimension.n

    def integrand(r: float) -> float:
        value = psi.sample(r)
        return r**n * (value * value)

    segments, _ = _segments(psi, r_max, budget_tail=tol * _TAIL_FRACTION)
    per_segment_tol = tol * (1.0 - _TAIL_FRACTION) / len(segments)
    total = 0.0
    for lo, hi in segments:
        value, _ = integrate(integrand, lo, hi, per_segment_tol)
        total += value
    return total


def normalize(psi: RadialWaveFunction) -> RadialWaveFunction:
    """Copy of psi scaled so the r^n-weighted norm equals 1 within _NORM_TOL."""
    value = norm_integral(psi, math.inf, 1.0)
    if not (value > 0.0 and math.isfinite(value)):
        raise ComputationError(f"norm integral came out {value!r}; cannot normalize")
    # The final scale must carry relative error below _NORM_TOL, so
    # re-integrate with the absolute target implied by the coarse magnitude.
    target = 0.5 * _NORM_TOL * value
    if target < 1.0:
        value = norm_integral(psi, math.inf, target)
    return psi.with_norm_constant(psi.norm_constant / math.sqrt(value))


def _potential_value(pot: Optional[Potential], scales: PhysicalScales, r: float) -> float:
    if pot is None or isinstance(pot, (Free, InfiniteWell, DeltaShell)):
        return 0.0
    if isinstance(pot, Harmonic):
        return 0.5 * scales.mass * pot.omega**2 * r * r
    if isinstance(pot, FiniteWell):
        return -pot.V0 if r < pot.R else 0.0
    raise ComputationError(f"unsupported potential {pot!r}")


def energy_functional(
    psi: RadialWaveFunction,
    scales: PhysicalScales,
    potential: Optional[Potential] = None,
) -> float:
    """Expectation value of the energy for a normalized wave-function.

    Integrates r^n [ (hbar^2/2m) |Psi'|^2 + V(r) |Psi|^2 ] dr to absolute
    tolerance _NORM_TOL, adding the shell term sign * g * R^n |Psi(R)|^2
    for a delta potential.  Raises the divergence family for modes whose
    kinetic integral does not exist.
    """
    _check_origin(psi)
    n = psi.dimension.n
    kin_scale = scales.hbar**2 / (2.0 * scales.mass)
    harmonic_v_coeff = (0.5 * scales.mass * potential.omega**2
                       if isinstance(potential, Harmonic) else 0.0)

    def integrand(r: float) -> float:
        slope = psi.derivative(r)
        total = kin_scale * (slope * slope)
        v = _potential_value(potential, scales, r)
        if v != 0.0:
            value = psi.sample(r)
            total += v * (value * value)
        return r**n * total

    segments, _ = _segments(psi, math.inf, budget_tail=_NORM_TOL * _TAIL_FRACTION,
                            kin_scale=kin_scale, harmonic_v_coeff=harmonic_v_coeff)
    # Keep potential steps on segment boundaries, not inside panels.
    if isinstance(potential, FiniteWell):
        refined = []
        for lo, hi in segments:
            if lo < potential.R < hi:
                refined.append((lo, potential.R))
                refined.append((potential.R, hi))
            else:
                refined.append((lo, hi))
        segments = refined
    per_segment_tol = _NORM_TOL * (1.0 - _TAIL_FRACTION) / len(segments)
    total = 0.0
    for lo, hi in segments:
        value, _ = integrate(integrand, lo, hi, per_segment_tol)
        total += value
    if isinstance(potential, DeltaShell):
        value = psi.sample(potential.R)
        total += potential.sign * potential.g * potential.R**n * (value * value)
    return total

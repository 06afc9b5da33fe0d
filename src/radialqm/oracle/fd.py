"""Finite-difference reference spectra and scattering coefficients.

Everything here recomputes observables from the radial equation itself:
a symmetric three-point discretization for spectra, and a Runge-Kutta
sweep matched to cylinder-function asymptotics for scattering.  The
cylinder values needed at the matching radius come from the
arbitrary-precision series in this package, never from the production
kernel, so the two paths share no numerics.

Both routines work on the reduced profile u(r) = r^nu * Psi(r), which
turns every problem into

    -u'' - (1/r) u' + (nu^2 / r^2 + v(r)) u = eps u

independent of the number of angular dimensions.  For n = 0 and n = 2
the profile u carries a non-smooth power r^(-+1/2) of r, but nu^2 - 1/4
vanishes there, so the spectrum code switches to the equivalent
half-line form -w'' + v w = eps w in w = r^(n/2) Psi, even at the origin
for n = 0 and zero there for n = 2.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
from scipy.linalg import eigh_tridiagonal

from ..errors import DomainError, MatchingError
from ..radial.model import (
    DeltaShell,
    Dimension,
    EnergyLevel,
    FiniteWell,
    Free,
    Harmonic,
    InfiniteWell,
    PhysicalScales,
    Potential,
)
from .series import series_reference

__all__ = ["Grid", "fd_bound_spectrum", "fd_scattering", "shooting_bound_levels"]

# Ascending-series reference is only trusted up to this argument.
_SERIES_CAP = 30.0


@dataclass(frozen=True)
class Grid:
    """Uniform radial mesh of ``points`` cells on [0, r_max].

    Cell centers sit half a spacing inside each cell.  Spectrum assembly
    places a Dirichlet wall at ``r_max``.
    """

    r_max: float
    points: int

    def __post_init__(self) -> None:
        if not (self.r_max > 0.0 and math.isfinite(self.r_max)):
            raise DomainError(f"grid r_max must be positive and finite, got {self.r_max!r}")
        if int(self.points) != self.points or self.points < 100:
            raise DomainError(f"grid needs at least 100 points, got {self.points!r}")

    @property
    def spacing(self) -> float:
        return self.r_max / self.points

    def centers(self) -> np.ndarray:
        h = self.spacing
        return (np.arange(self.points) + 0.5) * h


def _potential_diagonal(pot: Potential, grid: Grid, scales: PhysicalScales) -> np.ndarray:
    """Reduced potential on the cells, the diagonal term of every row.

    Smooth potentials are sampled at the cell centers, the step by the
    volume fraction of each cell below it.  The shell gamma delta(r - R)
    puts gamma / h on the one cell whose center is R: the discrete mass
    is then exactly gamma in every form of the operator, and the kinked
    eigenfunction keeps second-order convergence.
    """
    h = grid.spacing
    v = np.zeros(grid.points)
    if isinstance(pot, Harmonic):
        mu = scales.oscillator_scale(pot.omega)
        r = grid.centers()
        v = (mu * mu) * r * r
    elif isinstance(pot, FiniteWell):
        v0 = scales.reduced_potential(pot.V0)
        # volume fraction of each cell below the step keeps the O(h^2) constant small
        left = np.arange(grid.points) * h
        v = -v0 * np.clip((pot.R - left) / h, 0.0, 1.0)
    elif isinstance(pot, DeltaShell):
        if not pot.R < grid.r_max:
            raise DomainError("shell radius must lie inside the grid")
        cell = round(pot.R / h - 0.5)
        if abs((cell + 0.5) * h - pot.R) > 1e-9 * pot.R:
            raise DomainError("shell radius must sit on a cell center of the grid")
        v[cell] = pot.sign * scales.reduced_coupling(pot.g) / h
    elif not isinstance(pot, (InfiniteWell, Free)):
        raise DomainError(f"unsupported potential {pot!r}")
    return v


def _assemble(
    dim: Dimension, pot: Potential, grid: Grid, scales: PhysicalScales
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric tridiagonal (diagonal, off-diagonal) for the chosen grid."""
    h = grid.spacing
    v = _potential_diagonal(pot, grid, scales)

    if dim.n in (0, 2):
        # half-line form in w = r^(n/2) Psi: -w'' + v w = eps w
        diag = np.full(grid.points, 2.0 / h**2) + v
        # ghost cell at the origin: w even (Neumann) for n = 0, w odd
        # (Dirichlet, w(0) = 0) for n = 2
        diag[0] = (1.0 if dim.n == 0 else 3.0) / h**2 + v[0]
        diag[-1] = 3.0 / h**2 + v[-1]        # Dirichlet ghost: zero at the wall edge
        off = np.full(grid.points - 1, -1.0 / h**2)
        return diag, off

    nu = dim.nu
    r = grid.centers()
    edges = np.arange(grid.points + 1) * h
    left = edges[:-1]
    right = edges[1:]
    diag = (left + right) / (h * h * r) + (nu * nu) / (r * r) + v
    # centrifugal weight on the first cell chosen so the row kills the
    # regular power r^nu exactly; midpoint sampling is only first order
    # against the kink of half-integer orders
    diag[0] = right[0] / (h * h * r[0]) + v[0]
    diag[0] += right[0] * ((r[1] / r[0]) ** nu - 1.0) / (h * h * r[0])
    diag[-1] += right[-1] / (h * h * r[-1])  # reflects the wall zero through the edge
    off = -right[:-1] / (h * h * np.sqrt(r[:-1] * r[1:]))
    return diag, off


def _eigenvalues(diag: np.ndarray, off: np.ndarray, count: int) -> np.ndarray:
    return eigh_tridiagonal(
        diag, off, eigvals_only=True, select="i", select_range=(0, count - 1)
    )


def fd_bound_spectrum(
    dim: Dimension, pot: Potential, grid: Grid, count: int, scales: PhysicalScales
) -> list[EnergyLevel]:
    """Lowest ``count`` eigenvalues of the discretized reduced operator.

    One second-order eigensolve for every potential; a shell needs its
    radius on a cell center of ``grid``.  Levels come back ascending,
    numbered from 1, negative eigenvalues stored by magnitude with the
    physical energy kept signed.
    """
    if int(count) != count or count < 1:
        raise DomainError(f"level count must be an integer >= 1, got {count!r}")
    if count > grid.points // 2:
        raise DomainError("level count too large for this grid")
    if isinstance(pot, InfiniteWell) and abs(grid.r_max - pot.R) > 1e-9 * pot.R:
        raise DomainError("hard-wall spectra need the grid to end exactly at the wall")

    diag, off = _assemble(dim, pot, grid, scales)
    levels = []
    for i, value in enumerate(_eigenvalues(diag, off, count)):
        value = float(value)
        if value < 0.0:
            levels.append(EnergyLevel.bound_magnitude(i + 1, value, scales))
        else:
            levels.append(EnergyLevel.bound(i + 1, value, scales))
    return levels


# ---------------------------------------------------------------------------
# outward integration


def _series_start(nu: float, local_v: float, eps: float, r: float) -> tuple[float, float]:
    """Regular solution and slope at small r from its Frobenius series.

    Valid while the potential is constant below r; coefficients follow
    c_{m+1} = (v - eps) c_m / (4 (m+1)(m+1+nu)).
    """
    d = local_v - eps
    c2 = d / (4.0 * (nu + 1.0))
    c4 = d * c2 / (8.0 * (nu + 2.0))
    c6 = d * c4 / (12.0 * (nu + 3.0))
    c8 = d * c6 / (16.0 * (nu + 4.0))
    r2 = r * r
    poly = 1.0 + r2 * (c2 + r2 * (c4 + r2 * (c6 + r2 * c8)))
    slope = nu + r2 * (
        (nu + 2.0) * c2
        + r2 * ((nu + 4.0) * c4 + r2 * ((nu + 6.0) * c6 + r2 * (nu + 8.0) * c8))
    )
    return r**nu * poly, r ** (nu - 1.0) * slope


def _rk4_sweep(
    segments: list[tuple[float, float, float, object]],
    nu: float,
    eps: float,
    y0: tuple[float, float],
) -> tuple[float, float, int]:
    """Integrate (u, u') over (a, b, step target, potential) segments.

    Each segment carries its own potential callable so a step ending on
    a material boundary never samples the far side; mid- and endpoint
    stage evaluations of classical Runge-Kutta otherwise leak across
    discontinuities.  The stages are written out for u' = p,
    p' = -p/r + c(r) u: each u-slope is the stage's p, and stages 2 and
    3 share the midpoint coefficient.

    Returns (u, u', nodes), where ``nodes`` counts the steps across which
    u changes sign (zero counts as positive).  Its parity is therefore
    exactly whether u ends with the other sign than it started.
    """
    u, p = y0
    nu2 = nu * nu
    negative = u < 0.0
    nodes = 0
    for a, b, target, v_of_r in segments:
        if b <= a:
            continue
        m = max(4, int(math.ceil((b - a) / target)))
        h = (b - a) / m
        hh = 0.5 * h
        for i in range(m):
            r = a + i * h
            rm = r + hh
            re = r + h
            c_mid = nu2 / (rm * rm) + v_of_r(rm) - eps
            k1p = -p / r + (nu2 / (r * r) + v_of_r(r) - eps) * u
            p2 = p + hh * k1p
            k2p = -p2 / rm + c_mid * (u + hh * p)
            p3 = p + hh * k2p
            k3p = -p3 / rm + c_mid * (u + hh * p2)
            p4 = p + h * k3p
            k4p = -p4 / re + (nu2 / (re * re) + v_of_r(re) - eps) * (u + h * p3)
            u += h * (p + 2.0 * p2 + 2.0 * p3 + p4) / 6.0
            p += h * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0
            if (u < 0.0) != negative:
                negative = not negative
                nodes += 1
    return u, p, nodes


# (function, nu, x) -> value while a series_memo() block is open, else None
_cyl_memo: dict[tuple[str, float, float], float] | None = None


@contextlib.contextmanager
def series_memo() -> Iterator[None]:
    """Evaluate each cylinder reference once inside the block.

    The matching and printed-rate code ask for the same (function, nu, x)
    more than once within one report; the memo lives only as long as the
    block, so separate reports never share values.
    """
    global _cyl_memo
    _cyl_memo = {}
    try:
        yield
    finally:
        _cyl_memo = None


def _cyl(function: str, nu: float, x: float) -> float:
    memo = _cyl_memo if _cyl_memo is not None else {}
    key = (function, nu, x)
    if key not in memo:
        memo[key] = float(series_reference(function, nu, x, digits=30))
    return memo[key]


def _match_exterior(nu: float, eps: float, r_max: float, u: float, p: float) -> tuple[complex, complex]:
    """Coefficients of the in/outgoing cylinder pair fitting (u, u')."""
    k = math.sqrt(eps)
    x = k * r_max
    jv = _cyl("bessel_j", nu, x)
    yv = _cyl("bessel_y", nu, x)
    jv1 = _cyl("bessel_j", nu + 1.0, x)
    yv1 = _cyl("bessel_y", nu + 1.0, x)
    djv = (nu / r_max) * jv - k * jv1
    dyv = (nu / r_max) * yv - k * yv1
    det = 2.0 / (math.pi * r_max)            # exact Wronskian of the (J, Y) columns
    alpha = (u * dyv - p * yv) / det
    beta = (p * jv - u * djv) / det
    c_out = 0.5 * (alpha - 1j * beta)
    c_in = 0.5 * (alpha + 1j * beta)
    return c_out, c_in


def fd_scattering(
    dim: Dimension, pot: Potential, eps: float, r_max: float, scales: PhysicalScales
) -> tuple[complex, complex]:
    """(interior, outgoing) amplitudes over a unit incoming wave, by outward sweep.

    The regular solution starts from its small-r series, is swept
    outward with classical Runge-Kutta, and is decomposed at ``r_max``
    into in- and outgoing cylinder waves using values and derivatives.
    The shell enters through its defining slope jump at the interface;
    the step potential through per-segment constants.  Either way the
    integrator never sees values from the wrong side of a boundary.
    Requires sqrt(eps) * r_max within the series reference domain.
    """
    if not (eps > 0.0 and math.isfinite(eps)):
        raise DomainError(f"scattering energy must be positive and finite, got {eps!r}")
    if not (r_max > 0.0 and math.isfinite(r_max)):
        raise DomainError(f"matching radius must be positive and finite, got {r_max!r}")
    if not isinstance(pot, (Free, DeltaShell, FiniteWell)):
        raise DomainError(f"no scattering setup for potential {pot!r}")
    if math.sqrt(eps) * r_max > _SERIES_CAP:
        raise DomainError("matching argument exceeds the series reference domain")
    nu = dim.nu

    def v_zero(r: float) -> float:
        return 0.0

    if isinstance(pot, Free):
        R = 0.5 * r_max
        local_v = 0.0
        v_inside = v_zero
    elif isinstance(pot, DeltaShell):
        R = pot.R
        local_v = 0.0
        v_inside = v_zero
    else:
        R = pot.R
        v0 = scales.reduced_potential(pot.V0)
        local_v = -v0

        def v_inside(r: float) -> float:
            return -v0

    if r_max <= R:
        raise MatchingError("matching radius sits inside the potential support")

    kt = math.sqrt(eps - local_v)
    r_start = min(R / 4.0, math.sqrt(8e-3 * (nu + 1.0) / max(eps - local_v, 1e-30)))
    r_start = max(r_start, 1e-6 * R)
    u0, p0 = _series_start(nu, local_v, eps, r_start)

    segments = []
    knee = min(R / 2.0, r_max / 2.0)
    rr = r_start
    while rr < knee:                          # geometric head resolves nu^2/r^2
        nxt = min(2.0 * rr, knee)
        segments.append((rr, nxt, rr / 144.0, v_inside))
        rr = nxt
    body_h = 2.0 * math.pi / kt / 576.0
    exterior_h = 2.0 * math.pi / math.sqrt(eps) / 576.0
    segments.append((knee, R, body_h, v_inside))
    u, p, _ = _rk4_sweep(segments, nu, eps, (u0, p0))

    if isinstance(pot, DeltaShell):
        p += pot.sign * scales.reduced_coupling(pot.g) * u

    u, p, _ = _rk4_sweep([(R, r_max, exterior_h, v_zero)], nu, eps, (u, p))
    c_out, c_in = _match_exterior(nu, eps, r_max, u, p)
    interior_norm = math.gamma(nu + 1.0) * (2.0 / kt) ** nu
    return interior_norm / c_in, c_out / c_in


# ---------------------------------------------------------------------------
# shooting, kept as an independent check on the matrix spectra


def _shoot_residual(
    dim: Dimension, pot: Potential, eps: float, r_max: float, scales: PhysicalScales
) -> tuple[float, int]:
    """End value u(r_max) of one outward shot to the wall, and its node count."""
    nu = dim.nu

    def v_zero(r: float) -> float:
        return 0.0

    if isinstance(pot, Harmonic):
        mu = scales.oscillator_scale(pot.omega)

        def v_body(r: float) -> float:
            # a product, not ** 2: float ** 2 goes through libm pow, which
            # is not always correctly rounded, and the recorded report
            # values were computed with the product
            mr = mu * r
            return mr * mr

        local_v = 0.0
        feature = r_max / 2.0
    elif isinstance(pot, FiniteWell):
        v0 = scales.reduced_potential(pot.V0)

        def v_body(r: float) -> float:
            return -v0

        local_v = -v0
        feature = pot.R
    else:
        raise DomainError(f"shooting check not defined for potential {pot!r}")

    kt = math.sqrt(max(abs(eps - local_v), 1.0))
    r_start = min(feature / 8.0, 0.02 / kt)
    y0 = _series_start(nu, local_v, eps, r_start)
    segments = []
    rr = r_start
    knee = min(feature / 2.0, r_max / 4.0)
    while rr < knee:
        nxt = min(2.0 * rr, knee)
        segments.append((rr, nxt, rr / 24.0, v_body))
        rr = nxt
    body_h = min(1.0 / (32.0 * kt), (r_max - knee) / 512.0)
    if isinstance(pot, FiniteWell) and knee < pot.R < r_max:
        segments.append((knee, pot.R, body_h, v_body))
        segments.append((pot.R, r_max, body_h, v_zero))
    else:
        segments.append((knee, r_max, body_h, v_body))
    u_end, _, nodes = _rk4_sweep(segments, nu, eps, y0)
    return u_end, nodes


# The scan shoots every _STRIDE-th energy of its grid.  Bisection stops at
# a relative bracket width of _STOP, after at most _HALVINGS steps;
# Illinois steps first shrink an inner bracket to _STOP / _INNER.
_STRIDE = 8
_STOP = 1e-12
_HALVINGS = 80
_INNER = 16.0
_ILLINOIS_STEPS = 30


def _count_cells(shot: Callable[[int], tuple[float, int]], j: int, k: int) -> Iterator[int]:
    """Grid cells (i, i + 1) in [j, k] across which the node count changes, in order.

    Bisects over grid indices, so an interval whose end counts agree is
    never looked into: by the Sturm oscillation theorem it holds no level.
    """
    if shot(j)[1] == shot(k)[1]:
        return
    if k == j + 1:
        yield j
        return
    mid = (j + k) // 2
    yield from _count_cells(shot, j, mid)
    yield from _count_cells(shot, mid, k)


def _replayed_bisection(
    f: Callable[[float], float], a: float, b: float, fa: float, fb: float, single: bool
) -> float:
    """Where plain bisection of [a, b] stops, with f(a) and f(b) of opposite signs.

    The path is that of bisection evaluating f at every midpoint: the half
    whose ends differ in sign is kept until the bracket is _STOP wide
    (relative) or a midpoint is an exact zero, and the bracket's midpoint
    is returned.  When [a, b] holds a single sign change (``single``),
    Illinois regula falsi (Dowell & Jarratt 1971) first shrinks an inner
    bracket [c, d] around it; a midpoint outside [c, d] then takes the side
    that the inner bracket shows without an evaluation.  A stalled Illinois
    step leaves the inner bracket wide, and each midpoint in it is
    evaluated.  Signs are compared, not products, which can underflow.
    """
    left_negative = fa < 0.0
    c, d = a, b
    if single:
        fc, fd_ = fa, fb
        kept = 0                      # +1: d was kept by the last step, -1: c
        width = _STOP * max(1.0, abs(a), abs(b)) / _INNER
        for _ in range(_ILLINOIS_STEPS):
            if d - c <= width:
                break
            x = d - fd_ * (d - c) / (fd_ - fc)
            if not c < x < d:
                break
            fx = f(x)
            if fx == 0.0:
                c = d = x
                break
            if (fx < 0.0) == left_negative:
                c, fc = x, fx
                if kept == 1:
                    fd_ *= 0.5
                kept = 1
            else:
                d, fd_ = x, fx
                if kept == -1:
                    fc *= 0.5
                kept = -1

    for _ in range(_HALVINGS):
        m = 0.5 * (a + b)
        if c <= m <= d:
            fm = f(m)
            if fm == 0.0:
                return m
            right = (fm < 0.0) != left_negative
            if right:
                d = m
            else:
                c = m
        else:
            right = m > d
        if right:
            b = m
        else:
            a = m
        if abs(b - a) <= _STOP * max(1.0, abs(a)):
            break
    return 0.5 * (a + b)


def shooting_bound_levels(
    dim: Dimension,
    pot: Potential,
    r_max: float,
    eps_lo: float,
    eps_hi: float,
    scales: PhysicalScales,
    count: int = 2,
) -> list[float]:
    """Reduced eigenvalues located by outward shooting to a Dirichlet wall.

    The lowest ``count`` levels whose end value u(r_max) changes sign
    between neighbours of a 96-energy grid across [eps_lo, eps_hi], each
    bisected to a relative width of 1e-12, plus any grid energy (but the
    last) where u(r_max) is exactly zero.  The scan shoots every 8th grid
    energy and the last, in order, until it has ``count`` levels.  By
    the Sturm oscillation theorem the node count of u is the number of
    walled levels below the energy, so a sampled interval whose end
    counts agree holds no level and is not shot inside; elsewhere,
    bisection over grid indices finds each cell whose count changes,
    also when two levels share one sampled interval.  Within a cell
    holding one level, Illinois steps let the bisection skip the
    evaluations whose sign is already known, so every result equals that
    of a dense scan and plain bisection.

    Meant for the lowest few states, as a check on the matrix route with
    different discretization error.  For levels that decay outside a well,
    place the wall a few decay lengths past the edge: every integration
    error rides the growing branch, so a far wall amplifies it
    exponentially while buying almost nothing.
    """
    if not (eps_hi > eps_lo and math.isfinite(eps_lo) and math.isfinite(eps_hi)):
        raise DomainError("shooting scan needs a finite ordered energy window")
    if not (r_max > 0.0 and math.isfinite(r_max)):
        raise DomainError(f"shooting wall must be positive and finite, got {r_max!r}")

    grid = np.linspace(eps_lo, eps_hi, 96).tolist()
    last = len(grid) - 1
    shots: dict[int, tuple[float, int]] = {}

    def shot(i: int) -> tuple[float, int]:
        if i not in shots:
            shots[i] = _shoot_residual(dim, pot, grid[i], r_max, scales)
        return shots[i]

    def residual(eps: float) -> float:
        return _shoot_residual(dim, pot, eps, r_max, scales)[0]

    samples = list(range(0, last, _STRIDE)) + [last]
    roots: list[float] = []
    zero_at = -1
    for j, k in zip(samples, samples[1:]):
        for i in _count_cells(shot, j, k):
            (f_lo, n_lo), (f_hi, n_hi) = shot(i), shot(i + 1)
            # u(r_max) crosses zero on a grid energy inside a cell whose
            # count changes; that energy is the level, unless it is the last
            for z in (i, i + 1):
                if zero_at < z < last and shots[z][0] == 0.0:
                    roots.append(grid[z])
                    zero_at = z
            if f_lo != 0.0 and f_hi != 0.0 and (f_lo < 0.0) != (f_hi < 0.0):
                roots.append(_replayed_bisection(
                    residual, grid[i], grid[i + 1], f_lo, f_hi, n_hi - n_lo == 1))
            if len(roots) >= count:
                return roots[:count]
    return roots

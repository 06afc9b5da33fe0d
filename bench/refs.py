"""Reference values computed apart from radialqm.

Nothing here imports the package under test.  Cylinder functions come
from mpmath (arbitrary precision) or scipy.special (double precision),
and every physical condition is written out from the radial equation:
the regular interior solution is r^-nu Z_nu(k r) with nu = (n - 1)/2,
whose radial derivative is -k r^-nu Z_{nu+1}(k r) for J, Y, K and
+k r^-nu I_{nu+1}(k r) for I.
"""
from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from mpmath import mp
from scipy import integrate, optimize, special


def nu_of(n: int) -> float:
    return 0.5 * (n - 1)


# ---------------------------------------------------------------------------
# scattering: the two-row interface system in arbitrary precision


def mp_interior_intensity(
    problem: str, n: int, R: float, strength: float, eps: float, dps: int = 40
) -> float:
    """|a|^2 of the regular interior amplitude for a unit incoming H2 wave.

    problem "delta": strength is the signed reduced coupling gamma; the
    slope jumps by gamma times the value at R.  problem "finite": strength
    is the reduced depth v0; value and slope are continuous at R.
    Rows:  a A1 - b H1_nu = H2_nu,   a A2 - b k H1_{nu+1} = k H2_{nu+1}.
    """
    with mp.workdps(dps):
        nu = mp.mpf(n - 1) / 2
        R_ = mp.mpf(R)
        k = mp.sqrt(mp.mpf(eps))
        x = k * R_
        j0, j1 = mp.besselj(nu, x), mp.besselj(nu + 1, x)
        y0, y1 = mp.bessely(nu, x), mp.bessely(nu + 1, x)
        h1_0, h1_1 = mp.mpc(j0, y0), mp.mpc(j1, y1)
        if problem == "delta":
            g = mp.mpf(strength)
            a1, a2 = j0, k * j1 - g * j0
        else:
            p = mp.sqrt(mp.mpf(eps) + mp.mpf(strength))
            a1, a2 = mp.besselj(nu, p * R_), p * mp.besselj(nu + 1, p * R_)
        det = -a1 * k * h1_1 + a2 * h1_0
        # Cramer numerator k (H1_nu H2_{nu+1} - H2_nu H1_{nu+1}); its Y_nu Y_{nu+1}
        # parts cancel exactly, so form the remainder 2ik (Y_nu J_{nu+1} - J_nu Y_{nu+1})
        # directly instead of losing those digits at small kR and large order
        a = 2j * k * (y0 * j1 - j0 * y1) / det
        return float(abs(a) ** 2)


def np_interior_intensity(
    problem: str, n: int, R: float, strength: float, eps: np.ndarray
) -> np.ndarray:
    """Vectorized double-precision form of the same solve, for dense scans.

    Only used where the 2x2 system is well conditioned (small order,
    kR of order one or more); mp_interior_intensity is the reference.
    """
    nu = nu_of(n)
    k = np.sqrt(eps)
    x = k * R
    j0, j1 = special.jv(nu, x), special.jv(nu + 1, x)
    y0, y1 = special.yv(nu, x), special.yv(nu + 1, x)
    h1_0, h1_1 = j0 + 1j * y0, j1 + 1j * y1
    h2_0, h2_1 = j0 - 1j * y0, j1 - 1j * y1
    if problem == "delta":
        a1, a2 = j0, k * j1 - strength * j0
    else:
        p = np.sqrt(eps + strength)
        a1, a2 = special.jv(nu, p * R), p * special.jv(nu + 1, p * R)
    det = -a1 * k * h1_1 + a2 * h1_0
    a = (h2_0 * (-k * h1_1) + h1_0 * k * h2_1) / det
    return np.abs(a) ** 2


# ---------------------------------------------------------------------------
# bound spectra


def j_zero(nu: float, N: int) -> float:
    """N-th positive zero of J_nu: (N - 1/2) pi at nu = -1/2, else mpmath."""
    if nu == -0.5:
        return (N - 0.5) * math.pi
    with mp.workdps(20):
        return float(mp.besseljzero(mp.mpf(nu), N))


def harmonic_eps(n: int, mu: float, N: int) -> float:
    """Reduced level 2 mu (2N + (n+1)/2); on the line (n = 0) both parities,
    so the ladder steps by one quantum: 2 mu (N + 1/2)."""
    if n == 0:
        return 2.0 * mu * (N + 0.5)
    return 2.0 * mu * (2.0 * N + 0.5 * (n + 1))


def finite_well_levels(n: int, v0: float, R: float) -> List[float]:
    """Binding magnitudes kappa^2, deepest first, for reduced depth v0.

    Matching r^-nu J_nu(q r) to r^-nu K_nu(kappa r) at R in value and slope:
    q J_{nu+1}(qR) K_nu(kappa R) = kappa K_{nu+1}(kappa R) J_nu(qR),
    written with e^x-scaled K so depth never underflows, and scanned on a
    phase grid t = qR with step pi/32 before brentq polishes each change.
    """
    nu = nu_of(n)
    Q = math.sqrt(v0) * R

    def resid(t: float) -> float:
        kr = math.sqrt(max(Q * Q - t * t, 0.0))
        if kr == 0.0:
            kr = 5e-324
        return (t * special.jv(nu + 1, t) * special.kve(nu, kr)
                - kr * special.kve(nu + 1, kr) * special.jv(nu, t))

    grid = np.linspace(0.0, Q, max(int(Q / (math.pi / 32.0)) + 2, 64))[1:]
    grid[-1] = Q * (1.0 - 1e-12)
    vals = [resid(t) for t in grid]
    out = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            t = grid[i]
        elif (vals[i] > 0.0) != (vals[i + 1] > 0.0):
            t = optimize.brentq(resid, grid[i], grid[i + 1], xtol=1e-15, rtol=8.9e-16)
        else:
            continue
        out.append((Q * Q - t * t) / (R * R))
    return out


def shell_level(n: int, gamma: float, R: float) -> Optional[float]:
    """Binding magnitude of the attractive shell, or None if none exists.

    I_nu(x) K_nu(x) = 1/(gamma R) at x = kappa R; the product falls from
    1/(2 nu) at x -> 0 (nu > 0) or from infinity (nu <= 0) to 0, so a
    root exists exactly when gamma R > 2 nu for nu > 0, always otherwise.
    """
    nu = nu_of(n)
    gr = gamma * R
    if nu > 0.0 and gr <= 2.0 * nu:
        return None
    target = 1.0 / gr

    def f(x: float) -> float:
        return float(special.ive(nu, x) * special.kve(nu, x)) - target

    lo, hi = 1e-3, 1.0
    while f(lo) < 0.0:
        lo *= 1e-3
        if lo < 1e-300:
            return None
    while f(hi) > 0.0:
        hi *= 2.0
    x = optimize.brentq(f, lo, hi, xtol=1e-300, rtol=8.9e-16, maxiter=500)
    return (x / R) ** 2


# ---------------------------------------------------------------------------
# normalized modes on the sample grid


def _normalized(pieces: Sequence[Tuple[float, float, Callable]], n: int) -> float:
    """Norm constant c with int r^n (c f)^2 dr = 1 over the given pieces."""
    total = 0.0
    for lo, hi, f in pieces:
        val, _ = integrate.quad(lambda r: r ** n * f(r) ** 2, lo, hi,
                                epsabs=0.0, epsrel=1e-13, limit=400)
        total += val
    return 1.0 / math.sqrt(total)


def mode_samples(problem: str, n: int, params: dict, level: int,
                 radii: np.ndarray) -> np.ndarray:
    """The normalized bound mode of one problem, sampled at radii.

    params carries reduced quantities: R, v0 (finite well), gamma (shell),
    mu (oscillator).  The sign is whatever the construction gives; callers
    compare up to one global sign.
    """
    nu = nu_of(n)
    if problem == "infinite-well":
        R = params["R"]
        k = j_zero(nu, level) / R
        f = lambda r: r ** -nu * special.jv(nu, k * r)
        c = _normalized([(0.0, R, f)], n)
        out = np.where(radii <= R, f(radii), 0.0)
        return c * out
    if problem == "harmonic":
        mu = params["mu"]
        if n == 0:
            f = lambda r: np.exp(-0.5 * mu * r * r) * special.eval_hermite(level, math.sqrt(mu) * r)
        else:
            f = lambda r: np.exp(-0.5 * mu * r * r) * special.eval_genlaguerre(level, nu, mu * r * r)
        width = math.sqrt((4.0 * level + n + 1.0) / mu)
        c = _normalized([(0.0, width, f), (width, np.inf, f)], n)
        return c * f(radii)
    R = params["R"]
    if problem == "finite-well":
        kappa2 = finite_well_levels(n, params["v0"], R)[level - 1]
        kappa = math.sqrt(kappa2)
        q = math.sqrt(params["v0"] - kappa2)
        # inside scaled by K_nu(kappa R), outside by J_nu(q R): continuous at R
        ka = special.kve(nu, kappa * R)
        ja = special.jv(nu, q * R)
        inner = lambda r: r ** -nu * special.jv(nu, q * r) * ka
        outer = lambda r: r ** -nu * special.kve(nu, kappa * r) * np.exp(kappa * (R - r)) * ja
    else:
        kappa = math.sqrt(shell_level(n, params["gamma"], R))
        ka = special.kve(nu, kappa * R)
        ia = special.ive(nu, kappa * R)
        inner = lambda r: r ** -nu * special.ive(nu, kappa * r) * np.exp(kappa * (r - R)) * ka
        outer = lambda r: r ** -nu * special.kve(nu, kappa * r) * np.exp(kappa * (R - r)) * ia
    tail = R + 40.0 / kappa
    c = _normalized([(0.0, R, inner), (R, tail, outer), (tail, np.inf, outer)], n)
    return c * np.where(radii < R, inner(np.minimum(radii, R)), outer(np.maximum(radii, R)))

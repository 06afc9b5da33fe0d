"""Norm constants of the four mode solvers against 50-digit mpmath quadrature.

    python3 tools/norm_accuracy.py --seed 1 --draws 40 [--root CHECKOUT]

Draws seeded cases per mode kind (box, oscillator, finite well, shell)
over n in {0, 1, 2, 3, 4, 5, 9, 25}, builds each mode with the solver of
one checkout (by default the one holding this file), and integrates the
r^n-weighted square of the same pieces (their float coefficients and
scales at unit norm constant) with mpmath at 50 digits.  For the mpmath
mass M, the relative error of the norm constant C is C sqrt(M) - 1.
Prints one JSON line per case, then the worst error per kind.  A case
the solver refuses is recorded by its error type.  The draws depend only
on the seed, so two checkouts see the same cases.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import sys
from pathlib import Path

import mpmath

HERE = Path(__file__).resolve().parent.parent
NS = (0, 1, 2, 3, 4, 5, 9, 25)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def draw_cases(seed: int, draws: int) -> list:
    """(kind, params) pairs; finite-well levels are picked at build time."""
    rng = random.Random(seed)
    cases = []
    for _ in range(draws):
        cases.append(("box", {"n": rng.choice(NS), "R": _log_uniform(rng, 0.5, 3.0),
                              "N": rng.randint(1, 20)}))
        cases.append(("oscillator", {"n": rng.choice(NS), "omega": _log_uniform(rng, 0.3, 3.0),
                                     "N": rng.randint(0, 52)}))
        cases.append(("finite_well", {"n": rng.choice(NS), "R": _log_uniform(rng, 0.5, 3.0),
                                      "V0": _log_uniform(rng, 1.0, 5000.0), "pick": rng.random()}))
        n = rng.choice(NS)
        R = _log_uniform(rng, 0.5, 2.0)
        margin = _log_uniform(rng, 1.0, 1250.0)  # gamma R - 2 nu+
        cases.append(("shell", {"n": n, "R": R, "gamma": (max(n - 1.0, 0.0) + margin) / R}))
    return cases


def build(kind: str, p: dict):
    from radialqm.radial import Dimension, PhysicalScales
    from radialqm import solvers

    dim, sc = Dimension(p["n"]), PhysicalScales()
    if kind == "box":
        return solvers.infinite_well_wavefunction(dim, p["R"], p["N"], sc)
    if kind == "oscillator":
        return solvers.oscillator_wavefunction(dim, p["omega"], p["N"], sc)
    if kind == "finite_well":
        count = len(solvers.finite_well_bound_spectrum(dim, p["V0"], p["R"], sc))
        if count == 0:
            raise LookupError("no bound level")
        p["N"] = 1 + int(p["pick"] * count)
        return solvers.finite_well_bound_wavefunction(dim, p["V0"], p["R"], p["N"], sc)
    return solvers.delta_bound_wavefunction(dim, p["gamma"], p["R"], sc)


def _polynomial(piece, z):
    """L_N^(alpha)(z) or H_N(z) by the three-term recurrence, in mpmath arithmetic."""
    N, alpha = piece.degree, piece.alpha
    if piece.tag == "GaussLaguerre":
        prev, cur = 1, 1 + alpha - z
        for k in range(1, N):
            prev, cur = cur, ((2 * k + 1 + alpha - z) * cur - (k + alpha) * prev) / (k + 1)
    else:
        prev, cur = 1, 2 * z
        for k in range(1, N):
            prev, cur = cur, 2 * z * cur - 2 * k * prev
    return cur if N else mpmath.mpf(1)


def _quad(f, points):
    """Sum of the segment integrals, each scaled to order one first: mpmath's
    tolerance is absolute, so a segment of size 1e70 would never converge."""
    total = mpmath.mpf(0)
    for a, b in zip(points, points[1:]):
        scale = max(abs(f(a + (b - a) * u)) for u in (0.25, 0.5, 0.75)) or mpmath.mpf(1)
        total += scale * mpmath.quad(lambda r: f(r) / scale, [a, b], method="gauss-legendre")
    return total


def _k_integer_order(n: int, z):
    """K_n(z) at integer n from the ascending series DLMF 10.31.1, with guard
    digits for its cancellation; mpmath's besselk takes a slow limit there."""
    with mpmath.extradps(int(0.87 * float(z)) + 10):
        h = mpmath.mpf(z) / 2
        q = h * h
        head = mpmath.fsum(mpmath.factorial(n - k - 1) / mpmath.factorial(k) * (-q) ** k
                           for k in range(n)) / (2 * h**n)
        total, term, k = mpmath.mpf(0), 1 / mpmath.factorial(n), 0
        psi = mpmath.digamma(1) + mpmath.digamma(n + 1)
        while True:
            total += psi * term
            k += 1
            term *= q / (k * (n + k))
            psi += mpmath.mpf(1) / k + mpmath.mpf(1) / (n + k)
            if k > float(z) and abs(psi * term) < abs(total) * mpmath.eps:
                break
        value = head + (-1) ** (n + 1) * mpmath.log(h) * mpmath.besseli(n, 2 * h) \
            + (-1) ** n * h**n / 2 * total
    return +value


def _bessel_k(nu, z):
    return _k_integer_order(int(nu), z) if nu == int(nu) else mpmath.besselk(nu, z)


def piece_mass(piece, n: int):
    """r^n-weighted mass of one piece at unit norm constant, by mpmath quadrature."""
    nu = mpmath.mpf(n - 1) / 2
    c, k = mpmath.mpf(piece.coeff), mpmath.mpf(piece.scale)
    lo, hi = mpmath.mpf(piece.r_lo), mpmath.mpf(piece.r_hi)
    if piece.tag in ("GaussLaguerre", "GaussHermite"):
        arg = (lambda r: k * r * r) if piece.tag == "GaussLaguerre" else (lambda r: mpmath.sqrt(k) * r)
        f = lambda r: r**n * (c * mpmath.exp(-k * r * r / 2) * _polynomial(piece, arg(r))) ** 2
        # unit steps in t = mu r^2, on until the density is 1e-60 of the mass so far
        mass, t = mpmath.mpf(0), 0
        while t < 4 * piece.degree + n + 20 or f(mpmath.sqrt(t / k)) > mass * mpmath.mpf(10) ** -60:
            mass += _quad(f, [mpmath.sqrt(t / k), mpmath.sqrt((t + 1) / k)])
            t += 1
        return mass
    kernel = {"BesselJ": mpmath.besselj, "BesselI": mpmath.besseli, "BesselK": _bessel_k}[piece.tag]
    f = lambda r: r * (c * kernel(nu, k * r)) ** 2
    if piece.tag == "BesselJ":
        # one segment per half period
        points = mpmath.linspace(lo, hi, int(float((hi - lo) * k / mpmath.pi)) + 2)
    elif piece.tag == "BesselI":
        # grows like e^(2 kappa r): resolve the last decay lengths below hi
        inner = [hi - mpmath.mpf(2) ** j / k for j in range(8, -5, -1)]
        points = [lo] + [r for r in inner if r > lo] + [hi]
    else:
        # past 2^7/kappa the rest is below e^-256 of the piece's mass
        top = min(hi, lo + mpmath.mpf(2) ** 7 / k)
        inner = [lo + mpmath.mpf(2) ** j / k for j in range(-4, 7)]
        points = [lo] + [r for r in inner if r < top] + [top]
    return _quad(f, points)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=HERE, help="checkout to run (default: this one)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--draws", type=int, default=40, help="cases per kind")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.root.resolve() / "src"))

    worst: dict = {}
    for kind, p in draw_cases(args.seed, args.draws):
        record = {"kind": kind, "params": p}
        try:
            psi = build(kind, p)
        except Exception as exc:
            record["error"] = type(exc).__name__
        else:
            with mpmath.workdps(50):
                mass = mpmath.fsum(piece_mass(piece, p["n"]) for piece in psi.pieces)
                rel = float(mpmath.mpf(psi.norm_constant) * mpmath.sqrt(mass) - 1)
            record["rel_err"] = rel
            if kind == "shell":
                record["kappa_R"] = math.sqrt(psi.eps) * p["R"]
            worst[kind] = max(worst.get(kind, 0.0), abs(rel))
        print(json.dumps(record, sort_keys=True), flush=True)
    print(json.dumps({"worst": worst}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded input generators for the three workloads.

An operation is a dict: ``{"kind": "cli", "argv": [...], "p": {...}}`` for
one ``radialqm`` command, or ``{"kind": "transmission", "p": {...}}`` for a
library call of ``quantized_transmission_energies``.  ``p`` holds the drawn
parameters in reduced units so the checkers need not parse argv.  Every
round has a fixed make-up; only the drawn values depend on the seed, so
each run attempts whole rounds of the same kinds of operation.  A round
of ``scan`` or ``solve`` is ``BLOCK`` slots (72 and 96 operations), a
round of ``validate`` one report.

Draws are stratified: each parameter of each operation slot takes its
values in blocks of ``BLOCK``, one from each of ``BLOCK`` equal slices of
its range in shuffled order (for ``N_SET``, every order exactly once per
block).  Runs on different seeds therefore see nearly the same mix of
costs, which keeps their medians steady without narrowing any range.

Default units (hbar = m = 1) throughout, so reduced energy eps = 2E,
reduced depth v0 = 2 V0, and the oscillator scale mu = omega.
"""
from __future__ import annotations

import math
import random
from typing import Dict, List, Sequence

# n = 9 and n = 25 are the 10- and 26-dimensional spaces
N_SET = (0, 1, 2, 3, 4, 5, 9, 25)
# finite-well spectra are cross-checked for n <= 9 and V0 <= 5000
N_WELL = (0, 1, 2, 3, 4, 5, 9)
# dense double-precision transmission scans stay well conditioned here
N_TRANSMISSION = (0, 1, 2, 3)
BLOCK = len(N_SET)

SCAN_ROWS = (50, 400)
SAMPLES = (50, 400)
SCAN_BANDS = ("series", "cf", "asym")
SCAN_KINDS = (("delta-shell", -1), ("delta-shell", 1), ("finite-well", 0))
WELL_V0 = (0.5, 5000.0)
# below omega ~ 1 the n = 25 oscillator mode fails to normalize (exit 3)
HARMONIC_MODE_OMEGA = (1.5, 5.0)
# the n = 1 shell level sits near 2 exp(-1/(gamma R)); far below e^-700
# it leaves the double range
SHELL_GAMMA_R_N1_MIN = 0.05


def nu_of(n: int) -> float:
    return 0.5 * (n - 1)


def series_edge(nu: float) -> float:
    """Largest kR of the J ascending-series regime: x <= 2 or x^2 <= 4(nu+1)."""
    return max(2.0, 2.0 * math.sqrt(nu + 1.0))


def asym_edge(nu: float) -> float:
    """Smallest kR of the large-argument regime: max(60, (nu+1)^2/2 + 20)."""
    return max(60.0, 0.5 * (nu + 1.0) ** 2 + 20.0)


def _num(x: float) -> str:
    """Six significant digits; float(_num(x)) is the value the program parses."""
    return f"{x:.6g}"


class Draw:
    """Stratified draws, one queue of BLOCK values per key."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.queues: Dict[str, List[float]] = {}

    def u(self, key: str) -> float:
        queue = self.queues.get(key)
        if not queue:
            strata = list(range(BLOCK))
            self.rng.shuffle(strata)
            queue = self.queues[key] = [(j + self.rng.random()) / BLOCK for j in strata]
        return queue.pop()

    def uniform(self, key: str, lo: float, hi: float) -> float:
        return float(_num(lo + self.u(key) * (hi - lo)))

    def loguniform(self, key: str, lo: float, hi: float) -> float:
        return float(_num(lo * (hi / lo) ** self.u(key)))

    def randint(self, key: str, lo: int, hi: int) -> int:
        return lo + int(self.u(key) * (hi - lo + 1))

    def choice(self, key: str, options: Sequence):
        return options[int(self.u(key) * len(options))]


def _cli(argv: List[str], fmt: str, **p) -> Dict:
    if fmt == "json":
        argv = argv + ["--format", "json"]
    return {"kind": "cli", "argv": argv, "p": dict(p, fmt=fmt)}


# ---------------------------------------------------------------------------
# scan: scattering commands over all three J/Y regimes


def _kr_band(d: Draw, key: str, band: str, nu: float):
    s, a = series_edge(nu), asym_edge(nu)
    if band == "series":
        return d.uniform(key + "lo", 0.05, 0.3) * s, d.uniform(key + "hi", 0.7, 1.0) * s
    if band == "cf":
        return d.uniform(key + "lo", 1.0, 1.3) * s, d.uniform(key + "hi", 0.7, 1.0) * a
    return d.uniform(key + "lo", 1.0, 1.2) * a, d.uniform(key + "hi", 1.5, 3.0) * a


def scan_round(d: Draw) -> List[Dict]:
    """One slot of nine scattering scans: each problem kind once in each kR band.

    The three scans in the series band print JSON, the rest CSV.
    """
    ops = []
    for band in SCAN_BANDS:
        for problem, sign in SCAN_KINDS:
            key = f"{band}.{problem}.{sign}."
            n = d.choice(key + "n", N_SET)
            R = d.loguniform(key + "R", 0.5, 2.0)
            x_lo, x_hi = _kr_band(d, key + "x", band, nu_of(n))
            eps_from = float(_num((x_lo / R) ** 2))
            eps_to = float(_num((x_hi / R) ** 2))
            steps = d.randint(key + "steps", *SCAN_ROWS)
            fmt = "json" if band == "series" else "csv"
            argv = ["scattering", "--problem", problem, "--n", str(n), "--radius", _num(R)]
            if problem == "delta-shell":
                gamma = d.loguniform(key + "gamma", 0.1, 100.0)
                argv += ["--gamma", _num(gamma), "--sign", str(sign)]
                strength = sign * gamma
            else:
                V0 = d.loguniform(key + "v0", 0.05, 500.0)
                argv += ["--v0", _num(V0)]
                strength = 2.0 * V0
            argv += ["--eps-from", _num(eps_from), "--eps-to", _num(eps_to), "--steps", str(steps)]
            ops.append(_cli(argv, fmt, problem=problem, n=n, R=R, strength=strength,
                            eps_from=eps_from, eps_to=eps_to, steps=steps, band=band))
    return ops


# ---------------------------------------------------------------------------
# solve: bound states, modes, zero tables, closure probes, transmission


def _well_level_floor(nu: float, N: int) -> float:
    """A phase Q = sqrt(v0) R above which the well surely holds N levels.

    The N-th level's interior phase lies below the N-th zero of J_nu, and
    that zero lies below (N + nu/2 + 1) pi + nu for nu >= -1/2.
    """
    return (N + 0.5 * nu + 1.0) * math.pi + max(nu, 0.0)


def solve_round(d: Draw) -> List[Dict]:
    """One slot of twelve operations: four spectra, four modes, one zero table,
    two swapped closure probes and one transmission-energy search."""
    ops = []

    n = d.choice("sp.iw.n", N_SET)
    R = d.loguniform("sp.iw.R", 0.5, 3.0)
    levels = d.randint("sp.iw.levels", 1, 12)
    ops.append(_cli(["spectrum", "--problem", "infinite-well", "--n", str(n),
                     "--radius", _num(R), "--levels", str(levels)], "csv",
                    problem="infinite-well", n=n, R=R, levels=levels))

    n = d.choice("sp.ho.n", N_SET)
    omega = d.loguniform("sp.ho.omega", 0.2, 5.0)
    levels = d.randint("sp.ho.levels", 1, 30)
    ops.append(_cli(["spectrum", "--problem", "harmonic", "--n", str(n),
                     "--omega", _num(omega), "--levels", str(levels)], "json",
                    problem="harmonic", n=n, mu=omega, levels=levels))

    n = d.choice("sp.fw.n", N_WELL)
    V0 = d.loguniform("sp.fw.V0", *WELL_V0)
    R = d.loguniform("sp.fw.R", 0.5, 1.5)
    ops.append(_cli(["spectrum", "--problem", "finite-well", "--n", str(n),
                     "--v0", _num(V0), "--radius", _num(R)], "json",
                    problem="finite-well", n=n, v0=2.0 * V0, R=R))

    n = d.choice("sp.ds.n", N_SET)
    nu = nu_of(n)
    R = d.loguniform("sp.ds.R", 0.5, 2.0)
    # gamma R drawn on both sides of the 2 nu threshold when nu > 0
    if nu > 0:
        gr = d.loguniform("sp.ds.gr", 0.3 * 2.0 * nu, 4.0 * 2.0 * nu + 10.0)
    else:
        gr = d.loguniform("sp.ds.gr", SHELL_GAMMA_R_N1_MIN, 60.0)
    gamma = float(_num(gr / R))
    ops.append(_cli(["spectrum", "--problem", "delta-shell", "--n", str(n),
                     "--gamma", _num(gamma), "--radius", _num(R)], "json",
                    problem="delta-shell", n=n, gamma=gamma, R=R))

    n = d.choice("wf.iw.n", N_SET)
    R = d.loguniform("wf.iw.R", 0.5, 3.0)
    level = d.randint("wf.iw.level", 1, 8)
    samples = d.randint("wf.iw.samples", *SAMPLES)
    ops.append(_cli(["wavefunction", "--problem", "infinite-well", "--n", str(n),
                     "--radius", _num(R), "--level", str(level), "--samples", str(samples)],
                    "csv", problem="infinite-well", n=n, R=R, level=level, samples=samples))

    n = d.choice("wf.ho.n", N_SET)
    omega = d.loguniform("wf.ho.omega", *HARMONIC_MODE_OMEGA)
    level = d.randint("wf.ho.level", 0, 10)
    samples = d.randint("wf.ho.samples", *SAMPLES)
    ops.append(_cli(["wavefunction", "--problem", "harmonic", "--n", str(n),
                     "--omega", _num(omega), "--level", str(level), "--samples", str(samples)],
                    "json", problem="harmonic", n=n, mu=omega, level=level, samples=samples))

    n = d.choice("wf.fw.n", N_WELL)
    nu = nu_of(n)
    level = d.randint("wf.fw.level", 1, 3)
    R = d.loguniform("wf.fw.R", 0.5, 1.5)
    Q = _well_level_floor(nu, level) * d.uniform("wf.fw.Q", 1.0, 2.5)
    # at the depth cap Q >= 50 still clears every floor drawn here
    V0 = float(_num(min(0.5 * (Q / R) ** 2, WELL_V0[1])))
    samples = d.randint("wf.fw.samples", *SAMPLES)
    ops.append(_cli(["wavefunction", "--problem", "finite-well", "--n", str(n),
                     "--v0", _num(V0), "--radius", _num(R), "--level", str(level),
                     "--samples", str(samples)], "json",
                    problem="finite-well", n=n, v0=2.0 * V0, R=R, level=level, samples=samples))

    n = d.choice("wf.ds.n", N_SET)
    nu = nu_of(n)
    R = d.loguniform("wf.ds.R", 0.5, 2.0)
    gr = 2.0 * max(nu, 0.0) + d.loguniform("wf.ds.gr", 1.0, 40.0)
    gamma = float(_num(gr / R))
    samples = d.randint("wf.ds.samples", *SAMPLES)
    ops.append(_cli(["wavefunction", "--problem", "delta-shell", "--n", str(n),
                     "--gamma", _num(gamma), "--radius", _num(R), "--samples", str(samples)],
                    "json", problem="delta-shell", n=n, gamma=gamma, R=R, level=1,
                    samples=samples))

    # orders of the n set only: at some other orders the zero search
    # divides by zero (bessel_j_zero(0.268203, 2))
    nu = nu_of(d.choice("ze.n", N_SET))
    count = d.randint("ze.count", 1, 25)
    ops.append(_cli(["zeros", "--nu", _num(nu), "--count", str(count)], "json",
                    nu=nu, count=count))

    n = d.choice("cl.n", N_SET)
    k = d.loguniform("cl.k", 0.5, 5.0)
    k_prime = float(_num(k + d.uniform("cl.dk", -0.15, 0.15)))
    for a, b in ((k, k_prime), (k_prime, k)):
        ops.append(_cli(["closure", "--n", str(n), "--k", _num(a), "--k-prime", _num(b)],
                        "json", n=n, k=a, k_prime=b, r_max=500.0, width=0.05))

    n = d.choice("tr.n", N_TRANSMISSION)
    R = d.loguniform("tr.R", 0.5, 1.5)
    if d.u("tr.kind") < 0.5:
        g = d.loguniform("tr.g", 0.5, 5.0)
        sign = d.choice("tr.sign", (-1, 1))
        p = {"problem": "delta", "g": g, "sign": sign, "strength": sign * 2.0 * g}
    else:
        V0 = d.loguniform("tr.V0", 0.5, 20.0)
        p = {"problem": "finite", "V0": V0, "strength": 2.0 * V0}
    lo = d.loguniform("tr.lo", 0.5, 2.0) / (R * R)
    hi = lo * d.loguniform("tr.span", 4.0, 40.0)
    p.update(n=n, R=R, target=d.uniform("tr.target", 0.5, 3.5), eps_range=(lo, hi))
    ops.append({"kind": "transmission", "p": p})
    return ops


# ---------------------------------------------------------------------------
# validate: the oracle suite, which takes no input


def validate_round(d: Draw) -> List[Dict]:
    return [{"kind": "cli", "argv": ["validate"], "p": {"fmt": "json"}}]


# the slot generator of each workload, and how many slots make one round:
# a round of BLOCK slots uses every stratum of every drawn parameter
# exactly once, so each run measures the same mix of costs
ROUNDS = {"scan": (scan_round, BLOCK), "solve": (solve_round, BLOCK),
          "validate": (validate_round, 1)}


def rounds(workload: str, seed: int, slots: int = 0):
    """Endless sequence of rounds for one workload, fixed by seed.

    A round is ``slots`` calls of the workload's slot generator, by
    default the workload's own round length."""
    draw = Draw(random.Random(f"{workload}:{seed}"))
    make, size = ROUNDS[workload]
    while True:
        yield [op for _ in range(slots or size) for op in make(draw)]

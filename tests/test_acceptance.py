"""End-to-end acceptance gate.

One test per acceptance criterion, each emitting a single PASS/FAIL
line.  Failures are reported with the measured numbers; nothing here
loosens a stated bound to stay green.  Criterion 5 checks the printed
well/barrier sign claim against the signed coupling: the exterior
reflection is sign-blind, while the interior fields of attractive and
repulsive shells differ, and both signs are checked against the
independent outward sweep.  The validation report records the same
claim under ``well_barrier_sign_claim``.
"""
from __future__ import annotations

import math
import os

import numpy as np
import pytest

from radialqm.oracle import (
    Grid,
    fd_bound_spectrum,
    fd_scattering,
    load_reference_table,
    validation_report,
)
from radialqm.radial import Dimension, PhysicalScales
from radialqm.radial.model import DeltaShell, FiniteWell, Harmonic, InfiniteWell
from radialqm.radial.quadrature import integrate
from radialqm.solvers import (
    closure_check,
    delta_bound_energy,
    delta_bound_wavefunction,
    delta_scattering,
    finite_well_bound_spectrum,
    finite_well_scattering,
    infinite_well_spectrum,
    oscillator_spectrum,
    oscillator_wavefunction,
)
from radialqm.specfun import bessel_i, bessel_j, bessel_j_zero, bessel_k, bessel_y

from .conftest import FIXTURE_DIR

SC = PhysicalScales()


def _verdict(num: int, label: str, failures: list[str]) -> None:
    state = "PASS" if not failures else "FAIL (" + "; ".join(failures) + ")"
    print(f"[criterion {num}] {label}: {state}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_1_hard_box_spectra():
    failures = []
    for n in range(6):
        closed = infinite_well_spectrum(Dimension(n), 1.0, 5, SC)
        oracle = fd_bound_spectrum(Dimension(n), InfiniteWell(1.0), Grid(1.0, 4000), 5, SC)
        for lv, fd in zip(closed, oracle):
            rel = abs(lv.eps - fd.eps) / lv.eps
            if rel > 1e-4:
                failures.append(f"n={n} N={lv.N} oracle rel {rel:.2e}")
    for N in range(1, 6):
        got = infinite_well_spectrum(Dimension(2), 1.0, 5, SC)[N - 1].E
        exact = (N * math.pi) ** 2 / 2.0
        if abs(got - exact) / exact > 1e-12:
            failures.append(f"sine-series level N={N} off closed form")
    _verdict(1, "hard box vs finite differences", failures)


def test_criterion_2_oscillator_spectra_and_orthonormality():
    failures = []
    for n in range(6):
        closed = oscillator_spectrum(Dimension(n), 1.0, 10, SC)
        oracle = fd_bound_spectrum(Dimension(n), Harmonic(1.0), Grid(10.0, 6000), 5, SC)
        for k in range(5):
            idx = 2 * k if n == 0 else k
            rel = abs(closed[idx].eps - oracle[k].eps) / closed[idx].eps
            if rel > 1e-4:
                failures.append(f"n={n} N={k} oracle rel {rel:.2e}")
    # half-line even ladder in physical units
    even = oscillator_spectrum(Dimension(0), 1.0, 9, SC)
    for N in range(5):
        if abs(even[2 * N].E - (2 * N + 0.5)) > 1e-12:
            failures.append(f"half-line ladder N={N}")
    psis = [oscillator_wavefunction(Dimension(2), 1.0, N, SC) for N in range(5)]
    for i in range(5):
        for j in range(i, 5):
            val, _ = integrate(lambda r: r**2 * psis[i].sample(r) * psis[j].sample(r),
                               0.0, 14.0, 1e-11)
            target = 1.0 if i == j else 0.0
            if abs(val - target) > 1e-8:
                failures.append(f"overlap ({i},{j}) = {val:.2e}")
    _verdict(2, "oscillator ladder and orthonormality", failures)


def test_criterion_3_kernel_fixtures_and_wronskians():
    failures = []
    kernels = {"bessel_j": bessel_j, "bessel_y": bessel_y,
               "bessel_i": bessel_i, "bessel_k": bessel_k}
    rows = load_reference_table(os.path.join(FIXTURE_DIR, "specfun_reference.txt"))
    worst = 0.0
    for row in rows:
        if row.x > 10.0:
            continue
        rel = abs(kernels[row.function](row.nu, row.x).value - row.value) / abs(row.value)
        worst = max(worst, rel)
        if rel > 1e-11:
            failures.append(f"{row.function}(nu={row.nu}, x={row.x}) rel {rel:.2e}")
    xs = [0.1 * (50.0 / 0.1) ** (i / 23.0) for i in range(24)]
    for nu in (0.0, 0.5, 1.0, 2.5):
        for x in xs:
            cross = (bessel_j(nu, x).value * bessel_y(nu + 1.0, x).value
                     - bessel_j(nu + 1.0, x).value * bessel_y(nu, x).value)
            if abs(cross + 2.0 / (math.pi * x)) > 1e-11 * (2.0 / (math.pi * x)):
                failures.append(f"cylinder pair identity at nu={nu}, x={x:.3g}")
            mod = (bessel_i(nu, x).value * bessel_k(nu + 1.0, x).value
                   + bessel_i(nu + 1.0, x).value * bessel_k(nu, x).value)
            if abs(mod - 1.0 / x) > 1e-11 / x:
                failures.append(f"modified pair identity at nu={nu}, x={x:.3g}")
    _verdict(3, f"kernel fixtures (worst rel {worst:.1e}) and identity grids", failures)


def _weighted_slope_jump(psi, n: int, R: float) -> float:
    def one_sided(sign: float, h: float) -> float:
        a = psi.sample(R + sign * 1e-30)
        b = psi.sample(R + sign * h)
        c = psi.sample(R + sign * 2.0 * h)
        return sign * (-3.0 * a + 4.0 * b - c) / (2.0 * h)

    def jump(h: float) -> float:
        return R**n * (one_sided(+1.0, h) - one_sided(-1.0, h))

    h = 1e-5
    return (4.0 * jump(h / 2.0) - jump(h)) / 3.0


def test_criterion_4_shell_bound_states():
    failures = []
    # existence exactly above the coupling threshold, scanned densely
    for n in (2, 3, 4, 5):
        nu = (n - 1) / 2.0
        for frac in np.arange(0.1, 3.0, 0.025):
            gamma = 2.0 * nu * float(frac)
            got = delta_bound_energy(Dimension(n), gamma, 1.0, SC)
            if (got is not None) != (gamma > 2.0 * nu):
                failures.append(f"existence flips at n={n}, gamma R={gamma:.3f}")
    for n in (0, 2, 5):
        lv, _ = delta_bound_energy(Dimension(n), 1000.0, 1.0, SC)
        if abs(lv.eps - 250000.0) / 250000.0 > 1e-2:
            failures.append(f"strong-coupling limit n={n}")
    # each grid puts R = 1 on a cell center (1/h = 1333.5, 1333.5, 5002.5)
    for n, gamma, r_max, points in ((2, 6.0, 6.0, 8001), (1, 4.0, 6.0, 8001), (0, 50.0, 1.6, 8004)):
        lv, _ = delta_bound_energy(Dimension(n), gamma, 1.0, SC)
        fd = fd_bound_spectrum(Dimension(n), DeltaShell(gamma / 2.0, -1, 1.0),
                               Grid(r_max, points), 1, SC)
        rel = abs(lv.eps - fd[0].eps) / lv.eps
        if rel > 1e-5:
            failures.append(f"finite-difference oracle n={n} rel {rel:.2e}")
        psi = delta_bound_wavefunction(Dimension(n), gamma, 1.0, SC)
        resid = abs(_weighted_slope_jump(psi, n, 1.0) + gamma * psi.sample(1.0))
        if resid > 1e-8:
            failures.append(f"slope jump n={n} residual {resid:.2e}")
    _verdict(4, "shell threshold, limits, oracle, jump", failures)


def test_criterion_5_shell_scattering():
    failures = []
    # the sign-blind part of the printed claim: |outgoing| = 1 for either sign
    worst_refl = 0.0
    for eps in np.linspace(0.25, 50.0, 200):
        for gamma in (1.5, -1.5):
            s = delta_scattering(Dimension(1), gamma, 1.0, float(eps), SC)
            worst_refl = max(worst_refl, abs(s.exterior_reflection - 1.0))
    if worst_refl > 1e-10:
        failures.append(f"reflection off unity by {worst_refl:.2e}")
    free = delta_scattering(Dimension(2), 0.0, 1.0, 7.0, SC)
    if abs(free.interior_intensity - 4.0) > 1e-10:
        failures.append("transparent shell misses intensity four")
    # the signed fields of each shell against the independent sweep
    swept = {}
    for name, sign in (("barrier", 1), ("well", -1)):
        solved = delta_scattering(Dimension(1), sign * 1.5, 1.0, 5.0, SC)
        interior, outgoing = fd_scattering(Dimension(1), DeltaShell(0.75, sign, 1.0), 5.0, 2.5, SC)
        swept[name] = abs(interior) ** 2
        gap = max(abs(solved.interior_intensity - swept[name]),
                  abs(solved.interior_coeff - interior),
                  abs(solved.exterior_out_coeff - outgoing))
        if gap > 1e-6:
            failures.append(f"{name} solver vs sweep gap {gap:.2e}")
    # the part of the printed claim that fails, read off the sweep alone
    barrier = swept["barrier"]
    well = swept["well"]
    if not abs(barrier - well) > 1.0:
        failures.append(
            f"swept interior intensities {barrier:.6f} (barrier) and {well:.6f} "
            "(well) no longer split")
    _verdict(5, "shell scattering (reflection sign-blind; swept interior intensities "
                f"{barrier:.6f} barrier vs {well:.6f} well)", failures)


def test_criterion_6_finite_well():
    failures = []
    for n in range(6):
        pairs = finite_well_bound_spectrum(Dimension(n), 18.0, 1.0, SC)
        oracle = fd_bound_spectrum(Dimension(n), FiniteWell(18.0, 1.0),
                                   Grid(6.0, 24000), len(pairs), SC)
        for (lv, root), fd in zip(pairs, oracle):
            if abs(root.residual) > 1e-10:
                failures.append(f"n={n} N={lv.N} residual {root.residual:.2e}")
            rel = abs(lv.E - fd.E) / abs(lv.E)
            if rel > 1e-4:
                failures.append(f"n={n} N={lv.N} oracle rel {rel:.2e}")
    deep = finite_well_bound_spectrum(Dimension(2), 5e5, 1.0, SC)
    worst_resid = max(abs(root.residual) for _, root in deep)
    if worst_resid > 1e-10:
        failures.append(f"deep-well residual {worst_resid:.2e}")
    for N in (1, 2, 3):
        q = math.sqrt(1e6 - deep[N - 1][0].eps)
        zero = bessel_j_zero(0.5, N)
        if abs(q - zero) / zero > 1e-3:
            failures.append(f"deep-well interface N={N}")
    for n, v0 in ((1, 1e-8), (2, 1e-8)):
        s = finite_well_scattering(Dimension(n), v0, 1.0, 2.0, SC)
        if abs(s.interior_intensity - 4.0) > 1e-6:
            failures.append(f"shallow limit n={n}")
    _verdict(6, "finite well roots, limits, oracle", failures)


def test_criterion_7_continuum_closure():
    failures = []
    for n in (1, 2, 3):
        probe = closure_check(Dimension(n), 1.0, 1.0, 500.0, 0.05)
        if abs(probe.value - 1.0) > 0.03:
            failures.append(f"n={n} smeared mass {probe.value:.4f}")
    _verdict(7, "truncated continuum closure", failures)


def test_criterion_8_discrepancy_ledger():
    failures = []
    report = validation_report()
    entries = {d["id"]: d for d in report["discrepancies"]}
    required = (
        "printed_infinite_well_norm_constant",
        "oscillator_ladder_symbol",
        "printed_oscillator_norm_constant",
        "delta_smallx_energy_formula",
        "finite_well_scattering_prefactor",
        "delta_scattering_rate_labels",
        "well_barrier_sign_claim",
    )
    for key in required:
        if key not in entries:
            failures.append(f"ledger entry {key} missing")
            continue
        evidence = entries[key]["evidence"]
        if not (isinstance(evidence, dict)
                and any(isinstance(v, (int, float)) for v in evidence.values())):
            failures.append(f"ledger entry {key} has no computed evidence")
    if not report["rows"]:
        failures.append("report carries no oracle rows")
    if not report["all_converged"]:
        failures.append("report flags non-convergence")
    _verdict(8, "validation report discrepancy ledger", failures)

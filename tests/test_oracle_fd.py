"""Finite-difference and shooting oracles checked against closed forms."""
from __future__ import annotations

import math
import random

import numpy as np
import pytest

from radialqm.errors import DomainError, MatchingError
from radialqm.oracle import Grid, fd_bound_spectrum, fd_scattering, shooting_bound_levels
from radialqm.oracle.fd import _shoot_residual
from radialqm.radial import Dimension, PhysicalScales
from radialqm.radial.model import DeltaShell, FiniteWell, Free, Harmonic, InfiniteWell
from radialqm.solvers import delta_scattering, finite_well_scattering, oscillator_spectrum
from radialqm.specfun import bessel_j_zero


def test_grid_validation():
    with pytest.raises(DomainError):
        Grid(1.0, 50)
    with pytest.raises(DomainError):
        Grid(-1.0, 500)


def test_box_eigenvalue_against_closed_form(scales):
    got = fd_bound_spectrum(Dimension(2), InfiniteWell(1.0), Grid(1.0, 4000), 1, scales)
    assert abs(got[0].eps - math.pi**2) / math.pi**2 < 2e-5


def test_box_grid_must_end_at_the_wall(scales):
    with pytest.raises(DomainError):
        fd_bound_spectrum(Dimension(2), InfiniteWell(1.0), Grid(2.0, 1000), 1, scales)


def test_oscillator_eigenvalues_against_ladder(scales):
    got = fd_bound_spectrum(Dimension(2), Harmonic(1.0), Grid(8.0, 16000), 2, scales)
    for k, lv in enumerate(got):
        exact = 2.0 * (2 * k + 1.5)
        assert abs(lv.eps - exact) / exact < 2e-5


def test_grid_halving_cuts_the_error_by_at_least_three(scales):
    # second-order stencil: the observed factor is 4
    coarse = fd_bound_spectrum(Dimension(1), Harmonic(1.0), Grid(9.0, 1500), 2, scales)
    fine = fd_bound_spectrum(Dimension(1), Harmonic(1.0), Grid(9.0, 3000), 2, scales)
    for k, exact in ((0, 2.0), (1, 6.0)):
        ratio = abs(coarse[k].eps - exact) / abs(fine[k].eps - exact)
        assert ratio >= 3.0


def test_cell_centred_shell_spectrum(scales):
    # 1/h = 3757.5 puts R = 1 on a cell center; one grid is 1.1e-5 off
    got = fd_bound_spectrum(Dimension(0), DeltaShell(25.0, -1, 1.0), Grid(1.6, 6012), 1, scales)
    assert got[0].E < 0.0
    assert got[0].eps == pytest.approx(625.0, rel=2e-5)


@pytest.mark.parametrize("n", (0, 1, 2))
def test_shell_off_a_cell_center_is_rejected(n, scales):
    # 1/h = 3750: R = 1 falls on a cell edge
    with pytest.raises(DomainError, match="cell center"):
        fd_bound_spectrum(Dimension(n), DeltaShell(25.0, -1, 1.0), Grid(1.6, 6000), 1, scales)
    with pytest.raises(DomainError, match="inside the grid"):
        fd_bound_spectrum(Dimension(n), DeltaShell(25.0, -1, 2.0), Grid(1.6, 6012), 1, scales)


def test_level_count_validation(scales):
    with pytest.raises(DomainError):
        fd_bound_spectrum(Dimension(1), Harmonic(1.0), Grid(8.0, 400), 0, scales)
    with pytest.raises(DomainError):
        fd_bound_spectrum(Dimension(1), Harmonic(1.0), Grid(8.0, 400), 300, scales)


@pytest.mark.parametrize("n", range(4))
def test_free_sweep_recovers_intensity_four(n, scales):
    interior, outgoing = fd_scattering(Dimension(n), Free(), 2.0, 2.5, scales)
    assert abs(abs(interior) ** 2 - 4.0) < 1e-8
    assert abs(abs(outgoing) ** 2 - 1.0) < 1e-8


def test_sweep_matches_shell_solver(scales):
    closed = delta_scattering(Dimension(1), 1.5, 1.0, 5.0, scales)
    interior, _ = fd_scattering(Dimension(1), DeltaShell(0.75, 1, 1.0), 5.0, 2.5, scales)
    assert abs(closed.interior_intensity - abs(interior) ** 2) < 1e-6


def test_sweep_matches_well_solver(scales):
    closed = finite_well_scattering(Dimension(2), 5.0, 1.0, 2.0, scales)
    interior, _ = fd_scattering(Dimension(2), FiniteWell(5.0, 1.0), 2.0, 2.5, scales)
    assert abs(closed.interior_intensity - abs(interior) ** 2) < 1e-6


def test_sweep_error_paths(scales):
    with pytest.raises(MatchingError):
        fd_scattering(Dimension(1), DeltaShell(0.75, 1, 1.0), 5.0, 0.8, scales)
    with pytest.raises(DomainError):
        fd_scattering(Dimension(1), Free(), 900.0, 2.5, scales)
    with pytest.raises(DomainError):
        fd_scattering(Dimension(1), Free(), -1.0, 2.5, scales)
    with pytest.raises(DomainError):
        fd_scattering(Dimension(1), Free(), 2.0, math.nan, scales)
    with pytest.raises(DomainError):
        fd_scattering(Dimension(1), InfiniteWell(1.0), 2.0, 2.5, scales)


def test_shooting_confirms_oscillator(scales):
    got = shooting_bound_levels(Dimension(1), Harmonic(1.0), 7.0, 0.5, 7.5, scales)
    assert len(got) == 2
    for value, exact in zip(got, (2.0, 6.0)):
        assert abs(value - exact) / exact < 1e-6


def test_shooting_confirms_finite_well(scales):
    got = shooting_bound_levels(Dimension(2), FiniteWell(18.0, 1.0), 3.0, -32.0, -2.0, scales)
    assert len(got) == 2
    for value, exact in zip(got, (-28.82412105776268, -8.689305179835998)):
        assert abs(value - exact) / abs(exact) < 1e-5


def test_shooting_validation(scales):
    with pytest.raises(DomainError):
        shooting_bound_levels(Dimension(1), Harmonic(1.0), -1.0, 0.5, 7.5, scales)
    with pytest.raises(DomainError):
        shooting_bound_levels(Dimension(1), Harmonic(1.0), 7.0, 7.5, 0.5, scales)
    with pytest.raises(DomainError, match="shooting check not defined"):
        shooting_bound_levels(Dimension(1), InfiniteWell(1.0), 1.0, 5.0, 50.0, scales)


def _dense_shooting(dim, pot, r_max, eps_lo, eps_hi, scales, count):
    # every grid energy shot, every midpoint evaluated: the scan and
    # bisection that the node counts and the Illinois steps shortcut
    grid_eps = np.linspace(eps_lo, eps_hi, 96)
    values = [_shoot_residual(dim, pot, float(e), r_max, scales)[0] for e in grid_eps]
    roots = []
    for i in range(len(grid_eps) - 1):
        f_lo, f_hi = values[i], values[i + 1]
        if f_lo == 0.0:
            roots.append(float(grid_eps[i]))
            continue
        if f_lo * f_hi >= 0.0:
            continue
        a, b = float(grid_eps[i]), float(grid_eps[i + 1])
        fa = f_lo
        for _ in range(80):
            m = 0.5 * (a + b)
            fm = _shoot_residual(dim, pot, m, r_max, scales)[0]
            if fm == 0.0:
                a = b = m
                break
            if fa * fm < 0.0:
                b = m
            else:
                a, fa = m, fm
            if abs(b - a) <= 1e-12 * max(1.0, abs(a)):
                break
        roots.append(0.5 * (a + b))
        if len(roots) >= count:
            break
    return roots[:count]


def _seeded_windows(seed, number, scales):
    # harmonic and finite-well windows holding one to three levels, the
    # window ends drawn apart from the levels
    rng = random.Random(seed)
    for w in range(number):
        dim = Dimension(rng.randrange(6))
        count = rng.randint(1, 3)
        if w % 2 == 0:
            omega = rng.uniform(0.5, 3.0)
            mu = scales.oscillator_scale(omega)
            levels = [2.0 * mu * (2 * k + dim.nu + 1.0) for k in range(count + 1)]
            wall = rng.uniform(1.2, 1.6) * math.sqrt(levels[-1]) / mu + rng.uniform(1.0, 2.0) / math.sqrt(mu)
            lo = rng.uniform(0.2, 0.95) * levels[0]
            hi = rng.uniform(1.02 * levels[count - 1], 0.98 * levels[count])
            yield dim, Harmonic(omega), wall, lo, hi, count
        else:
            V0, R = rng.uniform(5.0, 60.0), rng.uniform(0.5, 2.0)
            v0 = scales.reduced_potential(V0)
            wall = rng.uniform(2.0, 3.5) * R
            yield dim, FiniteWell(V0, R), wall, -v0 * rng.uniform(0.95, 1.0), -v0 * rng.uniform(0.02, 0.3), count


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_shooting_equals_dense_scan_and_bisection(seed, scales):
    found = 0
    for dim, pot, wall, lo, hi, count in _seeded_windows(seed, 8, scales):
        got = shooting_bound_levels(dim, pot, wall, lo, hi, scales, count)
        assert got == _dense_shooting(dim, pot, wall, lo, hi, scales, count)
        found += len(got)
    assert found >= 8


def test_two_levels_in_one_sampled_interval(scales):
    # mu = 1, n = 1: levels 2, 6, 10; the scan samples every 8th of 96
    # energies on [1, 61], so 2 and 6 share the first sampled interval
    # [1, 6.05], where u(r_max) has the same sign at both ends
    grid = np.linspace(1.0, 61.0, 96)
    assert grid[0] < 2.0 < 6.0 < grid[8] < 10.0
    got = shooting_bound_levels(Dimension(1), Harmonic(1.0), 7.0, 1.0, 61.0, scales, count=3)
    assert got == _dense_shooting(Dimension(1), Harmonic(1.0), 7.0, 1.0, 61.0, scales, 3)
    assert got == pytest.approx([2.0, 6.0, 10.0], rel=1e-6)


@pytest.mark.parametrize("n", (1, 2, 3, 5))
def test_node_count_is_the_number_of_levels_below(n, scales):
    # Sturm oscillation: the regular solution has one node per level below eps
    levels = [lv.eps for lv in oscillator_spectrum(Dimension(n), 1.0, 5, scales)]
    probes = [0.5 * levels[0]] + [0.5 * (a + b) for a, b in zip(levels, levels[1:])]
    for below, eps in enumerate(probes):
        assert _shoot_residual(Dimension(n), Harmonic(1.0), eps, 8.0, scales)[1] == below

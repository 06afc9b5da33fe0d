"""Finite-difference and shooting oracles checked against closed forms."""
from __future__ import annotations

import math
import random

import numpy as np
import pytest

from radialqm.errors import DomainError, MatchingError
from radialqm.oracle import Grid, fd_bound_spectrum, fd_scattering, shooting_bound_levels
from radialqm.oracle.fd import _rk4_lanes, _rk4_sweep, _shoot_setup
from radialqm.radial import Dimension, PhysicalScales
from radialqm.radial.model import DeltaShell, FiniteWell, Free, Harmonic, InfiniteWell
from radialqm.solvers import delta_scattering, finite_well_scattering
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


def _lane_steps(segments):
    return sum(max(4, math.ceil((b - a) / t)) for a, b, t, _ in segments if b > a)


def _assert_lanes_match_sweeps(shots, nu, eps):
    # the lanes call each potential on arrays, the sweep on floats: both
    # must round alike, or a lane drifts from its sweep by an ulp
    for segments, _ in shots:
        for a, b, _, v_of_r in segments:
            r = np.linspace(a, b, 257)
            assert (np.zeros_like(r) + v_of_r(r)).tolist() == [v_of_r(x) for x in r.tolist()]
    u, p = _rk4_lanes(shots, nu, np.array(eps))
    assert len({_lane_steps(seg) for seg, _ in shots}) > 1
    for j, (segments, y0) in enumerate(shots):
        assert (u[j], p[j]) == _rk4_sweep(segments, nu, eps[j], y0)


@pytest.mark.parametrize("n", (0, 1, 2, 5))
def test_lane_sweeps_equal_scalar_sweeps_harmonic(n, scales):
    rng = random.Random(1000 + n)
    dim = Dimension(n)
    shots, eps = [], []
    for _ in range(12):
        omega = rng.uniform(0.5, 3.0)
        wall = rng.uniform(5.0, 9.0)
        e = rng.uniform(0.5, 4.0 * omega * (n + 3))
        shots.append(_shoot_setup(dim, Harmonic(omega), e, wall, scales))
        eps.append(e)
    _assert_lanes_match_sweeps(shots, dim.nu, eps)


@pytest.mark.parametrize("n", (0, 1, 2, 5))
def test_lane_sweeps_equal_scalar_sweeps_finite_well(n, scales):
    rng = random.Random(2000 + n)
    dim = Dimension(n)
    shots, eps = [], []
    for _ in range(12):
        V0 = rng.uniform(2.0, 40.0)
        R = rng.uniform(0.5, 2.0)
        v0 = scales.reduced_potential(V0)
        # energies inside the well (-v0 < eps < 0) and above it
        e = rng.uniform(-v0, 0.0) if rng.random() < 0.5 else rng.uniform(0.0, v0)
        shots.append(_shoot_setup(dim, FiniteWell(V0, R), e, rng.uniform(2.0, 4.0) * R, scales))
        eps.append(e)
    _assert_lanes_match_sweeps(shots, dim.nu, eps)

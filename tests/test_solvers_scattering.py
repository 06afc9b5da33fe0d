"""Stationary scattering states and intensity-targeted energy search."""
from __future__ import annotations

import math

import numpy as np
import pytest

from radialqm.errors import ComputationError, DomainError, MatchingError
from radialqm.radial import Dimension, PhysicalScales
from radialqm.radial.model import DeltaShell, FiniteWell
from radialqm.solvers import (
    delta_scattering,
    finite_well_scattering,
    quantized_transmission_energies,
)
from radialqm.solvers.interface import solve_interface


def test_shell_exterior_carries_unit_reflection(scales):
    # closed channel: everything that goes out must come back
    for gamma in (1.5, -1.5, 6.0):
        for eps in np.linspace(0.25, 50.0, 40):
            s = delta_scattering(Dimension(1), gamma, 1.0, float(eps), scales)
            assert abs(s.exterior_reflection - 1.0) < 1e-12
            assert abs(abs(s.exterior_out_coeff) - 1.0) < 1e-12


def test_transparent_shell_has_intensity_four(scales):
    for n in (0, 1, 2, 4):
        s = delta_scattering(Dimension(n), 0.0, 1.0, 7.0, scales)
        assert s.interior_intensity == pytest.approx(4.0, abs=1e-12)
        assert s.paper_T == pytest.approx(4.0, abs=1e-12)


def test_shell_scattering_frozen_values(scales):
    s = delta_scattering(Dimension(1), 1.5, 1.0, 5.0, scales)
    assert s.interior_intensity == pytest.approx(5.057160391817869, rel=1e-10)
    r = delta_scattering(Dimension(1), -1.5, 1.0, 5.0, scales)
    assert r.interior_intensity == pytest.approx(3.24054662451447, rel=1e-10)
    # attractive and repulsive shells are distinct solutions
    assert abs(s.interior_intensity - r.interior_intensity) > 1.0


def test_printed_rate_field_is_carried_but_not_trusted(scales):
    s = delta_scattering(Dimension(1), 1.5, 1.0, 5.0, scales)
    assert math.isfinite(s.paper_T)
    assert s.paper_T == pytest.approx(4.106170185170399, rel=1e-9)
    # the printed closed form disagrees with the matched coefficients at
    # finite coupling; the validation report records the comparison
    assert abs(s.paper_T - s.interior_intensity) > 0.1


def test_well_scattering_frozen_values(scales):
    s = finite_well_scattering(Dimension(2), 5.0, 1.0, 2.0, scales)
    assert s.interior_intensity == pytest.approx(1.782185079204197, rel=1e-10)
    assert abs(s.exterior_reflection - 1.0) < 1e-12
    assert s.paper_T == pytest.approx(5.5988995521652605, rel=1e-9)


def test_well_scattering_free_limit(scales):
    assert finite_well_scattering(Dimension(1), 0.0, 1.0, 2.0, scales).interior_intensity == 4.0
    s = finite_well_scattering(Dimension(1), 1e-9, 1.0, 3.0, scales)
    assert s.interior_intensity == pytest.approx(4.0, abs=1e-8)


def test_scattering_validation(scales):
    with pytest.raises(DomainError):
        delta_scattering(Dimension(1), 1.5, 1.0, -2.0, scales)
    with pytest.raises(DomainError):
        delta_scattering(Dimension(1), 1.5, 0.0, 2.0, scales)
    with pytest.raises(DomainError):
        finite_well_scattering(Dimension(1), -5.0, 1.0, 2.0, scales)


def test_intensity_target_energies_shell(scales):
    roots = quantized_transmission_energies(
        DeltaShell(1.0, 1, 1.0), Dimension(1), 4.5, (0.5, 40.0), scales)
    assert roots == pytest.approx(
        [2.188400523, 5.464975229, 18.553328592, 28.772669048], rel=1e-6)
    assert roots == sorted(roots)
    for eps in roots:
        s = delta_scattering(Dimension(1), 2.0, 1.0, eps, scales)
        assert s.interior_intensity == pytest.approx(4.5, abs=1e-9)


def test_intensity_target_energies_well(scales):
    roots = quantized_transmission_energies(
        FiniteWell(5.0, 1.0), Dimension(2), 4.0, (0.5, 30.0), scales)
    assert len(roots) == 2
    for eps in roots:
        s = finite_well_scattering(Dimension(2), 5.0, 1.0, eps, scales)
        assert s.interior_intensity == pytest.approx(4.0, abs=1e-9)


def test_intensity_target_validation(scales):
    with pytest.raises(DomainError):
        quantized_transmission_energies(DeltaShell(1.0, 1, 1.0), Dimension(1), -1.0, (0.5, 10.0), scales)
    with pytest.raises(DomainError):
        quantized_transmission_energies(DeltaShell(1.0, 1, 1.0), Dimension(1), 4.0, (3.0, 1.0), scales)
    with pytest.raises(DomainError):
        quantized_transmission_energies("shell", Dimension(1), 4.0, (0.5, 10.0), scales)


def test_high_order_scattering_overflow_is_an_error(scales):
    # Y_150.5(1) overflows a double, and at n = 200, kR = 0.7 the J Y products
    # do; either way the interface solve would give NaN
    for n, eps in ((300, 1.0), (200, 0.5)):
        with pytest.raises(ComputationError, match="double range"):
            delta_scattering(Dimension(n), 3.0, 1.0, eps, scales)
        with pytest.raises(ComputationError, match="double range"):
            finite_well_scattering(Dimension(n), 5.0, 1.0, eps, scales)


def test_singular_interface_is_a_matching_error():
    # an interior mode that is zero with zero slope at R cannot be matched
    with pytest.raises(MatchingError, match="singular"):
        solve_interface(0.0, 0.0, 1.0, 0.3, 0.5, -0.2, -0.9)


def test_scattering_accepts_zero_depth_and_signed_or_zero_coupling(scales):
    dim = Dimension(2)
    for g in (-3.0, 0.0, 3.0):
        assert delta_scattering(dim, g, 1.0, 2.0, scales).exterior_reflection == pytest.approx(1.0)
    assert finite_well_scattering(dim, 0.0, 1.0, 2.0, scales).interior_intensity == 4.0
    with pytest.raises(DomainError, match="well depth must be nonnegative"):
        finite_well_scattering(dim, -1.0, 1.0, 2.0, scales)
    with pytest.raises(DomainError, match="scattering energy must be positive and finite, got inf"):
        delta_scattering(dim, 1.0, 1.0, math.inf, scales)

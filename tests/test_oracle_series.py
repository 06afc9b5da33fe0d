"""Arbitrary-precision series oracle and the reference-table plumbing."""
from __future__ import annotations

import importlib.util
import itertools
import math
import random
from pathlib import Path

import mpmath as mp
import pytest

from radialqm.oracle import (
    SeriesDomainError,
    load_reference_table,
    series,
    series_reference,
)

from .conftest import FIXTURE_DIR

_WRITER = Path(__file__).resolve().parent.parent / "tools" / "write_kernel_fixture.py"


def test_values_are_stable_under_extra_digits():
    with mp.workdps(40):
        a = series_reference("bessel_j", 0.0, 1.0, 30)
        b = series_reference("bessel_j", 0.0, 1.0, 40)
        assert abs(a - b) < mp.mpf(10) ** (-29)


def test_half_integer_closed_form_to_25_digits():
    with mp.workdps(35):
        got = series_reference("bessel_i", 0.5, 1.0, 25)
        exact = mp.sqrt(2 / mp.pi) * mp.sinh(1)
        assert abs(got - exact) < mp.mpf(10) ** (-25)


def test_wronskian_closes_to_25_digits():
    with mp.workdps(35):
        w = (series_reference("bessel_k", 0.0, 2.0, 28) * series_reference("bessel_i", 1.0, 2.0, 28)
             + series_reference("bessel_k", 1.0, 2.0, 28) * series_reference("bessel_i", 0.0, 2.0, 28))
        assert abs(w - mp.mpf(1) / 2) < mp.mpf(10) ** (-25)


def test_negative_order_second_kind():
    # connection formulas cover nu < 0: Y_{-3/2} = -J_{3/2} by reflection
    x = 2.0
    got = float(series_reference("bessel_y", -1.5, x, 25))
    exact = -math.sqrt(2.0 / (math.pi * x)) * (math.sin(x) / x - math.cos(x))
    assert got == pytest.approx(exact, rel=1e-13)


def test_domain_errors():
    with pytest.raises(SeriesDomainError):
        series_reference("bessel_j", 0.0, 40.0, 20)
    with pytest.raises(SeriesDomainError):
        series_reference("bessel_j", 0.0, 0.0, 20)
    with pytest.raises(SeriesDomainError):
        series_reference("bessel_q", 0.0, 1.0, 20)
    with pytest.raises(SeriesDomainError):
        series_reference("bessel_j", 0.0, 1.0, 80)


def test_reference_table_round_trips(tmp_path):
    spec = importlib.util.spec_from_file_location("write_kernel_fixture", _WRITER)
    writer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(writer)
    target = tmp_path / "reference.txt"
    count = writer.write_reference_table(str(target))
    # the tool regenerates the committed table byte for byte
    frozen = Path(FIXTURE_DIR) / "specfun_reference.txt"
    assert target.read_bytes() == frozen.read_bytes()
    assert len(load_reference_table(str(target))) == count


# mpmath's own routines, which the oracle must not call, serve here as an
# outside check of the digits it claims
_MPMATH_CYLINDER = {
    "bessel_j": mp.besselj,
    "bessel_y": mp.bessely,
    "bessel_i": mp.besseli,
    "bessel_k": mp.besselk,
}


def _draw_order(rng, kind):
    if kind == "integer":
        return float(rng.randint(-2, 50))
    if kind == "half_integer":
        return rng.randint(-3, 49) + 0.5
    if kind == "generic":
        return rng.uniform(0.0, 50.0)
    return rng.uniform(-2.5, 0.0)


def test_claimed_digits_hold_against_mpmath_bessel_routines():
    rng = random.Random(19)
    kinds = ("integer", "half_integer", "generic", "negative")
    for function, kind, _ in itertools.product(_MPMATH_CYLINDER, kinds, range(2)):
        nu = _draw_order(rng, kind)
        x = 10.0 ** rng.uniform(-3.0, math.log10(30.0))
        digits = rng.choice((15, 25, 33, 50))
        with mp.workdps(digits + 15):
            ref = series_reference(function, nu, x, digits)
            want = _MPMATH_CYLINDER[function](nu, x)
            assert abs(ref - want) <= mp.mpf(10) ** (1 - digits) * abs(want), (function, nu, x, digits)


@pytest.mark.parametrize("function", ["bessel_j", "bessel_i"])
@pytest.mark.parametrize("nu", [-1.0, -2.0, -5.0])
def test_first_kind_at_negative_integer_order(function, nu):
    # 1/Gamma(nu + 1) vanishes there; J_{-m} = (-1)^m J_m and I_{-m} = I_m
    for x in (1e-3, 0.7, 1.0, 6.3, 29.5):
        with mp.workdps(45):
            ref = series_reference(function, nu, x, 30)
            want = _MPMATH_CYLINDER[function](nu, x)
            assert abs(ref - want) <= mp.mpf(10) ** -29 * abs(want), (nu, x)


def test_a_ladder_whose_evaluations_never_agree_raises(monkeypatch):
    values = itertools.count(1)
    monkeypatch.setattr(series, "_eval_once", lambda function, nu, x: mp.mpf(next(values)))
    with pytest.raises(ArithmeticError):
        series_reference("bessel_j", 0.5, 1.0, 20)
    # every rung of the ladder was tried before giving up
    assert next(values) == 9

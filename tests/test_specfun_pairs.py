"""The pair kernels return exactly what separate calls return.

bessel_jy and scaled_bessel_k_pair share engine runs between orders nu
and nu + 1; the solvers rely on every shared value (and its error
estimate and overflow flag) being the bits a separate call gives.
j_pair drops the estimates; its floats are the values bessel_j returns.
"""
from __future__ import annotations

import math
import random

import pytest

from radialqm.errors import DomainError
from radialqm.specfun import bessel_j, bessel_y
from radialqm.specfun.bessel_jy import bessel_jy, j_pair
from radialqm.specfun.bessel_ik import scaled_bessel_k, scaled_bessel_k_pair


def _asym_edge(nu):
    return max(60.0, 0.5 * (nu + 1.0) ** 2 + 20.0)


def _jy_draws(seed, count):
    """(nu, x) in every J/Y regime and at the seams between them."""
    rng = random.Random(seed)
    draws = []
    for _ in range(count):
        nu = rng.choice((rng.uniform(-0.5, 30.0), 0.5 * rng.randint(-1, 60)))
        series_edge = 2.0 * math.sqrt(nu + 1.0)
        regime = rng.choice(("series", "overlap", "cf", "seam", "asym"))
        if regime == "series":
            x = 2.0 * 10.0 ** rng.uniform(-6.0, 0.0)
        elif regime == "overlap":
            # the continued fractions run, but J keeps the series value
            if series_edge <= 2.0:
                continue
            x = rng.uniform(2.0, series_edge)
        elif regime == "cf":
            x = rng.uniform(max(2.0, series_edge), _asym_edge(nu))
        elif regime == "seam":
            # (nu, x) asymptotic, (nu + 1, x) not
            x = rng.uniform(_asym_edge(nu), _asym_edge(nu + 1.0))
        else:
            x = _asym_edge(nu + 1.0) * 10.0 ** rng.uniform(0.0, 3.0)
        draws.append((nu, x))
    return draws


@pytest.mark.parametrize("seed", range(4))
def test_bessel_jy_equals_separate_calls(seed):
    for nu, x in _jy_draws(seed, 150):
        got = bessel_jy(nu, x)
        want = (bessel_j(nu, x), bessel_j(nu + 1.0, x),
                bessel_y(nu, x), bessel_y(nu + 1.0, x))
        assert got == want, (nu, x)


def test_bessel_jy_at_the_regime_edges():
    for nu in (-0.5, 0.0, 0.5, 3.0, 7.5, 9.0):
        edges = (2.0, 2.0 * math.sqrt(nu + 1.0), 2.0 * math.sqrt(nu + 2.0),
                 _asym_edge(nu), _asym_edge(nu + 1.0))
        for edge in edges:
            for x in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)):
                want = (bessel_j(nu, x), bessel_j(nu + 1.0, x),
                        bessel_y(nu, x), bessel_y(nu + 1.0, x))
                assert bessel_jy(nu, x) == want, (nu, x)


def test_bessel_jy_carries_the_overflow_flag_of_y():
    # Y_{nu+1} leaves the double range first
    for nu, x in ((150.5, 1e-2), (160.0, 0.5), (300.5, 1.0)):
        got = bessel_jy(nu, x)
        assert got == (bessel_j(nu, x), bessel_j(nu + 1.0, x),
                       bessel_y(nu, x), bessel_y(nu + 1.0, x))
        assert got[3].est_abs_error == math.inf


def test_bessel_jy_needs_a_positive_argument():
    with pytest.raises(DomainError):
        bessel_jy(0.5, 0.0)
    with pytest.raises(DomainError):
        bessel_jy(-0.75, 1.0)


def _j_values(nu, x):
    return bessel_j(nu, x).value, bessel_j(nu + 1.0, x).value


@pytest.mark.parametrize("seed", range(4))
def test_j_pair_equals_separate_calls(seed):
    for nu, x in _jy_draws(seed, 150):
        assert j_pair(nu, x) == _j_values(nu, x), (nu, x)


def test_j_pair_at_the_regime_edges_and_the_origin():
    for nu in (-0.5, 0.0, 0.5, 3.0, 7.5, 9.0):
        edges = (2.0, 2.0 * math.sqrt(nu + 1.0), 2.0 * math.sqrt(nu + 2.0),
                 _asym_edge(nu), _asym_edge(nu + 1.0))
        for edge in edges:
            for x in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)):
                assert j_pair(nu, x) == _j_values(nu, x), (nu, x)
        # J_{-1/2}(0) is unbounded: both sides give inf
        assert j_pair(nu, 0.0) == _j_values(nu, 0.0), nu


def test_j_pair_checks_its_arguments_as_bessel_j_does():
    for nu, x in ((-0.75, 1.0), (0.5, -1.0), (math.nan, 1.0), (0.5, math.inf)):
        with pytest.raises(DomainError):
            bessel_j(nu, x)
        with pytest.raises(DomainError):
            j_pair(nu, x)


def test_scaled_k_pair_equals_separate_calls():
    rng = random.Random(14)
    draws = [(100.5, 0.0629), (100.5, 0.065), (100.0, 0.0629), (170.3, 0.5)]
    for _ in range(600):
        # half-integer orders share the recurrence; others round nu + 1 to
        # another base order and take a second run
        nu = rng.choice((rng.uniform(-0.5, 40.0), 0.5 * rng.randint(-1, 80),
                         0.5 * rng.randint(150, 260)))
        x = rng.choice((10.0 ** rng.uniform(-3.0, math.log10(2.0)), rng.uniform(2.0, 20.0),
                        rng.uniform(20.0, 600.0)))
        draws.append((nu, x))
    flagged = 0
    for nu, x in draws:
        got = scaled_bessel_k_pair(nu, x)
        assert got == (scaled_bessel_k(nu, x), scaled_bessel_k(nu + 1.0, x)), (nu, x)
        flagged += not got[1].is_finite
    assert flagged > 0

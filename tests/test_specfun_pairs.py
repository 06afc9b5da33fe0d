"""The pair kernels against separate calls.

scaled_bessel_k_pair shares engine runs between orders nu and nu + 1 and
returns exactly what separate calls return.  bessel_jy and j_pair take
both orders from one continued-fraction run where 2 < x is below the
asymptotic threshold of nu: J_{nu+1} from the ratio J'_nu/J_nu and Y_{nu+1}
from the same upward recurrence as Y_nu.  There J_nu and Y_nu are still
the bits separate calls give, the nu + 1 values agree with separate calls
to rounding, and the pair satisfies the Wronskian more tightly than two
runs do.  Where (nu + 1, x) is asymptotic, one pair call runs the
expansion loop for both orders, with each order's memoized term table
and one shared amplitude; in the series regime, and at the seam where
(nu, x) is asymptotic but (nu + 1, x) is not, every order runs alone.
In all of these all four results are the bits of separate calls, and
the asymptotic values are pinned to their bits.  j_pair drops the
estimates; its floats are the J values of bessel_jy.
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


def _one_run(nu, x):
    """True where the pairs take both orders from one continued-fraction run."""
    return 2.0 < x < _asym_edge(nu)


def _series_j(nu, x):
    """True where J_nu is the ascending-series value."""
    return x <= 2.0 or x * x <= 4.0 * (nu + 1.0)


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


def _separate(nu, x):
    return (bessel_j(nu, x), bessel_j(nu + 1.0, x),
            bessel_y(nu, x), bessel_y(nu + 1.0, x))


def _check_bessel_jy(nu, x):
    got = bessel_jy(nu, x)
    want = _separate(nu, x)
    # J_nu and Y_nu, value and estimate, in every regime
    assert (got[0], got[2]) == (want[0], want[2]), (nu, x)
    if not _one_run(nu, x):
        assert got == want, (nu, x)
        return
    if _series_j(nu + 1.0, x):
        assert got[1] == want[1], (nu, x)
    assert got[3].is_finite == want[3].is_finite, (nu, x)
    if not want[3].is_finite:
        return
    scale = math.hypot(want[1].value, want[3].value)
    for g, w in ((got[1], want[1]), (got[3], want[3])):
        assert abs(g.value - w.value) <= 1e-13 * scale, (nu, x)
        # both estimates are 1e-14 of their value
        assert abs(g.est_abs_error - w.est_abs_error) <= 1e-27 * scale, (nu, x)
    if not _series_j(nu, x):
        # all four from one run: J_{nu+1} Y_nu - J_nu Y_{nu+1} = 2/(pi x)
        j0, j1, y0, y1 = (r.value for r in got)
        w = 2.0 / (math.pi * x)
        assert abs(j1 * y0 - j0 * y1 - w) <= 4e-15 * w, (nu, x)


@pytest.mark.parametrize("seed", range(4))
def test_bessel_jy_against_separate_calls(seed):
    for nu, x in _jy_draws(seed, 150):
        _check_bessel_jy(nu, x)


def _regime_edges(nu):
    edges = (2.0, 2.0 * math.sqrt(nu + 1.0), 2.0 * math.sqrt(nu + 2.0),
             _asym_edge(nu), _asym_edge(nu + 1.0))
    for edge in edges:
        yield from (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf))


def test_bessel_jy_at_the_regime_edges():
    for nu in (-0.5, 0.0, 0.5, 3.0, 7.5, 9.0):
        for x in _regime_edges(nu):
            _check_bessel_jy(nu, x)


def test_bessel_jy_carries_the_overflow_flag_of_y():
    # Y_{nu+1} leaves the double range first; separate calls flag Y_nu once
    # Y_{nu+1} overflows, and Y_{nu+1} once Y_{nu+2} does
    for nu, x in ((150.5, 1e-2), (160.0, 0.5), (300.5, 1.0), (178.0, 2.5), (185.0, 3.0)):
        got = bessel_jy(nu, x)
        assert (got[0], got[1], got[2]) == (bessel_j(nu, x), bessel_j(nu + 1.0, x), bessel_y(nu, x))
        assert got[3] == bessel_y(nu + 1.0, x)
        assert got[3].est_abs_error == math.inf
    got = bessel_jy(179.0, 2.5)
    assert got[2] == bessel_y(179.0, 2.5) and got[2].est_abs_error == math.inf
    assert got[3] == bessel_y(180.0, 2.5)


def test_bessel_jy_needs_a_positive_argument():
    with pytest.raises(DomainError):
        bessel_jy(0.5, 0.0)
    with pytest.raises(DomainError):
        bessel_jy(-0.75, 1.0)


def _check_j_pair(nu, x):
    got = j_pair(nu, x)
    jy = bessel_jy(nu, x)
    assert got == (jy[0].value, jy[1].value), (nu, x)
    assert got[0] == bessel_j(nu, x).value, (nu, x)
    if _series_j(nu, x) or not _one_run(nu, x):
        assert got[1] == bessel_j(nu + 1.0, x).value, (nu, x)


@pytest.mark.parametrize("seed", range(4))
def test_j_pair_against_bessel_jy_and_separate_calls(seed):
    for nu, x in _jy_draws(seed, 150):
        _check_j_pair(nu, x)


def test_j_pair_at_the_regime_edges_and_the_origin():
    for nu in (-0.5, 0.0, 0.5, 3.0, 7.5, 9.0):
        for x in _regime_edges(nu):
            _check_j_pair(nu, x)
        # J_{-1/2}(0) is unbounded: both sides give inf
        assert j_pair(nu, 0.0) == (bessel_j(nu, 0.0).value, bessel_j(nu + 1.0, 0.0).value), nu


def test_j_pair_checks_its_arguments_as_bessel_j_does():
    for nu, x in ((-0.75, 1.0), (0.5, -1.0), (math.nan, 1.0), (0.5, math.inf)):
        with pytest.raises(DomainError):
            bessel_j(nu, x)
        with pytest.raises(DomainError):
            j_pair(nu, x)


def _bits(*results):
    return tuple((r.value.hex(), r.est_abs_error.hex()) for r in results)


def test_asymptotic_pairs_equal_separate_calls_bit_for_bit():
    # the orders and arguments of the closure probe and the scan's
    # asymptotic band, with the orders interleaved so that a term table
    # served for the wrong order would show
    rng = random.Random(26)
    for _ in range(600):
        nu = 0.5 * (rng.choice((0, 1, 2, 3, 4, 5, 9, 25)) - 1)
        lo = _asym_edge(nu + 1.0)
        x = lo * (3000.0 / lo) ** rng.random()
        want = _separate(nu, x)
        assert _bits(*bessel_jy(nu, x)) == _bits(*want), (nu, x)
        got = j_pair(nu, x)
        assert (got[0].hex(), got[1].hex()) == (want[0].value.hex(), want[1].value.hex()), (nu, x)


# (nu, x, J_nu, Y_nu, est) of the amplitude-phase expansion, as float.hex;
# bessel_j and bessel_y both carry est
_ASYM_BITS = (
    (-0.5, 60.0, "-0x1.91d637839f613p-4", "-0x1.01353f9e9a752p-5", "0x1.ab87b36069a9ap-51"),
    (0.0, 60.0, "-0x1.76ab23711926bp-4", "0x1.83f6ebdd3278cp-5", "0x1.ab9ceaa07ad20p-51"),
    (0.5, 60.0, "-0x1.01353f9e9a73ap-5", "0x1.91d637839f616p-4", "0x1.ab87b36069a9ap-51"),
    (1.0, 60.0, "0x1.7dbbe4c935819p-5", "0x1.784c447bd685dp-4", "0x1.ab9ec2e8d55b1p-51"),
    (1.5, 60.0, "0x1.8fb181a6914b5p-4", "0x1.0e9a417852f56p-5", "0x1.ab87b36069a9ap-51"),
    (2.0, 60.0, "0x1.7d07deb8b7e83p-4", "-0x1.6ae0c52a46508p-5", "0x1.aba559a218b24p-51"),
    (4.0, 60.0, "-0x1.8d93c5b07b10bp-4", "0x1.1d33013f4e210p-5", "0x1.abda3932f8104p-51"),
    (12.0, 104.5, "-0x1.ddcd13ab054ecp-5", "-0x1.ac1509e435d1ap-5", "0x1.1a23880b6a6c9p-50"),
    (-0.5, 1116.289, "-0x1.972448b200bf9p-7", "-0x1.4e2320ade8e67p-6", "0x1.cd05040bd3726p-49"),
    (0.0, 132.624, "0x1.1a17a45a58808p-4", "-0x1.eefca420d9a4dp-8", "0x1.3dda086080a4cp-50"),
    (0.5, 133.878, "0x1.0850b7d8599f3p-4", "0x1.8e5542e321f06p-6", "0x1.3f4ff3a940b37p-50"),
    (1.0, 629.245, "0x1.2652eccc699d3p-8", "-0x1.01f509af7d72fp-5", "0x1.5a21b00ccf27fp-49"),
    (1.5, 74.917, "-0x1.51080a5a82451p-4", "0x1.549a1fa1c3783p-5", "0x1.ddba85738437bp-51"),
    (2.0, 1250.576, "-0x1.38d96ab62a809p-6", "0x1.89d48e5b6bd03p-7", "0x1.e7f68c01b4d59p-49"),
    (4.0, 1193.611, "0x1.a9eade51f6d72p-7", "-0x1.38c37bc8fa570p-6", "0x1.dcbb21b0dc076p-49"),
    (12.0, 120.218, "0x1.db9b2d169f839p-5", "0x1.69e1519d2b5bbp-5", "0x1.2e966d5d8c935p-50"),
    (0.0, 869.398, "0x1.0cdc6f1ae2e32p-10", "0x1.bb09139f95da3p-6", "0x1.96dc6063fb338p-49"),
    (1.0, 428.832, "0x1.c0d0b4a56ee13p-6", "-0x1.bbece9cbd606ep-6", "0x1.1dbf1c6fc1ce7p-49"),
    (-0.5, 720.694, "-0x1.21372df31a44dp-7", "-0x1.d0fb9eb468521p-6", "0x1.726e28b6c2becp-49"),
    (12.0, 2568.403, "-0x1.2604b28fbf8ecp-7", "-0x1.a7e91d371d1ecp-7", "0x1.5da6e891248d8p-48"),
)


@pytest.mark.parametrize("nu, x, j, y, est", _ASYM_BITS)
def test_asymptotic_values_keep_their_bits(nu, x, j, y, est):
    assert _bits(bessel_j(nu, x), bessel_y(nu, x)) == ((j, est), (y, est))


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

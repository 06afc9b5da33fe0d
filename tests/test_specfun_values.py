"""Kernel evaluations against the frozen high-precision reference table."""
from __future__ import annotations

import math
import os
import random

import mpmath
import pytest

from radialqm.specfun import bessel_i, bessel_j, bessel_k, bessel_y
from radialqm.specfun.bessel_ik import scaled_bessel_k
from radialqm.oracle import load_reference_table

from .conftest import FIXTURE_DIR

KERNELS = {
    "bessel_j": bessel_j,
    "bessel_y": bessel_y,
    "bessel_i": bessel_i,
    "bessel_k": bessel_k,
}

ROWS = load_reference_table(os.path.join(FIXTURE_DIR, "specfun_reference.txt"))


def test_reference_table_is_complete():
    assert len(ROWS) == 256
    assert {row.function for row in ROWS} == set(KERNELS)


@pytest.mark.parametrize("row", ROWS, ids=lambda r: f"{r.function}-nu{r.nu}-x{r.x}")
def test_kernel_matches_reference(row):
    got = KERNELS[row.function](row.nu, row.x)
    assert got.is_finite
    rel = abs(got.value - row.value) / abs(row.value)
    # the acceptance bound is 1e-11 for x <= 10; the wide rows sit a
    # little above machine precision because of argument reduction
    budget = 1e-11 if row.x <= 10.0 else 1e-12
    assert rel < budget, f"{row.function}(nu={row.nu}, x={row.x}): rel error {rel:.3e}"


def test_reference_strings_round_trip():
    # value_str carries the full 33-digit decimal; float(value_str) must
    # be the stored double exactly
    for row in ROWS[::17]:
        assert float(row.value_str) == row.value


def test_origin_values():
    # J_nu(0) = I_nu(0) is 1 at order 0 and 0 above it; below it I is unbounded
    assert bessel_j(0.0, 0.0).value == 1.0
    assert bessel_j(2.5, 0.0).value == 0.0
    assert bessel_i(2.5, 0.0).value == 0.0
    flagged = bessel_i(-0.5, 0.0)
    assert not flagged.is_finite and flagged.est_abs_error == math.inf


def test_error_estimates_are_sane():
    for row in ROWS[::13]:
        got = KERNELS[row.function](row.nu, row.x)
        assert got.est_abs_error >= 0.0
        assert abs(got.value - row.value) <= max(got.est_abs_error, 1e-11 * abs(row.value))


def test_series_error_estimates_cover_mpmath():
    # the ascending series of J and I, where the seed (x/2)^nu / Gamma(nu + 1)
    # carries the rounding of nu + 1 and the error of Gamma; subnormal
    # values keep a nonzero estimate, and orders past nu = 170.6, where
    # Gamma(nu + 1) overflows, take the seed from logs
    rng = random.Random(20121)
    draws = []
    for _ in range(300):
        nu = rng.choice((rng.uniform(-0.5, 2.0), rng.uniform(-0.5, 300.0),
                         0.5 * rng.randint(-1, 600)))
        edge = max(2.0, 2.0 * math.sqrt(nu + 1.0))
        x = rng.choice((rng.uniform(0.0, edge), edge * 10.0 ** rng.uniform(-6.0, 0.0))) or edge
        draws.append((nu, x))
    # both values subnormal
    draws.append((153.3, 1.0))
    assert 0.0 < bessel_j(153.3, 1.0).value < bessel_i(153.3, 1.0).value < 2.3e-308
    misses = []
    with mpmath.workdps(40):
        for nu, x in draws:
            for kernel, exact in ((bessel_j, mpmath.besselj), (bessel_i, mpmath.besseli)):
                got = kernel(nu, x)
                err = abs(mpmath.mpf(got.value) - exact(mpmath.mpf(nu), mpmath.mpf(x)))
                if not err <= got.est_abs_error:
                    misses.append((kernel.__name__, nu, x, float(err), got.est_abs_error))
    assert not misses, misses[:5]


@pytest.mark.parametrize("kernel, nu, x", [
    (bessel_i, 180.0, 30.0),     # 8.54e-118
    (bessel_i, 172.0, 5.0),      # 1.36e-243
    (bessel_j, 199.5, 21.052),   # 9.02e-171
])
def test_series_past_the_gamma_overflow(kernel, nu, x):
    # Gamma(nu + 1) leaves the double range, the seed of the series does not
    exact = mpmath.besseli if kernel is bessel_i else mpmath.besselj
    got = kernel(nu, x)
    with mpmath.workdps(40):
        want = exact(mpmath.mpf(nu), mpmath.mpf(x))
        err = abs(mpmath.mpf(got.value) - want)
    assert err <= got.est_abs_error
    assert err <= 1e-13 * want


@pytest.mark.parametrize("kernel, nu, x, exact", [
    (bessel_k, 100.5, 0.065, lambda nu, x: mpmath.besselk(nu, x)),
    (scaled_bessel_k, 100.5, 0.0629, lambda nu, x: mpmath.exp(x) * mpmath.besselk(nu, x)),
])
def test_k_is_finite_where_only_the_next_order_overflows(kernel, nu, x, exact):
    # about 1.68e306 and 4.84e307, while order nu + 1 is past the double range
    got = kernel(nu, x)
    assert got.is_finite and math.isfinite(got.est_abs_error)
    assert not kernel(nu + 1.0, x).is_finite
    with mpmath.workdps(40):
        err = abs(mpmath.mpf(got.value) - exact(mpmath.mpf(nu), mpmath.mpf(x)))
    assert err <= got.est_abs_error


def test_asymptotic_error_estimates_cover_mpmath():
    # J and Y from the amplitude-phase expansion of their own order
    rng = random.Random(1814)
    misses = []
    with mpmath.workdps(40):
        for _ in range(200):
            nu = rng.choice((rng.uniform(-0.5, 12.0), 0.5 * rng.randint(-1, 24)))
            edge = max(60.0, 0.5 * (nu + 1.0) ** 2 + 20.0)
            x = edge * rng.choice((1.0 + rng.uniform(0.0, 1e-3), 10.0 ** rng.uniform(0.0, 3.0)))
            for kernel, exact in ((bessel_j, mpmath.besselj), (bessel_y, mpmath.bessely)):
                got = kernel(nu, x)
                err = abs(mpmath.mpf(got.value) - exact(mpmath.mpf(nu), mpmath.mpf(x)))
                if not err <= got.est_abs_error:
                    misses.append((kernel.__name__, nu, x, float(err), got.est_abs_error))
    assert not misses, misses[:5]

"""Small-argument auxiliaries for the second-kind Bessel series.

The series for Y_mu and K_mu at small argument need the combinations

    g1(mu) = [1/Gamma(1-mu) - 1/Gamma(1+mu)] / (2 mu)
    g2(mu) = [1/Gamma(1-mu) + 1/Gamma(1+mu)] / 2

for |mu| <= 1/2.  Forming g1 by subtraction loses digits as mu -> 0, so both
are built from the even/odd split of ln(1/Gamma(1+x)) = euler*x
- sum_{k>=2} (-zeta(k))(-x)^k/k..., which turns the difference into a sinh and
removes the cancellation entirely.  The zeta values are generated at import
time by an Euler-Maclaurin tail formula; nothing here calls a library gamma.
"""
from __future__ import annotations

import functools
import math

EULER = 0.5772156649015328606


def _zeta_table() -> list[float]:
    """zeta(k) for k = 2..64; indices 0,1 unused."""
    cut = 40
    table = [0.0, 0.0]
    for k in range(2, 65):
        s = math.fsum(n ** (-float(k)) for n in range(1, cut))
        nk = float(cut) ** (-float(k))
        # Euler-Maclaurin tail through the B6 correction
        s += cut * nk / (k - 1) + nk / 2.0
        s += k * nk / cut / 12.0
        s -= k * (k + 1) * (k + 2) * nk / cut**3 / 720.0
        s += k * (k + 1) * (k + 2) * (k + 3) * (k + 4) * nk / cut**5 / 30240.0
        table.append(s)
    return table


_ZETA = _zeta_table()


def _sinhc(y: float) -> float:
    if abs(y) < 1e-5:
        y2 = y * y
        return 1.0 + y2 / 6.0 + y2 * y2 / 120.0
    return math.sinh(y) / y


@functools.lru_cache(maxsize=64)
def gamma_pair_small(mu: float):
    """(g1, g2, rg_plus, rg_minus) for |mu| <= 1/2.

    rg_plus = 1/Gamma(1+mu), rg_minus = 1/Gamma(1-mu).  Accurate to a few
    ulp uniformly in mu, including mu = 0 where g1 -> -euler and g2 -> 1.
    Memoized: callers pass the fractional part of an order, so few
    distinct mu recur.
    """
    if abs(mu) > 0.5 + 1e-12:
        raise ValueError("gamma_pair_small requires |mu| <= 1/2")
    # ln(1/Gamma(1+x)) = euler*x - zeta(2)x^2/2 + zeta(3)x^3/3 - ...
    even = 0.0
    odd_over_mu = EULER
    xk = mu  # holds mu^(k-1)
    for k in range(2, len(_ZETA)):
        zk_over_k = _ZETA[k] / k
        if k % 2 == 0:
            even -= zk_over_k * xk * mu
        else:
            odd_over_mu += zk_over_k * xk
        xk *= mu
        if abs(xk) * 2.0 < 1e-20:
            break
    odd = odd_over_mu * mu
    e_even = math.exp(even)
    rg_plus = e_even * math.exp(odd)
    rg_minus = e_even * math.exp(-odd)
    g1 = -e_even * odd_over_mu * _sinhc(odd)
    g2 = e_even * math.cosh(odd)
    return g1, g2, rg_plus, rg_minus


def temme_start(mu: float, x: float):
    """(f_0, p_0, q_0) that start the small-x series of Y_mu and K_mu.

    |mu| <= 1/2 and 0 < x <= 2 (Temme's method).
    """
    g1, g2, rg_plus, rg_minus = gamma_pair_small(mu)
    ln2x = math.log(2.0 / x)
    sigma = mu * ln2x
    sinhc = (
        1.0 + sigma * sigma / 6.0 * (1.0 + sigma * sigma / 20.0)
        if abs(sigma) < 1e-5
        else math.sinh(sigma) / sigma
    )
    pimu = math.pi * mu
    fact = 1.0 if abs(pimu) < 1e-15 else pimu / math.sin(pimu)
    half_x_mu = (0.5 * x) ** mu
    f = fact * (g1 * math.cosh(sigma) + g2 * ln2x * sinhc)
    p = 0.5 / (half_x_mu * rg_plus)
    q = 0.5 * half_x_mu / rg_minus
    return f, p, q

"""Root scanning: log grids and strided scans that match full scans."""
from __future__ import annotations

import math
import random

import pytest

from radialqm.errors import DomainError
from radialqm.radial import Dimension
from radialqm.radial.model import DeltaShell, FiniteWell
from radialqm.solvers import delta_shell, quantized_transmission_energies, transmission
from radialqm.solvers.rootfind import bisect, log_grid, scan_roots


def _dense_scan(f, grid):
    """Reference full scan: every grid point, zeros reported at run starts."""
    values = [f(x) for x in grid]
    out = []
    for i in range(len(grid) - 1):
        fa, fb = values[i], values[i + 1]
        if fa == 0.0:
            if i == 0 or values[i - 1] != 0.0:
                left = grid[i - 1] if i > 0 else grid[i]
                out.append((grid[i], 0.0, (left, grid[i + 1])))
            continue
        if fb == 0.0:
            continue
        if (fa > 0.0) != (fb > 0.0):
            out.append(bisect(f, grid[i], grid[i + 1], fa, fb))
    if values and values[-1] == 0.0 and (len(values) == 1 or values[-2] != 0.0):
        left = grid[-2] if len(grid) > 1 else grid[-1]
        out.append((grid[-1], 0.0, (left, grid[-1])))
    return out


def test_log_grid_items_are_the_geometric_formula():
    for lo, hi, per_decade in ((1e-8, 10.75, 512), (1e-300, 10.0, 512), (0.5, 0.6, 3)):
        grid = log_grid(lo, hi, per_decade)
        count = max(int(math.ceil(math.log10(hi / lo) * per_decade)), 8)
        step = math.log(hi / lo) / count
        want = [lo * math.exp(i * step) for i in range(count)] + [hi]
        assert len(grid) == len(want)
        assert list(grid) == want
        assert grid[-1] == hi and grid[-2] == want[-2]
        with pytest.raises(IndexError):
            grid[len(want)]
    with pytest.raises(DomainError):
        log_grid(2.0, 1.0, 512)


def _transmission_cases():
    cases = [(DeltaShell(1.0, 1, 1.0), 1, 4.5, (0.5, 40.0)),
             (FiniteWell(5.0, 1.0), 2, 4.0, (0.5, 30.0)),
             # the intensity dips past the target and back between two samples:
             # crossings near 36.889 and 38.404, then near 12.10 and 12.98
             (DeltaShell(3.22523, 1, 1.30131), 3, 1.46582,
              (1.1053510517306897, 42.87612515621276)),
             (DeltaShell(2.08173, -1, 1.44526), 2, 1.33312,
              (0.41205893179605835, 13.061691255430535))]
    rng = random.Random(20121)
    for _ in range(12):
        R = rng.uniform(0.5, 1.5)
        if rng.random() < 0.5:
            problem = DeltaShell(rng.uniform(0.5, 5.0), rng.choice((-1, 1)), R)
        else:
            problem = FiniteWell(rng.uniform(0.5, 20.0), R)
        lo = rng.uniform(0.5, 2.0) / (R * R)
        cases.append((problem, rng.choice((0, 1, 2, 3)), rng.uniform(0.5, 3.5),
                      (lo, lo * rng.uniform(4.0, 40.0))))
    return cases


def test_strided_transmission_scan_matches_full_scan(monkeypatch, scales):
    strides = []

    def full_scan(f, grid, stride=1):
        strides.append(stride)
        return scan_roots(f, grid, 1)

    found = 0
    for problem, n, target, eps_range in _transmission_cases():
        args = (problem, Dimension(n), target, eps_range, scales)
        fast = quantized_transmission_energies(*args)
        with monkeypatch.context() as m:
            m.setattr(transmission, "scan_roots", full_scan)
            assert quantized_transmission_energies(*args) == fast
        found += len(fast)
    assert found >= 10
    assert min(strides) > 1


def test_strided_scan_keeps_exact_zero_semantics():
    g = [i / 200.0 for i in range(201)]
    every = (2, 3, 4, 7, 8, 64, 500)

    def run_of_zeros(first, last, below=-1.0):
        return lambda x: 0.0 if g[first] <= x <= g[last] else (below if x < g[first] else -below)

    # (residual, strides whose sampled intervals hold at most one crossing)
    cases = [
        (lambda x: x - g[37], every),
        (lambda x: (x - g[64]) * (x - g[131]) * (x - 0.7071), (2, 3, 4, 7, 8)),
        (lambda x: x - g[0], every),
        (lambda x: g[-1] - x, every),
        (run_of_zeros(6, 13), every),
        (run_of_zeros(10, 12), every),
        (run_of_zeros(0, 5), every),
        (run_of_zeros(190, 200), every),
        (run_of_zeros(62, 130, below=1.0), every),
        # crossings next to sampled zeros; zeros that touch without a
        # crossing are seen only where a sample lands on them
        (lambda x: 0.0 if x in (g[55], g[56]) else math.sin(40.0 * x), (2, 5, 7, 11)),
        (lambda x: 0.0 if x == g[60] else math.sin(40.0 * x), (2, 3, 4, 5, 6, 10, 12)),
    ]
    for f, strides in cases:
        want = _dense_scan(f, g)
        assert want
        assert scan_roots(f, g) == want
        for stride in strides:
            assert scan_roots(f, g, stride) == want, stride
    for tiny in ([0.5], [0.5, 0.75]):
        for f in (lambda x: 0.0, lambda x: x - 0.5, lambda x: 0.75 - x):
            assert scan_roots(f, tiny, 4) == _dense_scan(f, tiny)
    assert scan_roots(lambda x: x, []) == []
    with pytest.raises(DomainError):
        scan_roots(lambda x: x, g, 0)


def test_strided_scan_finds_crossing_pairs_between_samples():
    g = [i / 1000.0 for i in range(1001)]
    # a dip through zero narrower than one sampled interval, inside the
    # grid and in its first and last intervals, from either side
    for center in (0.4237, 0.006, 0.9951):
        for side in (1.0, -1.0):
            f = lambda x, c=center, s=side: s * ((x - c) ** 2 - 0.004**2)
            want = _dense_scan(f, g)
            assert len(want) == 2
            for stride in (8, 64, 500):
                assert scan_roots(f, g, stride) == want, (center, side, stride)


def test_shell_level_costs_few_product_evaluations(monkeypatch, scales):
    calls = []
    rise = delta_shell.ik_reciprocal_rise

    def counted(nu, x):
        calls.append(x)
        return rise(nu, x)

    monkeypatch.setattr(delta_shell, "ik_reciprocal_rise", counted)
    for n, gr in ((2, 6.0), (0, 50.0), (1, 4.0), (5, 400.0), (3, 2.1), (250, 300.0)):
        calls.clear()
        assert delta_shell.delta_bound_energy(Dimension(n), gr, 1.0, scales) is not None
        assert len(calls) <= 250, (n, gr, len(calls))

"""Scan-and-bisect root location for smooth one-dimensional residuals.

Grids bracket every sign change at the scan resolution; bisection then
shrinks each bracket to floating-point width, so the reported root is
accurate to a few ulp whenever the residual is continuous.

A scan may sample only every stride-th grid point.  Each sampled sign
change is then bisected over grid indices down to the one grid cell that
holds it, so the root comes out exactly as a full scan of the grid would
give it, provided no sampled interval holds more than one crossing.  Two
crossings between neighbouring samples show as a sample nearer zero than
the samples on either side, all of one sign.  There the scan searches the
grid between those neighbours for the residual's extremum, and if the
extremum has crossed zero, it bisects each side as above.
"""
from __future__ import annotations

import math
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ComputationError, DomainError, require_count

RootRecord = Tuple[float, float, Tuple[float, float]]

_MIN_CELLS = 64


def log_grid(lo: float, hi: float, per_decade: int) -> List[float]:
    """Geometric grid from lo to hi with at least per_decade points per decade."""
    if not (0.0 < lo < hi):
        raise DomainError(f"log grid needs 0 < lo < hi, got {lo!r}, {hi!r}")
    count = max(int(math.ceil(math.log10(hi / lo) * per_decade)), 8)
    step = math.log(hi / lo) / count
    grid = [lo * math.exp(i * step) for i in range(count)]
    grid.append(hi)
    return grid


def uniform_grid(lo: float, hi: float, max_step: float) -> List[float]:
    """Arithmetic grid from lo to hi with spacing at most max_step, at least 64 cells."""
    if not (lo < hi):
        raise DomainError(f"uniform grid needs lo < hi, got {lo!r}, {hi!r}")
    if not (max_step > 0.0):
        raise DomainError(f"max_step must be positive, got {max_step!r}")
    count = max(int(math.ceil((hi - lo) / max_step)), _MIN_CELLS)
    step = (hi - lo) / count
    grid = [lo + i * step for i in range(count)]
    grid.append(hi)
    return grid


def bisect(
    f: Callable[[float], float], lo: float, hi: float, f_lo: float, f_hi: float
) -> RootRecord:
    """Shrink a strict sign-change bracket to floating-point resolution."""
    if (f_lo > 0.0) == (f_hi > 0.0) or f_lo == 0.0 or f_hi == 0.0:
        raise ComputationError("bisection needs a strict sign-change bracket")
    a, b, fa, fb = lo, hi, f_lo, f_hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if not (a < mid < b):
            break
        fm = f(mid)
        if fm == 0.0:
            return mid, 0.0, (a, b)
        if (fm > 0.0) == (fa > 0.0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    root, f_root = (a, fa) if abs(fa) <= abs(fb) else (b, fb)
    return root, f_root, (a, b)


def iter_roots(
    f: Callable[[float], float], grid: Sequence[float], stride: int = 1
) -> Iterator[RootRecord]:
    """Bracketed roots of f on an increasing grid, one at a time in grid order.

    f is evaluated at every stride-th grid point and at the last one.  A
    sign change between two samples is narrowed by bisecting over grid
    indices to the grid cell that holds it, then bisected in floating
    point from that cell.  An exact zero on a grid point is reported once
    per run of zeros, at the run's first point, bracketed by its grid
    neighbours.  With stride 1 every grid point is evaluated.  A sample
    that turns toward zero has the grid between its sampled neighbours
    searched for a pair of crossings (see the module docstring).

    The samples and the turn searches are made at the first step; each
    bracket is narrowed only when the iteration reaches it, so a caller
    that stops early skips the bisections of the roots it did not take.
    """
    stride = require_count("scan stride", stride, 1)
    size = len(grid)
    values: Dict[int, float] = {}

    def value(i: int) -> float:
        if i not in values:
            values[i] = f(grid[i])
        return values[i]

    samples = list(range(0, size, stride))
    if samples and samples[-1] != size - 1:
        samples.append(size - 1)
    for i in samples:
        value(i)

    def turn(j: int) -> Optional[int]:
        # a grid index of opposite sign near a sample that turns toward zero
        here = values[samples[j]]
        near = [values[samples[k]] for k in (j - 1, j + 1) if 0 <= k < len(samples)]
        rise = [abs(v) - abs(here) if (v > 0.0) == (here > 0.0) else 0.0 for v in near]
        if here == 0.0 or min(rise, default=0.0) <= 0.0:
            return None
        g = lambda i: value(i) if here > 0.0 else -value(i)
        lo, hi = samples[max(j - 1, 0)], samples[min(j + 1, len(samples) - 1)]
        while lo < hi:
            mid = (lo + hi) // 2
            if g(mid) <= 0.0 or g(mid + 1) <= 0.0:
                return mid if g(mid) <= 0.0 else mid + 1
            if g(mid + 1) < g(mid):
                lo = mid + 1
            else:
                hi = mid
        return None

    turns = [turn(j) for j in range(len(samples))]
    samples = sorted(set(samples).union(i for i in turns if i is not None))

    def zero_at(i: int, floor: int) -> Optional[RootRecord]:
        # the run of zeros that ends at i, reported at its first point,
        # unless the run reaches back to floor, a sample where it was reported
        end = i
        while i > floor and value(i - 1) == 0.0:
            i -= 1
        if i == floor < end:
            return None
        left = grid[i - 1] if i > 0 else grid[i]
        right = grid[i + 1] if i + 1 < size else grid[i]
        return grid[i], 0.0, (left, right)

    for j, a in enumerate(samples):
        if values[a] == 0.0:
            root = zero_at(a, samples[j - 1] if j > 0 else 0)
            if root is not None:
                yield root
        if j + 1 == len(samples):
            break
        # a crossing lies between nonzero points: step off zeros at either end
        lo, hi = a, samples[j + 1]
        while lo < hi and value(lo) == 0.0:
            lo += 1
        while hi > lo and value(hi) == 0.0:
            hi -= 1
        if lo == hi or (values[lo] > 0.0) == (values[hi] > 0.0):
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            fm = value(mid)
            if fm == 0.0:
                root = zero_at(mid, lo)
                if root is not None:
                    yield root
                break
            if (fm > 0.0) == (values[lo] > 0.0):
                lo = mid
            else:
                hi = mid
        else:
            yield bisect(f, grid[lo], grid[hi], values[lo], values[hi])


def scan_roots(
    f: Callable[[float], float], grid: Sequence[float], stride: int = 1
) -> List[RootRecord]:
    """Every root iter_roots finds, in grid order."""
    return list(iter_roots(f, grid, stride))

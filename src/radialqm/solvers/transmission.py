"""Energies at which the confined-region intensity hits a target value.

The intensity oscillates on a scale set by the interface phase kR, so
the bracketing scan samples a log-spaced grid densely enough that steps
stay well inside one oscillation period at the top of the range.
"""
from __future__ import annotations

import math
from typing import List, Tuple

from ..errors import DomainError, require_positive
from ..radial import Dimension, PhysicalScales
from ..radial.model import DeltaShell, FiniteWell
from .delta_shell import delta_scattering
from .finite_well import finite_well_scattering
from .rootfind import log_grid, scan_roots


def quantized_transmission_energies(
    problem,
    dim: Dimension,
    T_target: float,
    eps_range: Tuple[float, float],
    scales: PhysicalScales,
) -> List[float]:
    """Ascending reduced energies in eps_range with intensity == T_target."""
    T_target = require_positive("target intensity", T_target)
    lo, hi = float(eps_range[0]), float(eps_range[1])
    if not (0.0 < lo < hi and math.isfinite(hi)):
        raise DomainError(f"energy range must satisfy 0 < lo < hi, got {eps_range!r}")

    if isinstance(problem, DeltaShell):
        gamma = problem.sign * scales.reduced_coupling(problem.g)
        solve = lambda eps: delta_scattering(dim, gamma, problem.R, eps, scales)
    elif isinstance(problem, FiniteWell):
        solve = lambda eps: finite_well_scattering(dim, problem.V0, problem.R, eps, scales)
    else:
        raise DomainError(f"unsupported problem type {type(problem).__name__}")
    R = problem.R

    residual = lambda eps: solve(eps).interior_intensity - T_target
    # sample so the top-of-range step stays below an eighth of the kR
    # oscillation; crossings are then located on the 512-per-decade grid
    kr_per_decade = int(math.ceil(8.0 * math.sqrt(hi) * R * math.log(10.0) / math.pi))
    per_decade = max(512, kr_per_decade)
    found = scan_roots(
        residual, log_grid(lo, hi, per_decade), stride=per_decade // kr_per_decade
    )
    return [eps for eps, _, _ in found]

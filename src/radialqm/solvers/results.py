"""Result records returned by the closed-form solvers."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class TranscendentalRoot:
    """One solved root of a matching condition.

    eps is the magnitude of the reduced energy at the root, residual the
    value of the defining equation there, and bracket a reduced-energy
    interval whose endpoints straddle the sign change.
    """

    eps: float
    residual: float
    bracket: Tuple[float, float]


@dataclass(frozen=True)
class ScatteringResult:
    """Stationary scattering state summary at one energy.

    interior_coeff multiplies the regular interior piece, exterior_out_coeff
    the outgoing exterior piece whose incoming partner has unit amplitude.
    exterior_reflection and interior_intensity are the squared moduli.
    paper_T re-evaluates the closed-form rate printed in the source
    derivation; it is carried for comparison only and the numerically
    solved coefficients stay authoritative.
    """

    eps: float
    interior_coeff: complex
    exterior_out_coeff: complex
    exterior_reflection: float
    interior_intensity: float
    paper_T: float


@dataclass(frozen=True)
class ClosureProbe:
    """Truncated, smeared continuum-overlap sample for one mode pair."""

    k: float
    k_prime: float
    r_max: float
    smear_width: float
    value: float

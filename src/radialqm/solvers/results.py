"""Result records returned by the closed-form solvers."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..errors import DomainError, require_positive


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

    def __post_init__(self) -> None:
        require_positive("root energy", self.eps)
        if len(self.bracket) != 2:
            raise DomainError("bracket must hold exactly two endpoints")


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

    def __post_init__(self) -> None:
        require_positive("scattering energy", self.eps)


@dataclass(frozen=True)
class ClosureProbe:
    """Truncated, smeared continuum-overlap sample for one mode pair."""

    k: float
    k_prime: float
    r_max: float
    smear_width: float
    value: float

    def __post_init__(self) -> None:
        require_positive("wavenumber k", self.k)
        require_positive("wavenumber k_prime", self.k_prime)
        require_positive("r_max", self.r_max)
        require_positive("smear width", self.smear_width)

"""Piecewise radial wave-functions built from tagged analytic forms.

A wave-function is a list of pieces, each an interval on r >= 0 plus one
symbolic form times a real coefficient.  The cylinder tag (BesselJ) and
the modified tags (BesselI, BesselK) denote amplitude
r^(-nu) * Z_nu(scale * r); the Gauss tags denote the oscillator families
exp(-scale*r^2/2) * L_N^(alpha)(scale*r^2) and
exp(-scale*r^2/2) * H_N(sqrt(scale)*r).  Tags keep solutions
introspectable: normalization takes each piece's weighted mass in closed
form by tag instead of integrating opaque callables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Union

from ..errors import ComputationError, DomainError, OriginDivergenceError, require_positive
from ..specfun import (
    bessel_i,
    bessel_j,
    bessel_k,
    gamma_fn,
    hermite,
    laguerre,
)
from .model import Dimension, EnergyLevel

BESSEL_J = "BesselJ"
BESSEL_I = "BesselI"
BESSEL_K = "BesselK"
GAUSS_LAGUERRE = "GaussLaguerre"
GAUSS_HERMITE = "GaussHermite"

ALL_TAGS = (BESSEL_J, BESSEL_I, BESSEL_K, GAUSS_LAGUERRE, GAUSS_HERMITE)

# Cylinder tags: kernel, and the signs (s1, s2) of Lommel's primitive
# int r Z_nu(k r)^2 dr = (r^2/2) (Z_nu^2 + s1 Z_(nu+1)^2 + s2 (2 nu/x) Z_nu Z_(nu+1)), x = k r.
# The kernels are looked up at call time, so a wrapper patched onto this module sees every call.
_CYLINDER = {
    BESSEL_J: (lambda nu, x: bessel_j(nu, x), (1.0, -1.0)),
    BESSEL_I: (lambda nu, x: bessel_i(nu, x), (-1.0, -1.0)),
    BESSEL_K: (lambda nu, x: bessel_k(nu, x), (-1.0, 1.0)),
}
# Forms that blow up as r -> 0.
IRREGULAR_TAGS = frozenset({BESSEL_K})
GAUSS_TAGS = frozenset({GAUSS_LAGUERRE, GAUSS_HERMITE})


def _radial_power(r: float, nu: float) -> float:
    """r^(-nu), the factor that turns Z_nu(k r) into a radial mode."""
    try:
        return r ** (-nu)
    except OverflowError:
        raise ComputationError(
            f"r^(-nu) leaves the double range at r = {r:.3g}, order {nu}"
        ) from None


@dataclass(frozen=True)
class Piece:
    """One interval of a radial solution: coeff times the form named by tag.

    scale is the wavenumber k (cylinder/modified families) or the
    inverse-square length mu (Gauss families).  degree and alpha only
    apply to the Gauss tags.
    """

    r_lo: float
    r_hi: float
    tag: str
    coeff: float
    scale: float
    degree: Optional[int] = None
    alpha: Optional[float] = None

    def __post_init__(self) -> None:
        if not (self.r_lo >= 0.0 and math.isfinite(self.r_lo)):
            raise DomainError(f"piece lower bound must be finite and >= 0, got {self.r_lo!r}")
        if not self.r_hi > self.r_lo:
            raise DomainError(f"piece needs r_hi > r_lo, got [{self.r_lo!r}, {self.r_hi!r}]")
        if self.tag not in ALL_TAGS:
            raise DomainError(f"unknown form tag {self.tag!r}")
        require_positive("piece scale", self.scale)
        if self.tag in GAUSS_TAGS and self.degree is None:
            raise DomainError("Gauss forms need a polynomial degree")

    @property
    def is_unbounded(self) -> bool:
        return math.isinf(self.r_hi)

    def contains(self, r: float) -> bool:
        return self.r_lo <= r <= self.r_hi

    def irregular_at_origin(self) -> bool:
        return self.r_lo == 0.0 and self.tag in IRREGULAR_TAGS and self.coeff != 0.0

    def _form_value(self, nu: float, r: float) -> float:
        if self.tag in GAUSS_TAGS:
            mu = self.scale
            envelope = math.exp(-0.5 * mu * r * r)
            if self.tag == GAUSS_LAGUERRE:
                return envelope * laguerre(self.degree, self.alpha, mu * r * r)
            return envelope * hermite(self.degree, math.sqrt(mu) * r)
        if r == 0.0:
            # the limit of r^(-nu) Z_nu(k r), finite for the regular forms
            if self.tag in IRREGULAR_TAGS:
                raise OriginDivergenceError(f"form {self.tag} is singular at the origin")
            return (0.5 * self.scale) ** nu / gamma_fn(nu + 1.0).value
        kernel, _ = _CYLINDER[self.tag]
        return _radial_power(r, nu) * kernel(nu, self.scale * r).value

    # A zero coefficient never evaluates its form (0 * inf is nan), and
    # 0.0 + turns a -0.0 product into +0.0.
    def amplitude(self, nu: float, r: float) -> float:
        return 0.0 if self.coeff == 0.0 else 0.0 + self.coeff * self._form_value(nu, r)


@dataclass(frozen=True)
class RadialWaveFunction:
    """Piecewise solution Psi(r) with an overall normalization constant.

    Sampling multiplies the stored piece combination by norm_constant,
    so normalization rescales one number and never touches the
    coefficients a solver chose.
    """

    dimension: Dimension
    energy: Union[EnergyLevel, float]
    pieces: tuple[Piece, ...]
    norm_constant: float = 1.0

    def __post_init__(self) -> None:
        if not self.pieces:
            raise DomainError("wave-function needs at least one piece")
        if not (self.norm_constant >= 0.0 and math.isfinite(self.norm_constant)):
            raise DomainError(f"norm constant must be finite and >= 0, got {self.norm_constant!r}")
        for earlier, later in zip(self.pieces, self.pieces[1:]):
            if later.r_lo < earlier.r_hi:
                raise DomainError("pieces must be ordered and non-overlapping")

    @property
    def eps(self) -> float:
        if isinstance(self.energy, EnergyLevel):
            return self.energy.eps
        return float(self.energy)

    def piece_index_at(self, r: float) -> int:
        if not (r >= 0.0 and math.isfinite(r)):
            raise DomainError(f"radius must be finite and >= 0, got {r!r}")
        for idx, piece in enumerate(self.pieces):
            if piece.contains(r):
                return idx
        return -1

    def sample(self, r: float) -> float:
        idx = self.piece_index_at(r)
        if idx < 0:
            return 0.0
        value = self.pieces[idx].amplitude(self.dimension.nu, r)
        return self.norm_constant * value

    def with_norm_constant(self, constant: float) -> "RadialWaveFunction":
        return replace(self, norm_constant=constant)

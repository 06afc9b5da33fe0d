"""Potential-free continuum mode, regular at the origin.

The single regular piece carries equal incoming and outgoing circular
amplitudes by construction, since the first-kind function is the mean of
the two third-kind ones.
"""
from __future__ import annotations

import math

from ..errors import require_positive
from ..radial import BESSEL_J, Dimension, Piece, RadialWaveFunction


def free_mode(dim: Dimension, eps: float) -> RadialWaveFunction:
    """Unit-amplitude regular mode at reduced energy eps > 0."""
    eps = require_positive("mode energy", eps)
    k = math.sqrt(eps)
    piece = Piece(0.0, math.inf, BESSEL_J, 1.0, scale=k)
    return RadialWaveFunction(dim, eps, (piece,))

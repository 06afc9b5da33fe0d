"""The interface solve at r = R shared by both scattering problems.

Outside R the mode is an incoming wave of unit amplitude plus an outgoing
one, r^(-nu) [H2_nu(kr) + b H1_nu(kr)].  Inside it is a times the regular
interior mode.  Matching at R is one 2x2 system: value continuity, and
slope continuity up to the shell's jump.
"""
from __future__ import annotations

import cmath
from typing import Tuple

from ..errors import ComputationError, MatchingError


def solve_interface(
    value: float, slope: float, k: float, j0: float, j1: float, y0: float, y1: float
) -> Tuple[complex, complex]:
    """Interior amplitude a and outgoing amplitude b at the interface.

    value and slope are R^nu u(R) and -R^nu u'(R) for the interior mode u
    at unit amplitude, with the slope jump across R already added in;
    j0, j1, y0, y1 are J and Y of orders nu and nu + 1 at kR.
    """
    h1_0 = complex(j0, y0)
    h1_1 = complex(j1, y1)
    h2_0 = complex(j0, -y0)
    h2_1 = complex(j1, -y1)
    m11, m12 = complex(value), -h1_0
    m21, m22 = complex(slope), -k * h1_1
    r1, r2 = h2_0, k * h2_1
    det = m11 * m22 - m12 * m21
    if det == 0:
        raise MatchingError("interface system is singular at this energy")
    a = (r1 * m22 - m12 * r2) / det
    b = (m11 * r2 - r1 * m21) / det
    if not (cmath.isfinite(a) and cmath.isfinite(b)):
        # Y_nu overflows, or J_nu Y_nu products do, at high order and small kR
        raise ComputationError("interface solve leaves the double range at this order and kR")
    return a, b

"""Hand-rolled special functions for radial quantum problems.

Every evaluator returns an :class:`EvalResult` carrying the value and a
running absolute-error estimate, except the orthogonal polynomials and
zero finder, whose recurrences are exact enough to return plain floats.
"""

from .bessel_ik import bessel_i, bessel_k
from .bessel_jy import bessel_j, bessel_y
from .gammafn import gamma_fn
from .hyper import hermite, kummer_m, kummer_u, laguerre
from .result import EvalResult
from .zeros import bessel_j_zero, bessel_j_zeros

__all__ = [
    "EvalResult",
    "bessel_j",
    "bessel_y",
    "bessel_i",
    "bessel_k",
    "bessel_j_zero",
    "bessel_j_zeros",
    "gamma_fn",
    "kummer_m",
    "kummer_u",
    "hermite",
    "laguerre",
]

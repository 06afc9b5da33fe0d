"""Package-wide exception taxonomy.

Domain violations raise DomainError (PoleError for evaluation exactly at a
pole).  Quantities that are mathematically infinite or non-integrable raise a
DivergenceError subtype so callers can tell an unnormalizable candidate from
a plain numerical failure.  Iterative routines that fail to converge raise
ComputationError.  require_positive and require_count are the package's one
check for positive reals and for whole counts.
"""
from __future__ import annotations

import math


class RadialQMError(Exception):
    """Base class for all package errors."""


class DomainError(RadialQMError, ValueError):
    """Argument outside the operation's domain."""


class PoleError(DomainError):
    """Evaluation exactly at a pole of the function."""


class DivergenceError(RadialQMError, ArithmeticError):
    """A mathematically divergent quantity was requested."""


class OriginDivergenceError(DivergenceError):
    """Non-integrable divergence at r = 0.

    Signals a second-kind-contaminated candidate wave-function whose
    probability integral does not exist down to the origin.
    """


class NonNormalizableError(DivergenceError):
    """The wave-function is not square-integrable on its full domain."""


class ComputationError(RadialQMError, ArithmeticError):
    """An iterative numerical procedure failed to converge."""


class MatchingError(ComputationError):
    """Piecewise matching of a wave-function failed or is ill-posed."""


def require_positive(name: str, value: float) -> float:
    """value as a float; DomainError unless it is positive and finite."""
    value = float(value)
    if not (value > 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return value


def require_count(name: str, value: int, minimum: int) -> int:
    """value as an int; DomainError unless it is a whole number >= minimum."""
    if int(value) != value:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)

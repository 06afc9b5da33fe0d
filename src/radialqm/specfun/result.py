"""Evaluation result carrying a value and an error estimate."""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class EvalResult:
    """A computed function value with an estimated absolute error.

    `est_abs_error` is a working estimate, not a certified bound.  An
    infinite estimate flags overflow or divergence; the value is then
    also non-finite.
    """

    value: float
    est_abs_error: float

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)


def overflow_result(signed: float = math.inf) -> EvalResult:
    """EvalResult flagging a value too large for double precision."""
    return EvalResult(value=signed, est_abs_error=math.inf)

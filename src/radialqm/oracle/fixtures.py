"""Frozen reference table for the cylinder-function kernels.

The table is produced once by `write_reference_table`, which drives the
arbitrary-precision series engine, and is committed under tests/fixtures.
Double-precision tests read it back through `load_reference_table`;
regenerating the file is a deliberate act, never part of a test run.

File format, one row per line:

    function  nu  x  value

where `function` is a kernel id (bessel_j, bessel_y, bessel_i, bessel_k),
`nu` and `x` round-trip exactly as doubles, and `value` carries 33
significant digits.  Lines starting with `#` are comments.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from mpmath import mp

from .series import series_reference

_CORE_X = ("0.1", "0.5", "1.0", "2.0", "3.0", "5.0", "10.0")
_WIDE_X = ("20.0", "30.0")
_CORE_NU = ("-0.5", "0.0", "0.5", "1.0", "1.5", "2.5", "7.0", "50.0")
_WIDE_NU = ("0.0", "0.5", "2.5", "7.0")
_FUNCTIONS = ("bessel_j", "bessel_y", "bessel_i", "bessel_k")
_DIGITS = 33

_HEADER = f"""\
# Cylinder-function reference values, written by
# radialqm.oracle.fixtures.write_reference_table from the ascending-series
# engine (radialqm.oracle.series) at {_DIGITS} significant digits.
# Columns: function  nu  x  value
"""


@dataclass(frozen=True)
class ReferenceRow:
    function: str
    nu: float
    x: float
    value: float
    value_str: str


def _grid():
    for nu in _CORE_NU:
        for x in _CORE_X:
            yield nu, x
    for nu in _WIDE_NU:
        for x in _WIDE_X:
            yield nu, x


def write_reference_table(path):
    """Generate the frozen table at `path`. Returns the number of rows."""
    lines = [_HEADER]
    count = 0
    for nu_s, x_s in _grid():
        for function in _FUNCTIONS:
            value = series_reference(function, mp.mpf(nu_s), mp.mpf(x_s), _DIGITS)
            value_s = mp.nstr(value, _DIGITS, strip_zeros=False)
            lines.append(f"{function} {nu_s} {x_s} {value_s}\n")
            count += 1
    Path(path).write_text("".join(lines))
    return count


def load_reference_table(path):
    """Read the frozen table back as a list of ReferenceRow."""
    rows = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        function, nu_s, x_s, value_s = line.split()
        rows.append(
            ReferenceRow(
                function=function,
                nu=float(nu_s),
                x=float(x_s),
                value=float(value_s),
                value_str=value_s,
            )
        )
    if not rows:
        raise ValueError(f"no reference rows found in {path}")
    return rows

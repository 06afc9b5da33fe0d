"""Frozen reference table for the cylinder-function kernels.

The table is produced once by tools/write_kernel_fixture.py, which drives
the arbitrary-precision series engine, and is committed under
tests/fixtures.  Double-precision tests read it back through
`load_reference_table`; regenerating the file is a deliberate act, never
part of a test run.

File format, one row per line:

    function  nu  x  value

where `function` is a kernel id (bessel_j, bessel_y, bessel_i, bessel_k),
`nu` and `x` round-trip exactly as doubles, and `value` carries 33
significant digits.  Lines starting with `#` are comments.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class ReferenceRow:
    function: str
    nu: float
    x: float
    value: float
    value_str: str


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

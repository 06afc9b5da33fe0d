"""Write the frozen reference table that the cylinder-function tests read.

    python3 tools/write_kernel_fixture.py [--out tests/fixtures/specfun_reference.txt]

Drives the arbitrary-precision series engine (radialqm.oracle.series) over
a fixed (nu, x) grid and writes one row per kernel and grid point in the
format radialqm.oracle.fixtures.load_reference_table reads.  Regenerating
the table is a deliberate act, never part of a test run: write it
elsewhere and `cmp` it against the committed file.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from mpmath import mp

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "src"))
from radialqm.oracle.series import series_reference  # noqa: E402

_CORE_X = ("0.1", "0.5", "1.0", "2.0", "3.0", "5.0", "10.0")
_WIDE_X = ("20.0", "30.0")
_CORE_NU = ("-0.5", "0.0", "0.5", "1.0", "1.5", "2.5", "7.0", "50.0")
_WIDE_NU = ("0.0", "0.5", "2.5", "7.0")
_FUNCTIONS = ("bessel_j", "bessel_y", "bessel_i", "bessel_k")
_DIGITS = 33

_HEADER = f"""\
# Cylinder-function reference values, written by
# tools/write_kernel_fixture.py from the ascending-series
# engine (radialqm.oracle.series) at {_DIGITS} significant digits.
# Columns: function  nu  x  value
"""


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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=HERE / "tests" / "fixtures" / "specfun_reference.txt",
                        help="table to write (default: the committed fixture)")
    args = parser.parse_args()
    print(write_reference_table(args.out), "rows written to", args.out)


if __name__ == "__main__":
    main()

"""Independent cross-checks: series references and finite-difference spectra.

Nothing in here shares numerics with :mod:`radialqm.specfun` or the
solvers; the point is an arithmetic path with no common code to fail in
common.  Plain data containers (potentials, energy levels) and the error
types are shared; they carry no arithmetic.  Scattering sweeps return
bare amplitudes, never a solver record.
"""

from .fd import Grid, fd_bound_spectrum, fd_scattering, shooting_bound_levels
from .fixtures import ReferenceRow, load_reference_table
from .report import OracleReport, validation_report
from .series import SeriesDomainError, series_reference

__all__ = [
    "series_reference",
    "SeriesDomainError",
    "ReferenceRow",
    "load_reference_table",
    "Grid",
    "fd_bound_spectrum",
    "fd_scattering",
    "shooting_bound_levels",
    "OracleReport",
    "validation_report",
]

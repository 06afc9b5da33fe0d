"""Cross-validation matrix and the JSON validation report.

This is the one oracle module allowed to import the production side:
it lines up closed-form solver output against the finite-difference,
shooting, and arbitrary-precision series oracles and aggregates the
comparison into :class:`OracleReport` rows.  The numeric kernels on the
two sides stay disjoint; only the orchestration meets here.

Finite-difference spectra are solved on three grids whose spacings grow
by a factor p, and Richardson-extrapolated to remove the h^2 term of the
second-order scheme; the coarser pair's extrapolation gives the error
estimate.  Convergence flags of the other rows come from paired
evaluations: scattering rows at a shifted matching radius, shooting rows
at a shifted wall, series rows at ten extra digits.  A row is converged
when its error estimate fits inside its tolerance budget.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .. import __version__
from ..errors import ComputationError
from ..radial.model import (
    DeltaShell,
    Dimension,
    FiniteWell,
    Free,
    Harmonic,
    InfiniteWell,
    PhysicalScales,
    Potential,
)
from ..radial.norms import norm_integral
from ..solvers import (
    delta_bound_energy,
    delta_scattering,
    finite_well_bound_spectrum,
    finite_well_scattering,
    infinite_well_spectrum,
    infinite_well_wavefunction,
    oscillator_spectrum,
    oscillator_wavefunction,
)
from ..specfun import (
    bessel_i,
    bessel_j,
    bessel_j_zero,
    bessel_k,
    bessel_y,
    hermite,
    kummer_u,
)
from .fd import Grid, fd_bound_spectrum, fd_scattering, series_memo, shooting_bound_levels
from .series import series_reference

_REL_FLOOR = 1e-12
_SPECTRUM_TOL = 1e-8
_SHOOTING_TOL = 1e-6
_SCATTERING_TOL = 1e-6
_SHELL_BOUND_TOL = 1e-7

# the well of the finite-well and shooting rows
_WELL = "n = 2 finite well (V0 = 18, R = 1)"


@dataclass(frozen=True)
class OracleReport:
    """One closed-form-vs-oracle comparison row."""

    id: str
    closed_form: float
    oracle: float
    rel_diff: float
    converged: bool


def _rel(closed: float, oracle: float) -> float:
    return abs(closed - oracle) / max(abs(closed), _REL_FLOOR)


# a row and its registered tolerance
_Pair = Tuple[OracleReport, float]


def _row(
    rid: str,
    closed: float,
    fine: float,
    check: float,
    budget: float,
    reduce: float = 1.0,
) -> _Pair:
    gap = abs(check - fine) / (reduce * max(abs(fine), _REL_FLOOR))
    row = OracleReport(
        id=rid,
        closed_form=float(closed),
        oracle=float(fine),
        rel_diff=_rel(float(closed), float(fine)),
        converged=gap <= budget,
    )
    return row, budget


def _levels(found: Sequence, count: int, what: str) -> Sequence:
    """The first ``count`` entries of ``found``; ComputationError naming the first missing level."""
    if len(found) < count:
        raise ComputationError(
            f"the report needs {count} levels of the {what}, but level {len(found) + 1} is missing"
        )
    return found[:count]


def _extrapolated_rows(
    cases: Sequence[Tuple[str, float, int]],
    dim: Dimension,
    pot: Potential,
    r_max: float,
    points: int,
    p: int,
    budget: float,
    sc: PhysicalScales,
) -> List[_Pair]:
    """Rows of (id, closed-form eps, level index) from three grids.

    The grids have ``points``, ``points / p`` and ``points / p^2`` cells
    (``points`` divisible by p^2).  The row's oracle is the Richardson
    value (p^2 fine - mid) / (p^2 - 1); the same extrapolation of the
    coarser pair differs from it by about p^4 - 1 times its h^4 remainder.
    """
    count = max(i for _, _, i in cases) + 1
    fine, mid, coarse = (
        fd_bound_spectrum(dim, pot, Grid(r_max, points // p**k), count, sc) for k in (0, 1, 2)
    )
    q = p * p
    out: List[_Pair] = []
    for rid, closed, i in cases:
        oracle = (q * fine[i].eps - mid[i].eps) / (q - 1)
        check = (q * mid[i].eps - coarse[i].eps) / (q - 1)
        out.append(_row(rid, closed, oracle, check, budget, reduce=q * q - 1.0))
    return out


def _well_rows(sc: PhysicalScales) -> List[_Pair]:
    out: List[_Pair] = []
    for n in (0, 1, 2, 4):
        dim = Dimension(n)
        closed = infinite_well_spectrum(dim, 1.0, 2, sc)
        cases = [(f"infinite_well_n{n}_N{i + 1}", closed[i].eps, i) for i in (0, 1)]
        out += _extrapolated_rows(cases, dim, InfiniteWell(R=1.0), 1.0, 1000, 2, _SPECTRUM_TOL, sc)
    return out


def _oscillator_rows(sc: PhysicalScales) -> List[_Pair]:
    # the half-line oracle sees only the even ladder when n = 0, hence
    # the index map k -> 2k on the closed-form side
    out: List[_Pair] = []
    for n in (0, 1, 2):
        dim = Dimension(n)
        closed = oscillator_spectrum(dim, 1.0, 5, sc)
        ladder = (0, 2) if n == 0 else (0, 1)
        cases = [(f"oscillator_n{n}_N{j}", closed[j].eps, k) for k, j in enumerate(ladder)]
        out += _extrapolated_rows(cases, dim, Harmonic(omega=1.0), 9.0, 2000, 2, _SPECTRUM_TOL, sc)
    return out


def _finite_well_rows(sc: PhysicalScales, well: Sequence) -> List[_Pair]:
    # the step at R = 1 sits on a cell edge of all three grids
    dim = Dimension(2)
    closed = _levels(well, 2, _WELL)
    cases = [(f"finite_well_n2_N{i + 1}", closed[i][0].eps, i) for i in (0, 1)]
    return _extrapolated_rows(cases, dim, FiniteWell(V0=18.0, R=1.0), 6.0, 6000, 2, _SPECTRUM_TOL, sc)


def _shell_pair(sc: PhysicalScales) -> Tuple:
    """The attractive and the barrier n = 1 shell (g = 1.5, R = 1) scattered at eps = 5."""
    gamma = sc.reduced_coupling(1.5)
    return tuple(delta_scattering(Dimension(1), g, 1.0, 5.0, sc) for g in (-gamma, gamma))


def _scattering_rows(sc: PhysicalScales, shells: Tuple) -> List[_Pair]:
    # matching radii of each row and of its check
    near, far = 2.5, 3.25
    dim1, dim2 = Dimension(1), Dimension(2)
    attractive, barrier = shells
    cases = (
        ("free_interior_intensity", dim1, Free(), 2.0, 4.0, 1e-8),
        ("delta_scattering_attractive_n1", dim1, DeltaShell(g=1.5, sign=-1, R=1.0), 5.0,
         attractive.interior_intensity, _SCATTERING_TOL),
        ("delta_scattering_barrier_n1", dim1, DeltaShell(g=1.5, sign=1, R=1.0), 5.0,
         barrier.interior_intensity, _SCATTERING_TOL),
        ("finite_well_scattering_n2", dim2, FiniteWell(V0=5.0, R=1.0), 2.0,
         finite_well_scattering(dim2, 5.0, 1.0, 2.0, sc).interior_intensity, _SCATTERING_TOL),
    )
    out: List[_Pair] = []
    for rid, dim, pot, eps, closed, budget in cases:
        fine, _ = fd_scattering(dim, pot, eps, near, sc)
        chk, _ = fd_scattering(dim, pot, eps, far, sc)
        out.append(_row(rid, closed, abs(fine) ** 2, abs(chk) ** 2, budget))
    return out


def _shooting_rows(sc: PhysicalScales, well: Sequence) -> List[_Pair]:
    out: List[_Pair] = []

    dim1 = Dimension(1)
    osc = Harmonic(omega=1.0)
    closed = oscillator_spectrum(dim1, 1.0, 2, sc)
    lo, hi = 0.5 * closed[0].eps, 1.2 * closed[1].eps
    got, chk = (
        _levels(shooting_bound_levels(dim1, osc, wall, lo, hi, sc, count=2), 2,
                f"n = 1 oscillator shot to a wall at {wall}")
        for wall in (7.0, 8.0)
    )
    for k in (0, 1):
        out.append(_row(f"shooting_oscillator_n1_N{k}", closed[k].eps, got[k], chk[k], _SHOOTING_TOL))

    dim2 = Dimension(2)
    pot = FiniteWell(V0=18.0, R=1.0)
    deepest = _levels(well, 1, _WELL)[0][0]
    lo, hi = -1.1 * deepest.eps, -0.9 * deepest.eps
    got, chk = (
        _levels(shooting_bound_levels(dim2, pot, wall, lo, hi, sc, count=1), 1,
                f"{_WELL} shot to a wall at {wall}")
        for wall in (3.0, 3.5)
    )
    out.append(_row("shooting_finite_well_n2_N1", -deepest.eps, got[0], chk[0], _SHOOTING_TOL))
    return out


def _series_combination(digits: int) -> float:
    k0 = series_reference("bessel_k", 0.0, 2.0, digits)
    i1 = series_reference("bessel_i", 1.0, 2.0, digits)
    k1 = series_reference("bessel_k", 1.0, 2.0, digits)
    i0 = series_reference("bessel_i", 0.0, 2.0, digits)
    return float(k0 * i1 + k1 * i0)


def _series_rows() -> List[_Pair]:
    out = [_row("series_wronskian_ik_x2", 0.5, _series_combination(25), _series_combination(35), 1e-13)]
    probes = (
        ("kernel_vs_series_j", "bessel_j", 0.5, 1.0, bessel_j),
        ("kernel_vs_series_y", "bessel_y", 0.0, 2.0, bessel_y),
        ("kernel_vs_series_k", "bessel_k", 1.5, 2.0, bessel_k),
    )
    for rid, fid, nu, x, kernel in probes:
        closed = kernel(nu, x).value
        fine = float(series_reference(fid, nu, x, 30))
        chk = float(series_reference(fid, nu, x, 40))
        out.append(_row(rid, closed, fine, chk, 1e-11))
    return out


def _shell_bound_rows(sc: PhysicalScales) -> List[_Pair]:
    # R = 1 sits on a cell center of every grid (1/h = 904.5 and 3757.5
    # on the finest), which a 3x coarsening keeps and a 2x one would not;
    # the kinked eigenfunction leaves a larger h^4 remainder than the
    # smooth rows, so these carry their own budget
    out: List[_Pair] = []
    cases = (
        ("delta_shell_bound_n2", 2, 3.0, 6.0, 5427),
        ("delta_shell_bound_strong_n0", 0, 25.0, 1.6, 6012),
    )
    for rid, n, g, r_max, points in cases:
        dim = Dimension(n)
        closed = delta_bound_energy(dim, sc.reduced_coupling(g), 1.0, sc)[0]
        pot = DeltaShell(g=g, sign=-1, R=1.0)
        out += _extrapolated_rows([(rid, closed.eps, 0)], dim, pot, r_max, points, 3, _SHELL_BOUND_TOL, sc)
    return out


def _printed_oscillator_mass() -> float:
    # the printed constant at n = 2, N = 0, mu = 1, integrated brute-force
    # with the r^2 weight; the Laguerre factor L_0 is exactly 1
    c2 = 2.0 / math.gamma(2.5)
    r = np.linspace(0.0, 12.0, 48001)
    f = c2 * r**2 * np.exp(-r * r)
    return float(np.trapezoid(f, r))


def _discrepancies(
    sc: PhysicalScales, rows: Dict[str, OracleReport], well: Sequence, shells: Tuple
) -> List[Dict]:
    """Every printed-formula mismatch, with freshly computed evidence.

    rows holds the report's comparison rows by id; an entry that cites the
    oracle copies the swept or discretized values from them.  well is the
    V0 = 18 spectrum and shells the signed shell pair of the comparison rows.
    """
    entries: List[Dict] = []
    dim1 = Dimension(1)
    dim2 = Dimension(2)

    z = bessel_j_zero(0.5, 1)
    psi = infinite_well_wavefunction(dim2, 1.0, 1, sc)
    entries.append(
        {
            "id": "printed_infinite_well_norm_constant",
            "printed": "hard-wall mode and normalization built from the half-shifted "
            "orders (nu+1)/2 and (nu-3)/2, radicand left at the running radius",
            "implemented": "C J_nu(z_N r/R) r^(-(n-1)/2) with C = sqrt(2)/(R |J_(nu+1)(z_N)|)",
            "evidence": {
                "n": 2,
                "wall_argument": z,
                "printed_order_value_at_wall": bessel_j(0.75, z).value,
                "implemented_order_value_at_wall": bessel_j(0.5, z).value,
                "implemented_weighted_mass": norm_integral(psi, 1.0, 1e-10),
            },
            "resolution": "constant rebuilt from the zero-point integral identity; the "
            "half-shifted order does not vanish at the wall, so the printed mode fails "
            "the boundary condition it is meant to satisfy",
        }
    )

    fdosc = [sc.physical_energy(rows[f"oscillator_n2_N{k}"].oracle) for k in (0, 1)]
    entries.append(
        {
            "id": "oscillator_ladder_symbol",
            "printed": "ladder written as hbar omega (2N + (m+1)/2) with a symbol "
            "that collides with the particle mass",
            "implemented": "E_N = hbar omega (2N + (n+1)/2) with n the angular dimension",
            "evidence": {
                "n": 2,
                "implemented_E": [1.5, 3.5],
                "fd_oracle_E": fdosc,
            },
            "resolution": "the symbol is read as the angular dimension; the "
            "finite-difference eigenvalues confirm the (n+1)/2 offset",
        }
    )

    psi_o = oscillator_wavefunction(dim2, 1.0, 0, sc)
    entries.append(
        {
            "id": "printed_oscillator_norm_constant",
            "printed": "normalization mu^(1/4) sqrt(2 Gamma(N+1) / Gamma(N+(n+3)/2))",
            "implemented": "C = sqrt(2 mu^((n+1)/2) N! / Gamma(N+(n+1)/2)) from the "
            "weighted orthogonality of the generalized Laguerre polynomials",
            "evidence": {
                "n": 2,
                "N": 0,
                "printed_weighted_mass": _printed_oscillator_mass(),
                "implemented_weighted_mass": norm_integral(psi_o, math.inf, 1e-10),
            },
            "resolution": "the printed constant leaves the r^n-weighted mass at "
            "Gamma(N+(n+1)/2)/Gamma(N+(n+3)/2) instead of one",
        }
    )

    nu4 = Dimension(4).nu
    small_x: Dict[str, float] = {}
    for R in (1.0, 2.0):
        gamma = 3.3 / R
        closed = delta_bound_energy(Dimension(4), gamma, R, sc)[0]
        small_x[f"solved_eps_magnitude_R{R:g}"] = closed.eps
        small_x[f"printed_eps_R{R:g}"] = (
            2.0 * (nu4 * nu4 - 1.0) / R * (1.0 - 2.0 * nu4 / (gamma * R))
        )
    small_x["solved_scaling_R1_over_R2"] = (
        small_x["solved_eps_magnitude_R1"] / small_x["solved_eps_magnitude_R2"]
    )
    small_x["printed_scaling_R1_over_R2"] = (
        small_x["printed_eps_R1"] / small_x["printed_eps_R2"]
    )
    entries.append(
        {
            "id": "delta_smallx_energy_formula",
            "printed": "near-threshold bound energy 2(nu^2-1)/R (1 - 2 nu/(gamma R)), "
            "scaling as an inverse length",
            "implemented": "root of the modified-Bessel product condition; the printed "
            "expansion serves only as corrected seed material",
            "evidence": small_x,
            "resolution": "a reduced energy must scale as 1/R^2 at fixed gamma R; the "
            "solved root does (ratio 4), the printed form does not (ratio 2)",
        }
    )

    sw = finite_well_scattering(dim1, 1e-10, 1.0, 1.0, sc)
    entries.append(
        {
            "id": "finite_well_scattering_prefactor",
            "printed": "rate prefactor 16/(pi eps R^2)",
            "implemented": "coefficients solved from the two-sided matching system; "
            "the printed rate is carried verbatim in paper_T",
            "evidence": {
                "depth": 1e-10,
                "printed_rate_zero_depth_limit": sw.paper_T,
                "matched_interior_intensity": sw.interior_intensity,
                "ratio": sw.paper_T / sw.interior_intensity,
            },
            "resolution": "with the standard cross-product identity the printed "
            "prefactor overshoots the zero-depth limit by pi; 16/(pi^2 eps R^2) "
            "restores it",
        }
    )

    s0 = delta_scattering(dim1, 0.0, 1.0, 2.0, sc)
    gap = 0.0
    for eps in (0.5, 2.0, 7.0, 13.0):
        s = delta_scattering(dim1, sc.reduced_coupling(1.5), 1.0, eps, sc)
        gap = max(gap, abs(s.paper_T - s.interior_intensity))
    entries.append(
        {
            "id": "delta_scattering_rate_labels",
            "printed": "labels assign R to the squared interior coefficient and T to "
            "the squared exterior one",
            "implemented": "neutral names: interior_intensity for the squared interior "
            "coefficient, exterior_reflection for the squared outgoing exterior one",
            "evidence": {
                "printed_rate_zero_coupling": s0.paper_T,
                "interior_intensity_zero_coupling": s0.interior_intensity,
                "exterior_reflection_zero_coupling": s0.exterior_reflection,
                "max_abs_printed_rate_minus_interior_intensity_finite_coupling": gap,
            },
            "resolution": "at zero coupling the printed rate equals 4, the interior "
            "intensity, while the exterior ratio is 1, so the printed names are "
            "swapped relative to the displayed coefficients; at finite coupling the "
            "printed closed form also drifts from the matching interior intensity, "
            "which is why the solved coefficients stay authoritative",
        }
    )

    i0 = bessel_i(0.5, 2.0).value
    i1 = bessel_i(1.5, 2.0).value
    k0 = bessel_k(0.5, 2.0).value
    k1 = bessel_k(1.5, 2.0).value
    entries.append(
        {
            "id": "modified_wronskian_misprint",
            "printed": "cross identity written with the same K I term twice",
            "implemented": "I_nu(x) K_(nu+1)(x) + I_(nu+1)(x) K_nu(x) = 1/x",
            "evidence": {
                "order": 0.5,
                "x": 2.0,
                "standard_identity_value": i0 * k1 + i1 * k0,
                "printed_combination_value": 2.0 * k0 * i1,
                "target_one_over_x": 0.5,
            },
            "resolution": "standard identity implemented and asserted in the test "
            "suite; the duplicated-term form does not evaluate to 1/x",
        }
    )

    level, root = well[0]
    v0 = sc.reduced_potential(18.0)
    q = math.sqrt(v0 - level.eps)
    kp = math.sqrt(level.eps)
    nu = dim2.nu
    printed_res = kp * (
        bessel_j(nu + 1.0, kp).value * bessel_k(nu, kp).value
        - bessel_k(nu + 1.0, kp).value * bessel_j(nu, kp).value
    )
    entries.append(
        {
            "id": "finite_well_printed_arguments",
            "printed": "bound-state condition with every cylinder factor at sqrt(eps) R",
            "implemented": "interior factors at q = sqrt(v0 - |eps|) R, exterior at "
            "kappa = sqrt(|eps|) R: q J_(nu+1)(q) K_nu(kappa) = kappa K_(nu+1)(kappa) J_nu(q)",
            "evidence": {
                "v0": v0,
                "R": 1.0,
                "root_eps_magnitude": level.eps,
                "interior_argument": q,
                "exterior_argument": kp,
                "matching_residual_at_root": root.residual,
                "printed_form_residual_at_root": printed_res,
            },
            "resolution": "the matching-derived arguments solve to residuals at "
            "rounding level; the single-argument variant does not vanish at the root",
        }
    )

    zz = 1.3
    entries.append(
        {
            "id": "odd_even_hermite_u_relation",
            "printed": "U((1-N)/2, 3/2, z^2) identified with H_N(z)/(2^N z) for all N",
            "implemented": "identity asserted for odd N only, where both sides are "
            "the same polynomial in z^2; even-N values logged without assertion",
            "evidence": {
                "z": zz,
                "odd_N3_lhs": kummer_u(-1.0, 1.5, zz * zz).value,
                "odd_N3_rhs": hermite(3, zz) / (8.0 * zz),
                "even_N2_lhs": kummer_u(-0.5, 1.5, zz * zz).value,
                "even_N2_rhs": hermite(2, zz) / (4.0 * zz),
                "even_N2_rhs_reflected_z": hermite(2, -zz) / (-4.0 * zz),
            },
            "resolution": "the two sides agree numerically for positive argument even "
            "at even N, but they have opposite parity in z (the left side is even, "
            "the right side odd), so the identification holds only on the half-line "
            "and is asserted solely in the odd-N polynomial case",
        }
    )

    sa, sb = shells
    entries.append(
        {
            "id": "well_barrier_sign_claim",
            "printed": "attractive and repulsive shells claimed physically "
            "indistinguishable, all rates depending on the squared coupling",
            "implemented": "signed coupling kept throughout the matching system",
            "evidence": {
                "reduced_coupling_magnitude": sc.reduced_coupling(1.5),
                "eps": 5.0,
                "attractive_interior_intensity": sa.interior_intensity,
                "barrier_interior_intensity": sb.interior_intensity,
                "abs_difference": abs(sa.interior_intensity - sb.interior_intensity),
                "attractive_exterior_reflection": sa.exterior_reflection,
                "barrier_exterior_reflection": sb.exterior_reflection,
                "attractive_oracle_interior_intensity": rows["delta_scattering_attractive_n1"].oracle,
                "barrier_oracle_interior_intensity": rows["delta_scattering_barrier_n1"].oracle,
            },
            "resolution": "the interior field carries a coupling-odd cross term, so "
            "only the exterior reflection is sign-blind; the independent integration "
            "oracle confirms the signed values",
        }
    )
    return entries


def validation_report(sc: PhysicalScales | None = None) -> Dict:
    """Full JSON-ready validation report.

    Rows cover every problem family (bound spectra on grids, scattering
    sweeps, shooting and series references) plus the shell-bound
    comparisons, which carry their own registered tolerance (the kinked
    eigenfunction leaves a larger remainder after extrapolation than the
    smooth-potential rows).  The
    ``discrepancies`` section lists every printed-formula mismatch with
    recomputed numeric evidence; consumers must treat a missing entry
    there as a failure.
    """
    sc = PhysicalScales() if sc is None else sc
    well = finite_well_bound_spectrum(Dimension(2), 18.0, 1.0, sc)
    shells = _shell_pair(sc)
    with series_memo():
        pairs = (
            _well_rows(sc)
            + _oscillator_rows(sc)
            + _finite_well_rows(sc, well)
            + _scattering_rows(sc, shells)
            + _shooting_rows(sc, well)
            + _series_rows()
            + _shell_bound_rows(sc)
        )
    within = all(row.rel_diff <= tol for row, tol in pairs)
    converged = all(row.converged for row, _ in pairs)
    return {
        "meta": {
            "suite": "default+shell_bound",
            "hbar": sc.hbar,
            "mass": sc.mass,
            "package_version": __version__,
        },
        "rows": [asdict(row) for row, _ in pairs],
        "all_converged": bool(within and converged),
        "discrepancies": _discrepancies(sc, {row.id: row for row, _ in pairs}, well, shells),
    }


__all__ = ["OracleReport", "validation_report"]

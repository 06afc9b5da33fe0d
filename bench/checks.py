"""Output checks for every operation of a run.

Each checker takes the operation (as generated) and its record (exit
code, captured stdout and stderr, or the library result) and returns a
list of error strings; an empty list means the output is right.  The
references come from ``refs`` (mpmath, scipy, exact closed forms) or from
properties the method must have; none is a stored copy of an earlier
output.  CSV prints 12 significant digits, so tolerances tighter than
that apply only to operations that asked for ``--format json``.
"""
from __future__ import annotations

import json
import math
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

import refs

# relative tolerances; each sits well below the planted faults in
# test_checks.py (1e-6 on an intensity, 1e-8 on a level)
SCAN_MP_TOL = 1e-9
REFLECTION_TOL = 1e-10
CSV_TOL = 1e-10
LEVEL_TOL = 1e-11
ZERO_TOL = 1e-12
MODE_TOL = 1e-9
CLOSURE_GAUSS_TOL = 1e-5
VALIDATE_TOL = 1e-10

REQUIRED_DISCREPANCIES = (
    "printed_infinite_well_norm_constant",
    "oscillator_ladder_symbol",
    "printed_oscillator_norm_constant",
    "delta_smallx_energy_formula",
    "finite_well_scattering_prefactor",
    "delta_scattering_rate_labels",
    "well_barrier_sign_claim",
)


def parse_rows(record: Dict, fmt: str) -> Tuple[List[Dict], object]:
    """Rows as dicts of floats, plus the JSON note (None for CSV)."""
    out = record["out"]
    if fmt == "json":
        doc = json.loads(out)
        return doc["rows"], doc.get("note")
    lines = out.strip("\n").split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
    return rows, None


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _tol(fmt: str, tight: float) -> float:
    return tight if fmt == "json" else max(tight, CSV_TOL)


@lru_cache(maxsize=None)
def _j_zero(nu: float, N: int) -> float:
    return refs.j_zero(nu, N)


# ---------------------------------------------------------------------------
# scan


def scan_grid(p: Dict) -> List[float]:
    """The energies the command asks for: steps points from eps_from to eps_to."""
    steps, lo, hi = p["steps"], p["eps_from"], p["eps_to"]
    if steps == 1:
        return [lo]
    h = (hi - lo) / (steps - 1)
    return [lo + i * h for i in range(steps)]


def scan_sample_rows(steps: int) -> List[int]:
    """Rows checked against the arbitrary-precision solve: both ends."""
    return sorted({0, steps - 1})


def check_scan(op: Dict, record: Dict) -> List[str]:
    p = op["p"]
    if record["rc"] != 0:
        return [f"exit code {record['rc']}"]
    rows, _ = parse_rows(record, p["fmt"])
    grid = scan_grid(p)
    if len(rows) != len(grid):
        return [f"{len(rows)} rows for {len(grid)} energies"]
    errors = []
    tol = _tol(p["fmt"], 1e-13)
    for i, (row, eps) in enumerate(zip(rows, grid)):
        if not all(math.isfinite(v) for v in row.values()):
            errors.append(f"row {i} not finite: {row}")
            continue
        if _rel(row["eps"], eps) > tol:
            errors.append(f"row {i} eps {row['eps']!r} for {eps!r}")
        if abs(row["exterior_reflection"] - 1.0) > REFLECTION_TOL:
            errors.append(f"row {i} |S|^2 = {row['exterior_reflection']!r}")
    problem = "delta" if p["problem"] == "delta-shell" else "finite"
    for i in scan_sample_rows(len(grid)):
        want = refs.mp_interior_intensity(problem, p["n"], p["R"], p["strength"], grid[i], dps=30)
        got = rows[i]["interior_intensity"]
        if _rel(got, want) > SCAN_MP_TOL:
            errors.append(f"row {i} intensity {got!r}, mpmath {want!r}")
    return errors


# ---------------------------------------------------------------------------
# solve


def _check_levels(got: List[float], want: List[float], fmt: str, floor: float = 0.0) -> List[str]:
    if len(got) != len(want):
        return [f"{len(got)} levels, reference has {len(want)}"]
    tol = _tol(fmt, LEVEL_TOL)
    return [f"level {i + 1}: {g!r}, reference {w!r}"
            for i, (g, w) in enumerate(zip(got, want))
            if abs(g - w) > tol * abs(w) + floor]


def check_spectrum(op: Dict, record: Dict) -> List[str]:
    p = op["p"]
    if record["rc"] != 0:
        return [f"exit code {record['rc']}"]
    rows, note = parse_rows(record, p["fmt"])
    n, nu = p["n"], refs.nu_of(p["n"])
    problem = p["problem"]
    first = 0 if problem == "harmonic" else 1
    if [int(r["level"]) for r in rows] != list(range(first, first + len(rows))):
        return [f"level numbers {[r['level'] for r in rows]}"]
    errors = [f"level {r['level']}: energy {r['energy']!r} != eps/2"
              for r in rows if _rel(r["energy"], 0.5 * r["eps"]) > _tol(p["fmt"], 1e-15)]
    eps = [r["eps"] for r in rows]
    if problem == "infinite-well":
        want = [(_j_zero(nu, N) / p["R"]) ** 2 for N in range(1, p["levels"] + 1)]
        return errors + _check_levels(eps, want, p["fmt"])
    if problem == "harmonic":
        want = [refs.harmonic_eps(n, p["mu"], N) for N in range(p["levels"])]
        return errors + _check_levels(eps, want, p["fmt"])
    if problem == "finite-well":
        want = [-e for e in refs.finite_well_levels(n, p["v0"], p["R"])]
        errors += _check_levels(eps, want, p["fmt"], floor=1e-13 * p["v0"])
    else:
        level = refs.shell_level(n, p["gamma"], p["R"])
        exists = p["gamma"] * p["R"] > 2.0 * nu if nu > 0 else True
        if (level is not None) != exists:
            errors.append(f"reference level {level!r} contradicts the 2 nu threshold")
        errors += _check_levels(eps, [] if level is None else [-level], p["fmt"])
    if not rows and not note:
        errors.append("empty spectrum without a note")
    return errors


def check_wavefunction(op: Dict, record: Dict) -> List[str]:
    p = op["p"]
    if record["rc"] != 0:
        return [f"exit code {record['rc']}"]
    rows, _ = parse_rows(record, p["fmt"])
    if len(rows) != p["samples"]:
        return [f"{len(rows)} samples, asked for {p['samples']}"]
    r = np.array([row["r"] for row in rows])
    psi = np.array([row["psi"] for row in rows])
    h = r[0] * 2.0
    if np.max(np.abs(r - (np.arange(len(r)) + 0.5) * h)) > 1e-9 * r[-1]:
        return ["sample radii are not the half-step grid"]
    want = refs.mode_samples(p["problem"], p["n"], p, p["level"], r)
    sign = 1.0 if float(np.dot(psi, want)) >= 0.0 else -1.0
    scale = float(np.max(np.abs(want)))
    bad = np.nonzero(np.abs(psi - sign * want) > MODE_TOL * scale)[0]
    return [f"sample {i} at r = {r[i]!r}: {psi[i]!r}, reference {sign * want[i]!r}"
            for i in bad[:5]]


def check_zeros(op: Dict, record: Dict) -> List[str]:
    p = op["p"]
    if record["rc"] != 0:
        return [f"exit code {record['rc']}"]
    rows, _ = parse_rows(record, p["fmt"])
    if [int(r["index"]) for r in rows] != list(range(1, p["count"] + 1)):
        return [f"indices {[r['index'] for r in rows]} for count {p['count']}"]
    return [f"zero {r['index']}: {r['zero']!r}, reference {_j_zero(p['nu'], int(r['index']))!r}"
            for r in rows
            if _rel(r["zero"], _j_zero(p["nu"], int(r["index"]))) > _tol(p["fmt"], ZERO_TOL)]


def check_closure(op: Dict, record: Dict, partner: Dict) -> List[str]:
    """Exact k <-> k' symmetry against the swapped operation, and the
    Gaussian limit exp(-(k-k')^2 / 2 sigma^2) of the smeared overlap."""
    p = op["p"]
    if record["rc"] != 0:
        return [f"exit code {record['rc']}"]
    rows, _ = parse_rows(record, p["fmt"])
    if len(rows) != 1:
        return [f"{len(rows)} rows for one probe"]
    value = rows[0]["value"]
    errors = []
    if partner is None:
        errors.append("no swapped partner probe")
    elif partner["rc"] != 0 or parse_rows(partner, "json")[0][0]["value"] != value:
        errors.append(f"value {value!r} differs from the swapped probe")
    gauss = math.exp(-((p["k"] - p["k_prime"]) ** 2) / (2.0 * p["width"] ** 2))
    if abs(value - gauss) > CLOSURE_GAUSS_TOL:
        errors.append(f"value {value!r}, Gaussian limit {gauss!r}")
    return errors


def check_transmission(op: Dict, record: Dict) -> List[str]:
    """Each energy gives the target intensity in mpmath; a dense double
    scan finds no sign change of intensity - target that the list misses."""
    p = op["p"]
    if record["rc"] != 0:
        return [f"failed: {record['err']}"]
    energies = record["result"]
    lo, hi = p["eps_range"]
    T = p["target"]
    errors = []
    if energies != sorted(energies) or (energies and not lo <= energies[0] <= energies[-1] <= hi):
        errors.append(f"energies not ascending inside [{lo}, {hi}]: {energies}")
    for eps in energies:
        got = refs.mp_interior_intensity(p["problem"], p["n"], p["R"], p["strength"], eps, dps=30)
        d = eps * 1e-7
        up = refs.mp_interior_intensity(p["problem"], p["n"], p["R"], p["strength"], eps + d, dps=30)
        slope = abs(up - got) / d
        if abs(got - T) > 1e-9 * T + 1e-12 * slope * eps:
            errors.append(f"intensity {got!r} at eps {eps!r}, target {T!r}")
    # 32 points per oscillation of kR at the top of the range
    k_hi = math.sqrt(hi)
    count = int(32.0 * k_hi * p["R"] * math.log(hi / lo) / math.pi) + 2000
    grid = np.geomspace(lo, hi, count)
    f = refs.np_interior_intensity(p["problem"], p["n"], p["R"], p["strength"], grid) - T
    changes = np.nonzero(np.sign(f[:-1]) != np.sign(f[1:]))[0]
    found = np.array(energies)
    for i in changes:
        inside = np.count_nonzero((found >= grid[i]) & (found <= grid[i + 1]))
        if inside != 1:
            errors.append(f"dense scan crossing in [{grid[i]!r}, {grid[i + 1]!r}] matched {inside} energies")
    if len(changes) != len(energies):
        errors.append(f"{len(energies)} energies, dense scan finds {len(changes)} crossings")
    return errors


# ---------------------------------------------------------------------------
# validate


def _validate_references() -> Dict[str, float]:
    """The benchmark's own value for each row's closed form.

    Row parameters are those the suite documents: hard box R = 1, oscillator
    omega = 1, finite well V0 = 18 (v0 = 36) at n = 2, shells g = 1.5
    (gamma = 3) at eps = 5, well V0 = 5 (v0 = 10) at eps = 2, bound shells
    g = 3 (n = 2) and g = 25 (n = 0), all at R = 1 with hbar = m = 1.
    """
    from mpmath import mp

    want: Dict[str, float] = {}
    for n in (0, 1, 2, 4):
        for N in (1, 2):
            want[f"infinite_well_n{n}_N{N}"] = _j_zero(refs.nu_of(n), N) ** 2
    for n, idx in ((0, 0), (0, 2), (1, 0), (1, 1), (2, 0), (2, 1)):
        want[f"oscillator_n{n}_N{idx}"] = refs.harmonic_eps(n, 1.0, idx)
    well = refs.finite_well_levels(2, 36.0, 1.0)
    want["finite_well_n2_N1"], want["finite_well_n2_N2"] = well[0], well[1]
    want["free_interior_intensity"] = 4.0
    want["delta_scattering_attractive_n1"] = refs.mp_interior_intensity("delta", 1, 1.0, -3.0, 5.0)
    want["delta_scattering_barrier_n1"] = refs.mp_interior_intensity("delta", 1, 1.0, 3.0, 5.0)
    want["finite_well_scattering_n2"] = refs.mp_interior_intensity("finite", 2, 1.0, 10.0, 2.0)
    want["shooting_oscillator_n1_N0"] = refs.harmonic_eps(1, 1.0, 0)
    want["shooting_oscillator_n1_N1"] = refs.harmonic_eps(1, 1.0, 1)
    want["shooting_finite_well_n2_N1"] = -well[0]
    # I_nu K_{nu+1} + I_{nu+1} K_nu = 1/x at x = 2
    want["series_wronskian_ik_x2"] = 0.5
    with mp.workdps(30):
        want["kernel_vs_series_j"] = float(mp.besselj(0.5, 1.0))
        want["kernel_vs_series_y"] = float(mp.bessely(0, 2.0))
        want["kernel_vs_series_k"] = float(mp.besselk(1.5, 2.0))
    want["delta_shell_bound_n2"] = refs.shell_level(2, 6.0, 1.0)
    want["delta_shell_bound_strong_n0"] = refs.shell_level(0, 50.0, 1.0)
    return want


def check_validate(records: List[Dict]) -> List[str]:
    """All repetitions of the run: exit 0, identical reports, each row
    converged and its closed form on the reference, required ledger ids."""
    errors = []
    for i, rec in enumerate(records):
        if rec["rc"] != 0:
            errors.append(f"repetition {i}: exit code {rec['rc']}")
    good = [rec for rec in records if rec["rc"] == 0]
    if not good:
        return errors
    if any(rec["out"] != good[0]["out"] for rec in good[1:]):
        errors.append("report differs between repetitions")
    report = json.loads(good[0]["out"])
    if report.get("all_converged") is not True:
        errors.append("all_converged is not true")
    want = _validate_references()
    rows = {row["id"]: row for row in report["rows"]}
    if set(rows) != set(want):
        errors.append(f"row ids differ: missing {sorted(set(want) - set(rows))}, "
                      f"unexpected {sorted(set(rows) - set(want))}")
    for rid, row in rows.items():
        if not row["converged"]:
            errors.append(f"{rid} not converged")
        if rid in want and _rel(row["closed_form"], want[rid]) > VALIDATE_TOL:
            errors.append(f"{rid}: closed form {row['closed_form']!r}, reference {want[rid]!r}")
    ids = {d["id"] for d in report["discrepancies"]}
    missing = [d for d in REQUIRED_DISCREPANCIES if d not in ids]
    if missing:
        errors.append(f"discrepancy ids missing: {missing}")
    return errors


# ---------------------------------------------------------------------------


def check_run(workload: str, ops: List[Dict], records: List[Dict]) -> List[str]:
    """Every check of one run; failed operations (nonzero exit) are
    counted by the caller and skipped here."""
    if workload == "validate":
        return check_validate(records)
    errors = []
    closure = {}
    for op, rec in zip(ops, records):
        if op["kind"] == "cli" and op["argv"][0] == "closure":
            p = op["p"]
            closure[(p["n"], p["k"], p["k_prime"])] = rec
    for i, (op, rec) in enumerate(zip(ops, records)):
        if rec["rc"] != 0:
            continue
        if op["kind"] == "transmission":
            found = check_transmission(op, rec)
        else:
            command = op["argv"][0]
            if command == "scattering":
                found = check_scan(op, rec)
            elif command == "spectrum":
                found = check_spectrum(op, rec)
            elif command == "wavefunction":
                found = check_wavefunction(op, rec)
            elif command == "zeros":
                found = check_zeros(op, rec)
            else:
                p = op["p"]
                found = check_closure(op, rec, closure.get((p["n"], p["k_prime"], p["k"])))
        errors += [f"op {i} ({' '.join(op.get('argv', ['transmission']))}): {e}" for e in found]
    return errors

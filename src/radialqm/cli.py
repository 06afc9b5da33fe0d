"""Command-line front end: spectra, wave-function samples, scattering
scans, cylinder-zero tables, closure probes, and the validation suite.

Tables go to standard output as CSV (default) or JSON; structure and
headers are stable so the output can feed plotting pipelines directly.
Exit codes: 0 success (including empty physical results, which carry a
note instead of an error), 2 invalid parameter, 3 computation failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DomainError, RadialQMError
from .radial.model import Dimension, PhysicalScales
from .solvers import (
    closure_check,
    delta_bound_energy,
    delta_bound_wavefunction,
    delta_scattering,
    finite_well_bound_spectrum,
    finite_well_bound_wavefunction,
    finite_well_scattering,
    infinite_well_spectrum,
    infinite_well_wavefunction,
    oscillator_spectrum,
    oscillator_wavefunction,
)
from .specfun import bessel_j_zero

_SPECTRUM_PROBLEMS = ("infinite-well", "harmonic", "finite-well", "delta-shell")
_SCATTERING_PROBLEMS = ("delta-shell", "finite-well")


@dataclass(frozen=True)
class RunConfig:
    """One fully validated invocation."""

    command: str
    fmt: str
    scales: PhysicalScales
    params: Dict[str, object]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radialqm",
        description="Bound spectra, wave-functions, and scattering for "
        "rotationally invariant quantum problems in (n+1) dimensions.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format (default csv)"
    )
    common.add_argument("--hbar", type=float, default=1.0, help="Planck constant over 2 pi (default 1)")
    common.add_argument("--mass", type=float, default=1.0, help="particle mass (default 1)")

    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", parents=[common], help="bound-state energy table")
    sp.add_argument("--problem", choices=_SPECTRUM_PROBLEMS, required=True)
    sp.add_argument("--n", type=int, required=True, help="angular dimension (space is (n+1)-dimensional)")
    sp.add_argument("--radius", type=float, help="well or shell radius")
    sp.add_argument("--omega", type=float, default=1.0, help="oscillator frequency (harmonic only)")
    sp.add_argument("--v0", type=float, help="well depth (finite-well only)")
    sp.add_argument("--gamma", type=float, help="reduced shell coupling 2mg/hbar^2 (delta-shell only)")
    sp.add_argument("--sign", type=int, choices=(-1, 1), default=-1, help="shell sign, -1 attractive (default)")
    sp.add_argument("--levels", type=int, help="number of levels (required for infinite-well and harmonic)")

    wf = sub.add_parser("wavefunction", parents=[common], help="sampled normalized bound mode")
    wf.add_argument("--problem", choices=_SPECTRUM_PROBLEMS, required=True)
    wf.add_argument("--n", type=int, required=True)
    wf.add_argument("--radius", type=float)
    wf.add_argument("--omega", type=float, default=1.0)
    wf.add_argument("--v0", type=float)
    wf.add_argument("--gamma", type=float)
    wf.add_argument("--level", type=int, help="which mode to sample (first bound mode is 1; harmonic counts from 0)")
    wf.add_argument("--samples", type=int, default=200, help="number of radial samples (default 200)")
    wf.add_argument("--r-max", dest="r_max", type=float, help="sampling range (default: problem scale)")

    sc = sub.add_parser("scattering", parents=[common], help="scattering scan over reduced energy")
    sc.add_argument("--problem", choices=_SCATTERING_PROBLEMS, required=True)
    sc.add_argument("--n", type=int, required=True)
    sc.add_argument("--radius", type=float, required=True)
    sc.add_argument("--gamma", type=float, help="reduced shell coupling magnitude (delta-shell only)")
    sc.add_argument("--sign", type=int, choices=(-1, 1), default=-1)
    sc.add_argument("--v0", type=float, help="well depth (finite-well only)")
    sc.add_argument("--eps-from", dest="eps_from", type=float, required=True)
    sc.add_argument("--eps-to", dest="eps_to", type=float, required=True)
    sc.add_argument("--steps", type=int, required=True, help="number of scan rows")

    ze = sub.add_parser("zeros", parents=[common], help="positive zeros of the cylinder function J_nu")
    ze.add_argument("--nu", type=float, required=True)
    ze.add_argument("--count", type=int, required=True)

    cl = sub.add_parser("closure", parents=[common], help="smeared truncated continuum-overlap probe")
    cl.add_argument("--n", type=int, required=True)
    cl.add_argument("--k", type=float, required=True)
    cl.add_argument("--k-prime", dest="k_prime", type=float, help="single probe partner wavenumber")
    cl.add_argument("--k-prime-from", dest="kp_from", type=float, help="scan start (with --k-prime-to/--steps)")
    cl.add_argument("--k-prime-to", dest="kp_to", type=float)
    cl.add_argument("--steps", type=int)
    cl.add_argument("--r-max", dest="r_max", type=float, default=500.0)
    cl.add_argument("--width", type=float, default=0.05)

    sub.add_parser("validate", parents=[common], help="closed-form vs oracle suite (always JSON)")
    return parser


def _positive(name: str, value: Optional[float], what: str) -> float:
    if value is None:
        raise DomainError(f"{name} is required {what}")
    if not (value > 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def _dimension(n: int) -> Dimension:
    if n < 0:
        raise DomainError(f"--n must be >= 0, got {n}")
    return Dimension(n)


def _check_counts(name: str, value: Optional[int], minimum: int) -> int:
    if value is None:
        raise DomainError(f"{name} is required")
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def parse_args(argv: Optional[Sequence[str]] = None) -> RunConfig:
    """Parse and validate; argparse diagnostics name the offending flag."""
    args = _build_parser().parse_args(argv)
    if not (args.hbar > 0.0 and math.isfinite(args.hbar)):
        raise DomainError(f"--hbar must be positive and finite, got {args.hbar!r}")
    if not (args.mass > 0.0 and math.isfinite(args.mass)):
        raise DomainError(f"--mass must be positive and finite, got {args.mass!r}")
    scales = PhysicalScales(hbar=args.hbar, mass=args.mass)
    params: Dict[str, object] = {}

    if args.command == "spectrum":
        _dimension(args.n)
        params["problem"] = args.problem
        params["n"] = args.n
        if args.problem == "infinite-well":
            params["radius"] = _positive("--radius", args.radius, "for --problem infinite-well")
            params["levels"] = _check_counts("--levels", args.levels, 1)
        elif args.problem == "harmonic":
            params["omega"] = _positive("--omega", args.omega, "for --problem harmonic")
            params["levels"] = _check_counts("--levels", args.levels, 1)
        elif args.problem == "finite-well":
            params["v0"] = _positive("--v0", args.v0, "for --problem finite-well")
            params["radius"] = _positive("--radius", args.radius, "for --problem finite-well")
            if args.levels is not None:
                params["levels"] = _check_counts("--levels", args.levels, 1)
        else:
            params["gamma"] = _positive("--gamma", args.gamma, "for --problem delta-shell")
            params["radius"] = _positive("--radius", args.radius, "for --problem delta-shell")
            params["sign"] = args.sign
    elif args.command == "wavefunction":
        _dimension(args.n)
        params["problem"] = args.problem
        params["n"] = args.n
        params["samples"] = _check_counts("--samples", args.samples, 2)
        if args.problem == "infinite-well":
            params["radius"] = _positive("--radius", args.radius, "for --problem infinite-well")
            params["level"] = _check_counts("--level", args.level, 1)
        elif args.problem == "harmonic":
            params["omega"] = _positive("--omega", args.omega, "for --problem harmonic")
            params["level"] = _check_counts("--level", args.level, 0)
        elif args.problem == "finite-well":
            params["v0"] = _positive("--v0", args.v0, "for --problem finite-well")
            params["radius"] = _positive("--radius", args.radius, "for --problem finite-well")
            params["level"] = _check_counts("--level", args.level, 1)
        else:
            params["gamma"] = _positive("--gamma", args.gamma, "for --problem delta-shell")
            params["radius"] = _positive("--radius", args.radius, "for --problem delta-shell")
            params["level"] = _check_counts("--level", args.level if args.level is not None else 1, 1)
        if args.r_max is not None:
            params["r_max"] = _positive("--r-max", args.r_max, "")
    elif args.command == "scattering":
        _dimension(args.n)
        params["problem"] = args.problem
        params["n"] = args.n
        params["radius"] = _positive("--radius", args.radius, "")
        if args.problem == "delta-shell":
            params["gamma"] = _positive("--gamma", args.gamma, "for --problem delta-shell")
            params["sign"] = args.sign
        else:
            params["v0"] = _positive("--v0", args.v0, "for --problem finite-well")
        eps_from = _positive("--eps-from", args.eps_from, "")
        eps_to = _positive("--eps-to", args.eps_to, "")
        if eps_to < eps_from:
            raise DomainError(f"--eps-to must be >= --eps-from, got {eps_to!r} < {eps_from!r}")
        params["eps_from"] = eps_from
        params["eps_to"] = eps_to
        params["steps"] = _check_counts("--steps", args.steps, 1)
    elif args.command == "zeros":
        if not (args.nu >= -0.5 and math.isfinite(args.nu)):
            raise DomainError(f"--nu must be >= -0.5, got {args.nu!r}")
        params["nu"] = float(args.nu)
        params["count"] = _check_counts("--count", args.count, 1)
    elif args.command == "closure":
        _dimension(args.n)
        params["n"] = args.n
        params["k"] = _positive("--k", args.k, "")
        params["r_max"] = _positive("--r-max", args.r_max, "")
        params["width"] = _positive("--width", args.width, "")
        if args.k_prime is not None:
            params["k_prime"] = _positive("--k-prime", args.k_prime, "")
        else:
            params["kp_from"] = _positive("--k-prime-from", args.kp_from, "(or pass --k-prime)")
            params["kp_to"] = _positive("--k-prime-to", args.kp_to, "(or pass --k-prime)")
            if params["kp_to"] < params["kp_from"]:
                raise DomainError("--k-prime-to must be >= --k-prime-from")
            params["steps"] = _check_counts("--steps", args.steps, 1)

    return RunConfig(command=args.command, fmt=args.format, scales=scales, params=params)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _emit(
    config: RunConfig,
    columns: Sequence[str],
    rows: List[Tuple],
    note: Optional[str] = None,
) -> None:
    if config.fmt == "json":
        payload: Dict[str, object] = {
            "meta": {
                "command": config.command,
                "params": config.params,
                "units": {"hbar": config.scales.hbar, "mass": config.scales.mass},
            },
            "rows": [dict(zip(columns, row)) for row in rows],
        }
        if note is not None:
            payload["note"] = note
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
        return
    lines = [",".join(columns)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    sys.stdout.write("\n".join(lines) + "\n")
    if note is not None:
        sys.stderr.write(f"note: {note}\n")


def _spectrum_rows(config: RunConfig) -> Tuple[List[Tuple], Optional[str]]:
    p = config.params
    dim = Dimension(int(p["n"]))
    sc = config.scales
    problem = p["problem"]
    if problem == "infinite-well":
        levels = infinite_well_spectrum(dim, float(p["radius"]), int(p["levels"]), sc)
    elif problem == "harmonic":
        levels = oscillator_spectrum(dim, float(p["omega"]), int(p["levels"]), sc)
    elif problem == "finite-well":
        pairs = finite_well_bound_spectrum(dim, float(p["v0"]), float(p["radius"]), sc)
        levels = [level for level, _ in pairs]
        if "levels" in p:
            levels = levels[: int(p["levels"])]
        if not levels:
            return [], "no bound level for this depth and radius"
    else:
        if int(p["sign"]) > 0:
            return [], "a repulsive shell binds no level"
        found = delta_bound_energy(dim, float(p["gamma"]), float(p["radius"]), sc)
        if found is None:
            return [], "coupling below the binding threshold, no bound level"
        levels = [found[0]]
    rows = [(lv.N, sc.reduced_energy(lv.E), lv.E) for lv in levels]
    return rows, None


def _sample_grid(r_max: float, samples: int) -> List[float]:
    # half-step offset keeps the endpoints off r = 0 and off the wall
    h = r_max / samples
    return [(i + 0.5) * h for i in range(samples)]


def _wavefunction_rows(config: RunConfig) -> Tuple[List[Tuple], Optional[str]]:
    p = config.params
    dim = Dimension(int(p["n"]))
    sc = config.scales
    problem = p["problem"]
    if problem == "infinite-well":
        psi = infinite_well_wavefunction(dim, float(p["radius"]), int(p["level"]), sc)
        span = float(p["radius"])
    elif problem == "harmonic":
        psi = oscillator_wavefunction(dim, float(p["omega"]), int(p["level"]), sc)
        mu = sc.oscillator_scale(float(p["omega"]))
        span = math.sqrt(psi.eps) / mu + 4.0 / math.sqrt(mu)
    elif problem == "finite-well":
        psi = finite_well_bound_wavefunction(dim, float(p["v0"]), float(p["radius"]), int(p["level"]), sc)
        span = float(p["radius"]) + 4.0 / math.sqrt(psi.eps)
    else:
        if int(p["level"]) != 1:
            raise DomainError("--level must be 1, the shell binds at most one mode")
        psi = delta_bound_wavefunction(dim, float(p["gamma"]), float(p["radius"]), sc)
        span = float(p["radius"]) + 4.0 / math.sqrt(psi.eps)
    r_max = float(p.get("r_max", span))
    rows = []
    for r in _sample_grid(r_max, int(p["samples"])):
        value = psi.sample(r)
        rows.append((r, float(value.real) if isinstance(value, complex) else float(value)))
    return rows, None


def _scattering_rows(config: RunConfig) -> Tuple[List[Tuple], Optional[str]]:
    p = config.params
    dim = Dimension(int(p["n"]))
    sc = config.scales
    steps = int(p["steps"])
    eps_from, eps_to = float(p["eps_from"]), float(p["eps_to"])
    if steps == 1:
        grid = [eps_from]
    else:
        h = (eps_to - eps_from) / (steps - 1)
        grid = [eps_from + i * h for i in range(steps)]
    rows = []
    for eps in grid:
        if p["problem"] == "delta-shell":
            result = delta_scattering(
                dim, int(p["sign"]) * float(p["gamma"]), float(p["radius"]), eps, sc
            )
        else:
            result = finite_well_scattering(dim, float(p["v0"]), float(p["radius"]), eps, sc)
        rows.append(
            (eps, result.interior_intensity, result.exterior_reflection, result.paper_T)
        )
    return rows, None


def _zeros_rows(config: RunConfig) -> Tuple[List[Tuple], Optional[str]]:
    nu = float(config.params["nu"])
    count = int(config.params["count"])
    return [(N, bessel_j_zero(nu, N)) for N in range(1, count + 1)], None


def _closure_rows(config: RunConfig) -> Tuple[List[Tuple], Optional[str]]:
    p = config.params
    dim = Dimension(int(p["n"]))
    r_max = float(p["r_max"])
    width = float(p["width"])
    k = float(p["k"])
    if "k_prime" in p:
        partners = [float(p["k_prime"])]
    else:
        steps = int(p["steps"])
        lo, hi = float(p["kp_from"]), float(p["kp_to"])
        if steps == 1:
            partners = [lo]
        else:
            h = (hi - lo) / (steps - 1)
            partners = [lo + i * h for i in range(steps)]
    rows = []
    for kp in partners:
        probe = closure_check(dim, k, kp, r_max, width)
        rows.append((probe.k, probe.k_prime, probe.r_max, probe.smear_width, probe.value))
    return rows, None


_COLUMNS = {
    "spectrum": ("level", "eps", "energy"),
    "wavefunction": ("r", "psi"),
    "scattering": ("eps", "interior_intensity", "exterior_reflection", "paper_T"),
    "zeros": ("index", "zero"),
    "closure": ("k", "k_prime", "r_max", "width", "value"),
}

_HANDLERS = {
    "spectrum": _spectrum_rows,
    "wavefunction": _wavefunction_rows,
    "scattering": _scattering_rows,
    "zeros": _zeros_rows,
    "closure": _closure_rows,
}


def run(config: RunConfig) -> int:
    """Execute one validated invocation; returns the exit code."""
    if config.command == "validate":
        # the oracle pulls in scipy.linalg, which no other command needs
        from .oracle.report import validation_report

        report = validation_report(config.scales)
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
        return 0 if report["all_converged"] else 3
    rows, note = _HANDLERS[config.command](config)
    _emit(config, _COLUMNS[config.command], rows, note)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config = parse_args(argv)
    except SystemExit as exc:
        # argparse has already written its diagnostic
        return int(exc.code or 0)
    except DomainError as exc:
        sys.stderr.write(json.dumps({"error": {"code": 2, "message": str(exc)}}) + "\n")
        return 2
    try:
        return run(config)
    except DomainError as exc:
        sys.stderr.write(json.dumps({"error": {"code": 2, "message": str(exc)}}) + "\n")
        return 2
    except RadialQMError as exc:
        sys.stderr.write(json.dumps({"error": {"code": 3, "message": str(exc)}}) + "\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())

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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import DomainError, RadialQMError, require_count, require_positive
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
from .specfun import bessel_j_zeros

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


# A check takes (flag, value, params so far) and returns the value to
# store under the flag's dest, or None to leave the key out.
Check = Callable[[str, object, Dict[str, object]], object]


def _as_is(flag: str, value: object, params: Dict[str, object]) -> object:
    return value


def _positive(note: str = "") -> Check:
    def check(flag: str, value: object, params: Dict[str, object]) -> float:
        if value is None:
            raise DomainError(f"{flag} is required {note}")
        return require_positive(flag, value)

    return check


def _count(minimum: int, default: Optional[int] = None) -> Check:
    def check(flag: str, value: object, params: Dict[str, object]) -> int:
        if value is None:
            value = default
        if value is None:
            raise DomainError(f"{flag} is required")
        return require_count(flag, value, minimum)

    return check


def _order(flag: str, value: object, params: Dict[str, object]) -> float:
    if not (value >= -0.5 and math.isfinite(value)):
        raise DomainError(f"{flag} must be >= -0.5, got {value!r}")
    return float(value)


def _optional(check: Check) -> Check:
    return lambda flag, value, params: None if value is None else check(flag, value, params)


def _unless(dest: str, check: Check) -> Check:
    return lambda flag, value, params: None if dest in params else check(flag, value, params)


def _not_below(lo_dest: str, message: str, check: Check) -> Check:
    """check, then message (formatted with value, low end) if below params[lo_dest]."""

    def ordered(flag: str, value: object, params: Dict[str, object]) -> object:
        value = check(flag, value, params)
        if value < params[lo_dest]:
            raise DomainError(message.format(value, params[lo_dest]))
        return value

    return ordered


def _needed_for(problem: str) -> Check:
    return _positive(f"for --problem {problem}")


# flags whose dest is not the flag name with dashes as underscores
_FLAGS = {"kp_from": "--k-prime-from", "kp_to": "--k-prime-to"}

# the shape parameters of each problem, in the order they are checked
_SHAPE = {
    "infinite-well": (("radius", _needed_for("infinite-well")),),
    "harmonic": (("omega", _needed_for("harmonic")),),
    "finite-well": (("v0", _needed_for("finite-well")), ("radius", _needed_for("finite-well"))),
    "delta-shell": (("gamma", _needed_for("delta-shell")), ("radius", _needed_for("delta-shell"))),
}
_HEAD = (("problem", _as_is), ("n", _count(0)))
_WAVE = _HEAD + (("samples", _count(2)),)
_R_MAX = ("r_max", _optional(_positive()))
_SCAN = (
    ("eps_from", _positive()),
    ("eps_to", _not_below("eps_from", "--eps-to must be >= --eps-from, got {!r} < {!r}", _positive())),
    ("steps", _count(1)),
)
_SCAN_PARTNERS = _positive("(or pass --k-prime)")

# (command, problem) -> (dest, check) rows, checked and stored in order;
# JSON output echoes params in this order
_VALIDATION: Dict[Tuple[str, Optional[str]], Tuple[Tuple[str, Check], ...]] = {
    ("spectrum", "infinite-well"): _HEAD + _SHAPE["infinite-well"] + (("levels", _count(1)),),
    ("spectrum", "harmonic"): _HEAD + _SHAPE["harmonic"] + (("levels", _count(1)),),
    ("spectrum", "finite-well"): _HEAD + _SHAPE["finite-well"] + (("levels", _optional(_count(1))),),
    ("spectrum", "delta-shell"): _HEAD + _SHAPE["delta-shell"] + (("sign", _as_is),),
    ("wavefunction", "infinite-well"): _WAVE + _SHAPE["infinite-well"] + (("level", _count(1)), _R_MAX),
    ("wavefunction", "harmonic"): _WAVE + _SHAPE["harmonic"] + (("level", _count(0)), _R_MAX),
    ("wavefunction", "finite-well"): _WAVE + _SHAPE["finite-well"] + (("level", _count(1)), _R_MAX),
    ("wavefunction", "delta-shell"): _WAVE + _SHAPE["delta-shell"] + (("level", _count(1, default=1)), _R_MAX),
    ("scattering", "delta-shell"): _HEAD
    + (("radius", _positive()), ("gamma", _needed_for("delta-shell")), ("sign", _as_is)) + _SCAN,
    ("scattering", "finite-well"): _HEAD
    + (("radius", _positive()), ("v0", _needed_for("finite-well"))) + _SCAN,
    ("zeros", None): (("nu", _order), ("count", _count(1))),
    ("closure", None): (
        ("n", _count(0)),
        ("k", _positive()),
        ("r_max", _positive()),
        ("width", _positive()),
        ("k_prime", _optional(_positive())),
        ("kp_from", _unless("k_prime", _SCAN_PARTNERS)),
        ("kp_to", _unless("k_prime", _not_below("kp_from", "--k-prime-to must be >= --k-prime-from",
                                                  _SCAN_PARTNERS))),
        ("steps", _unless("k_prime", _count(1))),
    ),
    ("validate", None): (),
}


def parse_args(argv: Optional[Sequence[str]] = None) -> RunConfig:
    """Parse and validate; argparse diagnostics name the offending flag."""
    args = _build_parser().parse_args(argv)
    scales = PhysicalScales(
        hbar=require_positive("--hbar", args.hbar), mass=require_positive("--mass", args.mass)
    )
    params: Dict[str, object] = {}
    for dest, check in _VALIDATION[(args.command, getattr(args, "problem", None))]:
        flag = _FLAGS.get(dest, "--" + dest.replace("_", "-"))
        value = check(flag, getattr(args, dest), params)
        if value is not None:
            params[dest] = value
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
        cut = int(p["levels"]) if "levels" in p else None
        pairs = finite_well_bound_spectrum(dim, float(p["v0"]), float(p["radius"]), sc, cut)
        levels = [level for level, _ in pairs]
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


def _linspace(lo: float, hi: float, steps: int) -> List[float]:
    if steps == 1:
        return [lo]
    h = (hi - lo) / (steps - 1)
    return [lo + i * h for i in range(steps)]


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
    return [(r, float(psi.sample(r))) for r in _sample_grid(r_max, int(p["samples"]))], None


def _scattering_rows(config: RunConfig) -> Tuple[List[Tuple], Optional[str]]:
    p = config.params
    dim = Dimension(int(p["n"]))
    sc = config.scales
    rows = []
    for eps in _linspace(float(p["eps_from"]), float(p["eps_to"]), int(p["steps"])):
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
    return list(enumerate(bessel_j_zeros(nu, count), start=1)), None


def _closure_rows(config: RunConfig) -> Tuple[List[Tuple], Optional[str]]:
    p = config.params
    dim = Dimension(int(p["n"]))
    r_max = float(p["r_max"])
    width = float(p["width"])
    k = float(p["k"])
    if "k_prime" in p:
        partners = [float(p["k_prime"])]
    else:
        partners = _linspace(float(p["kp_from"]), float(p["kp_to"]), int(p["steps"]))
    rows = []
    for kp in partners:
        probe = closure_check(dim, k, kp, r_max, width)
        rows.append((probe.k, probe.k_prime, probe.r_max, probe.smear_width, probe.value))
    return rows, None


# command -> (CSV header / JSON keys, row builder)
_COMMANDS = {
    "spectrum": (("level", "eps", "energy"), _spectrum_rows),
    "wavefunction": (("r", "psi"), _wavefunction_rows),
    "scattering": (("eps", "interior_intensity", "exterior_reflection", "paper_T"), _scattering_rows),
    "zeros": (("index", "zero"), _zeros_rows),
    "closure": (("k", "k_prime", "r_max", "width", "value"), _closure_rows),
}


def run(config: RunConfig) -> int:
    """Execute one validated invocation; returns the exit code."""
    if config.command == "validate":
        # the oracle pulls in scipy.linalg, which no other command needs
        from .oracle.report import validation_report

        report = validation_report(config.scales)
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
        return 0 if report["all_converged"] else 3
    columns, build = _COMMANDS[config.command]
    rows, note = build(config)
    _emit(config, columns, rows, note)
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

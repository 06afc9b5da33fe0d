"""The output checks catch planted faults; the input generator is seeded.

    python3 -m pytest -q bench/test_checks.py

Each test runs the real program on one input, asserts that the checker
accepts the untouched output, then plants one fault and asserts that the
checker rejects it.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402
from radialqm import cli  # noqa: E402
from radialqm.radial.model import DeltaShell, Dimension, PhysicalScales  # noqa: E402
from radialqm.solvers import quantized_transmission_energies  # noqa: E402


def run(op):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(op["argv"])
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}


def edit_json(record, edit):
    doc = json.loads(record["out"])
    edit(doc["rows"])
    return dict(record, out=json.dumps(doc))


def edit_csv(record, edit):
    lines = record["out"].strip("\n").split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
    edit(rows)
    body = [",".join(cli._fmt(int(v) if k in ("level", "index") else v) for k, v in row.items())
            for row in rows]
    return dict(record, out="\n".join([lines[0]] + body) + "\n")


def scale(key, i, factor):
    def edit(rows):
        rows[i][key] *= factor
    return edit


def first_op(workload, seed, command, **match):
    for ops in workloads.rounds(workload, seed):
        for op in ops:
            if op.get("argv", ["transmission"])[0] == command and all(
                    op["p"].get(k) == v for k, v in match.items()):
                return op


def test_scan_intensity_scaled_by_one_ppm():
    op = first_op("scan", 5, "scattering", fmt="json")
    rec = run(op)
    assert checks.check_scan(op, rec) == []
    i = checks.scan_sample_rows(op["p"]["steps"])[0]
    bad = edit_json(rec, scale("interior_intensity", i, 1.0 + 1e-6))
    assert checks.check_scan(op, bad)


def test_scan_csv_reflection_off_unity():
    op = first_op("scan", 5, "scattering", fmt="csv")
    rec = run(op)
    assert checks.check_scan(op, rec) == []
    assert checks.check_scan(op, edit_csv(rec, scale("exterior_reflection", 3, 1.0 + 1e-9)))


FINITE_WELL = workloads._cli(
    ["spectrum", "--problem", "finite-well", "--n", "2", "--v0", "18", "--radius", "1"],
    "json", problem="finite-well", n=2, v0=36.0, R=1.0)
INFINITE_WELL = workloads._cli(
    ["spectrum", "--problem", "infinite-well", "--n", "9", "--radius", "1.5", "--levels", "6"],
    "csv", problem="infinite-well", n=9, R=1.5, levels=6)
SHELL = workloads._cli(
    ["spectrum", "--problem", "delta-shell", "--n", "2", "--gamma", "6", "--radius", "1"],
    "json", problem="delta-shell", n=2, gamma=6.0, R=1.0)


@pytest.mark.parametrize("op", [FINITE_WELL, INFINITE_WELL], ids=["finite", "infinite"])
def test_spectrum_level_dropped(op):
    rec = run(op)
    assert checks.check_spectrum(op, rec) == []
    edit = edit_json if op["p"]["fmt"] == "json" else edit_csv
    assert checks.check_spectrum(op, edit(rec, lambda rows: rows.pop()))


@pytest.mark.parametrize("op", [FINITE_WELL, INFINITE_WELL, SHELL],
                         ids=["finite", "infinite", "shell"])
def test_spectrum_level_shifted_by_1e8(op):
    rec = run(op)
    assert checks.check_spectrum(op, rec) == []
    edit = edit_json if op["p"]["fmt"] == "json" else edit_csv
    assert checks.check_spectrum(op, edit(rec, scale("eps", 0, 1.0 + 1e-8)))


def test_shell_threshold_below_binds_nothing():
    op = workloads._cli(
        ["spectrum", "--problem", "delta-shell", "--n", "4", "--gamma", "2.9", "--radius", "1"],
        "json", problem="delta-shell", n=4, gamma=2.9, R=1.0)
    rec = run(op)
    assert checks.check_spectrum(op, rec) == []
    assert json.loads(rec["out"])["rows"] == []


MODES = [
    workloads._cli(["wavefunction", "--problem", "harmonic", "--n", "3", "--omega", "0.7",
                    "--level", "4", "--samples", "120"], "json",
                   problem="harmonic", n=3, mu=0.7, level=4, samples=120),
    workloads._cli(["wavefunction", "--problem", "infinite-well", "--n", "25", "--radius", "2",
                    "--level", "3", "--samples", "90"], "csv",
                   problem="infinite-well", n=25, R=2.0, level=3, samples=90),
    workloads._cli(["wavefunction", "--problem", "finite-well", "--n", "1", "--v0", "40",
                    "--radius", "1", "--level", "2", "--samples", "80"], "json",
                   problem="finite-well", n=1, v0=80.0, R=1.0, level=2, samples=80),
    workloads._cli(["wavefunction", "--problem", "delta-shell", "--n", "0", "--gamma", "3",
                    "--radius", "1", "--samples", "60"], "json",
                   problem="delta-shell", n=0, gamma=3.0, R=1.0, level=1, samples=60),
]


@pytest.mark.parametrize("op", MODES, ids=lambda op: op["p"]["problem"])
def test_mode_sample_sign_flipped(op):
    rec = run(op)
    assert checks.check_wavefunction(op, rec) == []

    def flip(rows):
        i = max(range(len(rows)), key=lambda j: abs(rows[j]["psi"]))
        rows[i]["psi"] = -rows[i]["psi"]

    edit = edit_json if op["p"]["fmt"] == "json" else edit_csv
    assert checks.check_wavefunction(op, edit(rec, flip))


def test_zero_dropped_and_shifted():
    op = workloads._cli(["zeros", "--nu", "5.5", "--count", "8"], "json", nu=5.5, count=8)
    rec = run(op)
    assert checks.check_zeros(op, rec) == []
    assert checks.check_zeros(op, edit_json(rec, lambda rows: rows.pop(3)))
    assert checks.check_zeros(op, edit_json(rec, scale("zero", 2, 1.0 + 1e-8)))


def test_closure_asymmetry_of_one_ulp():
    a = first_op("solve", 5, "closure")
    p = a["p"]
    b = workloads._cli(["closure", "--n", str(p["n"]), "--k", repr(p["k_prime"]),
                        "--k-prime", repr(p["k"])], "json",
                       n=p["n"], k=p["k_prime"], k_prime=p["k"], r_max=500.0, width=0.05)
    ra, rb = run(a), run(b)
    assert checks.check_closure(a, ra, rb) == []
    nudged = edit_json(rb, lambda rows: rows[0].update(value=math.nextafter(rows[0]["value"], 2.0)))
    assert checks.check_closure(a, ra, nudged)


def test_transmission_energy_dropped():
    p = {"problem": "delta", "g": 1.5, "sign": -1, "strength": -3.0, "n": 1, "R": 1.0,
         "target": 3.0, "eps_range": (1.0, 50.0)}
    op = {"kind": "transmission", "p": p}
    found = quantized_transmission_energies(DeltaShell(g=1.5, sign=-1, R=1.0), Dimension(1),
                                            3.0, (1.0, 50.0), PhysicalScales())
    assert len(found) >= 2
    rec = {"rc": 0, "out": "", "err": "", "result": found}
    assert checks.check_transmission(op, rec) == []
    assert checks.check_transmission(op, dict(rec, result=found[1:]))
    shifted = [found[0] * (1.0 + 1e-6)] + found[1:]
    assert checks.check_transmission(op, dict(rec, result=shifted))


def test_validate_faults():
    rec = run({"argv": ["validate"]})
    assert checks.check_validate([rec, rec]) == []
    doc = json.loads(rec["out"])
    doc["discrepancies"] = [d for d in doc["discrepancies"] if d["id"] != "well_barrier_sign_claim"]
    assert checks.check_validate([dict(rec, out=json.dumps(doc))])
    doc = json.loads(rec["out"])
    doc["rows"][0]["closed_form"] *= 1.0 + 1e-8
    changed = dict(rec, out=json.dumps(doc))
    assert checks.check_validate([changed])
    assert checks.check_validate([rec, changed])


def _rounds(workload, seed, count):
    gen = workloads.rounds(workload, seed, 1)
    return [next(gen) for _ in range(count)]


@pytest.mark.parametrize("workload", ("scan", "solve"))
def test_round_covers_every_stratum(workload):
    ops = next(workloads.rounds(workload, 9))
    n_first_slot = [op["p"]["n"] for op in ops[::len(ops) // workloads.BLOCK]]
    assert sorted(n_first_slot) == sorted(workloads.N_SET)


@pytest.mark.parametrize("workload", tuple(workloads.ROUNDS))
def test_generator_is_deterministic(workload):
    assert _rounds(workload, 3, 4) == _rounds(workload, 3, 4)
    assert _rounds(workload, 3, 2) != _rounds(workload, 4, 2) or workload == "validate"


def test_scan_inputs_in_range():
    for ops in _rounds("scan", 3, 20):
        assert [(op["p"]["band"], op["p"]["problem"]) for op in ops] == [
            (band, problem) for band in workloads.SCAN_BANDS
            for problem, _ in workloads.SCAN_KINDS]
        for op in ops:
            p = op["p"]
            nu = workloads.nu_of(p["n"])
            assert p["n"] in workloads.N_SET
            assert workloads.SCAN_ROWS[0] <= p["steps"] <= workloads.SCAN_ROWS[1]
            assert 0.0 < p["eps_from"] < p["eps_to"]
            x_lo = math.sqrt(p["eps_from"]) * p["R"]
            x_hi = math.sqrt(p["eps_to"]) * p["R"]
            s, a = workloads.series_edge(nu), workloads.asym_edge(nu)
            slack = 1.0 + 1e-5  # six printed digits
            if p["band"] == "series":
                assert x_hi <= s * slack
            elif p["band"] == "cf":
                assert s / slack <= x_lo and x_hi <= a * slack
            else:
                assert a / slack <= x_lo <= x_hi <= 3.0 * a * slack
            assert ("--format" in op["argv"]) == (p["band"] == "series")


def test_solve_inputs_in_range():
    for ops in _rounds("solve", 3, 20):
        assert [op.get("argv", ["transmission"])[0] for op in ops] == (
            ["spectrum"] * 4 + ["wavefunction"] * 4 + ["zeros", "closure", "closure",
                                                      "transmission"])
        for op in ops:
            p = op["p"]
            if op["kind"] == "transmission":
                assert p["n"] in workloads.N_TRANSMISSION
                assert 0.0 < p["eps_range"][0] < p["eps_range"][1]
                continue
            command = op["argv"][0]
            if command == "zeros":
                assert p["nu"] == -0.5 or p["nu"] >= 0.0
                assert 1 <= p["count"] <= 25
                continue
            assert p["n"] in workloads.N_SET
            if p.get("problem") == "finite-well":
                assert p["n"] in workloads.N_WELL and p["v0"] <= 2.0 * workloads.WELL_V0[1]
            if command == "wavefunction":
                assert workloads.SAMPLES[0] <= p["samples"] <= workloads.SAMPLES[1]
                if p["problem"] == "harmonic":
                    assert 0 <= p["level"] <= 10
                if p["problem"] == "delta-shell":
                    assert p["gamma"] * p["R"] > 2.0 * workloads.nu_of(p["n"])
            if command == "spectrum" and p["problem"] == "delta-shell" and p["n"] == 1:
                assert p["gamma"] * p["R"] >= workloads.SHELL_GAMMA_R_N1_MIN * (1.0 - 1e-5)

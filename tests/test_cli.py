"""Command-line surface: formats, exit codes, determinism."""
from __future__ import annotations

import io
import contextlib
import json
import math
import subprocess
import sys

import pytest

from radialqm.cli import main


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_spectrum_csv_table():
    code, out, err = run_cli(["spectrum", "--problem", "infinite-well", "--n", "2",
                              "--radius", "1", "--levels", "3", "--format", "csv"])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "level,eps,energy"
    assert lines[1] == "1,9.86960440109,4.93480220054"
    assert lines[2] == "2,39.4784176044,19.7392088022"
    assert lines[3] == "3,88.8264396098,44.4132198049"


def test_spectrum_json_document():
    code, out, _ = run_cli(["spectrum", "--problem", "finite-well", "--n", "2",
                            "--v0", "18", "--radius", "1", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["command"] == "spectrum"
    assert doc["meta"]["params"]["problem"] == "finite-well"
    assert doc["meta"]["units"] == {"hbar": 1.0, "mass": 1.0}
    # bound levels carry the signed reduced energy
    assert [row["eps"] for row in doc["rows"]] == pytest.approx(
        [-28.82412105776268, -8.689305179835998], rel=1e-12)
    assert [row["level"] for row in doc["rows"]] == [1, 2]


def test_no_result_is_not_an_error():
    code, out, err = run_cli(["spectrum", "--problem", "delta-shell", "--n", "2",
                              "--gamma", "0.5", "--radius", "1", "--format", "csv"])
    assert code == 0
    assert out == "level,eps,energy\n"
    assert "binding threshold" in err
    code, out, _ = run_cli(["spectrum", "--problem", "delta-shell", "--n", "1",
                            "--gamma", "4", "--radius", "1", "--sign", "1",
                            "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == [] and "repulsive" in doc["note"]


def test_domain_error_names_the_flag():
    code, out, err = run_cli(["spectrum", "--problem", "harmonic", "--n", "-1",
                              "--levels", "2"])
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"]["code"] == 2
    assert "--n" in payload["error"]["message"]


def test_missing_problem_parameter_is_a_usage_error():
    code, _, err = run_cli(["spectrum", "--problem", "finite-well", "--n", "2",
                            "--radius", "1"])
    assert code == 2
    assert "--v0" in json.loads(err)["error"]["message"]


def test_scattering_scan_shape_and_reflection():
    code, out, _ = run_cli(["scattering", "--problem", "delta-shell", "--n", "1",
                            "--gamma", "1.5", "--radius", "1", "--eps-from", "0.5",
                            "--eps-to", "50", "--steps", "200", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "eps,interior_intensity,exterior_reflection,paper_T"
    assert len(lines) == 201
    first, last = lines[1].split(","), lines[-1].split(",")
    assert float(first[0]) == 0.5 and float(last[0]) == 50.0
    for line in lines[1:]:
        assert abs(float(line.split(",")[2]) - 1.0) < 1e-10


def test_wavefunction_sampling():
    code, out, _ = run_cli(["wavefunction", "--problem", "harmonic", "--n", "2",
                            "--omega", "1", "--level", "1", "--samples", "400",
                            "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "r,psi"
    assert len(lines) == 401
    values = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert all(math.isfinite(v) for _, v in values)
    # half-step grid keeps the first sample off the origin
    assert values[0][0] > 0.0
    # one interior node for the first excited ladder state
    signs = [v > 0 for _, v in values if abs(v) > 1e-12]
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert flips == 1


def test_zeros_table():
    code, out, _ = run_cli(["zeros", "--nu", "0.5", "--count", "3", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index,zero"
    got = [float(line.split(",")[1]) for line in lines[1:]]
    assert got == pytest.approx([math.pi, 2 * math.pi, 3 * math.pi], rel=1e-11)


def test_closure_probe_row():
    code, out, _ = run_cli(["closure", "--n", "2", "--k", "1", "--k-prime", "1.05",
                            "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,k_prime,r_max,width,value"
    value = float(lines[1].split(",")[-1])
    assert value == pytest.approx(math.exp(-0.5), abs=1e-6)


def test_unit_overrides_rescale_physical_columns():
    base = run_cli(["spectrum", "--problem", "infinite-well", "--n", "2",
                    "--radius", "1", "--levels", "1", "--format", "csv"])[1]
    scaled = run_cli(["spectrum", "--problem", "infinite-well", "--n", "2",
                      "--radius", "1", "--levels", "1", "--hbar", "2",
                      "--format", "csv"])[1]
    eps0, e0 = map(float, base.splitlines()[1].split(",")[1:])
    eps1, e1 = map(float, scaled.splitlines()[1].split(",")[1:])
    # geometry fixes eps; the physical energy scales with hbar^2 / 2m
    assert eps1 == eps0
    assert e1 == pytest.approx(4.0 * e0, rel=1e-10)


def test_output_is_deterministic():
    argv = ["scattering", "--problem", "finite-well", "--n", "2", "--v0", "5",
            "--radius", "1", "--eps-from", "1", "--eps-to", "9", "--steps", "40",
            "--format", "json"]
    first = run_cli(argv)
    second = run_cli(argv)
    assert first == second
    argv_csv = ["spectrum", "--problem", "harmonic", "--n", "3", "--levels", "4",
                "--format", "csv"]
    assert run_cli(argv_csv) == run_cli(argv_csv)


def test_validate_emits_json_regardless_of_format():
    code, out, _ = run_cli(["validate", "--format", "csv"])
    assert code == 0
    doc = json.loads(out)
    assert doc["all_converged"] is True
    assert {row["id"] for row in doc["rows"]} >= {"free_interior_intensity"}
    assert doc["discrepancies"]


def test_shell_level_below_the_double_range_exits_3():
    code, out, err = run_cli(["spectrum", "--problem", "delta-shell", "--n", "1",
                              "--gamma", "0.001", "--radius", "1"])
    assert code == 3 and out == ""
    assert "double range" in json.loads(err)["error"]["message"]


def test_import_leaves_the_oracle_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, radialqm.cli; "
         "print([m for m in sys.modules if m.startswith(('radialqm.oracle', 'scipy'))])"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[]"


def test_validate_at_other_masses():
    for mass in (1.25, 2.0):
        code, out, _ = run_cli(["validate", "--mass", str(mass)])
        assert code == 0
        doc = json.loads(out)
        assert doc["all_converged"] is True
        ledger = {entry["id"]: entry for entry in doc["discrepancies"]}
        assert ledger["finite_well_printed_arguments"]["evidence"]["v0"] == 36.0 * mass


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "radialqm.cli", "spectrum", "--problem", "infinite-well",
         "--n", "2", "--radius", "1", "--levels", "1", "--format", "csv"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("1,9.86960440109,")

"""Command-line surface: formats, exit codes, determinism."""
from __future__ import annotations

import io
import contextlib
import json
import math
import subprocess
import sys

import mpmath
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


@pytest.mark.parametrize("command", ("spectrum", "wavefunction"))
def test_shell_level_above_the_double_range_exits_3(command):
    # kappa R = 5e299 is a double, its square is not
    code, out, err = run_cli([command, "--problem", "delta-shell", "--n", "2",
                              "--gamma", "1e300", "--radius", "1"])
    assert code == 3 and out == ""
    assert "leaves the double range" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("n, radius, gamma", [(25, "0.900246", "928.375"), (1, "1", "900")])
def test_strongly_bound_shell_mode_matches_mpmath(n, radius, gamma):
    # the squared interface coefficient (about 1e193 at gamma = 900) leaves the double range
    code, out, err = run_cli(["wavefunction", "--problem", "delta-shell", "--n", str(n),
                              "--radius", radius, "--gamma", gamma, "--samples", "40",
                              "--format", "json"])
    assert code == 0, err
    rows = json.loads(out)["rows"]
    with mpmath.workdps(30):
        nu, R, g = mpmath.mpf(n - 1) / 2, mpmath.mpf(radius), mpmath.mpf(gamma)
        x = mpmath.findroot(lambda t: mpmath.besseli(nu, t) * mpmath.besselk(nu, t) - 1 / (g * R),
                            g * R / 2)
        kappa, a, b = x / R, mpmath.besselk(nu, x), mpmath.besseli(nu, x)

        def form(r):
            inner = a * mpmath.besseli(nu, kappa * r) if r < R else b * mpmath.besselk(nu, kappa * r)
            return inner * r ** -nu

        width = 1 / kappa
        mass = (mpmath.quad(lambda r: r**n * form(r) ** 2, [0, R - 20 * width, R - 4 * width, R])
                + mpmath.quad(lambda r: r**n * form(r) ** 2, [R, R + 4 * width, R + 40 * width]))
        want = [float(form(mpmath.mpf(row["r"])) / mpmath.sqrt(mass)) for row in rows]
    scale = max(abs(w) for w in want)
    assert max(abs(row["psi"] - w) for row, w in zip(rows, want)) <= 1e-10 * scale


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
        assert ledger["well_barrier_sign_claim"]["evidence"]["reduced_coupling_magnitude"] == 3.0 * mass


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "radialqm.cli", "spectrum", "--problem", "infinite-well",
         "--n", "2", "--radius", "1", "--levels", "1", "--format", "csv"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("1,9.86960440109,")


@pytest.mark.parametrize("n, omega, level", [(0, 1.0, 14), (25, 0.5, 3)])
def test_oscillator_modes_of_large_unnormalized_mass(n, omega, level):
    # the unnormalized mass is 1.3e15 at n = 0, level 14
    code, out, err = run_cli(["wavefunction", "--problem", "harmonic", "--n", str(n),
                              "--omega", str(omega), "--level", str(level), "--format", "json"])
    assert code == 0, err
    rows = json.loads(out)["rows"]
    with mpmath.workdps(30):
        mu, N = mpmath.mpf(omega), level
        if n == 0:
            mass = 2**N * mpmath.factorial(N) * mpmath.sqrt(mpmath.pi / mu) / 2
            form = lambda r: mpmath.hermite(N, mpmath.sqrt(mu) * r)
        else:
            nu = mpmath.mpf(n - 1) / 2
            mass = mpmath.gamma(N + nu + 1) / (2 * mpmath.factorial(N) * mu ** ((n + 1) / 2))
            form = lambda r: mpmath.laguerre(N, nu, mu * r * r)
        want = [float(form(r) * mpmath.exp(-mu * r * r / 2) / mpmath.sqrt(mass))
                for r in (mpmath.mpf(row["r"]) for row in rows)]
    scale = max(abs(w) for w in want)
    assert max(abs(row["psi"] - w) for row, w in zip(rows, want)) <= 1e-10 * scale


def test_zero_table_where_the_order_sweep_lands_on_a_zero():
    code, out, err = run_cli(["zeros", "--nu", "0.268203", "--count", "2"])
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["1,2.80760836211", "2,5.93388079602"]


def test_box_at_high_order_starts_at_the_true_first_zero():
    # 210.520262549388 is mpmath's first zero of J_199.5
    code, out, _ = run_cli(["spectrum", "--problem", "infinite-well", "--n", "400",
                            "--radius", "1", "--levels", "1"])
    assert code == 0
    assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(210.520262549388**2, rel=1e-11)
    # the mode's norm constant divides by J_200.5 at the zero, which is 0 at a spurious one
    code, out, _ = run_cli(["wavefunction", "--problem", "infinite-well", "--n", "400",
                            "--radius", "1", "--level", "1", "--samples", "5"])
    assert code == 0
    # mpmath: sqrt(2) r^-199.5 J_199.5(z r) / |J_200.5(z)| at r = 0.5
    assert out.splitlines()[3] == "0.5,1.33180263824e+25"


def test_box_at_high_order_samples_near_the_origin():
    # J_199.5(10.5) needs the series seed past the overflow of Gamma(200.5)
    code, out, _ = run_cli(["wavefunction", "--problem", "infinite-well", "--n", "400",
                            "--radius", "1", "--level", "1", "--samples", "10"])
    assert code == 0
    r, psi = out.splitlines()[1].split(",")
    # mpmath: sqrt(2) r^-199.5 J_199.5(z r) / |J_200.5(z)| at r = 0.05
    assert r == "0.05"
    assert float(psi) == pytest.approx(1.9563263978661384216e31, rel=1e-11)


_SP = ["spectrum", "--n", "2", "--problem"]
_WF = ["wavefunction", "--n", "2", "--problem"]
_SC = ["scattering", "--n", "2", "--radius", "1", "--eps-from", "1", "--eps-to", "2",
       "--steps", "3", "--problem"]
_CL = ["closure", "--n", "2", "--k", "1"]

# every validation branch once: argv, exact error message (all exit 2)
_REJECTED = [
    # units, checked before any command
    (["zeros", "--nu", "1", "--count", "2", "--hbar", "0"],
     "--hbar must be positive and finite, got 0.0"),
    (["zeros", "--nu", "1", "--count", "2", "--hbar", "nan"],
     "--hbar must be positive and finite, got nan"),
    (["zeros", "--nu", "1", "--count", "2", "--mass", "-1"],
     "--mass must be positive and finite, got -1.0"),
    (["zeros", "--nu", "1", "--count", "2", "--mass", "inf"],
     "--mass must be positive and finite, got inf"),
    # spectrum
    (["spectrum", "--n", "-1", "--problem", "harmonic", "--levels", "2"],
     "--n must be >= 0, got -1"),
    (_SP + ["infinite-well", "--levels", "2"],
     "--radius is required for --problem infinite-well"),
    (_SP + ["infinite-well", "--radius", "0", "--levels", "2"],
     "--radius must be positive and finite, got 0.0"),
    (_SP + ["infinite-well", "--radius", "1"], "--levels is required"),
    (_SP + ["infinite-well", "--radius", "1", "--levels", "0"], "--levels must be >= 1, got 0"),
    (_SP + ["harmonic", "--omega", "0", "--levels", "2"],
     "--omega must be positive and finite, got 0.0"),
    (_SP + ["harmonic"], "--levels is required"),
    (_SP + ["harmonic", "--levels", "-3"], "--levels must be >= 1, got -3"),
    (_SP + ["finite-well", "--radius", "1"], "--v0 is required for --problem finite-well"),
    (_SP + ["finite-well", "--v0", "-5", "--radius", "1"],
     "--v0 must be positive and finite, got -5.0"),
    (_SP + ["finite-well", "--v0", "5"], "--radius is required for --problem finite-well"),
    (_SP + ["finite-well", "--v0", "5", "--radius", "inf"],
     "--radius must be positive and finite, got inf"),
    (_SP + ["finite-well", "--v0", "5", "--radius", "1", "--levels", "0"],
     "--levels must be >= 1, got 0"),
    (_SP + ["delta-shell", "--radius", "1"], "--gamma is required for --problem delta-shell"),
    (_SP + ["delta-shell", "--gamma", "0", "--radius", "1"],
     "--gamma must be positive and finite, got 0.0"),
    (_SP + ["delta-shell", "--gamma", "3"], "--radius is required for --problem delta-shell"),
    (_SP + ["delta-shell", "--gamma", "3", "--radius", "-2"],
     "--radius must be positive and finite, got -2.0"),
    # wavefunction
    (["wavefunction", "--n", "-2", "--problem", "harmonic", "--level", "1"],
     "--n must be >= 0, got -2"),
    (_WF + ["harmonic", "--level", "1", "--samples", "1"], "--samples must be >= 2, got 1"),
    (_WF + ["infinite-well", "--level", "1"], "--radius is required for --problem infinite-well"),
    (_WF + ["infinite-well", "--radius", "0", "--level", "1"],
     "--radius must be positive and finite, got 0.0"),
    (_WF + ["infinite-well", "--radius", "1"], "--level is required"),
    (_WF + ["infinite-well", "--radius", "1", "--level", "0"], "--level must be >= 1, got 0"),
    (_WF + ["harmonic", "--omega", "-1", "--level", "1"],
     "--omega must be positive and finite, got -1.0"),
    (_WF + ["harmonic"], "--level is required"),
    (_WF + ["harmonic", "--level", "-1"], "--level must be >= 0, got -1"),
    (_WF + ["finite-well", "--radius", "1", "--level", "1"],
     "--v0 is required for --problem finite-well"),
    (_WF + ["finite-well", "--v0", "0", "--radius", "1", "--level", "1"],
     "--v0 must be positive and finite, got 0.0"),
    (_WF + ["finite-well", "--v0", "5", "--level", "1"],
     "--radius is required for --problem finite-well"),
    (_WF + ["finite-well", "--v0", "5", "--radius", "0", "--level", "1"],
     "--radius must be positive and finite, got 0.0"),
    (_WF + ["finite-well", "--v0", "5", "--radius", "1"], "--level is required"),
    (_WF + ["finite-well", "--v0", "5", "--radius", "1", "--level", "0"],
     "--level must be >= 1, got 0"),
    (_WF + ["delta-shell", "--radius", "1"], "--gamma is required for --problem delta-shell"),
    (_WF + ["delta-shell", "--gamma", "-3", "--radius", "1"],
     "--gamma must be positive and finite, got -3.0"),
    (_WF + ["delta-shell", "--gamma", "3"], "--radius is required for --problem delta-shell"),
    (_WF + ["delta-shell", "--gamma", "3", "--radius", "0"],
     "--radius must be positive and finite, got 0.0"),
    (_WF + ["delta-shell", "--gamma", "3", "--radius", "1", "--level", "0"],
     "--level must be >= 1, got 0"),
    (_WF + ["harmonic", "--level", "1", "--r-max", "0"],
     "--r-max must be positive and finite, got 0.0"),
    # scattering
    (["scattering", "--n", "-1", "--radius", "1", "--eps-from", "1", "--eps-to", "2",
      "--steps", "3", "--problem", "finite-well", "--v0", "5"], "--n must be >= 0, got -1"),
    (["scattering", "--n", "2", "--radius", "0", "--eps-from", "1", "--eps-to", "2",
      "--steps", "3", "--problem", "finite-well", "--v0", "5"],
     "--radius must be positive and finite, got 0.0"),
    (_SC + ["delta-shell"], "--gamma is required for --problem delta-shell"),
    (_SC + ["delta-shell", "--gamma", "0"], "--gamma must be positive and finite, got 0.0"),
    (_SC + ["finite-well"], "--v0 is required for --problem finite-well"),
    (_SC + ["finite-well", "--v0", "0"], "--v0 must be positive and finite, got 0.0"),
    (["scattering", "--n", "2", "--radius", "1", "--eps-from", "0", "--eps-to", "2",
      "--steps", "3", "--problem", "finite-well", "--v0", "5"],
     "--eps-from must be positive and finite, got 0.0"),
    (["scattering", "--n", "2", "--radius", "1", "--eps-from", "1", "--eps-to", "-2",
      "--steps", "3", "--problem", "finite-well", "--v0", "5"],
     "--eps-to must be positive and finite, got -2.0"),
    (["scattering", "--n", "2", "--radius", "1", "--eps-from", "2", "--eps-to", "1",
      "--steps", "3", "--problem", "delta-shell", "--gamma", "1"],
     "--eps-to must be >= --eps-from, got 1.0 < 2.0"),
    (["scattering", "--n", "2", "--radius", "1", "--eps-from", "1", "--eps-to", "2",
      "--steps", "0", "--problem", "delta-shell", "--gamma", "1"],
     "--steps must be >= 1, got 0"),
    # zeros
    (["zeros", "--nu", "-1", "--count", "2"], "--nu must be >= -0.5, got -1.0"),
    (["zeros", "--nu", "inf", "--count", "2"], "--nu must be >= -0.5, got inf"),
    (["zeros", "--nu", "1", "--count", "0"], "--count must be >= 1, got 0"),
    # closure
    (["closure", "--n", "-1", "--k", "1", "--k-prime", "1"], "--n must be >= 0, got -1"),
    (["closure", "--n", "2", "--k", "0", "--k-prime", "1"],
     "--k must be positive and finite, got 0.0"),
    (_CL + ["--k-prime", "1", "--r-max", "-1"], "--r-max must be positive and finite, got -1.0"),
    (_CL + ["--k-prime", "1", "--width", "0"], "--width must be positive and finite, got 0.0"),
    (_CL + ["--k-prime", "0"], "--k-prime must be positive and finite, got 0.0"),
    (_CL, "--k-prime-from is required (or pass --k-prime)"),
    (_CL + ["--k-prime-from", "0"], "--k-prime-from must be positive and finite, got 0.0"),
    (_CL + ["--k-prime-from", "1"], "--k-prime-to is required (or pass --k-prime)"),
    (_CL + ["--k-prime-from", "1", "--k-prime-to", "inf"],
     "--k-prime-to must be positive and finite, got inf"),
    (_CL + ["--k-prime-from", "2", "--k-prime-to", "1", "--steps", "3"],
     "--k-prime-to must be >= --k-prime-from"),
    (_CL + ["--k-prime-from", "1", "--k-prime-to", "2"], "--steps is required"),
    (_CL + ["--k-prime-from", "1", "--k-prime-to", "2", "--steps", "0"],
     "--steps must be >= 1, got 0"),
]


@pytest.mark.parametrize("argv, message", _REJECTED, ids=[" ".join(a) for a, _ in _REJECTED])
def test_every_rejected_parameter_has_a_pinned_message(argv, message):
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": {"code": 2, "message": message}}


def test_validate_where_the_report_well_binds_one_level_exits_3():
    # at mass 0.5 the V0 = 18, R = 1, n = 2 well holds one level; the
    # finite-well rows need two
    code, out, err = run_cli(["validate", "--mass", "0.5"])
    assert code == 3 and out == ""
    assert "level 2 is missing" in json.loads(err)["error"]["message"]

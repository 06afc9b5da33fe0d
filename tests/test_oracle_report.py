"""Cross-validation matrix and the JSON validation report."""
from __future__ import annotations

import dataclasses
import json
import math

import mpmath
import pytest

from radialqm.cli import main
from radialqm.oracle import OracleReport, fd, series, validation_report
from radialqm.oracle import report as report_module
from radialqm.oracle.series import series_reference
from radialqm.radial import Dimension, PhysicalScales
from radialqm.radial.model import Harmonic
from radialqm.solvers import (
    delta_bound_energy,
    finite_well_bound_spectrum,
    infinite_well_spectrum,
    oscillator_spectrum,
)

REQUIRED_DISCREPANCIES = {
    "printed_infinite_well_norm_constant",
    "oscillator_ladder_symbol",
    "printed_oscillator_norm_constant",
    "delta_smallx_energy_formula",
    "finite_well_scattering_prefactor",
    "delta_scattering_rate_labels",
    "well_barrier_sign_claim",
}


@pytest.fixture(scope="module")
def report():
    return validation_report()


@pytest.fixture(scope="module")
def default_rows(report):
    # the report's rows minus the shell-bound pair, which carries its
    # own tolerance
    return [OracleReport(**row) for row in report["rows"]
            if not row["id"].startswith("delta_shell_bound_")]


def test_default_suite_passes_and_converges(default_rows):
    assert len(default_rows) == 27
    assert all(row.converged for row in default_rows)
    # the shooting rows reach 5.5e-8, the extrapolated spectra 3.1e-10
    assert max(row.rel_diff for row in default_rows) < 1e-7
    spectra = [row for row in default_rows
               if row.id.startswith(("infinite_well_", "oscillator_", "finite_well_n"))]
    assert len(spectra) == 16
    assert max(row.rel_diff for row in spectra) < 1e-9


def test_shell_rows_pass_and_converge(report):
    # measured 1.3e-10 (n = 2) and 2.2e-9 (strong n = 0)
    shells = [row for row in report["rows"] if row["id"].startswith("delta_shell_bound_")]
    assert len(shells) == 2
    assert all(row["converged"] and row["rel_diff"] < 1e-8 for row in shells)


def test_every_spectrum_family_converges_at_second_order(monkeypatch):
    # the three grids of every finite-difference row: successive gaps
    # shrink by p^2 for the coarsening factor p
    solves = []

    def recorded(dim, pot, grid, count, sc):
        levels = fd.fd_bound_spectrum(dim, pot, grid, count, sc)
        solves.append((grid.points, [lv.eps for lv in levels]))
        return levels

    def finite_well_rows(sc):
        well = finite_well_bound_spectrum(Dimension(2), 18.0, 1.0, sc)
        return report_module._finite_well_rows(sc, well)

    monkeypatch.setattr(report_module, "fd_bound_spectrum", recorded)
    sc = PhysicalScales()
    families = (report_module._well_rows, report_module._oscillator_rows,
                finite_well_rows, report_module._shell_bound_rows)
    for rows in families:
        solves.clear()
        rows(sc)
        assert solves and len(solves) % 3 == 0
        for (n_f, fine), (n_m, mid), (_, coarse) in zip(*[iter(solves)] * 3):
            for f, m, c in zip(fine, mid, coarse):
                order = math.log(abs((c - m) / (m - f))) / math.log(n_f / n_m)
                assert 1.8 <= order <= 2.2, (rows.__name__, n_f, order)


def _scaled_eps(level, factor):
    return dataclasses.replace(level, eps=level.eps * factor)


@pytest.mark.parametrize("target", ("delta_bound_energy", "infinite_well_spectrum"))
def test_a_closed_form_off_by_one_part_in_a_million_fails_validate(target, monkeypatch, capsys):
    # budgets of 1e-8 (spectra) and 1e-7 (shells) must catch an error
    # of 1e-6 that the old 1e-4 and 2e-3 let through
    def off_shell(*args):
        level, root = delta_bound_energy(*args)
        return _scaled_eps(level, 1.0 + 1e-6), root

    def off_box(*args):
        return [_scaled_eps(level, 1.0 + 1e-6) for level in infinite_well_spectrum(*args)]

    monkeypatch.setattr(report_module, target,
                        off_shell if target == "delta_bound_energy" else off_box)
    assert main(["validate"]) == 3
    report = json.loads(capsys.readouterr().out)
    failing = [row["id"] for row in report["rows"] if row["rel_diff"] > 1e-7]
    prefix = "delta_shell_bound_" if target == "delta_bound_energy" else "infinite_well_"
    assert failing and all(rid.startswith(prefix) for rid in failing)


def test_report_rows_have_the_contract_fields(default_rows):
    for row in default_rows:
        assert isinstance(row, OracleReport)
        payload = dataclasses.asdict(row)
        assert set(payload) == {"id", "closed_form", "oracle", "rel_diff", "converged"}
        # rel_diff is |closed - oracle| scaled by the closed value
        expected = abs(row.closed_form - row.oracle) / max(abs(row.closed_form), 1e-12)
        assert row.rel_diff == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_row_ids_are_unique(default_rows):
    ids = [row.id for row in default_rows]
    assert len(ids) == len(set(ids))


def test_every_problem_family_is_covered(default_rows):
    ids = " ".join(row.id for row in default_rows)
    for token in ("well", "oscillator", "finite_well", "free", "delta", "shooting", "series"):
        assert token in ids


def test_coarse_suite_flags_non_convergence():
    # negative control: the n = 1 oscillator rows on unresolved grids
    # (400, 200, 100 cells) must trip the convergence flag
    sc = PhysicalScales()
    dim = Dimension(1)
    closed = oscillator_spectrum(dim, 1.0, 2, sc)
    cases = [(f"oscillator_n1_N{k}", closed[k].eps, k) for k in (0, 1)]
    pairs = report_module._extrapolated_rows(cases, dim, Harmonic(1.0), 9.0, 400, 2,
                                             report_module._SPECTRUM_TOL, sc)
    assert len(pairs) == 2
    assert not any(row.converged for row, _ in pairs)


def test_report_structure(report):
    assert set(report) == {"meta", "rows", "all_converged", "discrepancies"}
    assert report["meta"]["suite"] == "default+shell_bound"
    assert report["meta"]["hbar"] == 1.0 and report["meta"]["mass"] == 1.0
    assert len(report["rows"]) == 29
    assert report["all_converged"] is True
    json.dumps(report)


def test_report_rows_are_plain_dicts(report):
    for row in report["rows"]:
        assert set(row) == {"id", "closed_form", "oracle", "rel_diff", "converged"}


def test_discrepancy_ledger_is_present(report):
    entries = {d["id"]: d for d in report["discrepancies"]}
    assert REQUIRED_DISCREPANCIES <= set(entries)
    for d in report["discrepancies"]:
        assert set(d) == {"id", "printed", "implemented", "evidence", "resolution"}
        assert d["printed"] and d["implemented"] and d["resolution"]
        assert isinstance(d["evidence"], dict) and d["evidence"]
        # evidence must be computed numbers, not prose
        assert any(isinstance(v, (int, float)) for v in d["evidence"].values())


def test_sign_claim_cites_the_swept_rows(report):
    rows = {row["id"]: row for row in report["rows"]}
    entry = next(d for d in report["discrepancies"] if d["id"] == "well_barrier_sign_claim")
    well = entry["evidence"]["attractive_oracle_interior_intensity"]
    barrier = entry["evidence"]["barrier_oracle_interior_intensity"]
    assert well == rows["delta_scattering_attractive_n1"]["oracle"]
    assert barrier == rows["delta_scattering_barrier_n1"]["oracle"]
    assert abs(well - barrier) > 1.0


def test_ladder_entry_reads_the_oscillator_rows(report):
    sc = PhysicalScales()
    rows = {row["id"]: row for row in report["rows"]}
    entry = next(d for d in report["discrepancies"] if d["id"] == "oscillator_ladder_symbol")
    assert entry["evidence"]["fd_oracle_E"] == [
        sc.physical_energy(rows[f"oscillator_n2_N{k}"]["oracle"]) for k in (0, 1)
    ]


def test_report_module_guards_against_mutation(default_rows):
    with pytest.raises(dataclasses.FrozenInstanceError):
        default_rows[0].rel_diff = 0.0


def test_a_second_report_repeats_the_bytes_and_the_series_work(report, monkeypatch):
    # each distinct series reference is evaluated once per report, and no
    # value carries over from the report before
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return series_reference(*args, **kwargs)

    monkeypatch.setattr(fd, "series_reference", counted)
    monkeypatch.setattr(report_module, "series_reference", counted)
    assert json.dumps(validation_report()) == json.dumps(report)
    assert len(calls) == len(set(calls)) == 38


def test_every_report_reference_is_proven_at_two_precisions(monkeypatch):
    # a reference's digits are claimed only after evaluations at two
    # working precisions agree
    precisions = []
    evaluate = series._eval_once

    def traced_eval(*args):
        precisions[-1].add(mpmath.mp.prec)
        return evaluate(*args)

    def traced(*args, **kwargs):
        precisions.append(set())
        return series_reference(*args, **kwargs)

    monkeypatch.setattr(series, "_eval_once", traced_eval)
    monkeypatch.setattr(fd, "series_reference", traced)
    monkeypatch.setattr(report_module, "series_reference", traced)
    validation_report()
    assert len(precisions) == 38
    assert min(len(seen) for seen in precisions) >= 2


def test_a_report_makes_at_most_140_sweeps_and_no_lane_batch(monkeypatch):
    # 94 shooting sweeps and 16 scattering sweeps; plain bisection of the
    # six shooting brackets alone takes 200
    calls = []
    sweep = fd._rk4_sweep

    def counted(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(fd, "_rk4_sweep", counted)
    validation_report()
    assert len(calls) <= 140
    assert not [name for name in vars(fd) if "lane" in name]

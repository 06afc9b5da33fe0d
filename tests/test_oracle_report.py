"""Cross-validation matrix and the JSON validation report."""
from __future__ import annotations

import dataclasses
import json

import pytest

from radialqm.oracle import Grid, OracleReport, fd, fd_bound_spectrum, validation_report
from radialqm.oracle import report as report_module
from radialqm.oracle.series import series_reference
from radialqm.radial import Dimension, PhysicalScales
from radialqm.radial.model import Harmonic
from radialqm.solvers import oscillator_spectrum

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
    # the report's rows minus the regularized shell-bound pair, which
    # carries its own looser tolerance
    return [OracleReport(**row) for row in report["rows"]
            if not row["id"].startswith("delta_shell_bound_")]


def test_default_suite_passes_and_converges(default_rows):
    assert len(default_rows) == 27
    assert all(row.converged for row in default_rows)
    assert max(row.rel_diff for row in default_rows) < 1e-4


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
    # negative control: the n = 1 oscillator rows on an unresolved grid
    # pair must trip the convergence flag
    sc = PhysicalScales()
    dim = Dimension(1)
    closed = oscillator_spectrum(dim, 1.0, 2, sc)
    fine = fd_bound_spectrum(dim, Harmonic(1.0), Grid(9.0, 160), 2, sc)
    half = fd_bound_spectrum(dim, Harmonic(1.0), Grid(9.0, 100), 2, sc)
    for k in (0, 1):
        row, _ = report_module._row(f"oscillator_n1_N{k}", closed[k].eps, fine[k].eps,
                                    half[k].eps, report_module._SPECTRUM_TOL)
        assert not row.converged


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

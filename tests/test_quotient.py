"""Quotient verification reports for the toral and Heisenberg lattices."""

import pytest

from solfold import (
    QuotientReport,
    ToralGroupSpec,
    heis_quotient_check,
    sol_quotient_check,
    structural_notes,
)

SPEC = ToralGroupSpec.from_matrix([[2, 1], [1, 1]])


def test_sol_quotient_report_passes():
    report = sol_quotient_check(SPEC, samples=1000, seed=0)
    assert isinstance(report, QuotientReport)
    assert report.passed
    assert report.component_count == 4
    assert report.samples == 1000 and report.seed == 0
    names = [c.name for c in report.checks]
    assert names == ["leaf-preservation", "reduction-invariance",
                     "semidirect-relation", "component-preservation"]
    by_name = {c.name: c for c in report.checks}
    assert by_name["leaf-preservation"].residual < 1e-10
    assert by_name["reduction-invariance"].residual < 1e-8
    assert by_name["semidirect-relation"].residual < 1e-12
    assert by_name["component-preservation"].residual == 0.0
    assert report.max_residual == max(c.residual for c in report.checks)


def test_sol_quotient_deterministic_given_seed():
    a = sol_quotient_check(SPEC, samples=50, seed=3)
    b = sol_quotient_check(SPEC, samples=50, seed=3)
    assert [c.residual for c in a.checks] == [c.residual for c in b.checks]


def test_sol_quotient_rejects_empty_sampling():
    with pytest.raises(ValueError):
        sol_quotient_check(SPEC, samples=0)


def test_heis_quotient_report_passes():
    report = heis_quotient_check((1, 1, 1), samples=1000, seed=0)
    assert report.passed
    assert report.component_count == 1
    assert "[0,1) x [0,1) x [0,1)" in report.fundamental_domain
    by_name = {c.name: c for c in report.checks}
    assert by_name["height-invariance"].residual == 0.0
    assert by_name["height-invariance"].threshold == 0.0
    assert by_name["reduction-invariance"].residual < 1e-12
    assert by_name["commutator"].residual == 0.0


def test_heis_quotient_nontrivial_moduli():
    report = heis_quotient_check((2, 3, 6), samples=200, seed=1)
    assert report.passed
    assert "[0,2) x [0,3) x [0,6)" in report.fundamental_domain


def test_heis_quotient_rejects_bad_moduli():
    with pytest.raises(ValueError):
        heis_quotient_check((2, 2, 3), samples=5)
    with pytest.raises(ValueError):
        heis_quotient_check((1, 1, 1), samples=0)


def test_structural_notes_are_flagged_unverified():
    notes = structural_notes()
    assert len(notes) == 2
    for note in notes:
        assert note.verified is False
        assert note.status == "NOT VERIFIED - REPORT ONLY"
    with_spec = structural_notes(SPEC)
    assert len(with_spec) == 3
    assert all(n.status == "NOT VERIFIED - REPORT ONLY" for n in with_spec)
    assert "[[2, 1], [1, 1]]" in with_spec[2].statement

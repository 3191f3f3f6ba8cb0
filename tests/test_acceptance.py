"""Acceptance gate: every criterion at its stated tolerance, one line each."""

import pytest

import tmscat.acceptance as acceptance
import tmscat.closedforms as cf
from tmscat.acceptance import CRITERIA


@pytest.mark.parametrize("index", range(1, len(CRITERIA) + 1),
                         ids=[f"criterion_{i}" for i in range(1, len(CRITERIA) + 1)])
def test_criterion(index, capsys):
    result = acceptance.run(index)
    with capsys.disabled():
        print(result.line())
    assert result.passed, result.detail


def test_run_all_records_a_raising_criterion_as_failed_and_carries_on(monkeypatch):
    def raises():
        raise ZeroDivisionError("no figure")

    monkeypatch.setattr(acceptance, "CRITERIA", (("first", raises, None),
                                                 ("second", lambda: [("err", 0.0, 1.0)], None)))
    first, second = acceptance.run_all()
    # reported under its own number and name, like a passing criterion
    assert (first.index, first.name, first.passed) == (1, "first", False)
    assert first.detail == "raised ZeroDivisionError: no figure"
    assert (second.index, second.name, second.passed) == (2, "second", True)
    assert second.line().startswith("PASS criterion  2 second: err 0 (tol 1)")


@pytest.mark.parametrize("figure, shown", [
    (("err", 1e-8, 1e-8), "err 1e-08 (tol 1e-08)"),
    (("err", 3.5e-6, 1e-8), "err 3.5e-06 (tol 1e-08)"),
    (("err", float("nan"), 1e-8), "err nan (tol 1e-08)"),
    (("holds", False, None), "holds False"),
], ids=["at-tol", "above-tol", "nan", "false-fact"])
def test_a_figure_that_does_not_hold_fails_its_criterion_by_name(monkeypatch, figure, shown):
    monkeypatch.setattr(acceptance, "CRITERIA", (
        ("stub", lambda: [("fine", 1e-9, 1e-8), figure, ("true", True, None)], None),))
    result = acceptance.run(1)
    assert not result.passed
    assert result.detail == f"fine 1e-09 (tol 1e-08), {shown}, true True"
    assert result.line().startswith(f"FAIL criterion  1 stub: fine 1e-09 (tol 1e-08), {shown}")


def test_a_budget_overrun_fails_with_its_runtime_figure(monkeypatch):
    monkeypatch.setattr(acceptance, "CRITERIA", (
        ("quick", lambda: [("err", 0.0, 1.0)], 60.0),
        ("overrun", lambda: [("err", 0.0, 1.0)], 0.0)))
    quick, overrun = acceptance.run_all()
    assert quick.passed and quick.detail.startswith("err 0 (tol 1), runtime ")
    assert quick.detail.endswith(" (tol 60)")
    assert not overrun.passed
    assert overrun.detail.startswith("err 0 (tol 1), runtime ")
    assert overrun.detail.endswith(" (tol 0)")


def test_a_singularity_that_does_not_raise_fails_criterion_3(monkeypatch):
    # a closed form that returns a number at strength = 4i, where it must raise
    monkeypatch.setattr(cf, "delta2d_amplitude", lambda strength: 0.0j)
    result = acceptance.run(3)
    assert not result.passed
    assert "closed-form raises False" in result.detail

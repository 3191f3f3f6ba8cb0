"""Acceptance gate: every criterion at its stated tolerance, one line each."""

import pytest

import tmscat.acceptance as acceptance
from tmscat.acceptance import CRITERIA, CriterionResult


@pytest.mark.parametrize("criterion", CRITERIA, ids=[f.__name__ for f in CRITERIA])
def test_criterion(criterion, capsys):
    result = criterion()
    with capsys.disabled():
        print(result.line())
    assert result.passed, result.detail


def test_run_all_records_a_raising_criterion_as_failed_and_carries_on(monkeypatch):
    def criterion_raises():
        raise ZeroDivisionError("no figure")

    def criterion_passes():
        return CriterionResult(2, "passes", True, "ok", 0.0)

    monkeypatch.setattr(acceptance, "CRITERIA", (criterion_raises, criterion_passes))
    first, second = acceptance.run_all()
    assert (first.index, first.name, first.passed) == (1, "criterion_raises", False)
    assert first.detail == "raised ZeroDivisionError: no figure"
    assert second.passed and second.detail == "ok"

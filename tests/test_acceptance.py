"""Acceptance suite: every criterion runs at zero tolerance and prints
one PASS/FAIL line."""

import pytest

from minorbit import acceptance, bwb


@pytest.mark.parametrize("criterion", acceptance.ALL_CRITERIA,
                         ids=[f"criterion_{i}" for i in range(1, 11)])
def test_criterion(criterion):
    res = criterion()
    print(f"{'PASS' if res.passed else 'FAIL'} criterion {res.number}: {res.title}")
    assert res.passed, res.detail


def test_criterion_10_window_ranks_are_computed(monkeypatch):
    # the window ranks come from the tilting summands, so a wrong bundle
    # rank must fail the criterion
    real = bwb.BundleExpr.rank
    monkeypatch.setattr(bwb.BundleExpr, "rank", lambda self: real(self) + 1)
    res = acceptance.criterion_10()
    assert not res.passed
    assert "Lambda_k" in res.detail and "LambdaPrime" in res.detail

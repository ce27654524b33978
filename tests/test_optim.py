"""The separation minimizers: one result type, evaluation budgets, defaults."""

import pytest

from solfold import heis_leaf_separation_numeric, leaf_separation_numeric
from solfold import heisenberg, sol

MINIMIZERS = {"sol": leaf_separation_numeric, "heis": heis_leaf_separation_numeric}


def test_one_separation_result_type():
    assert sol.SeparationResult is heisenberg.SeparationResult


@pytest.mark.parametrize("budget", [1, 500, 2000])
@pytest.mark.parametrize("name", sorted(MINIMIZERS))
def test_separation_spends_at_most_its_budget(name, budget):
    minimize = MINIMIZERS[name]
    unlimited = minimize(0.3, -1.2)
    res = minimize(0.3, -1.2, budget=budget)
    assert res.evaluations <= budget
    # a budget the unlimited search fits in changes nothing; a smaller one
    # must report that the search was cut short
    if budget >= unlimited.evaluations:
        assert res == unlimited
    else:
        assert not res.converged


@pytest.mark.parametrize("name, evaluations", [("sol", 1378), ("heis", 458)])
def test_separation_default_budget_result(name, evaluations):
    res = MINIMIZERS[name](0.0, 1.0)
    assert res.converged
    assert res.evaluations == evaluations
    assert abs(res.value - 1.0) < 1e-12

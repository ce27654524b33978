"""The separation minimizers: one result type, evaluation budgets, defaults,
and the one-call grid against the scan it replaced."""

import itertools
import math

import numpy as np
import pytest

from solfold import heis_leaf_separation_numeric, leaf_separation_numeric
from solfold import _optim, heisenberg, sol
from solfold._optim import SeparationResult, pattern_search

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


def _grid_then_descend_reference(f, axes, budget):
    """grid_then_descend as a scan: f once per grid point, a strict < keeping
    the first least value."""
    best, bx = math.inf, None
    spent = 0
    for point in itertools.islice(itertools.product(*axes), budget):
        v = np.array(point)
        fv = f(v)
        spent += 1
        if fv < best:
            best, bx = fv, v
    if spent >= budget:
        return SeparationResult(best, False, spent)
    _, fx, spent, converged = pattern_search(f, bx, 0.5, 1e-6, budget, spent)
    return SeparationResult(fx, converged, spent)


GRID_SIZES = {"sol": 7 * 7 * 5 * 5, "heis": 7 * 7 * 7}


@pytest.mark.parametrize("budget", [0, 1, 2, 100, 342, 343, 344, 1224, 1225, 1226,
                                    100_000])
@pytest.mark.parametrize("name", sorted(MINIMIZERS))
def test_one_grid_call_gives_the_scan_result(name, budget, monkeypatch):
    runs = []

    def both(f, axes, budget):
        shapes = []

        def counted(v):
            shapes.append(v.shape)
            return f(v)
        runs.append((_optim.grid_then_descend(counted, axes, budget),
                     _grid_then_descend_reference(f, axes, budget), shapes, len(axes)))
        return runs[-1][0]
    monkeypatch.setattr(sol if name == "sol" else heisenberg, "grid_then_descend", both)
    res = MINIMIZERS[name](0.0, 1.0, budget=budget)
    [(got, want, shapes, d)] = runs
    assert res == got == want
    assert got.value.hex() == float(want.value).hex()
    # the grid, cut to the budget, is one call of f on its points as columns;
    # the descent calls f on single points
    assert shapes[0] == (d, min(budget, GRID_SIZES[name]))
    assert set(shapes[1:]) <= {(d,)}
    if budget <= GRID_SIZES[name]:
        # the least value of the grid prefix, with no descent
        assert (got.evaluations, got.converged) == (budget, False)
    else:
        assert got.evaluations == min(budget, {"sol": 1378, "heis": 458}[name])


def test_grid_ties_keep_the_first_point():
    # four grid points tie at the least value; the scan starts its descent
    # from the first of them in product order, and so must argmin
    axes = (np.linspace(-2.0, 2.0, 5), np.linspace(-2.0, 2.0, 5))
    starts = []

    def f(v):
        if v.ndim == 1 and not starts:
            starts.append(v.tolist())
        return np.abs(np.abs(v[0]) - 1.0) + np.abs(np.abs(v[1]) - 1.0)

    got = _optim.grid_then_descend(f, axes, 10_000)
    assert starts == [[-1.0, -1.0]]
    assert got == _grid_then_descend_reference(f, axes, 10_000)


def test_a_negative_budget_is_refused():
    with pytest.raises(ValueError, match="budget"):
        leaf_separation_numeric(0.0, 1.0, budget=-1)

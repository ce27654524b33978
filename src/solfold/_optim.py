"""Deterministic derivative-free minimization used by the separation searches."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class SeparationResult:
    value: float
    converged: bool
    evaluations: int


def pattern_search(f: Callable[[np.ndarray], float], x0: np.ndarray,
                   step: float, tol: float, budget: int,
                   spent: int = 0) -> Tuple[np.ndarray, float, int, bool]:
    """Coordinate descent with shrinking steps and a fixed scan order.

    Returns (argmin, value, evaluations, converged); converged is False when
    the evaluation budget ran out before the step shrank below tol.
    """
    x = x0.copy()
    fx = f(x)
    spent += 1
    while step > tol:
        improved = False
        for i in range(len(x)):
            for d in (step, -step):
                if spent >= budget:
                    return x, fx, spent, False
                trial = x.copy()
                trial[i] += d
                ft = f(trial)
                spent += 1
                if ft < fx:
                    x, fx = trial, ft
                    improved = True
        if not improved:
            step *= 0.5
    return x, fx, spent, True


def grid_then_descend(f: Callable[[np.ndarray], np.ndarray],
                      axes: Sequence[np.ndarray], budget: int) -> SeparationResult:
    """Evaluate f once on the product grid of axes, then refine the best grid
    point by pattern search from step 0.5 down to 1e-6.

    f takes the grid points as the columns of a (d, M) array, in
    itertools.product order (last axis fastest) cut to the budget, and
    returns their M values; the pattern search calls it on single points.
    np.argmin keeps the first least value, the point a scan with a strict <
    keeps.  At most budget evaluations are spent; a grid cut short by the
    budget skips the descent and reports converged=False.
    """
    if budget < 0:
        raise ValueError(f"evaluation budget must be nonnegative, got {budget}")
    grid = np.array(np.meshgrid(*axes, indexing="ij")).reshape(len(axes), -1)[:, :budget]
    values = f(grid)
    spent = grid.shape[1]
    if spent >= budget:
        return SeparationResult(float(values.min(initial=math.inf)), False, spent)
    x0 = grid[:, np.argmin(values)]
    _, fx, spent, converged = pattern_search(f, x0, 0.5, 1e-6, budget, spent)
    return SeparationResult(fx, converged, spent)

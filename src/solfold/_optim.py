"""Deterministic derivative-free minimization used by the separation searches."""

from __future__ import annotations

import itertools
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


def grid_then_descend(f: Callable[[np.ndarray], float],
                      axes: Sequence[np.ndarray], budget: int) -> SeparationResult:
    """Scan the product grid of axes (last axis fastest), then refine the
    best grid point by pattern search from step 0.5 down to 1e-6.

    At most budget evaluations are spent; a grid cut short by the budget
    skips the descent and reports converged=False.
    """
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

"""Finite-difference helpers with Richardson extrapolation."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


def jacobian(f: Callable[[np.ndarray], Sequence[float]], x) -> np.ndarray:
    """Numerical Jacobian, fourth-order accurate.

    Central differences at steps 1e-3 and 5e-4 combined by Richardson
    extrapolation; good to roughly 1e-12 for smooth maps at unit scale.
    """
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(f(x), dtype=float)
    J = np.zeros((f0.size, x.size))
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = 1.0

        def d(step: float) -> np.ndarray:
            fp = np.asarray(f(x + step * e), dtype=float)
            fm = np.asarray(f(x - step * e), dtype=float)
            return (fp - fm) / (2.0 * step)

        J[:, j] = (4.0 * d(5e-4) - d(1e-3)) / 3.0
    return J


def pullback(metric_at: Callable[[np.ndarray], np.ndarray],
             embed: Callable[[np.ndarray], Sequence[float]], x) -> np.ndarray:
    """Numerical pullback J^T G J of a metric under an embedding."""
    x = np.asarray(x, dtype=float)
    J = jacobian(embed, x)
    G = metric_at(np.asarray(embed(x), dtype=float))
    return J.T @ G @ J

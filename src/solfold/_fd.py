"""Finite-difference helpers with Richardson extrapolation."""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np


def jacobian(f: Callable[[np.ndarray], np.ndarray], x) -> Tuple[np.ndarray, np.ndarray]:
    """f(x) and the numerical Jacobian of f at x, fourth-order accurate; at
    x of shape (n, ...), a point per trailing index, the Jacobians (m, n, ...).

    Central differences at steps 1e-3 and 5e-4 combined by Richardson
    extrapolation; good to roughly 1e-12 for smooth maps at unit scale.
    f is called once, on the 4n + 1 stencil points as the columns of an
    (n, 4n + 1, ...) array, and returns their values as the columns of an
    (m, 4n + 1, ...) array.
    """
    x = np.asarray(x, dtype=float)[:, None]
    n, rest = len(x), x.shape[2:]
    steps = np.eye(n)[:, :, None] * np.array([5e-4, -5e-4, 1e-3, -1e-3])
    stencil = np.concatenate([x, x + steps.reshape((n, 4 * n) + (1,) * len(rest))], axis=1)
    F = np.asarray(f(stencil), dtype=float)
    # column 1 + 4j + (0, 1, 2, 3) holds f at x + 5e-4 e_j, x - 5e-4 e_j,
    # x + 1e-3 e_j and x - 1e-3 e_j
    fp5, fm5, fp1, fm1 = np.moveaxis(F[:, 1:].reshape((len(F), n, 4) + rest), 2, 0)
    return F[:, 0], (4.0 * ((fp5 - fm5) / (2.0 * 5e-4)) - (fp1 - fm1) / (2.0 * 1e-3)) / 3.0


def pullback(metric_at: Callable[[np.ndarray], np.ndarray],
             embed: Callable[[np.ndarray], np.ndarray], x) -> np.ndarray:
    """Numerical pullback J^T G J of a metric under an embedding, stacked
    along the leading axes for x of shape (n, ...); contiguous Jacobians make
    for each point of a stack the BLAS calls of one point."""
    f0, J = jacobian(embed, x)
    J = np.ascontiguousarray(np.moveaxis(J, (0, 1), (-2, -1)))
    return np.swapaxes(J, -1, -2) @ metric_at(f0) @ J

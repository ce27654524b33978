"""Checks that the lattice actions descend to compact quotients.

The conjugated toral action preserves every leaf parameter, so the foliated
product of half planes factors through the quotient as (compact 3-manifold)
times a line; the integer Heisenberg action on C x H does the same with the
height of the second factor.  These routines verify the computable parts at
sample scale; the purely topological conclusions are stated, not computed,
in the README.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .geometry import ProductPoint
from .heisenberg import HeisElement, heis_matrix, heis_mul, heis_reduce_mod_integer_lattice
from .kleinian import (ToralGroupSpec, fundamental_domain_reduce, sol_lattice_embed,
                       toral_act, toral_compose, word_ball)
from .sol import _leaf_param, sol_mul


@dataclass(frozen=True)
class CheckRow:
    """One verified claim: its residual against a threshold."""

    name: str
    residual: float
    threshold: float
    passed: bool
    claim: str


def check_row(name: str, residual: float, threshold: float,
              claim: str) -> CheckRow:
    """Row for |residual| against threshold."""
    res = float(abs(residual))
    return CheckRow(name, res, threshold, res <= threshold, claim)


def sol_quotient_check(spec: ToralGroupSpec, samples: int = 1000,
                       seed: int = 0) -> Tuple[CheckRow, ...]:
    """Sample-scale verification that the toral action respects the
    leaf structure and the fundamental domain, moving each sample by words
    of the radius-2 ball."""
    if samples < 1:
        raise ValueError("need at least one sample")
    ball = word_ball(2)
    ball = ball[ball.any(axis=1)]
    rng = np.random.default_rng(seed)
    # one block per entry, in this order: the points' (x1, x2), their
    # (y1, y2), then ten words per point
    x = rng.uniform(-3.0, 3.0, size=(samples, 2))
    y = rng.uniform(0.2, 5.0, size=(samples, 2))
    words = rng.integers(0, len(ball), size=(samples, 10))
    X = np.stack((x, y), axis=2).reshape(samples, 4)
    rep0 = fundamental_domain_reduce(spec, ProductPoint.from_coords(X.T))[1].coords()
    gz = toral_act(spec, ball[words.ravel()].T,
                   ProductPoint.from_coords(np.repeat(X, 10, axis=0).T))
    s0, s1 = _leaf_param(X[:, 1], X[:, 3]), _leaf_param(gz.z1.y, gz.z2.y)
    leaf_res = float(np.abs(s1 - np.repeat(s0, 10)).max())
    rep1 = fundamental_domain_reduce(spec, gz)[1].coords()
    reduce_res = float(np.abs(rep1 - np.repeat(rep0, 10, axis=1)).max())
    # lam^k > 0 keeps both imaginary parts positive; the same holds for the
    # reflected components, so the sign pattern is rigid
    sign_violations = int(np.count_nonzero((gz.z1.y <= 0) | (gz.z2.y <= 0)))

    # the conjugate of each translation (0, n, m), |n|, |m| <= 2, by the
    # generator (1, 0, 0), against the same conjugate in the exact integer
    # group law, (0, A (n, m)); n and m are Python ints, so a large A does not wrap
    n, m = np.mgrid[-2:3, -2:3].reshape(2, -1).astype(object)
    t_gen = sol_lattice_embed(spec, 1, 0, 0)
    lhs = sol_mul(sol_mul(t_gen, sol_lattice_embed(spec, 0, n, m)), t_gen.inverse())
    word = toral_compose(spec, toral_compose(spec, (1, 0, 0), (0, n, m)), (-1, 0, 0))
    rhs = sol_lattice_embed(spec, *word)
    rel_res = float(np.abs(np.broadcast_arrays(lhs.t - rhs.t, lhs.x - rhs.x,
                                               lhs.y - rhs.y)).max())

    return (
        check_row("leaf-preservation", leaf_res, 1e-10,
                  "the lattice action preserves each leaf parameter s"),
        check_row("reduction-invariance", reduce_res, 1e-8,
                  "fundamental-domain representatives are constant on orbits"),
        check_row("semidirect-relation", rel_res, 1e-12,
                  "conjugating a translation by the cyclic generator applies the integer matrix"),
        check_row("component-preservation", float(sign_violations), 0.0,
                  "positive scaling preserves the four sign components of the imaginary parts"),
    )


def heis_quotient_check(moduli: Tuple[int, int, int] = (1, 1, 1),
                        samples: int = 1000, seed: int = 0) -> Tuple[CheckRow, ...]:
    """Sample-scale verification for an integer Heisenberg sublattice."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    # one block per entry, in this order: the points' (Re z, Im z, Re w) of
    # C x H, their heights Im w, the elements, then ten words per sample
    Z = np.hstack((rng.uniform(-3.0, 3.0, size=(samples, 3)),
                   rng.uniform(0.2, 5.0, size=(samples, 1))))
    base = rng.uniform(-4.0, 4.0, size=(samples, 3))
    ell = rng.integers(-3, 4, size=(samples, 30)).reshape(-1, 3) * moduli
    # the reduction validates the closure condition d3 | d1 d2
    rep0 = np.array(heis_reduce_mod_integer_lattice(HeisElement(*base.T), moduli)[1].triple())

    # the image of (z, w, 1) under the first word of each sample, through the
    # action's stacked matrices
    first = ell[::10]
    zw1 = np.column_stack([Z.view(complex), np.ones(samples)])
    img = np.matmul(heis_matrix(HeisElement(*first.T)), zw1[:, :, None])[:, :, 0]
    height_res = float(np.abs(img[:, 1].imag - Z[:, 3]).max())

    # heis_mul is elementwise, so it takes array coordinates
    moved = heis_mul(HeisElement(*ell.T), HeisElement(*np.repeat(base, 10, axis=0).T))
    rep1 = np.array(heis_reduce_mod_integer_lattice(moved, moduli)[1].triple())
    reduce_res = float(np.abs(rep1 - np.repeat(rep0, 10, axis=1)).max())

    return (
        check_row("height-invariance", height_res, 0.0,
                  "real translations leave the second-factor height unchanged"),
        check_row("reduction-invariance", reduce_res, 1e-12,
                  "cube representatives are constant on left cosets of the lattice"),
    )


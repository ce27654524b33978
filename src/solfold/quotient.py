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

from .geometry import rand_mixed, rand_product
from .heisenberg import (HeisElement, _heis_reduce_rows, heis_commutator, heis_matrix,
                         heis_mul, heis_reduce_mod_integer_lattice)
from .kleinian import (ToralGroupSpec, _fundamental_domain_rows, fundamental_domain_reduce,
                       sol_lattice_embed, toral_compose, word_ball)
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
    rng = np.random.default_rng(seed)
    ball = [g for g in word_ball(2).tolist() if g != [0, 0, 0]]
    # each word acts as toral_act does: scale by lam^k, translate by P^{-1}(n, m)
    scale = np.array([spec.lam ** k for k, _, _ in ball])
    shift = np.array([spec.P_inv @ np.array([n, m], dtype=float) for _, n, m in ball])

    # per sample: the draws, in the per-point loop's order, and the scalar reduction
    base, rep0, words = [], [], []
    for _ in range(samples):
        z = rand_product(rng, 0.2, 5.0)
        base.append(z.coords())
        rep0.append(fundamental_domain_reduce(spec, z)[1].coords())
        words.append(rng.integers(0, len(ball), size=10))
    base, rep0, words = np.array(base), np.array(rep0), np.concatenate(words)

    z = np.repeat(base, 10, axis=0)
    s, (u, v) = scale[words], shift[words].T
    gz = np.column_stack([s * z[:, 0] + u, s * z[:, 1], z[:, 2] / s + v, z[:, 3] / s])
    s0, s1 = (_leaf_param(Z[:, 1], Z[:, 3]) for Z in (base, gz))
    leaf_res = float(np.abs(s1 - np.repeat(s0, 10)).max())
    rep1 = _fundamental_domain_rows(spec, gz)[1]
    reduce_res = float(np.abs(rep1 - np.repeat(rep0, 10, axis=0)).max())
    # lam^k > 0 keeps both imaginary parts positive; the same holds for the
    # reflected components, so the sign pattern is rigid
    sign_violations = int(np.count_nonzero((gz[:, 1] <= 0) | (gz[:, 3] <= 0)))

    rel_res = 0.0
    t_gen = (1, 0, 0)
    for n in range(-2, 3):
        for m in range(-2, 3):
            lhs = sol_mul(sol_mul(sol_lattice_embed(spec, *t_gen),
                                  sol_lattice_embed(spec, 0, n, m)),
                          sol_lattice_embed(spec, *t_gen).inverse())
            # the same conjugate in the exact integer group law: (0, A (n, m))
            word = toral_compose(spec, toral_compose(spec, t_gen, (0, n, m)), (-1, 0, 0))
            rhs = sol_lattice_embed(spec, *word)
            rel_res = max(rel_res,
                          abs(lhs.t - rhs.t), abs(lhs.x - rhs.x), abs(lhs.y - rhs.y))

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
    # validates the closure condition d3 | d1 d2
    heis_reduce_mod_integer_lattice(HeisElement.identity(), moduli)

    # per sample: the draws, in the per-point loop's order (its ten size-3 integer
    # draws read the stream as one of size 30), and the scalar reduction
    base, rep0, ell = [], [], []
    height_res = 0.0
    for _ in range(samples):
        m = rand_mixed(rng, 0.2, 5.0)
        g = HeisElement(*rng.uniform(-4.0, 4.0, size=3))
        base.append(g.triple())
        rep0.append(heis_reduce_mod_integer_lattice(g, moduli)[1].triple())
        ell.append(rng.integers(-3, 4, size=30).reshape(10, 3) * moduli)
        # the image of (z, w) under the first word, through the action's matrix
        img = heis_matrix(HeisElement(*ell[-1][0])) @ np.array([m.z, m.w.complex, 1.0])
        height_res = max(height_res, abs(img[1].imag - m.w.y))
    base, rep0, ell = np.array(base), np.array(rep0), np.concatenate(ell)

    # heis_mul is elementwise, so it takes array coordinates
    moved = heis_mul(HeisElement(*ell.T), HeisElement(*np.repeat(base, 10, axis=0).T))
    rep1 = _heis_reduce_rows(*moved.triple(), moduli)[1]
    reduce_res = float(np.abs(rep1 - np.repeat(rep0, 10, axis=0)).max())

    comm = heis_commutator(HeisElement(1, 0, 0), HeisElement(0, 1, 0))
    comm_res = max(abs(comm.a - 0), abs(comm.b - 0), abs(comm.c - 1))

    return (
        check_row("height-invariance", height_res, 0.0,
                  "real translations leave the second-factor height unchanged"),
        check_row("reduction-invariance", reduce_res, 1e-12,
                  "cube representatives are constant on left cosets of the lattice"),
        check_row("commutator", comm_res, 0.0,
                  "the commutator of the two horizontal generators is the central generator"),
    )


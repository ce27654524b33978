"""Checks that the lattice actions descend to compact quotients.

The conjugated toral action preserves every leaf parameter, so the foliated
product of half planes factors through the quotient as (compact 3-manifold)
times a line; the integer Heisenberg action on C x H does the same with the
height of the second factor.  These routines verify the computable parts at
sample scale and keep the purely topological conclusions as report-only
notes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .geometry import ProductPoint, rand_mixed, rand_product
from .heisenberg import (HeisElement, heis_act, heis_commutator, heis_mul,
                         heis_reduce_mod_integer_lattice)
from .kleinian import (ToralGroupSpec, fundamental_domain_reduce,
                       sol_lattice_embed, toral_act, word_ball)
from .sol import sol_mul


@dataclass(frozen=True)
class CheckRow:
    """One verified claim: its residual against a threshold."""

    name: str
    residual: float
    threshold: float
    passed: bool
    claim: str


def check_row(name: str, residual: float, threshold: float, claim: str,
              scale: float = 1.0) -> CheckRow:
    """Row for |residual| against threshold * scale."""
    res = float(abs(residual))
    thr = threshold * scale
    return CheckRow(name, res, thr, res <= thr, claim)


@dataclass(frozen=True)
class QuotientReport:
    """Aggregated residuals for one quotient verification run."""

    group: str
    component_count: int
    fundamental_domain: str
    checks: Tuple[CheckRow, ...]
    samples: int
    seed: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)


def _leaf_parameter(z: ProductPoint) -> float:
    # s-coordinate of the rectification: log(2 y1 y2) / 2
    return 0.5 * math.log(2.0 * z.z1.y * z.z2.y)


def sol_quotient_check(spec: ToralGroupSpec, samples: int = 1000,
                       seed: int = 0, ball_radius: int = 2) -> QuotientReport:
    """Sample-scale verification that the toral action respects the
    leaf structure and the fundamental domain.

    ball_radius 0 means the trivial subgroup: nothing moves, every point is
    its own representative, all residuals vanish.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    group_desc = f"toral A={list(map(list, spec.A))}"
    domain_desc = "first height in [1, lam), horizontal pair in the unit cell of P^{-1} Z^2"

    if ball_radius == 0:
        checks = (
            check_row("leaf-preservation", 0.0, 1e-10,
                      "the trivial group fixes every leaf"),
            check_row("reduction-invariance", 0.0, 1e-8,
                      "with no group elements every point represents itself"),
            check_row("semidirect-relation", 0.0, 1e-12,
                      "no relations to check in the trivial group"),
            check_row("component-preservation", 0.0, 0.0,
                      "the trivial group preserves the four components"),
        )
        return QuotientReport(group_desc, 4, "entire space", checks, samples, seed)

    ball = [g for g in word_ball(spec, ball_radius) if g != (0, 0, 0)]

    leaf_res = 0.0
    reduce_res = 0.0
    sign_violations = 0
    for _ in range(samples):
        z = rand_product(rng, 0.2, 5.0)
        s0 = _leaf_parameter(z)
        rep0 = fundamental_domain_reduce(spec, z)[1].coords()
        for idx in rng.integers(0, len(ball), size=10):
            g = ball[int(idx)]
            gz = toral_act(spec, g, z)
            leaf_res = max(leaf_res, abs(_leaf_parameter(gz) - s0))
            rep1 = fundamental_domain_reduce(spec, gz)[1].coords()
            reduce_res = max(reduce_res, float(np.abs(rep1 - rep0).max()))
            # lam^k > 0 keeps both imaginary parts positive; the same holds
            # for the reflected components, so the sign pattern is rigid
            if gz.z1.y <= 0 or gz.z2.y <= 0:
                sign_violations += 1

    rel_res = 0.0
    t_gen = (1, 0, 0)
    A = spec.matrix
    for n in range(-2, 3):
        for m in range(-2, 3):
            lhs = sol_mul(sol_mul(sol_lattice_embed(spec, *t_gen),
                                  sol_lattice_embed(spec, 0, n, m)),
                          sol_lattice_embed(spec, *t_gen).inverse())
            an, am = A @ np.array([n, m])
            rhs = sol_lattice_embed(spec, 0, int(an), int(am))
            rel_res = max(rel_res,
                          abs(lhs.t - rhs.t), abs(lhs.x - rhs.x), abs(lhs.y - rhs.y))

    checks = (
        check_row("leaf-preservation", leaf_res, 1e-10,
                  "the lattice action preserves each leaf parameter s"),
        check_row("reduction-invariance", reduce_res, 1e-8,
                  "fundamental-domain representatives are constant on orbits"),
        check_row("semidirect-relation", rel_res, 1e-12,
                  "conjugating a translation by the cyclic generator applies the integer matrix"),
        check_row("component-preservation", float(sign_violations), 0.0,
                  "positive scaling preserves the four sign components of the imaginary parts"),
    )
    return QuotientReport(group_desc, 4, domain_desc, checks, samples, seed)


def heis_quotient_check(moduli: Optional[Tuple[int, int, int]] = (1, 1, 1),
                        samples: int = 1000, seed: int = 0) -> QuotientReport:
    """Sample-scale verification for an integer Heisenberg sublattice.

    moduli None means the trivial subgroup and yields a trivial report.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)

    if moduli is None:
        checks = (
            check_row("height-invariance", 0.0, 0.0,
                      "the trivial group fixes the second-factor height"),
            check_row("reduction-invariance", 0.0, 1e-12,
                      "with no group elements every element represents itself"),
            check_row("commutator", 0.0, 0.0,
                      "no generators, no commutator relation"),
        )
        return QuotientReport("heisenberg lattice (trivial)", 1, "entire group",
                              checks, samples, seed)

    d1, d2, d3 = moduli
    # validates the closure condition d3 | d1 d2
    heis_reduce_mod_integer_lattice(HeisElement.identity(), moduli)
    group_desc = f"heisenberg lattice moduli={tuple(moduli)}"
    domain_desc = f"half-open cube [0,{d1}) x [0,{d2}) x [0,{d3}) in (a, b, c)"

    height_res = 0.0
    reduce_res = 0.0
    for _ in range(samples):
        m = rand_mixed(rng, 0.2, 5.0)
        g = HeisElement(*rng.uniform(-4.0, 4.0, size=3))
        rep0 = heis_reduce_mod_integer_lattice(g, moduli)[1]
        for _ in range(10):
            j, k, l = rng.integers(-3, 4, size=3)
            ell = HeisElement(d1 * int(j), d2 * int(k), d3 * int(l))
            height_res = max(height_res, abs(heis_act(ell, m).w.y - m.w.y))
            rep1 = heis_reduce_mod_integer_lattice(heis_mul(ell, g), moduli)[1]
            reduce_res = max(reduce_res,
                             abs(rep1.a - rep0.a), abs(rep1.b - rep0.b),
                             abs(rep1.c - rep0.c))

    comm = heis_commutator(HeisElement(1, 0, 0), HeisElement(0, 1, 0))
    comm_res = max(abs(comm.a - 0), abs(comm.b - 0), abs(comm.c - 1))

    checks = (
        check_row("height-invariance", height_res, 0.0,
                  "real translations leave the second-factor height unchanged"),
        check_row("reduction-invariance", reduce_res, 1e-12,
                  "cube representatives are constant on left cosets of the lattice"),
        check_row("commutator", comm_res, 0.0,
                  "the commutator of the two horizontal generators is the central generator"),
    )
    return QuotientReport(group_desc, 1, domain_desc, checks, samples, seed)


@dataclass(frozen=True)
class StructuralNote:
    statement: str
    verified: bool
    status: str


def structural_notes(spec: Optional[ToralGroupSpec] = None) -> Tuple[StructuralNote, ...]:
    """Topological conclusions recorded verbatim but never computed.

    These accompany the numeric reports so consumers see the full claimed
    picture together with an honest verification status.
    """
    notes = [
        StructuralNote(
            "The quotient of the discontinuity region is claimed to be a fiber "
            "bundle with base S^1 x R and fiber T^2 x R.",
            False, "NOT VERIFIED - REPORT ONLY"),
        StructuralNote(
            "Hyperbolic conjugacy classes in GL(2, Z) are countable, so these "
            "groups form a countable family; pairwise distinction reduces to "
            "the integer conjugacy search in lattice_iso_test.",
            False, "NOT VERIFIED - REPORT ONLY"),
    ]
    if spec is not None:
        notes.append(StructuralNote(
            f"For A={list(map(list, spec.A))} the quotient of each half-plane "
            "product component is claimed diffeomorphic to a compact solvable "
            "3-manifold times a line.",
            False, "NOT VERIFIED - REPORT ONLY"))
    return tuple(notes)

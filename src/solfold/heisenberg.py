"""The Heisenberg group, its action on C x H, and the induced leaf structure.

Elements are unipotent upper triangular coordinates (a, b, c).  Orbits of
points foliate C x H; the vertical hyperbolic direction is normal to every
leaf, and the rectifying chart identifies Heis x R with C x H.  The group
law, the action and the chart also take array coordinates, one entry per
element or point.  The integer word ball is one sorted (M, 3) int64 array,
and the box-return count tests its columns at once, as the toral ones do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ._optim import SeparationResult, grid_then_descend
from .geometry import (
    MixedPoint,
    UpperHalfPoint,
    _diag,
    _per_element,
    mixed_distance,
)


@dataclass(frozen=True)
class HeisElement:
    """Element (a, b, c), multiplying by (a,b,c)(a',b',c') = (a+a', b+b', c+c'+ab')."""

    a: float
    b: float
    c: float

    def inverse(self) -> "HeisElement":
        return HeisElement(-self.a, -self.b, -self.c + self.a * self.b)

    def triple(self) -> Tuple[float, float, float]:
        return (self.a, self.b, self.c)


def heis_mul(g: HeisElement, h: HeisElement) -> HeisElement:
    return HeisElement(g.a + h.a, g.b + h.b, g.c + h.c + g.a * h.b)


def heis_commutator(g: HeisElement, h: HeisElement) -> HeisElement:
    return heis_mul(heis_mul(g, h), heis_mul(h, g).inverse())


def heis_matrix(g: HeisElement) -> np.ndarray:
    """[[1, a, c], [0, 1, b], [0, 0, 1]], stacked along the leading axes when
    g holds arrays."""
    a, b, c = np.broadcast_arrays(g.a, g.b, g.c)
    out = np.zeros(a.shape + (3, 3))
    out[..., 0, 0] = out[..., 1, 1] = out[..., 2, 2] = 1.0
    out[..., 0, 1], out[..., 0, 2], out[..., 1, 2] = a, c, b
    return out


def heis_act(g: HeisElement, m: MixedPoint) -> MixedPoint:
    """Action (z, w) |-> (z + a w + c, w + b); preserves Im w."""
    return MixedPoint(m.z + g.a * m.w.complex + g.c,
                      UpperHalfPoint(m.w.x + g.b, m.w.y))


def heis_leaf_jacobian(m: MixedPoint) -> np.ndarray:
    """4 x 3 Jacobian of the orbit map (a, b, c) |-> (a,b,c) . m, stacked
    along the leading axes when m holds arrays.

    The action is affine in (a, b, c), so the Jacobian is the same at every
    group element.  Its rows are (p, 0, 1), (q, 0, 0), (0, 1, 0), (0, 0, 0)
    with w = p + q i.
    """
    p, q = np.broadcast_arrays(m.w.x, m.w.y)
    J = np.zeros(p.shape + (4, 3))
    J[..., 0, 0], J[..., 1, 0] = p, q
    J[..., 0, 2] = J[..., 2, 1] = 1.0
    return J


def heis_rectify(g: HeisElement, s: float) -> MixedPoint:
    """Chart (g, s) |-> g . (0, e^s i) identifying Heis x R with C x H."""
    q = _per_element(math.exp, s)
    return heis_act(g, MixedPoint(0j, UpperHalfPoint(0.0, q)))


def heis_rectify_inverse(m: MixedPoint) -> Tuple[HeisElement, float]:
    q = m.w.y
    return (HeisElement(m.z.imag / q, m.w.x, m.z.real), _per_element(math.log, q))


def heis_pullback_metric(y0: float) -> np.ndarray:
    """Metric induced on the leaf through (0, y0 i), constant in the group
    coordinates: y0^2 da^2 + db^2 / y0^2 + dc^2; stacked along the leading
    axes when y0 holds an array."""
    if np.any(y0 <= 0):
        raise ValueError("pullback metric requires y0 > 0")
    return _diag(_per_element(lambda y: y ** 2, y0),
                 _per_element(lambda y: 1 / y ** 2, y0), 1.0)


def heis_leaf_separation_numeric(s0: float, s1: float,
                                 budget: int = 100_000) -> SeparationResult:
    """Minimize the C x H distance between the leaves at heights e^{s0}, e^{s1}.

    Left translation by isometries of the product pins the first point to
    (0, e^{s0} i); the search runs over the second group element, measured
    on the whole grid as one array of elements.
    """
    base = MixedPoint(0j, UpperHalfPoint(0.0, math.exp(s0)))

    def dist(v: np.ndarray) -> float:
        g = HeisElement(v[0], v[1], v[2])
        return mixed_distance(base, heis_rectify(g, s1))

    bc = np.linspace(-5.0, 5.0, 7)
    return grid_then_descend(dist, (np.linspace(-3.0, 3.0, 7), bc, bc), budget)


def heis_reduce_mod_integer_lattice(
        g: HeisElement,
        moduli: Tuple[int, int, int] = (1, 1, 1)) -> Tuple[HeisElement, HeisElement]:
    """Factor g = lattice * rep with rep in the fundamental cube, one factor
    per entry when g holds arrays.

    The lattice is the subgroup with a, b, c in d1 Z, d2 Z, d3 Z; closure
    requires d3 | d1 d2.  The central coordinate is peeled first, then a,
    then b, which makes the representative unique.  The lattice part is
    float, so no int64 wraps, and + 0.0 makes a floor of -0.0 math.floor's
    0, which keeps the representative's signed zeros.
    """
    d1, d2, d3 = moduli
    if d1 < 1 or d2 < 1 or d3 < 1 or (d1 * d2) % d3 != 0:
        raise ValueError("moduli must be positive with d3 dividing d1*d2")
    A = d1 * (np.floor(g.a / d1) + 0.0)
    B = d2 * (np.floor(g.b / d2) + 0.0)
    beta = g.b - B
    C = d3 * (np.floor((g.c - A * beta) / d3) + 0.0)
    return HeisElement(A, B, C), HeisElement(g.a - A, beta, g.c - C - A * beta)


_GENERATORS = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]


def heis_word_ball(n: int) -> np.ndarray:
    """Integer elements reachable by words of length at most n in the six
    standard generators, one per row of a C-contiguous (M, 3) int64 array,
    rows sorted."""
    if n < 0:
        raise ValueError("word length bound must be nonnegative")
    seen = {(0, 0, 0)}
    frontier = [(0, 0, 0)]
    for _ in range(n):
        new = []
        for (a, b, c) in frontier:
            for (da, db, dc) in _GENERATORS:
                t = (a + da, b + db, c + dc + a * db)
                if t not in seen:
                    seen.add(t)
                    new.append(t)
        frontier = new
    return np.array(sorted(seen), dtype=np.int64)


UNIT_CUBE = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
_PAD = 1e-12


def factored_proper_discontinuity_check(ball: np.ndarray,
                                        s: float = 0.0) -> Tuple[int, int]:
    """Count the rows g of the (M, 3) ball with g K meeting K, K the unit
    cube, in the group and through C x H at height e^s.

    g maps (a, b, c) to (g.a + a, g.b + b, g.c + c + g.a b), affine with unit
    determinant, so images of boxes are polytopes with interval shadows; each
    route tests them on the ball's columns at once, overlaps padded outward
    by 1e-12.  The c shadow is taken over the b kept inside the box by the
    translation.  Through C x H the leaf coordinates are z = c + a q i and
    w = b + q i: Im z translates by g.a q, and Re z |-> Re z + g.a Re w + g.c.
    The action leaves the height alone, so the two counts agree; both are
    returned so callers can assert the equality.
    """
    (a0, a1), (b0, b1), (c0, c1) = UNIT_CUBE
    q = math.exp(s)
    ga, gb, gc = np.asarray(ball).T
    b_meets = (gb + b0 <= b1 + _PAD) & (b0 <= gb + b1 + _PAD)
    # the ends of the b range the translation keeps inside the box
    ends = np.stack([np.maximum(b0, b0 - gb), np.minimum(b1, b1 - gb)])
    # g.a b at those ends, which is g.a Re w in C x H
    shear = ga * ends
    group = ((ga + a0 <= a1 + _PAD) & (a0 <= ga + a1 + _PAD) & b_meets
             & (gc + c0 + shear.min(axis=0) <= c1 + _PAD)
             & (c0 <= gc + c1 + shear.max(axis=0) + _PAD))
    ambient = ((q * (a0 + ga) <= q * a1 + _PAD) & (q * a0 <= q * (a1 + ga) + _PAD)
               & b_meets
               & (c0 + gc + shear.min(axis=0) <= c1 + _PAD)
               & (c0 <= c1 + gc + shear.max(axis=0) + _PAD))
    return int(np.count_nonzero(group)), int(np.count_nonzero(ambient))

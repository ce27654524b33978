"""The Heisenberg group, its action on C x H, and the induced leaf structure.

Elements are unipotent upper triangular coordinates (a, b, c).  Orbits of
points foliate C x H; the vertical hyperbolic direction is normal to every
leaf, and the rectifying chart identifies Heis x R with C x H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ._optim import SeparationResult, grid_then_descend
from .geometry import (
    MetricSpec,
    MixedPoint,
    TangentVector4,
    UpperHalfPoint,
    mixed_distance,
)


@dataclass(frozen=True)
class HeisElement:
    """Element (a, b, c), multiplying by (a,b,c)(a',b',c') = (a+a', b+b', c+c'+ab')."""

    a: float
    b: float
    c: float

    @classmethod
    def identity(cls) -> "HeisElement":
        return cls(0.0, 0.0, 0.0)

    def inverse(self) -> "HeisElement":
        return HeisElement(-self.a, -self.b, -self.c + self.a * self.b)

    def triple(self) -> Tuple[float, float, float]:
        return (self.a, self.b, self.c)


def heis_mul(g: HeisElement, h: HeisElement) -> HeisElement:
    return HeisElement(g.a + h.a, g.b + h.b, g.c + h.c + g.a * h.b)


def heis_commutator(g: HeisElement, h: HeisElement) -> HeisElement:
    return heis_mul(heis_mul(g, h), heis_mul(h, g).inverse())


def heis_matrix(g: HeisElement) -> np.ndarray:
    return np.array([[1.0, g.a, g.c],
                     [0.0, 1.0, g.b],
                     [0.0, 0.0, 1.0]])


def heis_from_symplectic(p: float, q: float, t: float) -> np.ndarray:
    """Unipotent matrix of the symplectic coordinates (p, q, t).

    Homomorphism from the product
      (p,q,t) * (p',q',t') = (p+p', q+q', t+t' + (p q' - q p') / 2),
    the symplectic area form carrying the one half.
    """
    return np.array([[1.0, p, t + p * q / 2.0],
                     [0.0, 1.0, q],
                     [0.0, 0.0, 1.0]])


def symplectic_mul(u: Sequence[float], v: Sequence[float]) -> Tuple[float, float, float]:
    p, q, t = u
    pp, qq, tt = v
    return (p + pp, q + qq, t + tt + (p * qq - q * pp) / 2.0)


def heis_act(g: HeisElement, m: MixedPoint) -> MixedPoint:
    """Action (z, w) |-> (z + a w + c, w + b); preserves Im w."""
    return MixedPoint(m.z + g.a * m.w.complex + g.c,
                      UpperHalfPoint(m.w.x + g.b, m.w.y))


def heis_leaf_jacobian(m: MixedPoint, g: HeisElement = HeisElement.identity()) -> np.ndarray:
    """4 x 3 Jacobian of the orbit map (a, b, c) |-> (a,b,c) . m.

    The action is affine in (a, b, c), so the Jacobian is the same at every g.
    """
    p, q = m.w.x, m.w.y
    return np.array([
        [p, 0.0, 1.0],
        [q, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0],
    ])


def heis_normal_field(m: MixedPoint) -> TangentVector4:
    """Unit normal q d/dy of the leaf through m, vertical in the half-plane factor."""
    return TangentVector4((0.0, 0.0, 0.0, m.w.y), m)


def heis_normal_flow(m: MixedPoint, t: float) -> MixedPoint:
    """Integral curve of the normal field: (z, p + qi) |-> (z, p + e^t q i)."""
    return MixedPoint(m.z, UpperHalfPoint(m.w.x, math.exp(t) * m.w.y))


def heis_rectify(g: HeisElement, s: float) -> MixedPoint:
    """Chart (g, s) |-> g . (0, e^s i) identifying Heis x R with C x H."""
    q = math.exp(s)
    return heis_act(g, MixedPoint(0j, UpperHalfPoint(0.0, q)))


def heis_rectify_inverse(m: MixedPoint) -> Tuple[HeisElement, float]:
    q = m.w.y
    return (HeisElement(m.z.imag / q, m.w.x, m.z.real), math.log(q))


def heis_pullback_metric(y0: float) -> np.ndarray:
    """Metric induced on the leaf through (0, y0 i), constant in the group coordinates."""
    return MetricSpec.heis_pullback(y0).matrix([0.0, 0.0, 0.0])


def heis_leaf_separation(s0: float, s1: float) -> float:
    return abs(s1 - s0)


def heis_leaf_separation_numeric(s0: float, s1: float,
                                 budget: int = 100_000) -> SeparationResult:
    """Minimize the C x H distance between the leaves at heights e^{s0}, e^{s1}.

    Left translation by isometries of the product pins the first point to
    (0, e^{s0} i); the search runs over the second group element.
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
    """Factor g = lattice * rep with rep in the fundamental cube.

    The lattice is the subgroup with a, b, c in d1 Z, d2 Z, d3 Z; closure
    requires d3 | d1 d2.  The central coordinate is peeled first, then a,
    then b, which makes the representative unique.
    """
    d1, d2, d3 = moduli
    if d1 < 1 or d2 < 1 or d3 < 1 or (d1 * d2) % d3 != 0:
        raise ValueError("moduli must be positive with d3 dividing d1*d2")
    A = d1 * math.floor(g.a / d1)
    alpha = g.a - A
    B = d2 * math.floor(g.b / d2)
    beta = g.b - B
    C = d3 * math.floor((g.c - A * beta) / d3)
    gamma = g.c - C - A * beta
    lattice = HeisElement(A, B, C)
    rep = HeisElement(alpha, beta, gamma)
    return lattice, rep


_GENERATORS = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]


def heis_word_ball(n: int) -> List[HeisElement]:
    """Integer elements reachable by words of length at most n in the six
    standard generators, in a deterministic order."""
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
    return [HeisElement(*t) for t in sorted(seen)]


Box = Tuple[Tuple[float, float], Tuple[float, float], Tuple[float, float]]

UNIT_CUBE: Box = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))


def _interval_overlap(lo1, hi1, lo2, hi2, pad=1e-12):
    return lo1 <= hi2 + pad and lo2 <= hi1 + pad


def _box_meets_translate(g: HeisElement, box: Box) -> bool:
    """Whether g . box meets box under left multiplication, exactly up to padding.

    g maps (a, b, c) to (g.a + a, g.b + b, g.c + c + g.a b), affine with unit
    determinant, so images of boxes are polytopes with interval shadows.
    """
    (a0, a1), (b0, b1), (c0, c1) = box
    if not _interval_overlap(g.a + a0, g.a + a1, a0, a1):
        return False
    if not _interval_overlap(g.b + b0, g.b + b1, b0, b1):
        return False
    # b restricted to values kept inside the box by the translation
    blo = max(b0, b0 - g.b)
    bhi = min(b1, b1 - g.b)
    vals = (g.a * blo, g.a * bhi)
    clo = g.c + c0 + min(vals)
    chi = g.c + c1 + max(vals)
    return _interval_overlap(clo, chi, c0, c1)


def _box_meets_translate_ambient(g: HeisElement, box: Box, s: float) -> bool:
    """Same intersection decided through the C x H picture at height e^s."""
    q = math.exp(s)
    (a0, a1), (b0, b1), (c0, c1) = box
    # leaf coordinates: z = c + a q i, w = b + q i
    if g.b != 0.0 and not _interval_overlap(b0 + g.b, b1 + g.b, b0, b1):
        return False
    # Im z translates by g.a * q
    if not _interval_overlap(q * (a0 + g.a), q * (a1 + g.a), q * a0, q * a1):
        return False
    blo = max(b0, b0 - g.b)
    bhi = min(b1, b1 - g.b)
    # Re z |-> Re z + g.a * Re w + g.c with Re w = b in the admissible range
    vals = (g.a * blo, g.a * bhi)
    lo = c0 + g.c + min(vals)
    hi = c1 + g.c + max(vals)
    return _interval_overlap(lo, hi, c0, c1)


def factored_proper_discontinuity_check(
        sample: Iterable[HeisElement],
        box: Box = UNIT_CUBE,
        s: float = 0.0) -> Tuple[int, int]:
    """Count elements with g K meeting K, in the group and through C x H.

    The action on C x H leaves the height coordinate alone, so the two counts
    agree; both are returned so callers can assert the equality.
    """
    count_group = 0
    count_ambient = 0
    for g in sample:
        if _box_meets_translate(g, box):
            count_group += 1
        if _box_meets_translate_ambient(g, box, s):
            count_ambient += 1
    return count_group, count_ambient

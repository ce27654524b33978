"""Points, metrics, and curvature primitives on H x H and C x H.

The two ambient spaces are the product of two upper half-planes, carried
with the half-scaled hyperbolic product metric, and the product of the
Euclidean plane with one upper half-plane.  Induced leaf metrics live on
3-dimensional coordinate charts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence, Union

import numpy as np

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class UpperHalfPoint:
    """Point x + iy of the upper half-plane, y > 0."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not self.y > 0:
            raise ValueError(f"upper half-plane requires y > 0, got y={self.y}")

    @classmethod
    def from_complex(cls, z: complex) -> "UpperHalfPoint":
        return cls(float(z.real), float(z.imag))

    @property
    def complex(self) -> complex:
        return complex(self.x, self.y)


@dataclass(frozen=True)
class ProductPoint:
    """Point (z1, z2) of H x H."""

    z1: UpperHalfPoint
    z2: UpperHalfPoint

    @classmethod
    def from_complex(cls, z1: complex, z2: complex) -> "ProductPoint":
        return cls(UpperHalfPoint.from_complex(z1), UpperHalfPoint.from_complex(z2))

    @classmethod
    def from_coords(cls, c: Sequence[float]) -> "ProductPoint":
        return cls(UpperHalfPoint(float(c[0]), float(c[1])),
                   UpperHalfPoint(float(c[2]), float(c[3])))

    def coords(self) -> np.ndarray:
        """Coordinates (x1, y1, x2, y2)."""
        return np.array([self.z1.x, self.z1.y, self.z2.x, self.z2.y])


@dataclass(frozen=True)
class MixedPoint:
    """Point (z, w) of C x H."""

    z: complex
    w: UpperHalfPoint

    @classmethod
    def from_complex(cls, z: complex, w: complex) -> "MixedPoint":
        return cls(complex(z), UpperHalfPoint.from_complex(w))

    @classmethod
    def from_coords(cls, c: Sequence[float]) -> "MixedPoint":
        return cls(complex(float(c[0]), float(c[1])),
                   UpperHalfPoint(float(c[2]), float(c[3])))

    def coords(self) -> np.ndarray:
        """Coordinates (Re z, Im z, Re w, Im w)."""
        return np.array([self.z.real, self.z.imag, self.w.x, self.w.y])


BasePoint = Union[ProductPoint, MixedPoint]


def rand_product(rng: np.random.Generator, ymin: float, ymax: float) -> ProductPoint:
    """Random point of H x H: real parts in [-3, 3), heights in [ymin, ymax)."""
    x1, x2 = rng.uniform(-3.0, 3.0, size=2)
    y1, y2 = rng.uniform(ymin, ymax, size=2)
    return ProductPoint(UpperHalfPoint(x1, y1), UpperHalfPoint(x2, y2))


def rand_mixed(rng: np.random.Generator, ymin: float, ymax: float) -> MixedPoint:
    """Random point of C x H: coordinates in [-3, 3), height in [ymin, ymax)."""
    zr, zi, wx = rng.uniform(-3.0, 3.0, size=3)
    return MixedPoint(complex(zr, zi), UpperHalfPoint(wx, rng.uniform(ymin, ymax)))


@dataclass(frozen=True)
class TangentVector4:
    """Tangent vector at a 4-dimensional ambient point."""

    components: tuple
    base: BasePoint

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(float(c) for c in self.components))
        if len(self.components) != 4:
            raise ValueError("tangent vector needs 4 components")

    @property
    def array(self) -> np.ndarray:
        return np.array(self.components)


class MetricKind(Enum):
    HALF_HYPERBOLIC_PRODUCT = "half_hyperbolic_product"
    EUCLIDEAN_TIMES_HYPERBOLIC = "euclidean_times_hyperbolic"
    LEAF_SOL = "leaf_sol"
    HEIS_PULLBACK = "heis_pullback"


@dataclass(frozen=True)
class MetricSpec:
    """A named metric family together with its closed-form coefficients.

    Coordinate conventions:
      HALF_HYPERBOLIC_PRODUCT   (x1, y1, x2, y2) on H x H, ds^2 per factor (dx^2+dy^2)/(2y^2)
      EUCLIDEAN_TIMES_HYPERBOLIC (x, y, p, q) on C x H, dx^2+dy^2 + (dp^2+dq^2)/q^2
      LEAF_SOL                  (t, x, y), dt^2 + e^{-2t}/(2 y1^2) dx^2 + e^{2t}/(2 y2^2) dy^2
      HEIS_PULLBACK             (p, q, t), y0^2 dp^2 + dq^2/y0^2 + dt^2
    """

    kind: MetricKind
    y1: float = 1.0
    y2: float = 1.0
    y0: float = 1.0

    @classmethod
    def half_hyperbolic_product(cls) -> "MetricSpec":
        return cls(MetricKind.HALF_HYPERBOLIC_PRODUCT)

    @classmethod
    def euclidean_times_hyperbolic(cls) -> "MetricSpec":
        return cls(MetricKind.EUCLIDEAN_TIMES_HYPERBOLIC)

    @classmethod
    def leaf_sol(cls, y1: float, y2: float) -> "MetricSpec":
        if y1 <= 0 or y2 <= 0:
            raise ValueError("leaf metric requires y1, y2 > 0")
        return cls(MetricKind.LEAF_SOL, y1=y1, y2=y2)

    @classmethod
    def heis_pullback(cls, y0: float) -> "MetricSpec":
        if y0 <= 0:
            raise ValueError("pullback metric requires y0 > 0")
        return cls(MetricKind.HEIS_PULLBACK, y0=y0)

    @property
    def dim(self) -> int:
        if self.kind in (MetricKind.HALF_HYPERBOLIC_PRODUCT,
                         MetricKind.EUCLIDEAN_TIMES_HYPERBOLIC):
            return 4
        return 3

    def matrix(self, p: Sequence[float]) -> np.ndarray:
        """Metric coefficient matrix g_ij at coordinates p."""
        c = _coords(p)
        if len(c) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(c)}")
        if self.kind is MetricKind.HALF_HYPERBOLIC_PRODUCT:
            y1, y2 = c[1], c[3]
            if y1 <= 0 or y2 <= 0:
                raise ValueError("point outside H x H")
            return np.diag([1 / (2 * y1 ** 2), 1 / (2 * y1 ** 2),
                            1 / (2 * y2 ** 2), 1 / (2 * y2 ** 2)])
        if self.kind is MetricKind.EUCLIDEAN_TIMES_HYPERBOLIC:
            q = c[3]
            if q <= 0:
                raise ValueError("point outside C x H")
            return np.diag([1.0, 1.0, 1 / q ** 2, 1 / q ** 2])
        if self.kind is MetricKind.LEAF_SOL:
            t = c[0]
            return np.diag([1.0,
                            math.exp(-2 * t) / (2 * self.y1 ** 2),
                            math.exp(2 * t) / (2 * self.y2 ** 2)])
        return np.diag([self.y0 ** 2, 1 / self.y0 ** 2, 1.0])


def _coords(p) -> np.ndarray:
    if isinstance(p, (ProductPoint, MixedPoint)):
        return p.coords()
    return np.asarray(p, dtype=float)


def _vector(v, expect_base=None) -> np.ndarray:
    if isinstance(v, TangentVector4):
        if expect_base is not None:
            if not np.array_equal(_coords(v.base), _coords(expect_base)):
                raise ValueError("tangent vector based at a different point")
        return v.array
    return np.asarray(v, dtype=float)


def metric_inner(m: MetricSpec, p, u, v) -> float:
    """Inner product g_p(u, v)."""
    c = _coords(p)
    ua = _vector(u, expect_base=p if isinstance(u, TangentVector4) else None)
    va = _vector(v, expect_base=p if isinstance(v, TangentVector4) else None)
    g = m.matrix(c)
    if len(ua) != m.dim or len(va) != m.dim:
        raise ValueError("vector dimension does not match the metric")
    return float(ua @ g @ va)


def metric_norm(m: MetricSpec, p, u) -> float:
    return math.sqrt(max(metric_inner(m, p, u, u), 0.0))


def christoffel(m: MetricSpec, p) -> np.ndarray:
    """Christoffel symbols Gamma[k, i, j] of the metric in closed form."""
    c = _coords(p)
    n = m.dim
    G = np.zeros((n, n, n))
    if m.kind is MetricKind.HALF_HYPERBOLIC_PRODUCT:
        for (ix, iy) in ((0, 1), (2, 3)):
            y = c[iy]
            if y <= 0:
                raise ValueError("point outside H x H")
            G[ix, ix, iy] = G[ix, iy, ix] = -1 / y
            G[iy, ix, ix] = 1 / y
            G[iy, iy, iy] = -1 / y
    elif m.kind is MetricKind.EUCLIDEAN_TIMES_HYPERBOLIC:
        q = c[3]
        if q <= 0:
            raise ValueError("point outside C x H")
        G[2, 2, 3] = G[2, 3, 2] = -1 / q
        G[3, 2, 2] = 1 / q
        G[3, 3, 3] = -1 / q
    elif m.kind is MetricKind.LEAF_SOL:
        t = c[0]
        A = math.exp(-2 * t) / (2 * m.y1 ** 2)
        B = math.exp(2 * t) / (2 * m.y2 ** 2)
        G[0, 1, 1] = A
        G[0, 2, 2] = -B
        G[1, 0, 1] = G[1, 1, 0] = -1.0
        G[2, 0, 2] = G[2, 2, 0] = 1.0
    # HEIS_PULLBACK has constant coefficients, all symbols vanish
    return G


def geodesic_residual(m: MetricSpec, curve: Callable[[float], Sequence[float]],
                      t: float, h: float = 1e-4) -> float:
    """Metric length sqrt(r^T g r), at c(t), of the geodesic equation
    residual r = c'' + Gamma(c', c') of a coordinate curve.

    Velocity and acceleration come from central differences with step h.
    Measured in the metric, their rounding noise does not grow with height.
    """
    if h <= 0:
        raise ValueError("step must be positive")
    cm = _coords(curve(t - h))
    c0 = _coords(curve(t))
    cp = _coords(curve(t + h))
    vel = (cp - cm) / (2 * h)
    acc = (cp - 2 * c0 + cm) / (h * h)
    G = christoffel(m, c0)
    res = acc + np.einsum("kij,i,j->k", G, vel, vel)
    return metric_norm(m, c0, res)


def hyperbolic_distance_scaled(p: UpperHalfPoint, q: UpperHalfPoint) -> float:
    """Distance in one half-plane factor under the halved metric (dx^2+dy^2)/(2y^2).

    Satisfies cosh(sqrt(2) d) = 1 + ((dx)^2 + (dy)^2) / (2 y_p y_q).
    """
    dx, dy = p.x - q.x, p.y - q.y
    arg = 1.0 + (dx * dx + dy * dy) / (2 * p.y * q.y)
    return math.acosh(max(arg, 1.0)) / SQRT2


def hyperbolic_distance(p: UpperHalfPoint, q: UpperHalfPoint) -> float:
    """Standard upper half-plane distance, cosh d = 1 + |p - q|^2 / (2 y_p y_q)."""
    dx, dy = p.x - q.x, p.y - q.y
    arg = 1.0 + (dx * dx + dy * dy) / (2 * p.y * q.y)
    return math.acosh(max(arg, 1.0))


def product_distance(p: ProductPoint, q: ProductPoint) -> float:
    """Distance on H x H, the square root of the sum of squared factor distances."""
    r1 = hyperbolic_distance_scaled(p.z1, q.z1)
    r2 = hyperbolic_distance_scaled(p.z2, q.z2)
    return math.hypot(r1, r2)


def mixed_distance(p: MixedPoint, q: MixedPoint) -> float:
    """Distance on C x H: Euclidean in the first factor, hyperbolic in the second."""
    de = abs(p.z - q.z)
    dh = hyperbolic_distance(p.w, q.w)
    return math.hypot(de, dh)


def cross_r4(u: TangentVector4, v: TangentVector4, w: TangentVector4) -> TangentVector4:
    """Triple cross product on R^4.

    The result X is the unique vector with <X, z> = det(u, v, w, z) for all z,
    so X is Euclidean-orthogonal to u, v, w and multilinear alternating.
    """
    bases = {tuple(_coords(t.base)) for t in (u, v, w)}
    if len(bases) != 1:
        raise ValueError("cross product requires a common base point")
    M = np.vstack([u.array, v.array, w.array])
    out = np.empty(4)
    for i in range(4):
        rows = np.vstack([M, np.eye(4)[i]])
        out[i] = np.linalg.det(rows)
    return TangentVector4(tuple(out), u.base)

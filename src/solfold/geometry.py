"""Points, metrics, and curvature primitives on H x H and C x H.

The two ambient spaces are the product of two upper half-planes, carried
with the half-scaled hyperbolic product metric, and the product of the
Euclidean plane with one upper half-plane.  The induced leaf metrics are
computed where their foliations are, in sol and heisenberg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

SQRT2 = math.sqrt(2.0)


def _per_element(f: Callable[..., float], *xs):
    """f(*xs), taken element by element, after broadcasting, when any x is
    an array of any shape.

    math.exp, math.log, math.acosh, math.hypot, complex abs and float powers
    keep their bits this way; their NumPy forms can differ in the last place.
    """
    if any(isinstance(x, np.ndarray) for x in xs):
        b = np.broadcast_arrays(*xs)
        return np.array(list(map(f, *(a.ravel().tolist() for a in b)))).reshape(b[0].shape)
    return f(*xs)


def _diag(*entries) -> np.ndarray:
    """Diagonal matrix of the entries, stacked along the leading axes when
    they hold arrays."""
    d = np.broadcast_arrays(*entries)
    out = np.zeros(d[0].shape + (len(d), len(d)))
    for i, x in enumerate(d):
        out[..., i, i] = x
    return out


@dataclass(frozen=True)
class UpperHalfPoint:
    """Point x + iy of the upper half-plane, y > 0.

    x and y may be equal-length arrays: the points of a sample, one per entry.
    """

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (np.all(self.y > 0) if isinstance(self.y, np.ndarray) else self.y > 0):
            raise ValueError(f"upper half-plane requires y > 0, got y={self.y}")

    @classmethod
    def from_complex(cls, z: complex) -> "UpperHalfPoint":
        return cls(float(z.real), float(z.imag))

    @property
    def complex(self) -> complex:
        if isinstance(self.y, np.ndarray):
            z = np.empty(np.broadcast(self.x, self.y).shape, dtype=complex)
            z.real, z.imag = self.x, self.y
            return z
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
        """The point (x1, y1, x2, y2), or from a (4, n) array a point per
        column, as coords() gives them."""
        if isinstance(c, np.ndarray) and c.ndim > 1:
            return cls(UpperHalfPoint(c[0], c[1]), UpperHalfPoint(c[2], c[3]))
        return cls(UpperHalfPoint(float(c[0]), float(c[1])),
                   UpperHalfPoint(float(c[2]), float(c[3])))

    def coords(self) -> np.ndarray:
        """Coordinates (x1, y1, x2, y2), a column per point on array fields."""
        return np.array([self.z1.x, self.z1.y, self.z2.x, self.z2.y])


@dataclass(frozen=True)
class MixedPoint:
    """Point (z, w) of C x H."""

    z: complex
    w: UpperHalfPoint

    def coords(self) -> np.ndarray:
        """Coordinates (Re z, Im z, Re w, Im w), a column per point on array fields."""
        return np.array(np.broadcast_arrays(self.z.real, self.z.imag, self.w.x, self.w.y))


@dataclass(frozen=True)
class MetricSpec:
    """One of the two ambient metrics, given by its half-plane factors.

    A factor ((ix, iy), d) carries (dx^2 + dy^2) / (d y^2) on the coordinates
    x = p[ix], y = p[iy] > 0; every other coordinate is Euclidean.
      half_hyperbolic_product     (x1, y1, x2, y2) on H x H, factors (0, 1) and (2, 3), d = 2
      euclidean_times_hyperbolic  (x, y, p, q) on C x H, factor (2, 3), d = 1
    """

    factors: Tuple[Tuple[Tuple[int, int], int], ...]

    @classmethod
    def half_hyperbolic_product(cls) -> "MetricSpec":
        return cls((((0, 1), 2), ((2, 3), 2)))

    @classmethod
    def euclidean_times_hyperbolic(cls) -> "MetricSpec":
        return cls((((2, 3), 1),))

    def matrix(self, p: Sequence[float]) -> np.ndarray:
        """Metric coefficient matrix g_ij at coordinates p, stacked along the
        leading axes for a (4, ...) array; 1 / (d y^2) takes a float power."""
        c = np.asarray(p, dtype=float)
        if len(c) != 4:
            raise ValueError(f"expected 4 coordinates, got {len(c)}")
        g = [1.0] * 4
        for (ix, iy), d in self.factors:
            g[ix] = g[iy] = _per_element(lambda y: 1 / (d * y ** 2), _height(c, iy))
        return _diag(*g)


def _height(c: np.ndarray, iy: int) -> float:
    if np.any(c[iy] <= 0):
        raise ValueError(f"point outside the upper half-plane in coordinate {iy}")
    return c[iy]


def metric_inner(m: MetricSpec, p, u, v) -> float:
    """Inner product g_p(u, v) of coordinate vectors at coordinates p, a
    value per column for (4, ...) arrays.  np.matmul on contiguous rows
    makes for each point of a stack the BLAS calls of one point."""
    g = m.matrix(p)
    row, col = (np.ascontiguousarray(np.moveaxis(np.asarray(w, dtype=float), 0, -1))
                for w in (u, v))
    if row.shape[-1] != 4 or col.shape[-1] != 4:
        raise ValueError("vector dimension does not match the metric")
    out = np.matmul(np.matmul(row[..., None, :], g), col[..., None])[..., 0, 0]
    return out if out.ndim else float(out)


def metric_norm(m: MetricSpec, p, u) -> float:
    return _per_element(lambda a: math.sqrt(max(a, 0.0)), metric_inner(m, p, u, u))


def christoffel(m: MetricSpec, p) -> np.ndarray:
    """Christoffel symbols Gamma[k, i, j, ...] of the metric in closed form.

    A constant factor of the metric leaves them unchanged, so each half-plane
    factor contributes the same symbols whatever its divisor.
    """
    c = np.asarray(p, dtype=float)
    G = np.zeros((4, 4, 4) + c.shape[1:])
    for (ix, iy), _ in m.factors:
        y = _height(c, iy)
        G[ix, ix, iy] = G[ix, iy, ix] = -1 / y
        G[iy, ix, ix] = 1 / y
        G[iy, iy, iy] = -1 / y
    return G


def geodesic_residual(m: MetricSpec, curve: Callable[[float], Sequence[float]],
                      t: float) -> float:
    """Metric length sqrt(r^T g r), at c(t), of the geodesic equation
    residual r = c'' + Gamma(c', c') of a coordinate curve, or of curves.

    Velocity and acceleration come from central differences with step 1e-4.
    Measured in the metric, their rounding noise does not grow with height.
    """
    h = 1e-4
    cm = np.asarray(curve(t - h), dtype=float)
    c0 = np.asarray(curve(t), dtype=float)
    cp = np.asarray(curve(t + h), dtype=float)
    vel = (cp - cm) / (2 * h)
    acc = (cp - 2 * c0 + cm) / (h * h)
    G = christoffel(m, c0)
    res = acc + np.einsum("kij...,i...,j...->k...", G, vel, vel)
    return metric_norm(m, c0, res)


def hyperbolic_distance_scaled(p: UpperHalfPoint, q: UpperHalfPoint) -> float:
    """Distance in one half-plane factor under the halved metric (dx^2+dy^2)/(2y^2).

    Satisfies cosh(sqrt(2) d) = 1 + ((dx)^2 + (dy)^2) / (2 y_p y_q).
    """
    return hyperbolic_distance(p, q) / SQRT2


def hyperbolic_distance(p: UpperHalfPoint, q: UpperHalfPoint) -> float:
    """Standard upper half-plane distance, cosh d = 1 + |p - q|^2 / (2 y_p y_q).

    The distances of all pairs, one per entry, when the points hold arrays.
    """
    dx, dy = p.x - q.x, p.y - q.y
    arg = 1.0 + (dx * dx + dy * dy) / (2 * p.y * q.y)
    return _per_element(lambda a: math.acosh(max(a, 1.0)), arg)


def product_distance(p: ProductPoint, q: ProductPoint) -> float:
    """Distance on H x H, the square root of the sum of squared factor distances."""
    return _per_element(math.hypot, hyperbolic_distance_scaled(p.z1, q.z1),
                        hyperbolic_distance_scaled(p.z2, q.z2))


def mixed_distance(p: MixedPoint, q: MixedPoint) -> float:
    """Distance on C x H: Euclidean in the first factor, hyperbolic in the second."""
    return _per_element(math.hypot, _per_element(abs, p.z - q.z),
                        hyperbolic_distance(p.w, q.w))


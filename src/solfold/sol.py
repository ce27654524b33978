"""The solvable group R^2 x| R, its action on H x H, and the leaf geometry.

An element (t, x, y) scales the half-plane factors by reciprocal exponential
weights and translates them horizontally.  Orbits of base points foliate
H x H by surfaces carrying left-invariant Sol metrics; the normal flow and a
rectifying chart put the foliation in a standard product form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ._optim import SeparationResult, grid_then_descend
from .geometry import (
    SQRT2,
    MetricSpec,
    ProductPoint,
    TangentVector4,
    UpperHalfPoint,
    metric_inner,
    product_distance,
)


@dataclass(frozen=True)
class SolElement:
    """Group element (t, x, y) with law (t,x,y)(t',x',y') = (t+t', x+e^t x', y+e^{-t} y')."""

    t: float
    x: float
    y: float

    @classmethod
    def identity(cls) -> "SolElement":
        return cls(0.0, 0.0, 0.0)

    def inverse(self) -> "SolElement":
        return SolElement(-self.t, -math.exp(-self.t) * self.x, -math.exp(self.t) * self.y)


def sol_mul(g: SolElement, h: SolElement) -> SolElement:
    return SolElement(g.t + h.t,
                      g.x + math.exp(g.t) * h.x,
                      g.y + math.exp(-g.t) * h.y)


@dataclass(frozen=True)
class SolParams:
    """Scaling base lam > 0, lam != 1, and an invertible mixing matrix [[a, b], [c, d]].

    The element (t, x, y) acts on H x H by
      (z1, z2) |-> (lam^t z1 + a x + b y, lam^{-t} z2 + c x + d y).
    """

    lam: float
    a: float = 1.0
    b: float = 0.0
    c: float = 0.0
    d: float = 1.0

    def __post_init__(self) -> None:
        if self.lam <= 0 or self.lam == 1.0:
            raise ValueError("scaling base must be positive and different from 1")
        if abs(self.a * self.d - self.b * self.c) < 1e-12:
            raise ValueError("mixing matrix must be invertible")

    @classmethod
    def standard(cls) -> "SolParams":
        return cls(math.e)

    @property
    def mixing(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]])

    def translation(self, g: SolElement) -> Tuple[float, float]:
        """Translation pair (a x + b y, c x + d y) contributed by g."""
        return (self.a * g.x + self.b * g.y, self.c * g.x + self.d * g.y)


STANDARD = SolParams.standard()


def sol_mul_params(p: SolParams, g: SolElement, h: SolElement) -> SolElement:
    """Group law twisted so that the (lam, M) matrix representation is a homomorphism."""
    M = p.mixing
    Minv = np.linalg.inv(M)
    s = p.lam ** g.t
    tr = M @ np.array([g.x, g.y]) + np.diag([s, 1 / s]) @ M @ np.array([h.x, h.y])
    xy = Minv @ tr
    return SolElement(g.t + h.t, float(xy[0]), float(xy[1]))


def sol_matrix_rep(g: SolElement, p: SolParams = STANDARD) -> np.ndarray:
    """Upper triangular representation diag(lam^t, lam^{-t}, 1) with the translation column."""
    u, v = p.translation(g)
    s = p.lam ** g.t
    return np.array([[s, 0.0, u],
                     [0.0, 1 / s, v],
                     [0.0, 0.0, 1.0]])


def sol_act(p: SolParams, g: SolElement, z: ProductPoint) -> ProductPoint:
    u, v = p.translation(g)
    s = p.lam ** g.t
    return ProductPoint.from_complex(s * z.z1.complex + u, z.z2.complex / s + v)


def phi(p: SolParams, g: SolElement) -> SolElement:
    """Reparametrization carrying (lam, M) coordinates to standard coordinates.

    The embedding with parameters p equals the standard embedding composed with phi.
    """
    u, v = p.translation(g)
    return SolElement(g.t * math.log(p.lam), u, v)


def phi_inverse(p: SolParams, g: SolElement) -> SolElement:
    Minv = np.linalg.inv(p.mixing)
    xy = Minv @ np.array([g.x, g.y])
    return SolElement(g.t / math.log(p.lam), float(xy[0]), float(xy[1]))


def leaf_embed(p: SolParams, z: ProductPoint, g: SolElement) -> ProductPoint:
    """Orbit parametrization f_z(g) = g . z of the leaf through z."""
    return sol_act(p, g, z)


def leaf_embed_inverse(p: SolParams, z: ProductPoint, w: ProductPoint) -> SolElement:
    """Left inverse of f_z: recovers g from w = f_z(g), using the first factor height."""
    s = w.z1.y / z.z1.y  # lam^t
    t = math.log(s) / math.log(p.lam)
    Minv = np.linalg.inv(p.mixing)
    rhs = np.array([w.z1.x - s * z.z1.x, w.z2.x - z.z2.x / s])
    xy = Minv @ rhs
    return SolElement(t, float(xy[0]), float(xy[1]))


def leaf_jacobian(p: SolParams, z: ProductPoint, g: SolElement) -> np.ndarray:
    """4 x 3 Jacobian of f_z at g, columns ordered (d/dt, d/dx, d/dy)."""
    ln = math.log(p.lam)
    s = p.lam ** g.t
    return np.array([
        [ln * s * z.z1.x, p.a, p.b],
        [ln * s * z.z1.y, 0.0, 0.0],
        [-ln * z.z2.x / s, p.c, p.d],
        [-ln * z.z2.y / s, 0.0, 0.0],
    ])


def leaf_normal(p: SolParams, z: ProductPoint, g: SolElement) -> TangentVector4:
    """Euclidean normal field of the leaf at f_z(g).

    Equals the triple cross product of the Jacobian columns up to positive
    scale when the mixing determinant is positive; its second and fourth
    components carry the opposite factor heights.
    """
    ln = math.log(p.lam)
    s = p.lam ** g.t
    base = leaf_embed(p, z, g)
    return TangentVector4((0.0, -ln * z.z2.y / s, 0.0, -ln * s * z.z1.y), base)


def normal_flow(z: ProductPoint, s: float) -> ProductPoint:
    """Unit-speed flow psi_s scaling both factor heights by e^s."""
    es = math.exp(s)
    return ProductPoint(UpperHalfPoint(z.z1.x, es * z.z1.y),
                        UpperHalfPoint(z.z2.x, es * z.z2.y))


def normal_flow_velocity(z: ProductPoint, s: float) -> TangentVector4:
    """Exact velocity of s |-> psi_s(z), the field (0, y1, 0, y2) at the moving point."""
    p = normal_flow(z, s)
    return TangentVector4((0.0, p.z1.y, 0.0, p.z2.y), p)


def flow_speed(z: ProductPoint, s: float) -> float:
    m = MetricSpec.half_hyperbolic_product()
    v = normal_flow_velocity(z, s)
    return math.sqrt(metric_inner(m, v.base, v, v))


def flow_equivariance_defect(p: SolParams, z: ProductPoint, g: SolElement, s: float) -> float:
    """Sup-norm of psi_s(f_z(g)) - f_{psi_s(z)}(g)."""
    lhs = normal_flow(leaf_embed(p, z, g), s).coords()
    rhs = leaf_embed(p, normal_flow(z, s), g).coords()
    return float(np.abs(lhs - rhs).max())


# Base point of the rectifying chart: the unique height (up to flow) where the
# induced leaf metric is the Sol metric on the nose.
Z0 = ProductPoint(UpperHalfPoint(0.0, 1 / SQRT2), UpperHalfPoint(0.0, 1 / SQRT2))


def rectify(t: float, x: float, y: float, s: float) -> ProductPoint:
    """Chart Psi(t, x, y, s) = psi_s(f_{z0}(t, x, y)) identifying R^3 x R with H x H."""
    return ProductPoint(UpperHalfPoint(x, math.exp(t + s) / SQRT2),
                        UpperHalfPoint(y, math.exp(-t + s) / SQRT2))


def rectify_inverse(z: ProductPoint) -> Tuple[float, float, float, float]:
    t = 0.5 * math.log(z.z1.y / z.z2.y)
    s = 0.5 * math.log(2.0 * z.z1.y * z.z2.y)
    return (t, z.z1.x, z.z2.x, s)


def rectify_jacobian(t: float, x: float, y: float, s: float) -> np.ndarray:
    """4 x 4 derivative of Psi, rows (x1, y1, x2, y2), columns (t, x, y, s)."""
    a = math.exp(t + s) / SQRT2
    b = math.exp(-t + s) / SQRT2
    return np.array([
        [0.0, 1.0, 0.0, 0.0],
        [a, 0.0, 0.0, a],
        [0.0, 0.0, 1.0, 0.0],
        [-b, 0.0, 0.0, b],
    ])


def rectify_isometric(t: float, x: float, y: float, s: float) -> ProductPoint:
    """Variant Psi~(t, x, y, s) = Psi(t, e^s x, e^s y, s); each slice s = const
    pulls the ambient metric back to the Sol metric diag(1, e^{-2t}, e^{2t})."""
    es = math.exp(s)
    return rectify(t, es * x, es * y, s)


def rectify_isometric_inverse(z: ProductPoint) -> Tuple[float, float, float, float]:
    t, X, Y, s = rectify_inverse(z)
    es = math.exp(-s)
    return (t, es * X, es * Y, s)


def leaf_metric(z: ProductPoint, t: float) -> np.ndarray:
    """Induced metric of the leaf through z = (y1 i, y2 i) at parameter t,
    in coordinates (t, x, y)."""
    if z.z1.x != 0.0 or z.z2.x != 0.0:
        raise ValueError("leaf metric requires a purely imaginary base point")
    return MetricSpec.leaf_sol(z.z1.y, z.z2.y).matrix([t, 0.0, 0.0])


Quad = Tuple[float, float, float, float]


def sol_product_isometry(params: Quad, q: Quad) -> Quad:
    """Leaf-preserving isometry of the rectified picture.

    In Psi coordinates (t, x, y, s) the map sends
      (t, x, y, s) |-> (t + t', e^{t'+s'} x + x', e^{-t'+s'} y + y', s + s')
    and preserves the pulled-back product distance.
    """
    tp, xp, yp, sp = params
    t, x, y, s = q
    return (t + tp,
            math.exp(tp + sp) * x + xp,
            math.exp(-tp + sp) * y + yp,
            s + sp)


def sol_product_isometry_compose(p2: Quad, p1: Quad) -> Quad:
    """Parameters of the composite map "apply p1, then p2"."""
    t1, x1, y1, s1 = p1
    t2, x2, y2, s2 = p2
    return (t1 + t2,
            math.exp(t2 + s2) * x1 + x2,
            math.exp(-t2 + s2) * y1 + y2,
            s1 + s2)


def sol_product_isometry_between(src: Quad, dst: Quad) -> Quad:
    """Parameters moving src to dst; witnesses transitivity."""
    tp = dst[0] - src[0]
    sp = dst[3] - src[3]
    xp = dst[1] - math.exp(tp + sp) * src[1]
    yp = dst[2] - math.exp(-tp + sp) * src[2]
    return (tp, xp, yp, sp)


def leaf_separation(s0: float, s1: float) -> float:
    """Distance between the leaves at flow times s0 and s1."""
    return abs(s1 - s0)


def leaf_separation_numeric(s0: float, s1: float,
                            budget: int = 100_000) -> SeparationResult:
    """Minimize the product distance between the leaves s = s0 and s = s1.

    Points are taken in the rectified parametrization; a coarse grid over the
    leaf parameters seeds a coordinate descent refined to step 1e-6.
    """
    def dist(v: np.ndarray) -> float:
        t0, t1, dx, dy = v
        # translation invariance lets the first point keep x = y = 0
        return product_distance(rectify(t0, 0.0, 0.0, s0),
                                rectify(t1, dx, dy, s1))

    ts, xs = np.linspace(-3.0, 3.0, 7), np.linspace(-5.0, 5.0, 5)
    return grid_then_descend(dist, (ts, ts, xs, xs), budget)


@dataclass(frozen=True)
class ShapeOperatorResult:
    matrix: np.ndarray          # in the tangent basis (d/dx, d/dy, d/dt)
    eigenvalues: np.ndarray     # ascending
    eigenvectors: np.ndarray    # ambient 4-vectors, columns matching eigenvalues


def _leaf_point(t: float, s: float) -> np.ndarray:
    return np.array([0.0, math.exp(-t - s) / SQRT2, 0.0, math.exp(t - s) / SQRT2])


def _unit_normal_field(c: np.ndarray) -> np.ndarray:
    # the flow direction (0, y1, 0, y2), unit for the half-scaled product metric
    return np.array([0.0, c[1], 0.0, c[3]])


def normal_covariant_derivative(point, h: float = 1e-5) -> np.ndarray:
    """Matrix (nabla X)^k_i of the unit normal field at an ambient point.

    Partial derivatives of the field are taken by central differences; the
    connection correction uses the closed-form Christoffel symbols.
    """
    from .geometry import christoffel, _coords

    c = _coords(point)
    m = MetricSpec.half_hyperbolic_product()
    G = christoffel(m, c)
    X = _unit_normal_field(c)
    out = np.empty((4, 4))
    for i in range(4):
        cp, cm = c.copy(), c.copy()
        cp[i] += h
        cm[i] -= h
        dX = (_unit_normal_field(cp) - _unit_normal_field(cm)) / (2 * h)
        out[:, i] = dX + G[:, i, :] @ X
    return out


def shape_operator(t: float, s: float, h: float = 1e-5) -> ShapeOperatorResult:
    """Shape operator of the leaf through (0, e^{-t-s}/sqrt2, 0, e^{t-s}/sqrt2).

    Returns the matrix of v |-> nabla_v X in the tangent basis together with
    its spectrum, computed against the induced metric so the eigenproblem is
    symmetric.
    """
    c = _leaf_point(t, s)
    nabla = normal_covariant_derivative(c, h=h)
    # tangent basis: horizontal translations and the leaf t-direction
    B = np.column_stack([
        np.array([1.0, 0.0, 0.0, 0.0]),
        np.array([0.0, 0.0, 1.0, 0.0]),
        np.array([0.0, -c[1], 0.0, c[3]]),
    ])
    S_ambient = nabla @ B                      # nabla_{b_i} X, columns
    S, *_ = np.linalg.lstsq(B, S_ambient, rcond=None)
    g = MetricSpec.half_hyperbolic_product().matrix(c)
    Gram = B.T @ g @ B
    evals_g, vecs_g = np.linalg.eigh(Gram)
    W = vecs_g @ np.diag(np.sqrt(evals_g)) @ vecs_g.T       # Gram^{1/2}
    Winv = vecs_g @ np.diag(1 / np.sqrt(evals_g)) @ vecs_g.T
    Msym = W @ S @ Winv
    Msym = 0.5 * (Msym + Msym.T)
    eigenvalues, U = np.linalg.eigh(Msym)
    directions = B @ (Winv @ U)
    return ShapeOperatorResult(S, eigenvalues, directions)

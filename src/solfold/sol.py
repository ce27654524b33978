"""The solvable group R^2 x| R, its action on H x H, and the leaf geometry.

An element (t, x, y) scales the half-plane factors by reciprocal exponential
weights and translates them horizontally.  Orbits of base points foliate
H x H by surfaces carrying left-invariant Sol metrics; the normal flow and a
rectifying chart put the foliation in a standard product form.  The action,
the flow and the charts also take array coordinates, one entry per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Tuple

import numpy as np

from ._optim import SeparationResult, grid_then_descend
from .geometry import (
    SQRT2,
    MetricSpec,
    ProductPoint,
    UpperHalfPoint,
    _diag,
    _per_element,
    christoffel,
    metric_norm,
    product_distance,
)


@dataclass(frozen=True)
class SolElement:
    """Group element (t, x, y) with law (t,x,y)(t',x',y') = (t+t', x+e^t x', y+e^{-t} y')."""

    t: float
    x: float
    y: float

    def inverse(self) -> "SolElement":
        return SolElement(-self.t, -_per_element(math.exp, -self.t) * self.x,
                          -_per_element(math.exp, self.t) * self.y)


def sol_mul(g: SolElement, h: SolElement) -> SolElement:
    """g h, elementwise when the coordinates hold arrays."""
    return SolElement(g.t + h.t,
                      g.x + _per_element(math.exp, g.t) * h.x,
                      g.y + _per_element(math.exp, -g.t) * h.y)


@dataclass(frozen=True)
class SolParams:
    """Scaling base lam > 0, lam != 1.

    The element (t, x, y) acts on H x H by
      (z1, z2) |-> (lam^t z1 + x, lam^{-t} z2 + y).
    """

    lam: float

    def __post_init__(self) -> None:
        if self.lam <= 0 or self.lam == 1.0:
            raise ValueError("scaling base must be positive and different from 1")


STANDARD = SolParams(math.e)


def sol_act(p: SolParams, g: SolElement, z: ProductPoint) -> ProductPoint:
    """(z1, z2) |-> (s z1 + x, z2 / s + y) with s = lam^t, elementwise on arrays.

    Taken on real and imaginary parts, which gives the values of Python's
    complex product with and quotient by the real s, up to the sign of a zero.
    """
    s = _per_element(partial(pow, p.lam), g.t)
    return ProductPoint(UpperHalfPoint(s * z.z1.x + g.x, s * z.z1.y),
                        UpperHalfPoint(z.z2.x / s + g.y, z.z2.y / s))


def phi(p: SolParams, g: SolElement) -> SolElement:
    """Reparametrization carrying lam coordinates to standard coordinates.

    The embedding with parameters p equals the standard embedding composed with phi.
    """
    return SolElement(g.t * math.log(p.lam), g.x, g.y)


def leaf_embed(p: SolParams, z: ProductPoint, g: SolElement) -> ProductPoint:
    """Orbit parametrization f_z(g) = g . z of the leaf through z."""
    return sol_act(p, g, z)


def normal_flow(z: ProductPoint, s: float) -> ProductPoint:
    """Unit-speed flow psi_s scaling both factor heights by e^s."""
    es = _per_element(math.exp, s)
    return ProductPoint(UpperHalfPoint(z.z1.x, es * z.z1.y),
                        UpperHalfPoint(z.z2.x, es * z.z2.y))


def flow_speed(z: ProductPoint, s: float) -> float:
    """Metric length of the exact velocity (0, y1, 0, y2) of s |-> psi_s(z)."""
    c = normal_flow(z, s).coords()
    return metric_norm(MetricSpec.half_hyperbolic_product(), c, _unit_normal_field(c))


def flow_equivariance_defect(p: SolParams, z: ProductPoint, g: SolElement, s: float) -> float:
    """Sup-norm of psi_s(f_z(g)) - f_{psi_s(z)}(g), over every sample when
    z, g and s hold arrays."""
    lhs = normal_flow(leaf_embed(p, z, g), s).coords()
    rhs = leaf_embed(p, normal_flow(z, s), g).coords()
    return float(np.abs(lhs - rhs).max())


# Base point of the rectifying chart: the unique height (up to flow) where the
# induced leaf metric is the Sol metric on the nose.
Z0 = ProductPoint(UpperHalfPoint(0.0, 1 / SQRT2), UpperHalfPoint(0.0, 1 / SQRT2))


def rectify(t: float, x: float, y: float, s: float) -> ProductPoint:
    """Chart Psi(t, x, y, s) = psi_s(f_{z0}(t, x, y)) identifying R^3 x R with H x H."""
    return ProductPoint(UpperHalfPoint(x, _per_element(math.exp, t + s) / SQRT2),
                        UpperHalfPoint(y, _per_element(math.exp, -t + s) / SQRT2))


def rectify_inverse(z: ProductPoint) -> Tuple[float, float, float, float]:
    t = 0.5 * _per_element(math.log, z.z1.y / z.z2.y)
    return (t, z.z1.x, z.z2.x, _leaf_param(z.z1.y, z.z2.y))


def _leaf_param(y1: float, y2: float) -> float:
    """Leaf parameter s of the points with heights y1 and y2."""
    return 0.5 * _per_element(math.log, 2.0 * y1 * y2)


def rectify_isometric(t: float, x: float, y: float, s: float) -> ProductPoint:
    """Variant Psi~(t, x, y, s) = Psi(t, e^s x, e^s y, s); each slice s = const
    pulls the ambient metric back to the Sol metric diag(1, e^{-2t}, e^{2t})."""
    es = _per_element(math.exp, s)
    return rectify(t, es * x, es * y, s)


def rectify_isometric_inverse(z: ProductPoint) -> Tuple[float, float, float, float]:
    t, X, Y, s = rectify_inverse(z)
    es = _per_element(math.exp, -s)
    return (t, es * X, es * Y, s)


def leaf_metric(z: ProductPoint, t: float) -> np.ndarray:
    """Induced metric of the leaf through z = (y1 i, y2 i) at parameter t,
    in coordinates (t, x, y), stacked along the leading axes when z and t
    hold arrays."""
    if np.any(z.z1.x != 0.0) or np.any(z.z2.x != 0.0):
        raise ValueError("leaf metric requires a purely imaginary base point")
    # dt^2 + e^{-2t}/(2 y1^2) dx^2 + e^{2t}/(2 y2^2) dy^2
    return _diag(1.0, _per_element(lambda t, y: math.exp(-2 * t) / (2 * y ** 2), t, z.z1.y),
                 _per_element(lambda t, y: math.exp(2 * t) / (2 * y ** 2), t, z.z2.y))


def leaf_separation(s0: float, s1: float) -> float:
    """Distance between the leaves at flow times s0 and s1."""
    return abs(s1 - s0)


def leaf_separation_numeric(s0: float, s1: float,
                            budget: int = 100_000) -> SeparationResult:
    """Minimize the product distance between the leaves s = s0 and s = s1.

    Points are taken in the rectified parametrization; a coarse grid over the
    leaf parameters, measured as one array of points, seeds a coordinate
    descent refined to step 1e-6.
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
    return np.stack([np.zeros_like(c[1]), c[1], np.zeros_like(c[3]), c[3]])


def normal_covariant_derivative(point) -> np.ndarray:
    """Matrix (nabla X)^k_i of the unit normal field at an ambient point.

    Partial derivatives of the field are taken by central differences with
    step 1e-5; the connection correction uses the closed-form Christoffel
    symbols.
    """
    h = 1e-5
    c = np.asarray(point, dtype=float)
    G = christoffel(MetricSpec.half_hyperbolic_product(), c)
    # column i of the stencils moves coordinate i by +h and by -h
    cp, cm = c[:, None] + h * np.eye(4), c[:, None] - h * np.eye(4)
    dX = (_unit_normal_field(cp) - _unit_normal_field(cm)) / (2 * h)
    return dX + G @ _unit_normal_field(c)


def shape_operator(t: float, s: float) -> ShapeOperatorResult:
    """Shape operator of the leaf through (0, e^{-t-s}/sqrt2, 0, e^{t-s}/sqrt2).

    Returns the matrix of v |-> nabla_v X in the tangent basis together with
    its spectrum, computed against the induced metric so the eigenproblem is
    symmetric.
    """
    c = _leaf_point(t, s)
    nabla = normal_covariant_derivative(c)
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

"""Metric primitives: coefficient matrices, curvature data, distances."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from solfold import (
    MetricSpec,
    ProductPoint,
    UpperHalfPoint,
    christoffel,
    geodesic_residual,
    heis_pullback_metric,
    hyperbolic_distance,
    hyperbolic_distance_scaled,
    leaf_metric,
    metric_inner,
    metric_norm,
    mixed_distance,
    product_distance,
)
from solfold.geometry import MixedPoint

from conftest import (
    SEED,
    cross_r4,
    fd_christoffel,
    mixed_metric_matrix,
    product_metric_matrix,
    scaled_half_plane_distance,
)

coord = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
height = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)


def test_upper_half_point_rejects_nonpositive_height():
    with pytest.raises(ValueError):
        UpperHalfPoint(0.0, 0.0)
    with pytest.raises(ValueError):
        UpperHalfPoint(1.0, -2.0)


def test_product_point_coordinate_round_trip():
    z = ProductPoint.from_complex(1 + 2j, -3 + 4j)
    assert np.array_equal(z.coords(), [1.0, 2.0, -3.0, 4.0])
    assert ProductPoint.from_coords(z.coords()) == z


def test_mixed_point_coordinate_round_trip():
    m = MixedPoint(2 - 1j, UpperHalfPoint(0.5, 3.0))
    c = m.coords()
    assert np.array_equal(c, [2.0, -1.0, 0.5, 3.0])
    assert MixedPoint(complex(c[0], c[1]), UpperHalfPoint(c[2], c[3])) == m


def test_tangent_vector_needs_four_components():
    m = MetricSpec.half_hyperbolic_product()
    p = [0.0, 1.0, 0.0, 1.0]
    for bad in ([1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0]):
        with pytest.raises(ValueError):
            metric_inner(m, p, bad, [1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            metric_inner(m, p, [1.0, 0.0, 0.0, 0.0], bad)


def test_metric_spec_validates_parameters():
    with pytest.raises(ValueError):
        heis_pullback_metric(-1.0)
    with pytest.raises(ValueError):
        heis_pullback_metric(0.0)
    with pytest.raises(ValueError):
        MetricSpec.half_hyperbolic_product().matrix([0.0, 1.0, 0.0])
    for m, bad in ((MetricSpec.half_hyperbolic_product(), [0.0, 1.0, 0.0, -1.0]),
                   (MetricSpec.half_hyperbolic_product(), [0.0, 0.0, 0.0, 1.0]),
                   (MetricSpec.euclidean_times_hyperbolic(), [0.0, 1.0, 0.0, 0.0])):
        with pytest.raises(ValueError):
            m.matrix(bad)
        with pytest.raises(ValueError):
            christoffel(m, bad)
    # the C x H metric is Euclidean in its first factor: a negative y is a point
    assert MetricSpec.euclidean_times_hyperbolic().matrix([0.0, -1.0, 0.0, 1.0])[1, 1] == 1.0


def test_product_metric_matches_explicit_coefficients():
    m = MetricSpec.half_hyperbolic_product()
    for c in ([0.0, 1.0, 0.0, 1.0], [2.0, 0.5, -1.0, 3.0]):
        assert np.allclose(m.matrix(c), product_metric_matrix(c), rtol=0, atol=1e-15)
    assert np.allclose(m.matrix([0.0, 1.0, 0.0, 1.0]), np.diag([0.5] * 4),
                       rtol=0, atol=0)


def test_mixed_metric_matches_explicit_coefficients():
    m = MetricSpec.euclidean_times_hyperbolic()
    for c in ([0.0, 0.0, 0.0, 1.0], [1.0, -2.0, 0.3, 0.25]):
        assert np.allclose(m.matrix(c), mixed_metric_matrix(c), rtol=0, atol=1e-15)


def test_leaf_metric_coefficients():
    z = ProductPoint.from_coords([0.0, 0.5, 0.0, 2.0])
    t = 0.7
    expected = np.diag([1.0,
                        math.exp(-2 * t) / (2 * 0.5 ** 2),
                        math.exp(2 * t) / (2 * 2.0 ** 2)])
    assert np.allclose(leaf_metric(z, t), expected, rtol=0, atol=1e-15)


def test_heis_pullback_coefficients_constant():
    expected = np.diag([1.5 ** 2, 1 / 1.5 ** 2, 1.0])
    assert np.array_equal(heis_pullback_metric(1.5), expected)


def _literal_coefficients(p_hh, p_ch, z, t, y0):
    """The coefficient matrices as each metric spelled them when it was a
    kind of its own, term for term and on the same number types."""
    y1, y2 = np.asarray(p_hh, dtype=float)[[1, 3]]
    q = np.asarray(p_ch, dtype=float)[3]
    t = np.asarray([t, 0.0, 0.0], dtype=float)[0]
    return (np.diag([1 / (2 * y1 ** 2), 1 / (2 * y1 ** 2),
                     1 / (2 * y2 ** 2), 1 / (2 * y2 ** 2)]),
            np.diag([1.0, 1.0, 1 / q ** 2, 1 / q ** 2]),
            np.diag([1.0, math.exp(-2 * t) / (2 * z.z1.y ** 2),
                     math.exp(2 * t) / (2 * z.z2.y ** 2)]),
            np.diag([y0 ** 2, 1 / y0 ** 2, 1.0]))


@pytest.mark.parametrize("lo, hi", [(0.1, 10.0), (1e-151, 1e-149), (1e149, 1e151)])
def test_coefficients_keep_their_bits(lo, hi):
    rng = np.random.default_rng(SEED + 7)
    hh = MetricSpec.half_hyperbolic_product()
    ch = MetricSpec.euclidean_times_hyperbolic()
    for _ in range(200):
        y1, y2, q, y0 = rng.uniform(lo, hi, size=4).tolist()
        x1, x2, t = rng.uniform(-3.0, 3.0, size=3).tolist()
        p_hh, p_ch = [x1, y1, x2, y2], [x1, x2, t, q]
        z = ProductPoint.from_coords([0.0, y1, 0.0, y2])
        got = (hh.matrix(p_hh), ch.matrix(p_ch), leaf_metric(z, t),
               heis_pullback_metric(y0))
        for g, w in zip(got, _literal_coefficients(p_hh, p_ch, z, t, y0)):
            assert np.array_equal(g, w)


@given(x1=coord, y1=height, x2=coord, y2=height,
       u=st.tuples(coord, coord, coord, coord),
       v=st.tuples(coord, coord, coord, coord))
def test_metric_inner_symmetric(x1, y1, x2, y2, u, v):
    m = MetricSpec.half_hyperbolic_product()
    p = [x1, y1, x2, y2]
    a = metric_inner(m, p, u, v)
    b = metric_inner(m, p, v, u)
    assert abs(a - b) < 1e-14 * (1.0 + abs(a))


def test_metric_positive_definite(rng):
    specs = [
        lambda: MetricSpec.half_hyperbolic_product().matrix(
            [rng.uniform(-3, 3), rng.uniform(0.1, 5), rng.uniform(-3, 3), rng.uniform(0.1, 5)]),
        lambda: MetricSpec.euclidean_times_hyperbolic().matrix(
            [rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.1, 5)]),
        lambda: leaf_metric(ProductPoint.from_coords(
            [0.0, rng.uniform(0.1, 5), 0.0, rng.uniform(0.1, 5)]), rng.uniform(-2, 2)),
        lambda: heis_pullback_metric(rng.uniform(0.1, 5)),
    ]
    for sample in specs:
        for _ in range(50):
            assert np.linalg.eigvalsh(sample()).min() > 0


def test_metric_norm_of_flow_direction():
    m = MetricSpec.half_hyperbolic_product()
    p = [0.3, 1.7, -0.2, 0.4]
    # (0, y1, 0, y2) has squared norm y1^2/(2y1^2) + y2^2/(2y2^2) = 1
    assert abs(metric_norm(m, p, [0.0, p[1], 0.0, p[3]]) - 1.0) < 1e-15


def test_christoffel_matches_finite_differences(rng):
    cases = [
        (MetricSpec.half_hyperbolic_product(),
         lambda: [rng.uniform(-2, 2), rng.uniform(0.3, 3), rng.uniform(-2, 2), rng.uniform(0.3, 3)]),
        (MetricSpec.euclidean_times_hyperbolic(),
         lambda: [rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.3, 3)]),
    ]
    for m, sample in cases:
        for _ in range(20):
            c = sample()
            closed = christoffel(m, c)
            numeric = fd_christoffel(lambda p, m=m: m.matrix(p), c, h=1e-5)
            assert np.abs(closed - numeric).max() < 1e-6


def test_christoffel_symmetric_in_lower_indices():
    m = MetricSpec.half_hyperbolic_product()
    G = christoffel(m, [0.4, 0.9, -1.1, 2.2])
    assert np.array_equal(G, np.swapaxes(G, 1, 2))


def test_vertical_exponentials_are_geodesics():
    m = MetricSpec.half_hyperbolic_product()

    def curve(u):
        return [0.7, math.exp(0.9 * u), -0.3, math.exp(-1.3 * u)]

    for u in (-1.0, 0.0, 0.8):
        assert geodesic_residual(m, curve, u) < 1e-6


def test_horizontal_lines_are_not_geodesics():
    m = MetricSpec.half_hyperbolic_product()

    def curve(u):
        return [u, 1.0, 0.0, 1.0]

    assert geodesic_residual(m, curve, 0.0) > 0.1


def test_scaled_distance_on_vertical_segments():
    # minimizing curves of the halved metric run along verticals with
    # length |log(y2/y1)| / sqrt(2)
    for y1, y2 in ((1.0, 2.0), (0.25, 0.3), (5.0, 1.0)):
        d = hyperbolic_distance_scaled(UpperHalfPoint(0.4, y1), UpperHalfPoint(0.4, y2))
        assert abs(d - abs(math.log(y2 / y1)) / math.sqrt(2)) < 1e-12


def test_scaled_distance_is_standard_distance_over_sqrt2():
    p = UpperHalfPoint(0.1, 0.7)
    q = UpperHalfPoint(-1.2, 2.4)
    assert abs(hyperbolic_distance(p, q) -
               math.sqrt(2) * hyperbolic_distance_scaled(p, q)) < 1e-12


def test_scaled_distance_matches_cosh_oracle(rng):
    for _ in range(200):
        x1, x2 = rng.uniform(-4, 4, size=2)
        y1, y2 = rng.uniform(0.1, 6, size=2)
        lib = hyperbolic_distance_scaled(UpperHalfPoint(x1, y1), UpperHalfPoint(x2, y2))
        assert abs(lib - scaled_half_plane_distance(x1, y1, x2, y2)) < 1e-12


def test_product_distance_symmetry_and_identity(rng):
    for _ in range(100):
        p = ProductPoint.from_coords([rng.uniform(-3, 3), rng.uniform(0.2, 4),
                                      rng.uniform(-3, 3), rng.uniform(0.2, 4)])
        q = ProductPoint.from_coords([rng.uniform(-3, 3), rng.uniform(0.2, 4),
                                      rng.uniform(-3, 3), rng.uniform(0.2, 4)])
        assert product_distance(p, p) == 0.0
        assert abs(product_distance(p, q) - product_distance(q, p)) < 1e-14


def test_product_distance_triangle_inequality():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(300):
        pts = [ProductPoint.from_coords([rng.uniform(-3, 3), rng.uniform(0.2, 4),
                                         rng.uniform(-3, 3), rng.uniform(0.2, 4)])
               for _ in range(3)]
        a, b, c = pts
        assert (product_distance(a, c)
                <= product_distance(a, b) + product_distance(b, c) + 1e-12)


def test_mixed_distance_combines_factors():
    p = MixedPoint(1 + 2j, UpperHalfPoint(0.5, 1.0))
    q = MixedPoint(-1 + 0.5j, UpperHalfPoint(0.7, 3.0))
    de = abs(p.z - q.z)
    dh = hyperbolic_distance(p.w, q.w)
    assert abs(mixed_distance(p, q) - math.hypot(de, dh)) < 1e-14


def test_cross_r4_determinant_identity(rng):
    for _ in range(50):
        u, v, w, z = (rng.uniform(-2, 2, size=4) for _ in range(4))
        X = cross_r4(u, v, w)
        det = np.linalg.det(np.vstack([u, v, w, z]))
        assert abs(float(X @ z) - det) < 1e-10


def test_cross_r4_orthogonal_to_arguments(rng):
    for _ in range(100):
        vecs = [rng.uniform(-2, 2, size=4) for _ in range(3)]
        X = cross_r4(*vecs)
        for v in vecs:
            assert abs(float(X @ v)) < 1e-12


def test_cross_r4_alternating():
    u = np.array([1.0, 0.5, -0.3, 2.0])
    v = np.array([0.0, 1.0, 1.0, -1.0])
    w = np.array([2.0, -1.0, 0.4, 0.1])
    assert np.allclose(cross_r4(u, v, w), -cross_r4(v, u, w), rtol=0, atol=1e-14)

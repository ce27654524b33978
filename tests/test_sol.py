"""Solvable group action, normal flow, rectification, leaf geometry."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from solfold import (
    STANDARD,
    Z0,
    MetricSpec,
    ProductPoint,
    SolElement,
    SolParams,
    UpperHalfPoint,
    flow_equivariance_defect,
    flow_speed,
    geodesic_residual,
    leaf_embed,
    leaf_metric,
    leaf_separation,
    leaf_separation_numeric,
    metric_inner,
    metric_norm,
    normal_flow,
    phi,
    product_distance,
    rectify,
    rectify_inverse,
    rectify_isometric,
    rectify_isometric_inverse,
    shape_operator,
    sol_act,
    sol_mul,
)
from conftest import cross_r4, fd_jacobian, fd_pullback, product_metric_matrix

small = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)

BASE2 = SolParams(2.0)


def rand_point(rng) -> ProductPoint:
    return ProductPoint.from_coords([rng.uniform(-3, 3), rng.uniform(0.2, 4),
                                     rng.uniform(-3, 3), rng.uniform(0.2, 4)])


def rand_element(rng, scale=2.0) -> SolElement:
    return SolElement(rng.uniform(-scale, scale), rng.uniform(-scale, scale),
                      rng.uniform(-scale, scale))


# ---------------------------------------------------------------------------
# second routes that no command takes, kept here as oracles

def sol_mul_params(p, g, h):
    """Group law twisted so that the lam matrix representation is a homomorphism."""
    s = p.lam ** g.t
    return SolElement(g.t + h.t, g.x + s * h.x, g.y + h.y / s)


def sol_matrix_rep(g, p=STANDARD):
    """Upper triangular representation diag(lam^t, lam^-t, 1) with the translation column."""
    s = p.lam ** g.t
    return np.array([[s, 0.0, g.x], [0.0, 1 / s, g.y], [0.0, 0.0, 1.0]])


def phi_inverse(p, g):
    return SolElement(g.t / math.log(p.lam), g.x, g.y)


def leaf_embed_inverse(p, z, w):
    """Left inverse of f_z: recovers g from w = f_z(g), using the first factor height."""
    s = w.z1.y / z.z1.y  # lam^t
    return SolElement(math.log(s) / math.log(p.lam), w.z1.x - s * z.z1.x, w.z2.x - z.z2.x / s)


def leaf_jacobian(p, z, g):
    """4 x 3 Jacobian of f_z at g, columns ordered (d/dt, d/dx, d/dy)."""
    ln, s = math.log(p.lam), p.lam ** g.t
    return np.array([[ln * s * z.z1.x, 1.0, 0.0], [ln * s * z.z1.y, 0.0, 0.0],
                     [-ln * z.z2.x / s, 0.0, 1.0], [-ln * z.z2.y / s, 0.0, 0.0]])


def leaf_normal(p, z, g):
    """Euclidean normal of the leaf at f_z(g), the triple cross product of the
    Jacobian columns up to positive scale."""
    ln, s = math.log(p.lam), p.lam ** g.t
    return np.array([0.0, -ln * z.z2.y / s, 0.0, -ln * s * z.z1.y])


def rectify_jacobian(t, x, y, s):
    """4 x 4 derivative of rectify, rows (x1, y1, x2, y2), columns (t, x, y, s)."""
    a, b = math.exp(t + s) / math.sqrt(2), math.exp(-t + s) / math.sqrt(2)
    return np.array([[0.0, 1.0, 0.0, 0.0], [a, 0.0, 0.0, a],
                     [0.0, 0.0, 1.0, 0.0], [-b, 0.0, 0.0, b]])


def sol_product_isometry(params, q):
    """Leaf-preserving isometry of the rectified picture,
    (t, x, y, s) |-> (t + t', e^{t'+s'} x + x', e^{-t'+s'} y + y', s + s')."""
    tp, xp, yp, sp = params
    t, x, y, s = q
    return (t + tp, math.exp(tp + sp) * x + xp, math.exp(-tp + sp) * y + yp, s + sp)


def sol_product_isometry_compose(p2, p1):
    """Parameters of the composite map "apply p1, then p2"."""
    t1, x1, y1, s1 = p1
    t2, x2, y2, s2 = p2
    return (t1 + t2, math.exp(t2 + s2) * x1 + x2, math.exp(-t2 + s2) * y1 + y2, s1 + s2)


def sol_product_isometry_between(src, dst):
    """Parameters moving src to dst; witnesses transitivity."""
    tp, sp = dst[0] - src[0], dst[3] - src[3]
    return (tp, dst[1] - math.exp(tp + sp) * src[1], dst[2] - math.exp(-tp + sp) * src[2], sp)


def test_group_law_closed_form():
    g = SolElement(math.log(2.0), 1.0, 2.0)
    h = SolElement(0.0, 3.0, 5.0)
    gh = sol_mul(g, h)
    assert gh.t == math.log(2.0)
    assert abs(gh.x - 7.0) < 1e-15
    assert abs(gh.y - 4.5) < 1e-15


@given(t1=small, x1=small, y1=small, t2=small, x2=small, y2=small,
       t3=small, x3=small, y3=small)
def test_group_associative(t1, x1, y1, t2, x2, y2, t3, x3, y3):
    g, h, k = SolElement(t1, x1, y1), SolElement(t2, x2, y2), SolElement(t3, x3, y3)
    left = sol_mul(sol_mul(g, h), k)
    right = sol_mul(g, sol_mul(h, k))
    assert abs(left.t - right.t) < 1e-12
    assert abs(left.x - right.x) < 1e-12
    assert abs(left.y - right.y) < 1e-12


@given(t=small, x=small, y=small)
def test_group_inverse_and_identity(t, x, y):
    g = SolElement(t, x, y)
    e = SolElement(0.0, 0.0, 0.0)
    for prod in (sol_mul(g, g.inverse()), sol_mul(g.inverse(), g)):
        assert abs(prod.t) < 1e-12 and abs(prod.x) < 1e-12 and abs(prod.y) < 1e-12
    assert sol_mul(g, e) == g
    gm = sol_mul(e, g)
    assert abs(gm.t - t) < 1e-15 and abs(gm.x - x) < 1e-15 and abs(gm.y - y) < 1e-15


def test_params_validation():
    with pytest.raises(ValueError):
        SolParams(1.0)
    with pytest.raises(ValueError):
        SolParams(-2.0)


def test_action_axiom_standard(rng):
    for _ in range(200):
        g, h = rand_element(rng), rand_element(rng)
        z = rand_point(rng)
        two_step = sol_act(STANDARD, g, sol_act(STANDARD, h, z))
        one_step = sol_act(STANDARD, sol_mul(g, h), z)
        assert np.abs(two_step.coords() - one_step.coords()).max() < 1e-12


def test_action_axiom_twisted_parameters(rng):
    for _ in range(200):
        g, h = rand_element(rng), rand_element(rng)
        z = rand_point(rng)
        two_step = sol_act(BASE2, g, sol_act(BASE2, h, z))
        one_step = sol_act(BASE2, sol_mul_params(BASE2, g, h), z)
        assert np.abs(two_step.coords() - one_step.coords()).max() < 1e-12


def test_action_is_free(rng):
    for _ in range(100):
        g = rand_element(rng)
        if max(abs(g.t), abs(g.x), abs(g.y)) < 1e-3:
            continue
        z = rand_point(rng)
        moved = sol_act(STANDARD, g, z)
        assert np.abs(moved.coords() - z.coords()).max() > 1e-6


def test_matrix_rep_is_homomorphism(rng):
    for p in (STANDARD, BASE2):
        for _ in range(100):
            g, h = rand_element(rng), rand_element(rng)
            prod = sol_matrix_rep(sol_mul_params(p, g, h), p)
            assert np.abs(prod - sol_matrix_rep(g, p) @ sol_matrix_rep(h, p)).max() < 1e-10


def test_action_agrees_with_matrix_route(rng):
    for p in (STANDARD, BASE2):
        for _ in range(100):
            g = rand_element(rng)
            z = rand_point(rng)
            M = sol_matrix_rep(g, p)
            vec = M @ np.array([z.z1.complex, z.z2.complex, 1.0], dtype=complex)
            lib = sol_act(p, g, z)
            assert abs(lib.z1.complex - vec[0]) < 1e-12
            assert abs(lib.z2.complex - vec[1]) < 1e-12


def test_action_by_isometries(rng):
    for p in (STANDARD, BASE2):
        for _ in range(100):
            g = rand_element(rng)
            z, w = rand_point(rng), rand_point(rng)
            before = product_distance(z, w)
            after = product_distance(sol_act(p, g, z), sol_act(p, g, w))
            assert abs(before - after) < 1e-12


def test_reparametrization_carries_action_to_standard(rng):
    for _ in range(100):
        g = rand_element(rng)
        z = rand_point(rng)
        via_phi = sol_act(STANDARD, phi(BASE2, g), z)
        direct = sol_act(BASE2, g, z)
        assert np.abs(via_phi.coords() - direct.coords()).max() < 1e-12


def test_reparametrization_round_trip(rng):
    for _ in range(100):
        g = rand_element(rng)
        back = phi_inverse(BASE2, phi(BASE2, g))
        assert abs(back.t - g.t) < 1e-12
        assert abs(back.x - g.x) < 1e-12
        assert abs(back.y - g.y) < 1e-12


def test_leaf_embed_inverse_recovers_element(rng):
    for p in (STANDARD, BASE2):
        for _ in range(100):
            z = rand_point(rng)
            g = rand_element(rng)
            back = leaf_embed_inverse(p, z, leaf_embed(p, z, g))
            assert abs(back.t - g.t) < 1e-10
            assert abs(back.x - g.x) < 1e-10
            assert abs(back.y - g.y) < 1e-10


def test_leaf_jacobian_matches_finite_differences(rng):
    for p in (STANDARD, BASE2):
        for _ in range(30):
            z = rand_point(rng)
            g = rand_element(rng, scale=1.5)

            def orbit(v):
                return leaf_embed(p, z, SolElement(v[0], v[1], v[2])).coords()

            closed = leaf_jacobian(p, z, g)
            numeric = fd_jacobian(orbit, [g.t, g.x, g.y])
            assert np.abs(closed - numeric).max() < 1e-8


def test_leaf_normal_euclidean_orthogonality(rng):
    for p in (STANDARD, BASE2):
        for _ in range(50):
            z = rand_point(rng)
            g = rand_element(rng, scale=1.5)
            J = leaf_jacobian(p, z, g)
            n = leaf_normal(p, z, g)
            for col in range(3):
                # scale-free angle check between the normal and each column
                denom = np.linalg.norm(n) * np.linalg.norm(J[:, col])
                assert abs(float(n @ J[:, col])) / denom < 1e-12


def test_leaf_normal_aligns_with_triple_cross(rng):
    for _ in range(50):
        z = rand_point(rng)
        g = rand_element(rng, scale=1.5)
        J = leaf_jacobian(STANDARD, z, g)
        x = cross_r4(J[:, 0], J[:, 1], J[:, 2])
        n = leaf_normal(STANDARD, z, g)
        cosine = float(n @ x) / (np.linalg.norm(n) * np.linalg.norm(x))
        assert cosine > 1 - 1e-10


def test_flow_direction_is_metric_normal(rng):
    # the unit normal of every leaf for the ambient metric is the flow field
    m = MetricSpec.half_hyperbolic_product()
    for _ in range(50):
        z = rand_point(rng)
        g = rand_element(rng, scale=1.5)
        base = leaf_embed(STANDARD, z, g).coords()
        J = leaf_jacobian(STANDARD, z, g)
        v = np.array([0.0, base[1], 0.0, base[3]])
        assert abs(metric_norm(m, base, v) - 1.0) < 1e-12
        for col in range(3):
            assert abs(metric_inner(m, base, v, J[:, col])) < 1e-12


def test_normal_flow_scales_heights():
    z = ProductPoint.from_coords([0.5, 1.25, -0.75, 2.0])
    w = normal_flow(z, 0.5)
    assert w.z1.x == z.z1.x and w.z2.x == z.z2.x
    assert abs(w.z1.y - math.exp(0.5) * z.z1.y) < 1e-15
    assert abs(w.z2.y - math.exp(0.5) * z.z2.y) < 1e-15
    back = normal_flow(w, -0.5)
    assert np.abs(back.coords() - z.coords()).max() < 1e-15


def test_normal_flow_group_property(rng):
    for _ in range(50):
        z = rand_point(rng)
        a, b = rng.uniform(-2, 2, size=2)
        one = normal_flow(z, a + b)
        two = normal_flow(normal_flow(z, a), b)
        assert np.abs(one.coords() - two.coords()).max() < 1e-12


def test_flow_velocity_matches_finite_differences(rng):
    for _ in range(30):
        z = rand_point(rng)
        s = rng.uniform(-1.5, 1.5)
        numeric = fd_jacobian(lambda v: normal_flow(z, v[0]).coords(), [s])[:, 0]
        c = normal_flow(z, s).coords()
        exact = np.array([0.0, c[1], 0.0, c[3]])
        assert np.abs(numeric - exact).max() < 1e-8


def test_flow_is_unit_speed(rng):
    for _ in range(100):
        z = rand_point(rng)
        s = rng.uniform(-2, 2)
        assert abs(flow_speed(z, s) - 1.0) < 1e-14


def test_flow_lines_are_geodesics(rng):
    m = MetricSpec.half_hyperbolic_product()
    for _ in range(50):
        z = rand_point(rng)

        def curve(u):
            return normal_flow(z, u).coords()

        assert geodesic_residual(m, curve, rng.uniform(-1, 1)) < 1e-6


def test_flow_equivariance(rng):
    for p in (STANDARD, BASE2):
        for _ in range(200):
            defect = flow_equivariance_defect(p, rand_point(rng), rand_element(rng),
                                              rng.uniform(-2, 2))
            assert defect < 1e-12


def test_rectify_base_point():
    z = rectify(0.0, 0.0, 0.0, 0.0)
    assert z == Z0


def test_rectify_agrees_with_orbit_and_flow(rng):
    for _ in range(100):
        t, x, y = rng.uniform(-2, 2, size=3)
        s = rng.uniform(-2, 2)
        direct = rectify(t, x, y, s).coords()
        staged = normal_flow(sol_act(STANDARD, SolElement(t, x, y), Z0), s).coords()
        assert np.abs(direct - staged).max() < 1e-13


def test_rectify_round_trips(rng):
    for _ in range(500):
        q = (rng.uniform(-2, 2), rng.uniform(-3, 3), rng.uniform(-3, 3),
             rng.uniform(-2, 2))
        back = rectify_inverse(rectify(*q))
        assert max(abs(a - b) for a, b in zip(q, back)) < 1e-12
        z = rand_point(rng)
        again = rectify(*rectify_inverse(z))
        assert np.abs(again.coords() - z.coords()).max() < 1e-12


def test_rectify_isometric_round_trips(rng):
    for _ in range(200):
        q = (rng.uniform(-2, 2), rng.uniform(-3, 3), rng.uniform(-3, 3),
             rng.uniform(-2, 2))
        back = rectify_isometric_inverse(rectify_isometric(*q))
        assert max(abs(a - b) for a, b in zip(q, back)) < 1e-12


def test_rectify_jacobian_matches_finite_differences(rng):
    for _ in range(30):
        q = [rng.uniform(-1.5, 1.5), rng.uniform(-2, 2), rng.uniform(-2, 2),
             rng.uniform(-1.5, 1.5)]
        closed = rectify_jacobian(*q)
        numeric = fd_jacobian(lambda v: rectify(*v).coords(), q)
        assert np.abs(closed - numeric).max() < 1e-8


def test_rectified_pullback_is_twisted_product(rng):
    # coordinates (t, x, y, s): dt^2 + e^{-2(t+s)} dx^2 + e^{2(t-s)} dy^2 + ds^2
    for _ in range(20):
        q = [rng.uniform(-1.2, 1.2), rng.uniform(-2, 2), rng.uniform(-2, 2),
             rng.uniform(-1.2, 1.2)]
        t, _, _, s = q
        expected = np.diag([1.0, math.exp(-2 * (t + s)), math.exp(2 * (t - s)), 1.0])
        numeric = fd_pullback(product_metric_matrix, lambda v: rectify(*v).coords(), q)
        assert np.abs(numeric - expected).max() < 1e-8


def test_isometric_chart_restricts_to_sol_metric(rng):
    # at fixed s the (t, x, y) block of the pulled-back metric is the
    # left-invariant Sol form diag(1, e^{-2t}, e^{2t}), independent of s
    for _ in range(20):
        q = [rng.uniform(-1.2, 1.2), rng.uniform(-2, 2), rng.uniform(-2, 2),
             rng.uniform(-1.2, 1.2)]
        t, x, y, s = q
        numeric = fd_pullback(product_metric_matrix,
                              lambda v: rectify_isometric(*v).coords(), q)
        block = numeric[:3, :3]
        expected = np.diag([1.0, math.exp(-2 * t), math.exp(2 * t)])
        assert np.abs(block - expected).max() < 1e-8
        # the full form including the s-direction couplings
        ex2, ey2 = x * math.exp(-2 * t), y * math.exp(2 * t)
        full = np.array([
            [1.0, 0.0, 0.0, 0.0],
            [0.0, math.exp(-2 * t), 0.0, ex2],
            [0.0, 0.0, math.exp(2 * t), ey2],
            [0.0, ex2, ey2, 1.0 + x * ex2 + y * ey2],
        ])
        assert np.abs(numeric - full).max() < 1e-7


def test_action_preserves_leaves(rng):
    # leaves are the level sets of the flow coordinate
    for _ in range(100):
        z = rand_point(rng)
        g = rand_element(rng)
        s_before = rectify_inverse(z)[3]
        s_after = rectify_inverse(sol_act(STANDARD, g, z))[3]
        assert abs(s_after - s_before) < 1e-12


def test_leaf_metric_rejects_off_axis_base():
    with pytest.raises(ValueError):
        leaf_metric(ProductPoint.from_coords([0.1, 1.0, 0.0, 1.0]), 0.0)


def test_leaf_metric_at_chart_base_point():
    for t in (-1.5, -0.4, 0.0, 0.7, 2.0):
        got = leaf_metric(Z0, t)
        expected = np.diag([1.0, math.exp(-2 * t), math.exp(2 * t)])
        assert np.abs(got - expected).max() < 1e-12


def test_leaf_metric_matches_numeric_pullback(rng):
    for _ in range(20):
        z = ProductPoint.from_coords([0.0, rng.uniform(0.4, 2.5),
                                      0.0, rng.uniform(0.4, 2.5)])
        v0 = [rng.uniform(-1.5, 1.5), rng.uniform(-2, 2), rng.uniform(-2, 2)]

        def orbit(v):
            return sol_act(STANDARD, SolElement(v[0], v[1], v[2]), z).coords()

        numeric = fd_pullback(product_metric_matrix, orbit, v0)
        assert np.abs(numeric - leaf_metric(z, v0[0])).max() < 1e-10


def test_shape_operator_spectrum():
    for t in np.linspace(-1.0, 1.0, 5):
        for s in np.linspace(-1.0, 1.0, 5):
            res = shape_operator(t, s)
            assert np.abs(res.eigenvalues - np.array([-1.0, -1.0, 0.0])).max() < 1e-6


def test_shape_operator_kernel_is_tangential_direction():
    for t, s in ((-0.8, 0.3), (0.0, 0.0), (1.1, -0.6)):
        res = shape_operator(t, s)
        y1 = math.exp(-t - s) / math.sqrt(2)
        y2 = math.exp(t - s) / math.sqrt(2)
        direction = np.array([0.0, -y1, 0.0, y2])
        v = res.eigenvectors[:, 2]
        cosine = abs(float(v @ direction)) / (np.linalg.norm(v) * np.linalg.norm(direction))
        assert cosine > 1 - 1e-6


def test_leaf_separation_closed_form():
    assert leaf_separation(0.0, 2.5) == 2.5
    assert leaf_separation(1.0, -1.0) == 2.0


def test_leaf_separation_numeric_matches_flow_distance():
    res = leaf_separation_numeric(0.0, 1.0)
    assert res.converged
    assert abs(res.value - 1.0) < 1e-4
    assert res.evaluations > 0


def test_product_isometries_preserve_distance(rng):
    for _ in range(100):
        params = tuple(rng.uniform(-1.5, 1.5, size=4))
        q1 = tuple(rng.uniform(-1.5, 1.5, size=4))
        q2 = tuple(rng.uniform(-1.5, 1.5, size=4))
        before = product_distance(rectify(*q1), rectify(*q2))
        after = product_distance(rectify(*sol_product_isometry(params, q1)),
                                 rectify(*sol_product_isometry(params, q2)))
        assert abs(before - after) < 1e-12


def test_product_isometries_compose(rng):
    for _ in range(100):
        p1 = tuple(rng.uniform(-1.5, 1.5, size=4))
        p2 = tuple(rng.uniform(-1.5, 1.5, size=4))
        q = tuple(rng.uniform(-1.5, 1.5, size=4))
        staged = sol_product_isometry(p2, sol_product_isometry(p1, q))
        combined = sol_product_isometry(sol_product_isometry_compose(p2, p1), q)
        assert max(abs(a - b) for a, b in zip(staged, combined)) < 1e-12


def test_product_isometries_act_transitively(rng):
    for _ in range(100):
        src = tuple(rng.uniform(-1.5, 1.5, size=4))
        dst = tuple(rng.uniform(-1.5, 1.5, size=4))
        moved = sol_product_isometry(sol_product_isometry_between(src, dst), src)
        assert max(abs(a - b) for a, b in zip(moved, dst)) < 1e-12


def test_flow_moves_between_leaves_at_unit_rate(rng):
    # transporting along the flow changes the leaf coordinate by exactly s
    for _ in range(50):
        z = rand_point(rng)
        s = rng.uniform(-2, 2)
        before = rectify_inverse(z)[3]
        after = rectify_inverse(normal_flow(z, s))[3]
        assert abs((after - before) - s) < 1e-12


def test_flow_geodesic_residual_does_not_grow_with_height(rng):
    # the coordinate rounding noise of the central differences grows with
    # the height; the residual, measured in the metric, must not
    m = MetricSpec.half_hyperbolic_product()
    for _ in range(20):
        x1, y1, x2, y2 = rand_point(rng).coords()
        z = ProductPoint.from_coords([x1, 1e3 * y1, x2, 1e3 * y2])

        def curve(u):
            return normal_flow(z, u).coords()

        assert geodesic_residual(m, curve, rng.uniform(-1, 1)) < 1e-6

"""Heisenberg group: law, action on C x H, rectification, lattice reduction."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from solfold import (
    HeisElement,
    MetricSpec,
    MixedPoint,
    UpperHalfPoint,
    factored_proper_discontinuity_check,
    heis_act,
    heis_commutator,
    heis_leaf_jacobian,
    heis_leaf_separation_numeric,
    heis_matrix,
    heis_mul,
    heis_pullback_metric,
    heis_rectify,
    heis_rectify_inverse,
    heis_reduce_mod_integer_lattice,
    heis_word_ball,
    leaf_separation,
    metric_inner,
    metric_norm,
)

from conftest import _heis_reduce_reference, cube_hit_by_grid, fd_jacobian, fd_pullback, heis_ball_dp, mixed_metric_matrix

ints = st.integers(min_value=-40, max_value=40)


def rand_mixed(rng) -> MixedPoint:
    return MixedPoint(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                      UpperHalfPoint(rng.uniform(-3, 3), rng.uniform(0.2, 4)))


def rand_element(rng, scale=3.0) -> HeisElement:
    return HeisElement(*rng.uniform(-scale, scale, size=3))


# ---------------------------------------------------------------------------
# second routes that no command takes, kept here as oracles

def heis_from_symplectic(p, q, t):
    """Unipotent matrix of the symplectic coordinates (p, q, t), a homomorphism
    from (p,q,t) * (p',q',t') = (p+p', q+q', t+t' + (p q' - q p') / 2)."""
    return np.array([[1.0, p, t + p * q / 2.0], [0.0, 1.0, q], [0.0, 0.0, 1.0]])


def symplectic_mul(u, v):
    p, q, t = u
    pp, qq, tt = v
    return (p + pp, q + qq, t + tt + (p * qq - q * pp) / 2.0)


def heis_normal_field(m):
    """Unit normal q d/dy of the leaf through m, vertical in the half-plane factor."""
    return np.array([0.0, 0.0, 0.0, m.w.y])


def heis_normal_flow(m, t):
    """Integral curve of the normal field: (z, p + qi) |-> (z, p + e^t q i)."""
    return MixedPoint(m.z, UpperHalfPoint(m.w.x, math.exp(t) * m.w.y))


def test_group_law_closed_form():
    g = HeisElement(2, 0, 1)
    h = HeisElement(1, 3, -2)
    assert heis_mul(g, h) == HeisElement(3, 3, 5)


@given(a1=ints, b1=ints, c1=ints, a2=ints, b2=ints, c2=ints, a3=ints, b3=ints, c3=ints)
def test_group_axioms_exact_on_integers(a1, b1, c1, a2, b2, c2, a3, b3, c3):
    g, h, k = HeisElement(a1, b1, c1), HeisElement(a2, b2, c2), HeisElement(a3, b3, c3)
    assert heis_mul(heis_mul(g, h), k) == heis_mul(g, heis_mul(h, k))
    e = HeisElement(0.0, 0.0, 0.0)
    assert heis_mul(g, g.inverse()).triple() == (0, 0, 0)
    assert heis_mul(g.inverse(), g).triple() == (0, 0, 0)
    assert heis_mul(g, e).triple() == (a1, b1, c1)
    assert heis_mul(e, g).triple() == (a1, b1, c1)


def test_group_axioms_float_margin(rng):
    worst = 0.0
    for _ in range(2000):
        g, h, k = (rand_element(rng) for _ in range(3))
        left = heis_mul(heis_mul(g, h), k)
        right = heis_mul(g, heis_mul(h, k))
        worst = max(worst, *(abs(a - b) for a, b in zip(left.triple(), right.triple())))
        inv = heis_mul(g, g.inverse())
        worst = max(worst, *(abs(v) for v in inv.triple()))
    assert worst < 1e-14


def test_center_elements_commute(rng):
    for _ in range(100):
        g = rand_element(rng)
        z = HeisElement(0.0, 0.0, rng.uniform(-5, 5))
        assert heis_mul(g, z) == heis_mul(z, g)


def test_generator_commutator_is_central_generator():
    g = HeisElement(1, 0, 0)
    h = HeisElement(0, 1, 0)
    assert heis_commutator(g, h).triple() == (0, 0, 1)
    assert heis_commutator(h, g).triple() == (0, 0, -1)


def test_matrix_model_is_homomorphism(rng):
    for _ in range(100):
        g, h = rand_element(rng), rand_element(rng)
        prod = heis_matrix(heis_mul(g, h))
        assert np.abs(prod - heis_matrix(g) @ heis_matrix(h)).max() < 1e-12


def test_symplectic_coordinates_are_homomorphic(rng):
    for _ in range(100):
        u = tuple(rng.uniform(-3, 3, size=3))
        v = tuple(rng.uniform(-3, 3, size=3))
        prod = heis_from_symplectic(*symplectic_mul(u, v))
        assert np.abs(prod - heis_from_symplectic(*u) @ heis_from_symplectic(*v)).max() < 1e-12


def test_action_axiom(rng):
    for _ in range(200):
        g, h = rand_element(rng), rand_element(rng)
        m = rand_mixed(rng)
        two_step = heis_act(g, heis_act(h, m))
        one_step = heis_act(heis_mul(g, h), m)
        assert np.abs(two_step.coords() - one_step.coords()).max() < 1e-12


def test_action_is_free(rng):
    for _ in range(100):
        g = rand_element(rng)
        if max(abs(v) for v in g.triple()) < 1e-3:
            continue
        m = rand_mixed(rng)
        assert np.abs(heis_act(g, m).coords() - m.coords()).max() > 1e-6


def test_action_preserves_height_exactly(rng):
    for _ in range(200):
        g = rand_element(rng)
        m = rand_mixed(rng)
        assert heis_act(g, m).w.y == m.w.y


def test_orbit_jacobian_matches_finite_differences(rng):
    for _ in range(30):
        m = rand_mixed(rng)
        g = rand_element(rng, scale=1.5)

        def orbit(v):
            return heis_act(HeisElement(v[0], v[1], v[2]), m).coords()

        numeric = fd_jacobian(orbit, [g.a, g.b, g.c])
        closed = heis_leaf_jacobian(m)
        assert np.abs(closed - numeric).max() < 1e-8


def test_orbit_jacobian_constant_and_rank_three(rng):
    for _ in range(50):
        m = rand_mixed(rng)
        assert np.linalg.matrix_rank(heis_leaf_jacobian(m)) == 3


def test_normal_field_unit_and_orthogonal(rng):
    metric = MetricSpec.euclidean_times_hyperbolic()
    for _ in range(100):
        m = rand_mixed(rng)
        v = heis_normal_field(m)
        assert abs(metric_norm(metric, m.coords(), v) - 1.0) < 1e-14
        J = heis_leaf_jacobian(m)
        for col in range(3):
            assert abs(metric_inner(metric, m.coords(), v, J[:, col])) < 1e-14


def test_normal_flow_is_integral_curve(rng):
    for _ in range(30):
        m = rand_mixed(rng)
        t = rng.uniform(-1.5, 1.5)
        numeric = fd_jacobian(lambda v: heis_normal_flow(m, v[0]).coords(), [t])[:, 0]
        at_point = heis_normal_field(heis_normal_flow(m, t))
        assert np.abs(numeric - at_point).max() < 1e-8


def test_normal_flow_group_property(rng):
    for _ in range(50):
        m = rand_mixed(rng)
        a, b = rng.uniform(-2, 2, size=2)
        one = heis_normal_flow(m, a + b)
        two = heis_normal_flow(heis_normal_flow(m, a), b)
        assert np.abs(one.coords() - two.coords()).max() < 1e-12


def test_rectify_round_trips(rng):
    for _ in range(500):
        g = rand_element(rng)
        s = rng.uniform(-2, 2)
        back_g, back_s = heis_rectify_inverse(heis_rectify(g, s))
        assert max(abs(a - b) for a, b in zip(back_g.triple(), g.triple())) < 1e-12
        assert abs(back_s - s) < 1e-12
        m = rand_mixed(rng)
        again = heis_rectify(*heis_rectify_inverse(m))
        assert np.abs(again.coords() - m.coords()).max() < 1e-12


def test_rectify_equivariance(rng):
    for _ in range(200):
        g, gp = rand_element(rng), rand_element(rng)
        s = rng.uniform(-2, 2)
        lhs = heis_rectify(heis_mul(gp, g), s)
        rhs = heis_act(gp, heis_rectify(g, s))
        assert np.abs(lhs.coords() - rhs.coords()).max() < 1e-12


def test_pullback_metric_coefficients():
    for y0 in (0.5, 1.0, 2.5):
        expected = np.diag([y0 ** 2, 1 / y0 ** 2, 1.0])
        assert np.allclose(heis_pullback_metric(y0), expected, rtol=0, atol=1e-15)
        assert np.linalg.eigvalsh(heis_pullback_metric(y0)).min() > 0


def test_pullback_metric_matches_numeric_pullback(rng):
    for _ in range(20):
        y0 = rng.uniform(0.4, 2.5)
        base = MixedPoint(0j, UpperHalfPoint(0.0, y0))
        v0 = list(rng.uniform(-1.5, 1.5, size=3))

        def orbit(v):
            return heis_act(HeisElement(v[0], v[1], v[2]), base).coords()

        numeric = fd_pullback(mixed_metric_matrix, orbit, v0)
        assert np.abs(numeric - heis_pullback_metric(y0)).max() < 1e-10


def test_reduction_rejects_bad_moduli():
    one = HeisElement(0.3, 0.4, 0.5)
    rows = HeisElement(np.array([0.3, 1.5]), np.array([0.4, -2.0]), np.array([0.5, 7.0]))
    for moduli in ((0, 1, 1), (1, -1, 1), (2, 2, 3)):
        for g in (one, rows):
            with pytest.raises(ValueError):
                heis_reduce_mod_integer_lattice(g, moduli)


def test_reduction_factorization_and_cube(rng):
    for moduli in ((1, 1, 1), (2, 3, 6)):
        d1, d2, d3 = moduli
        for _ in range(300):
            g = HeisElement(*rng.uniform(-8, 8, size=3))
            lattice, rep = heis_reduce_mod_integer_lattice(g, moduli)
            prod = heis_mul(lattice, rep)
            assert max(abs(a - b) for a, b in zip(prod.triple(), g.triple())) < 1e-12
            assert 0.0 <= rep.a < d1 and 0.0 <= rep.b < d2 and 0.0 <= rep.c < d3
            for v, d in zip(lattice.triple(), moduli):
                assert v == d * round(v / d)


@pytest.mark.parametrize("moduli", [(1, 1, 1), (2, 3, 6), (4, 6, 3)])
def test_reduce_rows_equal_the_scalar_bit_for_bit(moduli):
    # coordinates on the multiples of each modulus, beside them, at -0.0 and
    # beyond the int64 range
    def edges(d):
        on = [float(d * j) for j in range(-3, 4)]
        beside = [np.nextafter(v, t) for v in on for t in (-np.inf, np.inf)]
        return on + beside + [-0.0, 3e19, -5e21]

    G = np.array(list(itertools.product(*map(edges, moduli))))
    G = np.vstack([G, np.random.default_rng(3).uniform(-30, 30, size=(2000, 3))])
    lattice, reps = (np.array(h.triple()).T
                     for h in heis_reduce_mod_integer_lattice(HeisElement(*G.T), moduli))
    for g, lat, rep in zip(G.tolist(), lattice, reps):
        want_lat, want_rep = _heis_reduce_reference(HeisElement(*g), moduli)
        # the reference's lattice part is a Python int, exact where the float rounds
        want_lat = [float(v) for v in want_lat.triple()]
        assert lat.tolist() == want_lat
        assert [v.hex() for v in rep.tolist()] == [v.hex() for v in want_rep.triple()]
        # the one-element call gives the same bits
        one_lat, one_rep = heis_reduce_mod_integer_lattice(HeisElement(*g), moduli)
        assert [float(v) for v in one_lat.triple()] == want_lat
        assert [float(v).hex() for v in one_rep.triple()] == \
            [v.hex() for v in want_rep.triple()]


def test_reduction_idempotent(rng):
    for _ in range(200):
        g = HeisElement(*rng.uniform(-8, 8, size=3))
        _, rep = heis_reduce_mod_integer_lattice(g)
        lat2, rep2 = heis_reduce_mod_integer_lattice(rep)
        assert lat2 == HeisElement(0, 0, 0)
        assert rep2 == rep


def test_reduction_constant_on_left_cosets():
    # dyadic inputs keep every operation exact, so cosets match exactly
    rng = np.random.default_rng(7)
    for _ in range(300):
        g = HeisElement(*(float(v) / 8.0 for v in rng.integers(-40, 40, size=3)))
        ell = HeisElement(*(int(v) for v in rng.integers(-4, 5, size=3)))
        _, rep = heis_reduce_mod_integer_lattice(g)
        _, rep_shifted = heis_reduce_mod_integer_lattice(heis_mul(ell, g))
        assert rep == rep_shifted


def test_reduction_unique_representative_across_orbit(rng):
    # any two lattice translates of the same point reduce to the same cube point
    for _ in range(100):
        g = rand_element(rng, scale=2.0)
        _, rep = heis_reduce_mod_integer_lattice(g)
        for _ in range(5):
            ell = HeisElement(*(int(v) for v in rng.integers(-3, 4, size=3)))
            _, other = heis_reduce_mod_integer_lattice(heis_mul(ell, g))
            assert max(abs(a - b) for a, b in
                       zip(rep.triple(), other.triple())) < 1e-12


def test_word_ball_small_values():
    assert len(heis_word_ball(0)) == 1
    assert len(heis_word_ball(1)) == 7
    with pytest.raises(ValueError):
        heis_word_ball(-1)


def test_word_ball_matches_value_iteration_oracle():
    for n in range(1, 6):
        lib = set(map(tuple, heis_word_ball(n).tolist()))
        assert lib == heis_ball_dp(n)


def test_word_ball_is_sorted_and_duplicate_free():
    for n in range(0, 6):
        ball = heis_word_ball(n)
        assert ball.dtype == np.int64 and ball.shape == (len(ball), 3)
        assert ball.flags["C_CONTIGUOUS"]
        rows = list(map(tuple, ball.tolist()))
        assert rows == sorted(set(rows))


def test_factored_counts_match_grid_oracle():
    for n in range(1, 5):
        ball = heis_word_ball(n)
        count_group, count_ambient = factored_proper_discontinuity_check(ball)
        expected = sum(cube_hit_by_grid(g) for g in ball.tolist())
        assert count_group == count_ambient == expected


@pytest.mark.parametrize("s", [-1.0, 0.0, 2.0])
def test_factored_check_decides_each_row_as_the_grid_oracle(s):
    # one-row balls: each route's decision on each element, not only counts
    ball = heis_word_ball(6)
    bad = []
    for i, row in enumerate(ball.tolist()):
        hit = cube_hit_by_grid(row)
        if factored_proper_discontinuity_check(ball[i:i + 1], s) != (hit, hit):
            bad.append(row)
    assert bad == []


def test_factored_counts_agree_at_other_heights():
    ball = heis_word_ball(3)
    for s in (-1.0, 0.0, 2.0):
        count_group, count_ambient = factored_proper_discontinuity_check(ball, s=s)
        assert count_group == count_ambient


def test_leaf_separation_closed_form():
    assert leaf_separation(0.0, 2.0) == 2.0
    assert leaf_separation(1.5, -0.5) == 2.0


def test_leaf_separation_numeric_matches_height_gap():
    res = heis_leaf_separation_numeric(0.0, 1.0)
    assert res.converged
    assert abs(res.value - 1.0) < 1e-4

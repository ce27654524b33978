"""The array rows of verify against their per-sample loops.

The sol and heis suites compute ten rows on arrays, each from one block
draw; the kleinian embed-agreement row and the two quotient checks draw
one block per entry, words included, and compute every route on arrays.
The loops they replaced live on here as the reference: equal rows,
residual bits included, the draws of the loop, and a planted defect that
each array row or route still catches.  The per-point finite-difference
stencil, the scalar distances and the one-word toral forms are kept too,
against the one-call stencil, the array distances and the stacked toral
forms.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from solfold import (
    STANDARD,
    HeisElement,
    MetricSpec,
    MixedPoint,
    ProductPoint,
    SolElement,
    SolParams,
    UpperHalfPoint,
    factored_proper_discontinuity_check,
    flow_speed,
    geodesic_residual,
    heis_act,
    heis_commutator,
    heis_mul,
    heis_pullback_metric,
    heis_rectify,
    heis_rectify_inverse,
    heis_reduce_mod_integer_lattice,
    heis_word_ball,
    hyperbolic_distance,
    hyperbolic_distance_scaled,
    leaf_embed,
    leaf_metric,
    leaf_separation,
    mixed_distance,
    normal_flow,
    product_distance,
    rectify,
    rectify_inverse,
    rectify_isometric,
    rectify_isometric_inverse,
    shape_operator,
    christoffel,
    metric_inner,
    metric_norm,
    ProjectivePoint,
    ToralGroupSpec,
    fundamental_domain_reduce,
    heis_matrix,
    heis_quotient_check,
    sol_act,
    sol_lattice_embed,
    sol_mul,
    sol_quotient_check,
    toral_act,
    toral_compose,
    toral_element,
    word_ball,
)
import solfold.quotient as quotient
import solfold.sol
from solfold import _fd, cli, heis_leaf_separation_numeric, leaf_separation_numeric
from solfold.cli import ConfigError
from conftest import (_heis_reduce_reference, embed_agreement_draws, heis_quotient_draws,
                      projective_act, rand_mixed, rand_product, sol_quotient_draws)
from solfold.geometry import SQRT2
from solfold.quotient import check_row
from solfold.sol import _leaf_param, phi


# ---------------------------------------------------------------------------
# the per-sample loops, with the scalar forms they called

def _sol_act_complex(p, g, z):
    """sol_act as the loops computed it, in Python complex arithmetic."""
    s = p.lam ** g.t
    return ProductPoint.from_complex(s * z.z1.complex + g.x, z.z2.complex / s + g.y)


def _jacobian_reference(f, x):
    """_fd.jacobian's Jacobian as the loops computed it, one call of f per
    stencil point."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(f(x), dtype=float)
    J = np.zeros((f0.size, x.size))
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = 1.0

        def d(step):
            fp = np.asarray(f(x + step * e), dtype=float)
            fm = np.asarray(f(x - step * e), dtype=float)
            return (fp - fm) / (2.0 * step)

        J[:, j] = (4.0 * d(5e-4) - d(1e-3)) / 3.0
    return J


def _pullback_reference(metric_at, embed, x):
    x = np.asarray(x, dtype=float)
    J = _jacobian_reference(embed, x)
    G = metric_at(np.asarray(embed(x), dtype=float))
    return J.T @ G @ J


def _flow_equivariance_defect_reference(p, z, g, s):
    lhs = normal_flow(_sol_act_complex(p, g, z), s).coords()
    rhs = _sol_act_complex(p, g, normal_flow(z, s)).coords()
    return float(np.abs(lhs - rhs).max())


def _heis_leaf_jacobian_reference(m):
    p, q = m.w.x, m.w.y
    return np.array([
        [p, 0.0, 1.0],
        [q, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0],
    ])


def _suite_sol_reference(cfg):
    rng = np.random.default_rng(cfg["seed"])
    samples, lam = cfg["samples"], cfg["lambda"]
    try:
        params = STANDARD if lam is None else SolParams(lam)
    except ValueError as e:
        raise ConfigError("lambda", str(e))
    rows = []
    ghyp = MetricSpec.half_hyperbolic_product()

    worst = 0.0
    for _ in range(samples):
        z = rand_product(rng, 0.3, 4.0)
        g = SolElement(rng.uniform(-2, 2), rng.uniform(-3, 3), rng.uniform(-3, 3))
        worst = max(worst, _flow_equivariance_defect_reference(params, z, g,
                                                               rng.uniform(-2, 2)))
    rows.append(check_row("flow-equivariance", worst, 1e-12,
                          "the normal flow commutes with every leaf action"))

    worst = 0.0
    for _ in range(min(samples, 100)):
        z = rand_product(rng, 0.3, 4.0)
        curve = lambda u: normal_flow(z, u).coords()
        worst = max(worst, geodesic_residual(ghyp, curve, rng.uniform(-1.5, 1.5)))
    rows.append(check_row("flow-geodesic", worst, 1e-6,
                          "flow lines are geodesics of the product metric"))

    worst = 0.0
    for _ in range(min(samples, 200)):
        z = rand_product(rng, 0.3, 4.0)
        s = rng.uniform(-2, 2)
        worst = max(worst, abs(flow_speed(z, s) - 1.0))
    rows.append(check_row("flow-unit-speed", worst, 1e-10,
                          "the normal field has unit length everywhere"))

    worst = 0.0
    for _ in range(min(samples, 60)):
        y1, y2 = rng.uniform(0.4, 2.5, size=2)
        base = ProductPoint(UpperHalfPoint(0.0, y1), UpperHalfPoint(0.0, y2))
        txy = np.array([rng.uniform(-1.5, 1.5), rng.uniform(-2, 2), rng.uniform(-2, 2)])
        embed = lambda c: _sol_act_complex(STANDARD, SolElement(c[0], c[1], c[2]),
                                           base).coords()
        num = _pullback_reference(ghyp.matrix, embed, txy)
        worst = max(worst, float(np.abs(num - leaf_metric(base, txy[0])).max()))
    rows.append(check_row("leaf-metric", worst, 1e-10,
                          "each leaf inherits the solvable model metric"))

    worst = 0.0
    for t in (-1.0, 0.0, 1.0):
        for s in (-1.0, 0.0, 1.0):
            ev = np.sort(shape_operator(t, s).eigenvalues)
            worst = max(worst, float(np.abs(ev - np.array([-1.0, -1.0, 0.0])).max()))
    rows.append(check_row("shape-spectrum", worst, 1e-6,
                          "principal curvatures of every leaf are -1, -1, 0"))

    sep = leaf_separation_numeric(0.0, 1.0)
    res = abs(sep.value - leaf_separation(0.0, 1.0)) + (0.0 if sep.converged else 1.0)
    rows.append(check_row("leaf-separation", res, 1e-4,
                          "distance between leaves equals the gap of their parameters"))

    worst = 0.0
    for _ in range(samples):
        t, x, y, s = rng.uniform(-2, 2, size=4)
        back = rectify_inverse(rectify(t, x, y, s))
        worst = max(worst, float(np.abs(np.array(back) - np.array([t, x, y, s])).max()))
        backi = rectify_isometric_inverse(rectify_isometric(t, x, y, s))
        worst = max(worst, float(np.abs(np.array(backi) - np.array([t, x, y, s])).max()))
        z = rand_product(rng, 0.3, 4.0)
        again = rectify(*rectify_inverse(z))
        worst = max(worst, float(np.abs(again.coords() - z.coords()).max()))
    rows.append(check_row("rectify-roundtrip", worst, 1e-12,
                          "the straightening charts invert exactly"))
    return rows


def _suite_heis_reference(cfg):
    rng = np.random.default_rng(cfg["seed"])
    samples = cfg["samples"]
    rows = []

    worst = 0.0
    for _ in range(samples):
        g, h, k = (HeisElement(*rng.uniform(-3, 3, size=3)) for _ in range(3))
        lhs = heis_mul(heis_mul(g, h), k)
        rhs = heis_mul(g, heis_mul(h, k))
        worst = max(worst, abs(lhs.a - rhs.a), abs(lhs.b - rhs.b), abs(lhs.c - rhs.c))
        e = heis_mul(g, g.inverse())
        worst = max(worst, abs(e.a), abs(e.b), abs(e.c))
    rows.append(check_row("group-axioms", worst, 1e-14,
                          "associativity and inverses hold to machine precision"))

    bad = 0
    for _ in range(min(samples, 200)):
        m = rand_mixed(rng, 0.3, 4.0)
        if np.linalg.matrix_rank(_heis_leaf_jacobian_reference(m)) != 3:
            bad += 1
    rows.append(check_row("jacobian-rank", float(bad), 0.0,
                          "every orbit map is an immersion of rank 3"))

    worst = 0.0
    for _ in range(samples):
        g = HeisElement(*rng.uniform(-3, 3, size=3))
        s = rng.uniform(-2, 2)
        g2, s2 = heis_rectify_inverse(heis_rectify(g, s))
        worst = max(worst, abs(g2.a - g.a), abs(g2.b - g.b), abs(g2.c - g.c),
                    abs(s2 - s))
    rows.append(check_row("rectify-roundtrip", worst, 1e-12,
                          "the group-times-height chart inverts exactly"))

    worst = 0.0
    geh = MetricSpec.euclidean_times_hyperbolic()
    for _ in range(min(samples, 50)):
        y0 = rng.uniform(0.4, 2.5)
        abc = rng.uniform(-2, 2, size=3)
        base = MixedPoint(0j, UpperHalfPoint(0.0, y0))
        embed = lambda c: heis_act(HeisElement(c[0], c[1], c[2]), base).coords()
        num = _pullback_reference(geh.matrix, embed, abc)
        worst = max(worst, float(np.abs(num - heis_pullback_metric(y0)).max()))
    rows.append(check_row("pullback-metric", worst, 1e-10,
                          "orbit metric is flat left-invariant with height weights"))

    comm = heis_commutator(HeisElement(1, 0, 0), HeisElement(0, 1, 0))
    rows.append(check_row("commutator", max(abs(comm.a), abs(comm.b), abs(comm.c - 1)),
                          0.0, "the horizontal generators commute to the central one"))

    worst = 0.0
    for _ in range(samples):
        g = HeisElement(*rng.uniform(-5, 5, size=3))
        lat, rep = heis_reduce_mod_integer_lattice(g)
        prod = heis_mul(lat, rep)
        worst = max(worst, abs(prod.a - g.a), abs(prod.b - g.b), abs(prod.c - g.c))
        if not (0 <= rep.a < 1 and 0 <= rep.b < 1 and 0 <= rep.c < 1):
            worst = max(worst, 1.0)
        lat2, rep2 = heis_reduce_mod_integer_lattice(rep)
        worst = max(worst, abs(lat2.a), abs(lat2.b), abs(lat2.c),
                    abs(rep2.a - rep.a), abs(rep2.b - rep.b), abs(rep2.c - rep.c))
    rows.append(check_row("cube-reduction", worst, 1e-12,
                          "unit-cube representatives are unique and consistent"))

    diff = 0
    for n in range(1, 5):
        cg, ca = factored_proper_discontinuity_check(heis_word_ball(n))
        diff = max(diff, abs(cg - ca))
    rows.append(check_row("factored-counts", float(diff), 0.0,
                          "group-side and ambient-side intersection counts agree"))

    sep = heis_leaf_separation_numeric(0.0, 1.0)
    res = abs(sep.value - leaf_separation(0.0, 1.0)) + (0.0 if sep.converged else 1.0)
    rows.append(check_row("leaf-separation", res, 1e-4,
                          "distance between orbit leaves equals the height gap"))
    return rows


# ---------------------------------------------------------------------------
# the array rows against the loops

def _cfg(seed, samples, lam=None):
    cfg = {key: default for key, (_, default) in cli._FLAGS["verify"].items()}
    cfg.update(seed=seed, samples=samples, **{"lambda": lam})
    return cfg


def _bits(rows):
    return [(r.name, r.residual.hex(), r.threshold, r.passed, r.claim) for r in rows]


SEEDS = (0, 7, 110007)
SAMPLES = (1, 7, 60, 150, 500)


@pytest.mark.parametrize("lam", [None, 2.0, 0.37])
@pytest.mark.parametrize("samples", SAMPLES)
def test_sol_rows_equal_the_loop(samples, lam):
    for seed in SEEDS:
        cfg = _cfg(seed, samples, lam)
        assert _bits(cli._suite_sol(cfg)) == _bits(_suite_sol_reference(cfg))


@pytest.mark.parametrize("samples", SAMPLES)
def test_heis_rows_equal_the_loop(samples):
    for seed in SEEDS:
        cfg = _cfg(seed, samples)
        assert _bits(cli._suite_heis(cfg)) == _bits(_suite_heis_reference(cfg))


@pytest.mark.parametrize("lam", [1e153, 1e-153])
def test_sol_rows_equal_the_loop_at_the_lambda_bounds(lam):
    cfg = _cfg(3, 60, lam)
    rows = cli._suite_sol(cfg)
    assert _bits(rows) == _bits(_suite_sol_reference(cfg))
    assert all(math.isfinite(r.residual) for r in rows)


class _Recording:
    """Wraps the Generator of a seed and notes each draw's method and
    arguments and its bit generator's state after the draw, and counts the
    block draws, those whose size is a shape (n, k)."""

    def __init__(self, seed, rng):
        self.seed = seed
        self.rng = rng
        self.calls = []
        self.states = []
        self.blocks = 0

    def __getattr__(self, name):
        draw = getattr(self.rng, name)

        def recorded(*args, **kwargs):
            out = draw(*args, **kwargs)
            self.calls.append((name, args, kwargs))
            self.states.append(self.rng.bit_generator.state)
            self.blocks += np.ndim(kwargs.get("size")) == 1
            return out
        return recorded


def _built(run, monkeypatch):
    """The Generators that np.random.default_rng builds while run() runs,
    each a _Recording."""
    made = []
    default_rng = np.random.default_rng

    def recording(seed):
        made.append(_Recording(seed, default_rng(seed)))
        return made[-1]
    with monkeypatch.context() as m:
        m.setattr(np.random, "default_rng", recording)
        run()
    return made


@pytest.mark.parametrize("suite, reference, blocks", [
    (cli._suite_sol, _suite_sol_reference, 5),
    (cli._suite_heis, _suite_heis_reference, 5),
], ids=["sol", "heis"])
@pytest.mark.parametrize("samples", [1, 60, 500])
def test_block_draws_leave_the_stream_where_the_loop_does(suite, reference, blocks,
                                                          samples, monkeypatch):
    cfg = _cfg(5, samples)
    block, loop = (_built(lambda f=f: f(cfg), monkeypatch)[0] for f in (suite, reference))
    assert (block.blocks, loop.blocks) == (blocks, 0)
    block, loop = block.states, loop.states
    # each draw of the suite, block or per sample, ends where a draw of the
    # loop ends, in the same order; so each block draw reads exactly the
    # values its loop read, and leaves the stream where the loop left it
    rest = iter(loop)
    assert all(any(state == s for s in rest) for state in block)
    assert block[-1] == loop[-1]
    # one block draw stands for all the draws of each array row
    per_sample = {1: 1, 60: 60, 500: 500}[samples]
    assert len(loop) - len(block) >= blocks * (per_sample - 1)


# ---------------------------------------------------------------------------
# a planted defect fails each array row

def _row(suite, name, cfg):
    return {r.name: r for r in suite(cfg)}[name]


def _fails_only_when_planted(suite, name, monkeypatch, target, attr, planted):
    cfg = _cfg(0, 60)
    assert _row(suite, name, cfg).passed
    monkeypatch.setattr(target, attr, planted)
    row = _row(suite, name, cfg)
    assert not row.passed
    return row


def test_flow_equivariance_sees_a_flow_that_moves_real_parts(monkeypatch):
    def flow(z, s):
        es = np.exp(s)
        return ProductPoint(UpperHalfPoint(es * z.z1.x, es * z.z1.y),
                            UpperHalfPoint(es * z.z2.x, es * z.z2.y))
    _fails_only_when_planted(cli._suite_sol, "flow-equivariance", monkeypatch,
                             solfold.sol, "normal_flow", flow)


def test_sol_rectify_roundtrip_sees_a_shifted_leaf_parameter(monkeypatch):
    def shifted(z):
        t, x, y, s = rectify_inverse(z)
        return (t, x, y, s + 1e-9)
    row = _fails_only_when_planted(cli._suite_sol, "rectify-roundtrip", monkeypatch,
                                   cli, "rectify_inverse", shifted)
    assert row.residual >= 1e-9 * (1 - 1e-6)


def test_group_axioms_see_a_non_associative_law(monkeypatch):
    def skewed(g, h):
        return HeisElement(g.a + h.a, g.b + h.b, g.c + h.c + g.a * h.b + 1e-9 * g.c * h.c)
    _fails_only_when_planted(cli._suite_heis, "group-axioms", monkeypatch,
                             cli, "heis_mul", skewed)


def test_heis_rectify_roundtrip_sees_a_shifted_height(monkeypatch):
    def shifted(m):
        g, s = heis_rectify_inverse(m)
        return g, s + 1e-9
    _fails_only_when_planted(cli._suite_heis, "rectify-roundtrip", monkeypatch,
                             cli, "heis_rectify_inverse", shifted)


def test_cube_reduction_sees_a_representative_outside_the_cube(monkeypatch):
    reduce = cli.heis_reduce_mod_integer_lattice

    def outside(g, moduli=(1, 1, 1)):
        # (A - 1, B, C) (alpha + 1, beta, gamma + beta) is still the element,
        # and the second reduction returns the shifted representative itself
        lat, rep = reduce(g, moduli)
        return (HeisElement(lat.a - 1.0, lat.b, lat.c),
                HeisElement(rep.a + 1.0, rep.b, rep.c + rep.b))
    row = _fails_only_when_planted(cli._suite_heis, "cube-reduction", monkeypatch,
                                   cli, "heis_reduce_mod_integer_lattice", outside)
    assert row.residual >= 1.0


def test_flow_geodesic_sees_a_flow_that_moves_x1(monkeypatch):
    flow = cli.normal_flow

    def moving(z, s):
        w = flow(z, s)
        return ProductPoint(UpperHalfPoint(w.z1.x + s, w.z1.y), w.z2)
    _fails_only_when_planted(cli._suite_sol, "flow-geodesic", monkeypatch,
                             cli, "normal_flow", moving)


def test_flow_unit_speed_sees_a_normal_field_of_length_2_in_one_factor(monkeypatch):
    field = solfold.sol._unit_normal_field

    def doubled(c):
        X = field(c)
        X[1] *= 2.0
        return X
    row = _fails_only_when_planted(cli._suite_sol, "flow-unit-speed", monkeypatch,
                                   solfold.sol, "_unit_normal_field", doubled)
    # the field (0, 2 y1, 0, y2) has length sqrt(5/2) at every point
    assert row.residual == pytest.approx(math.sqrt(2.5) - 1.0)


def test_leaf_metric_sees_an_embedding_that_does_not_scale_the_first_factor(monkeypatch):
    embed = cli.leaf_embed

    def unscaled(p, z, g):
        w = embed(p, z, g)
        return ProductPoint(UpperHalfPoint(w.z1.x, z.z1.y + 0.0 * g.t), w.z2)
    _fails_only_when_planted(cli._suite_sol, "leaf-metric", monkeypatch,
                             cli, "leaf_embed", unscaled)


def test_pullback_metric_sees_an_action_without_the_a_w_term(monkeypatch):
    def no_aw(g, m):
        return MixedPoint(m.z + g.c, UpperHalfPoint(m.w.x + g.b, m.w.y))
    _fails_only_when_planted(cli._suite_heis, "pullback-metric", monkeypatch,
                             cli, "heis_act", no_aw)


def test_jacobian_rank_counts_rank_deficient_jacobians(monkeypatch):
    jacobian = cli.heis_leaf_jacobian

    def deficient(m):
        # dropping q leaves the first column parallel to the third
        J = jacobian(m)
        J[::2, 1, 0] = 0.0
        return J
    row = _fails_only_when_planted(cli._suite_heis, "jacobian-rank", monkeypatch,
                                   cli, "heis_leaf_jacobian", deficient)
    assert row.residual == 30.0


# ---------------------------------------------------------------------------
# the array forms give the scalar bits

def test_sol_act_equals_the_complex_form(rng):
    cases = [(x1, x2, gx, gy) for x1, x2, gx, gy in itertools.product(
        [0.0, -0.0, 1.5], [0.0, -0.0, -2.25], [0.0, -0.0, 0.5], [0.0, -0.0, 3.0])]
    cases += [tuple(v) for v in rng.uniform(-3, 3, size=(2000, 4))]
    for lam in (math.e, 2.0, 0.37, 1e153):
        p = SolParams(lam)
        for x1, x2, gx, gy in cases:
            z = ProductPoint(UpperHalfPoint(x1, rng.uniform(0.3, 4)),
                             UpperHalfPoint(x2, rng.uniform(0.3, 4)))
            g = SolElement(rng.uniform(-2, 2), gx, gy)
            got, want = cli.sol_act(p, g, z).coords(), _sol_act_complex(p, g, z).coords()
            # the values agree; a zero may differ in sign only where x2 and g.y
            # are both -0.0
            assert np.array_equal(got, want)
            if not (math.copysign(1, x2) < 0 and math.copysign(1, gy) < 0 and x2 == 0):
                assert [v.hex() for v in got] == [v.hex() for v in want]


# the scalar bodies as the loops ran them, on Python floats with math's functions

def _rectify_math(t, x, y, s):
    return (x, math.exp(t + s) / SQRT2, y, math.exp(-t + s) / SQRT2)


def _rectify_inverse_math(x1, y1, x2, y2):
    return (0.5 * math.log(y1 / y2), x1, x2, 0.5 * math.log(2.0 * y1 * y2))


def _rectify_isometric_math(t, x, y, s):
    es = math.exp(s)
    return _rectify_math(t, es * x, es * y, s)


def _rectify_isometric_inverse_math(x1, y1, x2, y2):
    t, X, Y, s = _rectify_inverse_math(x1, y1, x2, y2)
    es = math.exp(-s)
    return (t, es * X, es * Y, s)


def _normal_flow_math(x1, y1, x2, y2, s):
    es = math.exp(s)
    return (x1, es * y1, x2, es * y2)


def _heis_rectify_math(a, b, c, s):
    q = math.exp(s)
    z = 0j + a * complex(0.0, q) + c
    return (z.real, z.imag, 0.0 + b, q)


def _heis_rectify_inverse_math(zr, zi, wx, q):
    return (zi / q, wx, zr, math.log(q))


def _point(x1, y1, x2, y2):
    return ProductPoint(UpperHalfPoint(x1, y1), UpperHalfPoint(x2, y2))


def _heis_chart_coords(a, b, c, s):
    m = heis_rectify(HeisElement(a, b, c), s)
    return np.array([m.z.real, m.z.imag, m.w.x, m.w.y])


def _heis_chart_roundtrip(a, b, c, s):
    g, s2 = heis_rectify_inverse(heis_rectify(HeisElement(a, b, c), s))
    return np.array([*g.triple(), s2])


def test_array_and_scalar_forms_give_the_bits_of_the_math_loops(rng):
    n = 2000
    t, x, y, s = rng.uniform(-2, 2, size=(4, n))
    x1, x2 = rng.uniform(-3, 3, size=(2, n))
    y1, y2 = rng.uniform(0.3, 4, size=(2, n))
    # np.exp differs from math.exp on some of these, so a numpy shortcut fails
    assert np.any(np.exp(t + s) != np.array([math.exp(v) for v in (t + s).tolist()]))
    p = SolParams(0.37)
    cases = [  # (the loop's scalar body, the library call, its arguments)
        (_rectify_math, lambda *v: rectify(*v).coords(), (t, x, y, s)),
        (_rectify_isometric_math, lambda *v: rectify_isometric(*v).coords(), (t, x, y, s)),
        (_rectify_inverse_math, lambda *v: np.array(rectify_inverse(_point(*v))),
         (x1, y1, x2, y2)),
        (_rectify_isometric_inverse_math,
         lambda *v: np.array(rectify_isometric_inverse(_point(*v))), (x1, y1, x2, y2)),
        (_normal_flow_math, lambda *v: normal_flow(_point(*v[:4]), v[4]).coords(),
         (x1, y1, x2, y2, s)),
        (lambda *v: _sol_act_complex(p, SolElement(*v[:3]), _point(*v[3:])).coords(),
         lambda *v: cli.sol_act(p, SolElement(*v[:3]), _point(*v[3:])).coords(),
         (t, x, y, x1, y1, x2, y2)),
        (_heis_rectify_math, _heis_chart_coords, (x1, x2, t, s)),
        (lambda *v: _heis_rectify_inverse_math(*_heis_rectify_math(*v)),
         _heis_chart_roundtrip, (x1, x2, t, s)),
    ]
    for loop_body, library, args in cases:
        rows = list(zip(*(a.tolist() for a in args)))
        want = np.array([loop_body(*v) for v in rows])
        assert library(*args).T.tobytes() == want.tobytes()
        assert np.array([library(*v) for v in rows]).tobytes() == want.tobytes()


def test_stacked_jacobians_equal_the_single_ones(rng):
    n = 500
    wx, wy = rng.uniform(-3, 3, size=n), rng.uniform(0.3, 4, size=n)
    J = cli.heis_leaf_jacobian(MixedPoint(0j, UpperHalfPoint(wx, wy)))
    assert J.shape == (n, 4, 3)
    for i in range(n):
        single = cli.heis_leaf_jacobian(MixedPoint(0j, UpperHalfPoint(wx[i], wy[i])))
        ref = _heis_leaf_jacobian_reference(MixedPoint(0j, UpperHalfPoint(wx[i], wy[i])))
        assert single.tobytes() == ref.tobytes() == J[i].tobytes()
    ranks = np.linalg.matrix_rank(J)
    assert ranks.tolist() == [np.linalg.matrix_rank(J[i]) for i in range(n)]


def _metric_layer_calls():
    """The point count, the heights (y1, y2), and name -> call(i): each
    metric-layer route on 20 000 seeded points with heights over six
    decades, stacked for i = slice(None) and on the single point i, whose
    entries are np.float64 as the suites' draws are."""
    rng = np.random.default_rng(20240817)
    n = 20_000
    x1, x2, t, s = rng.uniform(-3, 3, size=(4, n))
    y1, y2 = 10.0 ** rng.uniform(-3, 3, size=(2, n))
    u, v = rng.uniform(-2, 2, size=(2, 4, n))
    txy, abc = rng.uniform(-2, 2, size=(2, 3, n))
    p = np.array([x1, y1, x2, y2])
    hh, ch = MetricSpec.half_hyperbolic_product(), MetricSpec.euclidean_times_hyperbolic()

    def z(i):
        return ProductPoint(UpperHalfPoint(x1[i], y1[i]), UpperHalfPoint(x2[i], y2[i]))

    def base(i):
        return ProductPoint(UpperHalfPoint(0.0, y1[i]), UpperHalfPoint(0.0, y2[i]))

    def sol_embed(i):
        return lambda c: leaf_embed(STANDARD, base(i), SolElement(*c)).coords()

    def heis_embed(i):
        m = MixedPoint(0j, UpperHalfPoint(0.0, y2[i]))
        return lambda c: heis_act(HeisElement(*c), m).coords()

    return n, (y1, y2), {
        "matrix-hh": lambda i: hh.matrix(p[:, i]),
        "matrix-ch": lambda i: ch.matrix(p[:, i]),
        "metric_inner-hh": lambda i: metric_inner(hh, p[:, i], u[:, i], v[:, i]),
        "metric_inner-ch": lambda i: metric_inner(ch, p[:, i], u[:, i], v[:, i]),
        "metric_norm": lambda i: metric_norm(hh, p[:, i], u[:, i]),
        "christoffel": lambda i: christoffel(hh, p[:, i]),
        "geodesic_residual": lambda i: geodesic_residual(
            hh, lambda w: normal_flow(z(i), w).coords(), t[i]),
        "flow_speed": lambda i: flow_speed(z(i), s[i]),
        "jacobian": lambda i: _fd.jacobian(sol_embed(i), txy[:, i])[1],
        "pullback-sol": lambda i: _fd.pullback(hh.matrix, sol_embed(i), txy[:, i]),
        "pullback-heis": lambda i: _fd.pullback(ch.matrix, heis_embed(i), abc[:, i]),
        "leaf_metric": lambda i: leaf_metric(base(i), t[i]),
        "heis_pullback_metric": lambda i: heis_pullback_metric(y2[i]),
    }


def test_a_squared_height_differs_from_the_float_power():
    # so a coefficient computed with np.square fails the test below
    y = np.concatenate(_metric_layer_calls()[1])
    assert np.any(1 / (2 * np.square(y)) != np.array([1 / (2 * v ** 2) for v in y.tolist()]))


@pytest.mark.parametrize("name", sorted(_metric_layer_calls()[2]))
def test_stacked_metric_layer_calls_equal_the_one_point_calls(name):
    n, _, calls = _metric_layer_calls()
    call = calls[name]
    # Christoffel symbols and Jacobians stack along a trailing axis
    axis = -1 if name in ("christoffel", "jacobian") else 0
    stacked = np.moveaxis(np.asarray(call(slice(None))), axis, 0)
    assert stacked.shape[0] == n
    assert stacked.tobytes() == np.array([call(i) for i in range(n)]).tobytes()


def test_array_half_plane_points():
    x, y = np.array([-0.0, 0.0, 1.5]), np.array([1.0, 2.0, 0.5])
    z = UpperHalfPoint(x, y).complex
    assert [(v.real.hex(), v.imag.hex()) for v in z.tolist()] == \
        [(complex(a, b).real.hex(), complex(a, b).imag.hex()) for a, b in zip(x, y)]
    with pytest.raises(ValueError):
        UpperHalfPoint(x, np.array([1.0, 0.0, 2.0]))


# the one-call stencil and the array distances against the per-point forms

def _sol_embed(params, base):
    return lambda c: leaf_embed(params, base, SolElement(c[0], c[1], c[2])).coords()


def _sol_embed_complex(params, base):
    return lambda c: _sol_act_complex(params, SolElement(c[0], c[1], c[2]), base).coords()


def _heis_embed(base):
    return lambda c: heis_act(HeisElement(c[0], c[1], c[2]), base).coords()


def _embeds(which, rng):
    """(embed, embed of the per-point reference) pairs at fresh base points."""
    if which == "heis":
        base = MixedPoint(complex(*rng.uniform(-2, 2, size=2)),
                          UpperHalfPoint(rng.uniform(-2, 2), rng.uniform(0.4, 2.5)))
        return [(_heis_embed(base), _heis_embed(base))]
    base = ProductPoint(UpperHalfPoint(0.0, rng.uniform(0.4, 2.5)),
                        UpperHalfPoint(0.0, rng.uniform(0.4, 2.5)))
    return [(_sol_embed(p, base), reference(p, base))
            for p in (STANDARD, SolParams(2.0), SolParams(0.37))
            for reference in (_sol_embed, _sol_embed_complex)]


@pytest.mark.parametrize("which", ["sol", "heis"])
def test_one_call_stencil_gives_the_per_point_jacobian(which, rng):
    points = [np.array(v) for v in itertools.product([0.0, -0.0, 1.25], repeat=3)]
    points += list(rng.uniform(-2, 2, size=(200, 3)))
    calls = []
    for x in points:
        for embed, reference in _embeds(which, rng):
            def counted(c):
                calls.append(c.shape)
                return embed(c)
            f0, J = _fd.jacobian(counted, x)
            assert J.tobytes() == _jacobian_reference(reference, x).tobytes()
            assert f0.tobytes() == np.asarray(reference(x), dtype=float).tobytes()
    # one call per Jacobian, on the 4n + 1 stencil points as columns
    assert set(calls) == {(3, 13)}


_coord = st.floats(-5.0, 5.0)
_height = st.floats(0.1, 10.0)
_pair = st.tuples(_coord, _height, _coord, _height, _coord, _height, _coord, _height,
                  st.booleans())


def _hyperbolic_math(x1, y1, x2, y2):
    dx, dy = x1 - x2, y1 - y2
    return math.acosh(max(1.0 + (dx * dx + dy * dy) / (2 * y1 * y2), 1.0))


def _distances_math(r):
    """The four distances of the points r[:4] and r[4:] as the scalar bodies
    computed them, on Python floats with math's functions."""
    h1, h2 = _hyperbolic_math(*r[0:2], *r[4:6]), _hyperbolic_math(*r[2:4], *r[6:8])
    return [h1, h2 / SQRT2, math.hypot(h1 / SQRT2, h2 / SQRT2),
            math.hypot(abs(complex(*r[0:2]) - complex(*r[4:6])), h2)]


def _scalar_distances(r):
    p = [UpperHalfPoint(r[i], r[i + 1]) for i in (0, 2)]
    q = [UpperHalfPoint(r[i], r[i + 1]) for i in (4, 6)]
    return _array_distances(*p, *q)


def _array_distances(p0, p1, q0, q1):
    return [hyperbolic_distance(p0, q0), hyperbolic_distance_scaled(p1, q1),
            product_distance(ProductPoint(p0, p1), ProductPoint(q0, q1)),
            mixed_distance(MixedPoint(p0.complex, p1), MixedPoint(q0.complex, q1))]


def _check_distances(rows):
    want = np.array([_distances_math(r) for r in rows]).T
    assert np.array([_scalar_distances(r) for r in rows]).T.tobytes() == want.tobytes()
    c = np.array(rows).T
    points = [UpperHalfPoint(c[i], c[i + 1]) for i in range(0, 8, 2)]
    got = _array_distances(*points)
    assert [d.tobytes() for d in got] == [w.tobytes() for w in want]
    assert all(d == 0.0 for r, w in zip(rows, want.T) if r[:4] == r[4:] for d in w)
    # a scalar point against array points, as the separation grids measure
    first = [UpperHalfPoint(*rows[0][i:i + 2]) for i in (0, 2)]
    want = np.array([_distances_math(rows[0][:4] + r[4:]) for r in rows]).T
    got = _array_distances(*first, *points[2:])
    assert [d.tobytes() for d in got] == [w.tobytes() for w in want]


@given(st.lists(_pair, min_size=1, max_size=30))
@example([(0.0, 1.0, -0.0, 1.0, 0.0, 1.0, -0.0, 1.0, True)])
@example([(1.5, 0.1, -2.0, 10.0, 1.5, 0.1, -2.0, 10.0, False),
          (0.0, 2.0, 0.0, 3.0, 1e-300, 2.0, -1e-300, 3.0, False)])
def test_array_distances_equal_the_scalar_ones(pairs):
    # a set flag makes q the point p: the distance of coincident points is 0
    _check_distances([r[:4] * 2 if r[8] else r[:8] for r in pairs])


def test_array_distances_equal_the_scalar_ones_on_uniform_draws(rng):
    # np.hypot, np.abs and np.arccosh each differ from math's function on
    # some of these, so a NumPy shortcut fails
    n = 2000
    c = rng.uniform(-5, 5, size=(8, n))
    c[1::2] = rng.uniform(0.1, 10, size=(4, n))
    c[4:, ::10] = c[:4, ::10]
    _check_distances([tuple(r) for r in c.T.tolist()])


# ---------------------------------------------------------------------------
# the embed-agreement and quotient rows against their per-point loops

def _toral_element_reference(spec, k, n, m):
    """toral_element as the loop built it, one 3 x 3 matrix per word."""
    out = np.zeros((3, 3))
    out[0, 0] = spec.lam ** k
    out[1, 1] = spec.lam ** (-k)
    out[:2, 2] = spec.P_inv @ np.array([n, m], dtype=float)
    out[2, 2] = 1.0
    return out


def _sol_lattice_embed_reference(spec, k, n, m):
    """sol_lattice_embed as the loop called it, on one word of Python ints."""
    u, v = spec.P_inv @ np.array([n, m], dtype=float)
    return phi(SolParams(spec.lam), SolElement(k, float(u), float(v)))


def _heis_matrix_reference(g):
    return np.array([[1.0, g.a, g.c], [0.0, 1.0, g.b], [0.0, 0.0, 1.0]])


def _toral_act_reference(spec, g, z):
    """toral_act as its scalar body computed it, in Python complex arithmetic."""
    k, n, m = g
    s = spec.lam ** k
    u, v = spec.P_inv @ np.array([n, m], dtype=float)
    return ProductPoint.from_complex(s * z.z1.complex + u, z.z2.complex / s + v)


def _points(X):
    """The rows (x1, y1, x2, y2) of X as one point with array fields."""
    return ProductPoint.from_coords(np.asarray(X, dtype=float).T)


def _embed_agreement_reference(spec, seed, samples):
    worst = 0.0
    ball = word_ball(2).tolist()
    for (w,), (x1, x2), (y1, y2) in zip(*embed_agreement_draws(seed, samples)):
        g = ball[int(w)]
        z = ProductPoint(UpperHalfPoint(x1, y1), UpperHalfPoint(x2, y2))
        direct = _toral_act_reference(spec, g, z).coords()
        via_sol = sol_act(STANDARD, _sol_lattice_embed_reference(spec, *g), z).coords()
        M = _toral_element_reference(spec, *g)
        img = projective_act(M, ProjectivePoint([z.z1.complex, z.z2.complex, 1.0]))
        w1, w2 = img.coords[0] / img.coords[2], img.coords[1] / img.coords[2]
        via_proj = np.array([w1.real, w1.imag, w2.real, w2.imag])
        worst = max(worst, float(np.abs(direct - via_sol).max()),
                    float(np.abs(direct - via_proj).max()))
    return check_row("embed-agreement", worst, 1e-10,
                     "projective, affine, and solvable descriptions of the "
                     "action coincide")


def _sol_quotient_reference(spec, samples, seed):
    ball = [g for g in word_ball(2).tolist() if g != [0, 0, 0]]
    # each word acts as toral_act does: scale by lam^k, translate by P^{-1}(n, m)
    scale = np.array([spec.lam ** k for k, _, _ in ball])
    shift = np.array([spec.P_inv @ np.array([n, m], dtype=float) for _, n, m in ball])
    x, y, words = sol_quotient_draws(seed, samples)
    base, rep0 = [], []
    for (x1, x2), (y1, y2) in zip(x, y):
        z = ProductPoint(UpperHalfPoint(x1, y1), UpperHalfPoint(x2, y2))
        base.append(z.coords())
        rep0.append(fundamental_domain_reduce(spec, z)[1].coords())
    base, rep0, words = np.array(base), np.array(rep0), words.ravel()

    z = np.repeat(base, 10, axis=0)
    s, (u, v) = scale[words], shift[words].T
    gz = np.column_stack([s * z[:, 0] + u, s * z[:, 1], z[:, 2] / s + v, z[:, 3] / s])
    s0, s1 = (_leaf_param(Z[:, 1], Z[:, 3]) for Z in (base, gz))
    rep1 = fundamental_domain_reduce(spec, _points(gz))[1].coords().T

    rel_res = 0.0
    t_gen = (1, 0, 0)
    for n in range(-2, 3):
        for m in range(-2, 3):
            lhs = sol_mul(sol_mul(_sol_lattice_embed_reference(spec, *t_gen),
                                  _sol_lattice_embed_reference(spec, 0, n, m)),
                          _sol_lattice_embed_reference(spec, *t_gen).inverse())
            word = toral_compose(spec, toral_compose(spec, t_gen, (0, n, m)), (-1, 0, 0))
            rhs = _sol_lattice_embed_reference(spec, *word)
            rel_res = max(rel_res,
                          abs(lhs.t - rhs.t), abs(lhs.x - rhs.x), abs(lhs.y - rhs.y))

    return (
        check_row("leaf-preservation", float(np.abs(s1 - np.repeat(s0, 10)).max()), 1e-10,
                  "the lattice action preserves each leaf parameter s"),
        check_row("reduction-invariance", float(np.abs(rep1 - np.repeat(rep0, 10, axis=0)).max()),
                  1e-8, "fundamental-domain representatives are constant on orbits"),
        check_row("semidirect-relation", rel_res, 1e-12,
                  "conjugating a translation by the cyclic generator applies the integer matrix"),
        check_row("component-preservation",
                  float(np.count_nonzero((gz[:, 1] <= 0) | (gz[:, 3] <= 0))), 0.0,
                  "positive scaling preserves the four sign components of the imaginary parts"),
    )


def _heis_quotient_reference(moduli, samples, seed):
    _heis_reduce_reference(HeisElement(0.0, 0.0, 0.0), moduli)
    zxy, heights, elements, words = heis_quotient_draws(seed, samples)
    base, rep0, ell = [], [], []
    height_res = 0.0
    for (zr, zi, wx), (wy,), abc, ells in zip(zxy, heights, elements, words):
        m = MixedPoint(complex(zr, zi), UpperHalfPoint(wx, wy))
        g = HeisElement(*abc)
        base.append(g.triple())
        rep0.append(_heis_reduce_reference(g, moduli)[1].triple())
        ell.append(ells.reshape(10, 3) * moduli)
        img = _heis_matrix_reference(HeisElement(*ell[-1][0])) @ np.array(
            [m.z, m.w.complex, 1.0])
        height_res = max(height_res, abs(img[1].imag - m.w.y))
    base, rep0, ell = np.array(base), np.array(rep0), np.concatenate(ell)

    moved = heis_mul(HeisElement(*ell.T), HeisElement(*np.repeat(base, 10, axis=0).T))
    rep1 = np.array(heis_reduce_mod_integer_lattice(moved, moduli)[1].triple()).T
    return (
        check_row("height-invariance", height_res, 0.0,
                  "real translations leave the second-factor height unchanged"),
        check_row("reduction-invariance", float(np.abs(rep1 - np.repeat(rep0, 10, axis=0)).max()),
                  1e-12, "cube representatives are constant on left cosets of the lattice"),
    )


MATRICES = [((2, 1), (1, 1)), ((3, 2), (1, 1)), ((7, 4), (5, 3)), ((1000, 999), (1, 1))]
MODULI = [(1, 1, 1), (2, 3, 6), (2, 2, 1)]
GRID_SEEDS = range(60)
GRID_SAMPLES = (1, 7, 60, 300, 500)
# the kleinian and quotient suites take at most 300 samples
CAPPED = sorted({min(n, 300) for n in GRID_SAMPLES})


def _matrix_id(A):
    return ",".join(str(x) for row in A for x in row)


@pytest.mark.parametrize("A", MATRICES, ids=_matrix_id)
def test_embed_agreement_equals_the_loop(A):
    spec = ToralGroupSpec.from_matrix(A)
    for seed in GRID_SEEDS:
        for n in CAPPED:
            assert _bits([cli._embed_agreement(spec, seed, n)]) == _bits(
                [_embed_agreement_reference(spec, seed, n)]), (seed, n)
    # the suite's own row, at more samples than it takes
    cfg = dict(_cfg(0, 500), A=A)
    assert _bits(cli._suite_kleinian(cfg)[-1:]) == _bits(
        [_embed_agreement_reference(spec, 0, 300)])


@pytest.mark.parametrize("A", MATRICES, ids=_matrix_id)
def test_sol_quotient_rows_equal_the_loop(A):
    spec = ToralGroupSpec.from_matrix(A)
    for seed in GRID_SEEDS:
        for n in CAPPED:
            assert _bits(sol_quotient_check(spec, n, seed)) == _bits(
                _sol_quotient_reference(spec, n, seed)), (seed, n)
    # the suite's own rows, at more samples than it takes
    rows = cli._suite_quotient(dict(_cfg(0, 500), A=A))
    assert _bits(rows[:4]) == _bits([replace(r, name=f"sol-{r.name}")
                                      for r in _sol_quotient_reference(spec, 300, 0)])


@pytest.mark.parametrize("moduli", MODULI, ids=str)
def test_heis_quotient_rows_equal_the_loop(moduli):
    for seed in GRID_SEEDS:
        for n in GRID_SAMPLES:
            assert _bits(heis_quotient_check(moduli, n, seed)) == _bits(
                _heis_quotient_reference(moduli, n, seed)), (seed, n)


@pytest.mark.parametrize("samples", [1, 60, 300])
def test_kleinian_and_quotient_rows_draw_as_the_loops_do(samples, monkeypatch):
    # each row builds one Generator from its seed and makes the draws of its
    # loop, one block of shape (samples, k) per entry, in the loop's order
    spec = ToralGroupSpec.from_matrix(((3, 2), (1, 1)))
    pairs = [
        (lambda: cli._embed_agreement(spec, 5, samples),
         lambda: _embed_agreement_reference(spec, 5, samples)),
        (lambda: sol_quotient_check(spec, samples, 5),
         lambda: _sol_quotient_reference(spec, samples, 5)),
        (lambda: heis_quotient_check((2, 3, 6), samples, 5),
         lambda: _heis_quotient_reference((2, 3, 6), samples, 5)),
    ]
    for row, loop in pairs:
        (block,), (want,) = _built(row, monkeypatch), _built(loop, monkeypatch)
        assert block.seed == want.seed == 5
        assert block.calls == want.calls
        assert [len(kwargs["size"]) for _, _, kwargs in block.calls] == [2] * len(block.calls)
        assert all(kwargs["size"][0] == samples for _, _, kwargs in block.calls)


# a planted defect in each array route fails its row

def _embed_row(spec):
    return cli._embed_agreement(spec, 0, 60)


def test_embed_agreement_sees_a_projective_route_without_translation(monkeypatch):
    spec = ToralGroupSpec.from_matrix(((3, 2), (1, 1)))
    assert _embed_row(spec).passed
    element = cli.toral_element

    def untranslated(*args):
        M = element(*args)
        M[..., :2, 2] = 0.0
        return M
    monkeypatch.setattr(cli, "toral_element", untranslated)
    assert _embed_row(spec).residual >= 0.1


def test_embed_agreement_sees_a_solvable_route_without_phi(monkeypatch):
    spec = ToralGroupSpec.from_matrix(((3, 2), (1, 1)))
    assert _embed_row(spec).passed
    embed = cli.sol_lattice_embed

    def unscaled(spec, k, n, m):
        # t = k, not k log(lam): the standard action then scales by e^k
        g = embed(spec, k, n, m)
        return SolElement(k * 1.0, g.x, g.y)
    monkeypatch.setattr(cli, "sol_lattice_embed", unscaled)
    assert _embed_row(spec).residual >= 0.1


def _sol_quotient_row(name):
    spec = ToralGroupSpec.from_matrix(((3, 2), (1, 1)))
    return {r.name: r for r in sol_quotient_check(spec, 60, 0)}[name]


def test_reduction_invariance_sees_a_reduction_that_ignores_its_word(monkeypatch):
    assert _sol_quotient_row("reduction-invariance").passed
    reduce = quotient.fundamental_domain_reduce

    def unreduced(spec, z):
        # the element the reduction found, not applied: the points come back
        return reduce(spec, z)[0], z
    monkeypatch.setattr(quotient, "fundamental_domain_reduce", unreduced)
    assert _sol_quotient_row("reduction-invariance").residual >= 0.1


def test_reduction_invariance_sees_words_that_leave_the_orbit(monkeypatch):
    assert _sol_quotient_row("reduction-invariance").passed
    act = quotient.toral_act

    def raw_translation(spec, g, z):
        # translates by (n, m) itself, not by P^{-1}(n, m)
        k, n, m = g
        w = act(spec, (k, 0 * n, 0 * m), z)
        return ProductPoint(UpperHalfPoint(w.z1.x + n, w.z1.y),
                            UpperHalfPoint(w.z2.x + m, w.z2.y))
    monkeypatch.setattr(quotient, "toral_act", raw_translation)
    row = _sol_quotient_row("reduction-invariance")
    assert not row.passed
    assert _sol_quotient_row("leaf-preservation").passed


def test_height_invariance_sees_a_height_route_that_adds_b(monkeypatch):
    def row():
        return {r.name: r for r in heis_quotient_check((1, 1, 1), 60, 0)}["height-invariance"]
    assert row().passed
    matrix = quotient.heis_matrix

    def adds_b(g):
        # the image height becomes Im w + b
        return matrix(g) + 1j * np.asarray(g.b)[..., None, None] * [[0, 0, 0], [0, 0, 1],
                                                                     [0, 0, 0]]
    monkeypatch.setattr(quotient, "heis_matrix", adds_b)
    assert row().residual >= 1.0


# the array toral forms give the bits of the scalar ones

_word = st.tuples(st.integers(-3, 3), st.integers(-6, 6), st.integers(-6, 6))
_real = st.floats(-5.0, 5.0)      # takes in -0.0
_y = st.floats(0.05, 20.0)


@given(st.sampled_from(MATRICES),
       st.lists(st.tuples(_word, _real, _y, _real, _y), min_size=1, max_size=20))
@example(MATRICES[0], [((0, 0, 0), -0.0, 1.0, -0.0, 2.0), ((1, 0, 0), 0.0, 1.0, -0.0, 1.0),
                       ((-2, 0, 0), -0.0, 3.0, 0.0, 0.5), ((2, 1, -1), -0.0, 0.1, -0.0, 7.0)])
def test_toral_act_rows_equal_toral_act(A, cases):
    spec = ToralGroupSpec.from_matrix(A)
    G = np.array([g for g, *_ in cases], dtype=np.int64)
    X = np.array([x for _, *x in cases], dtype=float)
    want = [_toral_act_reference(spec, g, ProductPoint.from_coords(x)).coords().tolist()
            for g, *x in cases]
    # one array call, and one call per word
    got = toral_act(spec, G.T, _points(X)).coords().T.tolist()
    one = [toral_act(spec, g, ProductPoint.from_coords(x)).coords().tolist()
           for g, *x in cases]
    for rows in (got, one):
        assert [[v.hex() for v in r] for r in rows] == [[v.hex() for v in r] for r in want]
    # the stacked matrices and embeddings, entry for entry the single ones
    M = toral_element(spec, *G.T)
    g = sol_lattice_embed(spec, *G.T)
    for i, (k, n, m) in enumerate(G.tolist()):
        assert M[i].tobytes() == _toral_element_reference(spec, k, n, m).tobytes()
        assert M[i].tobytes() == toral_element(spec, k, n, m).tobytes()
        one = _sol_lattice_embed_reference(spec, k, n, m)
        assert [g.t[i], g.x[i], g.y[i]] == [one.t, one.x, one.y]
        assert [float(v).hex() for v in (g.t[i], g.x[i], g.y[i])] == \
            [float(v).hex() for v in (one.t, one.x, one.y)]
    H = heis_matrix(HeisElement(*G.T))
    for i, (a, b, c) in enumerate(G.tolist()):
        assert H[i].tobytes() == _heis_matrix_reference(HeisElement(a, b, c)).tobytes()
    assert heis_matrix(HeisElement(1, 2, 3)).tobytes() == \
        _heis_matrix_reference(HeisElement(1, 2, 3)).tobytes()


@pytest.mark.parametrize("A", MATRICES[:3], ids=_matrix_id)
def test_orbit_rows_equal_the_loop(A):
    # export orbit's rows, as the loop over toral_act built them
    spec = ToralGroupSpec.from_matrix(A)
    ball = word_ball(10)
    for b1, b2 in ((1j, 1j), (complex(-0.0, 1), complex(-0.0, 2)), (1j, complex(-0.0, 3)),
                   (2.5 + 0.1j, -7 + 9j)):
        z = ProductPoint.from_complex(b1, b2)
        want = [[*g, *_toral_act_reference(spec, g, z).coords().tolist()]
                for g in zip(*ball.T.tolist())]
        got = [g + x for g, x in zip(ball.tolist(),
                                     toral_act(spec, ball.T, z).coords().T.tolist())]
        assert repr(got) == repr(want)


def test_toral_act_rows_raise_where_toral_act_does():
    spec = ToralGroupSpec.from_matrix(((5000, 1), (4999, 1)))
    z = ProductPoint.from_coords([0.0, 1.0, 0.0, 1.0])
    tiny = ProductPoint.from_coords([0.0, 1e-320, 0.0, 1.0])
    for g, p, error in (((-90, 0, 0), z, ZeroDivisionError), ((90, 0, 0), z, OverflowError),
                        ((-2, 0, 0), tiny, ValueError)):
        with pytest.raises(error):
            _toral_act_reference(spec, g, p)
        with pytest.raises(error):
            toral_act(spec, g, p)
        # a word that acts, then the failing one, on array fields
        G = np.array([(0, 1, 0), g]).T
        with pytest.raises(error):
            toral_act(spec, G, _points([p.coords()] * 2))
        with pytest.raises(error):
            toral_act(spec, G, p)

"""Quotient verification reports for the toral and Heisenberg lattices."""

import numpy as np
import pytest

import solfold.cli as cli
import solfold.quotient as quotient
from solfold import (
    HeisElement,
    MixedPoint,
    ProductPoint,
    SolElement,
    ToralGroupSpec,
    UpperHalfPoint,
    fundamental_domain_reduce,
    heis_act,
    heis_matrix,
    heis_mul,
    heis_quotient_check,
    heis_reduce_mod_integer_lattice,
    rectify_inverse,
    sol_lattice_embed,
    sol_mul,
    sol_quotient_check,
    toral_act,
    toral_compose,
    word_ball,
)
from conftest import heis_quotient_draws, rand_mixed, sol_quotient_draws
from solfold.quotient import check_row

SPEC = ToralGroupSpec.from_matrix([[2, 1], [1, 1]])


# ---------------------------------------------------------------------------
# the per-point loops the library checks batch, kept as the reference

def _semidirect_relation_reference(spec):
    rel_res = 0.0
    t_gen = (1, 0, 0)
    for n in range(-2, 3):
        for m in range(-2, 3):
            lhs = sol_mul(sol_mul(sol_lattice_embed(spec, *t_gen),
                                  sol_lattice_embed(spec, 0, n, m)),
                          sol_lattice_embed(spec, *t_gen).inverse())
            word = toral_compose(spec, toral_compose(spec, t_gen, (0, n, m)), (-1, 0, 0))
            rhs = sol_lattice_embed(spec, *word)
            rel_res = max(rel_res,
                          abs(lhs.t - rhs.t), abs(lhs.x - rhs.x), abs(lhs.y - rhs.y))
    return rel_res


def _sol_quotient_reference(spec, samples, seed):
    ball = [g for g in map(tuple, word_ball(2).tolist()) if g != (0, 0, 0)]
    leaf_res = 0.0
    reduce_res = 0.0
    sign_violations = 0
    for (x1, x2), (y1, y2), idxs in zip(*sol_quotient_draws(seed, samples)):
        z = ProductPoint(UpperHalfPoint(x1, y1), UpperHalfPoint(x2, y2))
        s0 = rectify_inverse(z)[3]
        rep0 = fundamental_domain_reduce(spec, z)[1].coords()
        for idx in idxs:
            gz = toral_act(spec, ball[int(idx)], z)
            leaf_res = max(leaf_res, abs(rectify_inverse(gz)[3] - s0))
            rep1 = fundamental_domain_reduce(spec, gz)[1].coords()
            reduce_res = max(reduce_res, float(np.abs(rep1 - rep0).max()))
            if gz.z1.y <= 0 or gz.z2.y <= 0:
                sign_violations += 1

    rel_res = _semidirect_relation_reference(spec)
    return (
        check_row("leaf-preservation", leaf_res, 1e-10,
                  "the lattice action preserves each leaf parameter s"),
        check_row("reduction-invariance", reduce_res, 1e-8,
                  "fundamental-domain representatives are constant on orbits"),
        check_row("semidirect-relation", rel_res, 1e-12,
                  "conjugating a translation by the cyclic generator applies the integer matrix"),
        check_row("component-preservation", float(sign_violations), 0.0,
                  "positive scaling preserves the four sign components of the imaginary parts"),
    )


def _heis_quotient_reference(moduli, samples, seed):
    d1, d2, d3 = moduli
    height_res = 0.0
    reduce_res = 0.0
    zxy, heights, elements, words = heis_quotient_draws(seed, samples)
    for (zr, zi, wx), (wy,), g, ells in zip(zxy, heights, elements,
                                            words.reshape(samples, 10, 3)):
        m = MixedPoint(complex(zr, zi), UpperHalfPoint(wx, wy))
        g = HeisElement(*g)
        rep0 = heis_reduce_mod_integer_lattice(g, moduli)[1]
        for i, (j, k, l) in enumerate(ells):
            ell = HeisElement(d1 * int(j), d2 * int(k), d3 * int(l))
            if i == 0:
                img = heis_matrix(ell) @ np.array([m.z, m.w.complex, 1.0])
                height_res = max(height_res, abs(img[1].imag - m.w.y))
            rep1 = heis_reduce_mod_integer_lattice(heis_mul(ell, g), moduli)[1]
            reduce_res = max(reduce_res,
                             abs(rep1.a - rep0.a), abs(rep1.b - rep0.b),
                             abs(rep1.c - rep0.c))

    return (
        check_row("height-invariance", height_res, 0.0,
                  "real translations leave the second-factor height unchanged"),
        check_row("reduction-invariance", reduce_res, 1e-12,
                  "cube representatives are constant on left cosets of the lattice"),
    )


def _assert_same_report(got, want):
    assert got == want
    for a, b in zip(got, want):
        assert a.residual.hex() == b.residual.hex(), a.name


@pytest.mark.parametrize("samples", [1, 7, 300])
@pytest.mark.parametrize("A", [[[2, 1], [1, 1]], [[3, 2], [1, 1]], [[5, 4], [1, 1]]])
def test_sol_quotient_matches_reference_loop(A, samples):
    spec = ToralGroupSpec.from_matrix(A)
    for seed in range(5):
        _assert_same_report(sol_quotient_check(spec, samples, seed),
                            _sol_quotient_reference(spec, samples, seed))


@pytest.mark.parametrize("h", [2, 3, 1000, 10 ** 6, 10 ** 30])
def test_semidirect_relation_row_equals_the_loop(h):
    """The row's one array pass over the 5 x 5 grid of (n, m) gives the loop's
    residual bit for bit, up to a trace whose A (n, m) passes int64; h = 2
    and 3 stand for [[2, 1], [1, 1]] and [[3, 2], [1, 1]], and [[7, 4], [5, 3]]
    joins them."""
    for A in ([[h, h - 1], [1, 1]], [[7, 4], [5, 3]]):
        spec = ToralGroupSpec.from_matrix(A)
        row = sol_quotient_check(spec, samples=1)[2]
        assert row.name == "semidirect-relation"
        assert row.residual.hex() == float(_semidirect_relation_reference(spec)).hex()


def test_sol_mul_and_inverse_take_arrays_entry_by_entry(rng):
    g, h = (SolElement(*rng.uniform(-3, 3, size=(3, 40))) for _ in range(2))
    prod, inv = sol_mul(g, h), g.inverse()
    for i in range(40):
        gi, hi = (SolElement(e.t[i], e.x[i], e.y[i]) for e in (g, h))
        for got, want in ((prod, sol_mul(gi, hi)), (inv, gi.inverse())):
            assert (got.t[i], got.x[i], got.y[i]) == (want.t, want.x, want.y)


@pytest.mark.parametrize("samples", [1, 7, 300])
@pytest.mark.parametrize("moduli", [(1, 1, 1), (2, 3, 6), (4, 6, 3)])
def test_heis_quotient_matches_reference_loop(moduli, samples):
    for seed in range(5):
        _assert_same_report(heis_quotient_check(moduli, samples, seed),
                            _heis_quotient_reference(moduli, samples, seed))


def _shifted(reduce):
    """reduce with each representative moved by 1e-6 wherever the element it
    applied has a nonzero first entry, on scalar or array fields: base points
    and their images need different elements, so the representatives are no
    longer constant on orbits."""
    def wrapper(*args):
        element, rep = reduce(*args)
        first = element.a if isinstance(element, HeisElement) else element[0]
        d = np.where(np.asarray(first) != 0, 1e-6, 0.0)
        if isinstance(rep, HeisElement):
            return element, HeisElement(*(v + d for v in rep.triple()))
        return element, type(rep).from_coords(rep.coords() + d)
    return wrapper


def test_sol_reduction_invariance_compares_two_routes(monkeypatch):
    # the base points and the moved points go through one array call each,
    # so a reduction that depends on where in the orbit it starts shows
    monkeypatch.setattr(quotient, "fundamental_domain_reduce",
                        _shifted(fundamental_domain_reduce))
    row = {c.name: c for c in sol_quotient_check(SPEC, 50, 0)}["reduction-invariance"]
    assert not row.passed
    assert row.residual == pytest.approx(1e-6, rel=1e-6)


def test_heis_reduction_invariance_compares_two_routes(monkeypatch):
    monkeypatch.setattr(quotient, "heis_reduce_mod_integer_lattice",
                        _shifted(heis_reduce_mod_integer_lattice))
    row = {c.name: c for c in heis_quotient_check((2, 3, 6), 50, 0)}["reduction-invariance"]
    assert not row.passed
    assert row.residual == pytest.approx(1e-6, rel=1e-6)


def test_sol_quotient_report_passes():
    checks = sol_quotient_check(SPEC, samples=1000, seed=0)
    assert all(c.passed for c in checks)
    names = [c.name for c in checks]
    assert names == ["leaf-preservation", "reduction-invariance",
                     "semidirect-relation", "component-preservation"]
    by_name = {c.name: c for c in checks}
    assert by_name["leaf-preservation"].residual < 1e-10
    assert by_name["reduction-invariance"].residual < 1e-8
    assert by_name["semidirect-relation"].residual < 1e-12
    assert by_name["component-preservation"].residual == 0.0


def test_sol_quotient_deterministic_given_seed():
    a = sol_quotient_check(SPEC, samples=50, seed=3)
    b = sol_quotient_check(SPEC, samples=50, seed=3)
    assert [c.residual for c in a] == [c.residual for c in b]


def test_sol_quotient_rejects_empty_sampling():
    with pytest.raises(ValueError):
        sol_quotient_check(SPEC, samples=0)


def test_heis_quotient_report_passes():
    checks = heis_quotient_check((1, 1, 1), samples=1000, seed=0)
    assert all(c.passed for c in checks)
    by_name = {c.name: c for c in checks}
    assert by_name["height-invariance"].residual == 0.0
    assert by_name["height-invariance"].threshold == 0.0
    assert by_name["reduction-invariance"].residual < 1e-12
    # the commutator of the horizontal generators is a row of the heis suite
    cfg = {key: default for key, (_, default) in cli._FLAGS["verify"].items()}
    assert {c.name: c for c in cli._suite_heis(cfg)}["commutator"].residual == 0.0


def test_heis_quotient_nontrivial_moduli():
    assert all(c.passed for c in heis_quotient_check((2, 3, 6), samples=200, seed=1))


def test_heis_quotient_rejects_bad_moduli():
    with pytest.raises(ValueError):
        heis_quotient_check((2, 2, 3), samples=5)
    with pytest.raises(ValueError):
        heis_quotient_check((1, 1, 1), samples=0)



def test_heis_matrix_image_is_heis_act_bit_for_bit(rng):
    # the height-invariance row reads the image off the action's matrix
    for _ in range(2000):
        m = rand_mixed(rng, 0.2, 5.0)
        g = HeisElement(*(int(v) for v in rng.integers(-12, 13, size=3)))
        img = heis_matrix(g) @ np.array([m.z, m.w.complex, 1.0])
        act = heis_act(g, m)
        got = (img[0].real, img[0].imag, img[1].real, img[1].imag)
        want = (act.z.real, act.z.imag, act.w.x, act.w.y)
        assert [float(v).hex() for v in got] == [v.hex() for v in want]
        assert img[2] == 1.0


def test_heis_height_invariance_sees_a_moved_height(monkeypatch):
    def scaled(g):
        M = heis_matrix(g)
        M[..., 1, 1] = 1.0 + 1e-9      # the middle row now scales w
        return M
    monkeypatch.setattr(quotient, "heis_matrix", scaled)
    row = {c.name: c for c in heis_quotient_check((1, 1, 1), 50, 0)}["height-invariance"]
    assert not row.passed
    assert row.residual > 0.0

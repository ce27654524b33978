"""Hyperbolic toral groups: projective limits, general position, discontinuity."""

import itertools
import math
import random
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import affine_box_hits_via_matrix, projective_act, toral_element_integral

from solfold import (
    STANDARD,
    GeneralPositionResult,
    LimitKernelResult,
    LimitLine,
    ProductPoint,
    ProjectiveLine,
    ProjectivePoint,
    ToralGroupSpec,
    classify_limit_line,
    fundamental_domain_reduce,
    general_position_max,
    intersecting_elements,
    kulkarni_membership,
    lattice_iso_test,
    limit_general_position,
    pseudo_limit_kernels,
    sol_act,
    sol_lattice_embed,
    sol_mul,
    toral_act,
    toral_compose,
    toral_element,
    word_ball,
)
from solfold import kleinian
from solfold.kleinian import (MAX_BALL_ROWS, _dedupe_lines, _normalize_homogeneous,
                              _normalize_rows)

SPEC = ToralGroupSpec.from_matrix([[2, 1], [1, 1]])
SPEC_B = ToralGroupSpec.from_matrix([[3, 2], [1, 1]])

TEST_BOX = ((0.1, 0.9), (1.0, 2.0), (0.1, 0.9), (1.0, 2.0))

nonzero = st.floats(min_value=-4.0, max_value=4.0).filter(lambda v: abs(v) > 1e-3)


# ---------------------------------------------------------------------------
# constructions that no command takes, kept here as oracles

def line_through(p: ProjectivePoint, q: ProjectivePoint) -> ProjectiveLine:
    """The unique line through two distinct points, by the bilinear cross product."""
    d = np.cross(p.coords, q.coords)
    if np.abs(d).max() < 1e-12:
        raise ValueError("points coincide, no unique line")
    return ProjectiveLine(d)


def lines_intersection(l1: ProjectiveLine, l2: ProjectiveLine) -> ProjectivePoint:
    c = np.cross(l1.dual, l2.dual)
    if np.abs(c).max() < 1e-12:
        raise ValueError("lines coincide, no unique intersection")
    return ProjectivePoint(c)


def lines_concurrent(l1: ProjectiveLine, l2: ProjectiveLine,
                     l3: ProjectiveLine) -> bool:
    """Whether three lines share a point: determinant of normalized duals at
    most 1e-8, by LU rather than general_position_max's triple product."""
    det = np.linalg.det(np.vstack([l1.dual, l2.dual, l3.dual]))
    return abs(det) <= 1e-8


def dedupe(lines):
    """The lines that _dedupe_lines keeps, in order."""
    return [lines[i] for i in _dedupe_lines(np.array([l.dual for l in lines]))]


def reference_limit_lines():
    """Closed-form members of the limit family: the line at infinity and two
    members of each pencil, enough to witness four in general position."""
    return [ProjectiveLine(d) for d in ([0, 0, 1], [1, 0, 0], [1, 0, -1], [0, 1, 0], [0, 1, -1])]


@given(re=nonzero, im=st.floats(min_value=-4.0, max_value=4.0))
def test_projective_point_scale_invariant(re, im):
    v = np.array([1.0 + 0.5j, -2.0 + 1j, 0.3j])
    c = complex(re, im)
    assert np.abs(ProjectivePoint(v).coords - ProjectivePoint(c * v).coords).max() < 1e-12


def test_projective_normalization_properties():
    p = ProjectivePoint([2j, 0, 0])
    # sup norm one, leading significant entry real positive
    assert abs(np.abs(p.coords).max() - 1.0) < 1e-15
    assert p.coords[0].real > 0 and abs(p.coords[0].imag) < 1e-15
    with pytest.raises(ValueError):
        ProjectivePoint([0, 0, 0])
    with pytest.raises(ValueError):
        ProjectivePoint([1, 2])


def test_normalize_rows_matches_the_per_object_rule():
    # seeded complex rows at scales 1e-8 to 1e8, with zero and -0.0 entries,
    # leading entries either side of the 1e-12 pivot threshold after scaling,
    # and real-only rows; the array path must give the per-object bits
    rng = np.random.default_rng(20181)
    n = 4000
    V = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    V *= 10.0 ** rng.uniform(-8, 8, size=(n, 1))
    V[0::9, 0] = 0.0
    V[1::9, 1] = complex(-0.0, -0.0)
    V[2::9, 2] = complex(0.0, -0.0)
    for j, lead in enumerate((1e-13, 0.999e-12, 1.001e-12, -1e-13j, 1e-13 - 1e-13j)):
        rows = V[3 + j::9]
        rows[:, 0] = lead * np.abs(rows[:, 1:]).max(axis=1)
    V[::5] = V[::5].real
    got = _normalize_rows(V)
    want = np.array([_normalize_homogeneous(v) for v in V])
    assert got.tobytes() == want.tobytes()
    assert np.abs(got.imag).max() > 0.1          # the rows do need a rotation
    V[7] = 0.0
    with pytest.raises(ValueError, match="identically zero"):
        _normalize_rows(V)
    with pytest.raises(ValueError, match="identically zero"):
        _normalize_homogeneous(V[7])


def _normalize_homogeneous_reference(v):
    """_normalize_homogeneous with the sup norm taken by np.max, then the
    same ufuncs: the reference for its max over the moduli as Python
    floats."""
    m = np.abs(v).max()
    if m == 0:
        raise ValueError("homogeneous data cannot be identically zero")
    v = v / m
    flat = v.ravel()
    pivot = flat[(np.abs(flat) > 1e-12).tolist().index(True)]
    return v * (pivot.conjugate() / abs(pivot))


def _normalize_outcome(f, v):
    """The bytes f returns on v, or the ValueError it raises."""
    try:
        return f(v).tobytes()
    except ValueError as e:
        return ("ValueError", str(e))


def test_normalize_homogeneous_matches_the_np_max_reference():
    # 20 000 seeded rows at scales 1e-8 to 1e8, with zero and -0.0 entries,
    # leading entries either side of the 1e-12 pivot threshold after scaling,
    # and real-only rows; then the same draws as 3 x 3 arrays
    rng = np.random.default_rng(20261019)
    n = 20000
    V = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    V *= 10.0 ** rng.uniform(-8, 8, size=(n, 1))
    V[0::11, 0] = 0.0
    V[1::11, 1] = complex(-0.0, -0.0)
    V[2::11, 2] = complex(0.0, -0.0)
    V[3::11, :2] = complex(-0.0, 0.0)
    for j, lead in enumerate((1e-13, 0.999e-12, 1e-12, 1.001e-12, -1e-13j, 1e-13 - 1e-13j)):
        rows = V[4 + j::11]
        rows[:, 0] = lead * np.abs(rows[:, 1:]).max(axis=1)
    V[::5] = V[::5].real
    got = np.array([_normalize_homogeneous(v) for v in V])
    want = np.array([_normalize_homogeneous_reference(v) for v in V])
    assert got.tobytes() == want.tobytes()
    for M in V[:3000].reshape(-1, 3, 3):
        assert _normalize_homogeneous(M).tobytes() == _normalize_homogeneous_reference(M).tobytes()


@pytest.mark.parametrize("v", [
    [0, 0, 0], [-0.0, 0j, complex(0.0, -0.0)],
    [math.nan, 1, 2], [1, math.nan, 2], [0, math.nan, 0], [0, 0, math.nan],
    [complex(1, math.nan), 2, 0], [3, 0, complex(math.nan, 0)],
    [math.inf, 1, 0], [1, -math.inf, math.nan], [complex(1e308, 1e308), 1, 0],
    [1e308, 1e308, 1e308], [1e-320, 0, 5e-324], [5e-324, 0, 0]])
def test_normalize_homogeneous_fails_where_the_reference_fails(v):
    # a Python max over moduli with a NaN among them need not be NaN, so the
    # NaN rows pin that the pivot lookup still raises; the overflowing and
    # subnormal rows pin the sup norm at the ends of the float range
    v = np.array(v, dtype=complex)
    with np.errstate(all="ignore"):
        want = _normalize_outcome(_normalize_homogeneous_reference, v)
        assert _normalize_outcome(_normalize_homogeneous, v) == want
    if np.isnan(v).any() or not np.abs(v).max():
        assert want[0] == "ValueError"


def test_line_point_duality():
    def on(line, point):
        return abs(np.dot(line.dual, point.coords)) <= 1e-10

    p = ProjectivePoint([1, 2, 3])
    q = ProjectivePoint([0, 1, -1])
    line = line_through(p, q)
    assert on(line, p) and on(line, q)
    other = ProjectiveLine([1, 0, 0])
    meet = lines_intersection(line, other)
    assert on(line, meet) and on(other, meet)
    with pytest.raises(ValueError):
        line_through(p, ProjectivePoint([2, 4, 6]))
    with pytest.raises(ValueError):
        lines_intersection(line, ProjectiveLine(line.dual * (1 - 2j)))


def test_lines_concurrent_detection():
    # three lines through [0 : 0 : 1]
    l1 = ProjectiveLine([1, 0, 0])
    l2 = ProjectiveLine([0, 1, 0])
    l3 = ProjectiveLine([1, 1, 0])
    assert lines_concurrent(l1, l2, l3)
    assert not lines_concurrent(l1, l2, ProjectiveLine([1, 1, 1]))


class PseudoProjectiveMap:
    """Nonzero 3 x 3 complex matrix up to scale, possibly singular: the SVD
    route to accumulation kernels, kept here as the oracle of the closed
    form in pseudo_limit_kernels."""

    def __init__(self, matrix) -> None:
        M = np.asarray(matrix, dtype=complex)
        if M.shape != (3, 3):
            raise ValueError("pseudo-projective map needs a 3 x 3 matrix")
        self.matrix = _normalize_homogeneous(M)

    def kernel(self, rank_tol: float = 1e-8):
        """Numerical kernel dimension and an orthonormal basis (columns)."""
        _, s, vt = np.linalg.svd(self.matrix)
        dim = int(np.sum(s < rank_tol))
        basis = vt[3 - dim:].conj().T if dim else np.zeros((3, 0))
        return dim, basis

    def kernel_projective(self, rank_tol: float = 1e-8):
        """None, a ProjectivePoint, or a ProjectiveLine, by kernel dimension."""
        dim, basis = self.kernel(rank_tol)
        if dim == 0 or dim == 3:
            return None
        if dim == 1:
            return ProjectivePoint(basis[:, 0])
        return line_through(ProjectivePoint(basis[:, 0]), ProjectivePoint(basis[:, 1]))


def test_pseudo_projective_kernels_by_rank():
    assert PseudoProjectiveMap(np.eye(3)).kernel_projective() is None
    point = PseudoProjectiveMap(np.diag([1.0, 1.0, 0.0])).kernel_projective()
    assert isinstance(point, ProjectivePoint)
    assert np.abs(point.coords - ProjectivePoint([0, 0, 1]).coords).max() < 1e-12
    line = PseudoProjectiveMap(np.diag([1.0, 0.0, 0.0])).kernel_projective()
    assert isinstance(line, ProjectiveLine)
    assert np.abs(line.dual - ProjectiveLine([1, 0, 0]).dual).max() < 1e-12


def test_pseudo_projective_kernel_of_outer_product(rng):
    # rank one: the kernel is the plane annihilated by the row vector
    x = rng.uniform(-1, 1, size=3) + 1j * rng.uniform(-1, 1, size=3)
    y = rng.uniform(-1, 1, size=3) + 1j * rng.uniform(-1, 1, size=3)
    M = np.outer(x, y.conj())
    ker = PseudoProjectiveMap(M).kernel_projective()
    assert isinstance(ker, ProjectiveLine)
    dim, basis = PseudoProjectiveMap(M).kernel(1e-8)
    assert dim == 2
    for col in range(2):
        assert np.abs(M @ basis[:, col]).max() < 1e-8


def test_spec_eigendata():
    A = np.array(SPEC.A)
    assert SPEC.lam == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-12)
    D = np.diag([SPEC.lam, 1 / SPEC.lam])
    assert np.abs(A @ SPEC.P - SPEC.P @ D).max() < 1e-12
    assert np.abs(SPEC.P @ SPEC.P_inv - np.eye(2)).max() < 1e-12


def test_spec_rejects_bad_matrices():
    with pytest.raises(ValueError):
        ToralGroupSpec.from_matrix([[2, 0], [0, 1]])     # determinant 2
    with pytest.raises(ValueError):
        ToralGroupSpec.from_matrix([[1, 1], [0, 1]])     # trace 2, parabolic
    with pytest.raises(ValueError):
        ToralGroupSpec.from_matrix([[0, 1], [-1, 0]])    # elliptic
    with pytest.raises(ValueError):
        ToralGroupSpec.from_matrix([[1.5, 1], [1, 1]])   # not integral


def test_integral_form_is_exact_homomorphism(rng):
    for _ in range(60):
        g = tuple(int(v) for v in rng.integers(-4, 5, size=3))
        h = tuple(int(v) for v in rng.integers(-4, 5, size=3))
        lhs = toral_element_integral(SPEC, *toral_compose(SPEC, g, h))
        rhs = toral_element_integral(SPEC, *g) @ toral_element_integral(SPEC, *h)
        assert lhs.tolist() == rhs.tolist()
        for row in lhs:
            for entry in row:
                assert isinstance(entry, int)


def test_integral_negative_powers_are_exact():
    M5 = toral_element_integral(SPEC, 5, 0, 0)
    M5inv = toral_element_integral(SPEC, -5, 0, 0)
    assert (M5 @ M5inv).tolist() == np.eye(3, dtype=object).tolist()


def test_conjugated_form_is_conjugate_of_integral(rng):
    Q = np.eye(3, dtype=complex)
    Q[:2, :2] = SPEC.P_inv
    Qinv = np.linalg.inv(Q)
    for _ in range(40):
        k, n, m = (int(v) for v in rng.integers(-3, 4, size=3))
        conj = toral_element(SPEC, k, n, m)
        integral = toral_element_integral(SPEC, k, n, m).astype(float)
        assert np.abs(conj - (Q @ integral @ Qinv).real).max() < 1e-10


def test_word_ball_size_formula():
    # |k| + |n| + |m| <= N: centered octahedral count, checked by summation
    for N in (0, 1, 4, 8, 12):
        expected = 1 + sum(4 * r * r + 2 for r in range(1, N + 1))
        assert len(word_ball(N)) == expected
    assert len(word_ball(4)) == 129
    assert len(word_ball(12)) == 2625
    for N in range(21):
        assert 3 * len(word_ball(N)) == (2 * N + 1) * (2 * N * N + 2 * N + 3)


def test_word_ball_contents():
    ball = list(map(tuple, word_ball(3).tolist()))
    assert ball == sorted(set(ball))
    assert all(abs(k) + abs(n) + abs(m) <= 3 for (k, n, m) in ball)
    for N in range(21):
        ball = list(map(tuple, word_ball(N).tolist()))
        assert ball == sorted(set(ball))
    with pytest.raises(ValueError):
        word_ball(-1)


def _word_ball_reference(n):
    """Second route to word_ball: the sorted ball as a list of tuples, one
    comprehension level per coordinate."""
    return [(k, a, b)
            for k in range(-n, n + 1)
            for a in range(abs(k) - n, n - abs(k) + 1)
            for b in range(abs(k) + abs(a) - n, n - abs(k) - abs(a) + 1)]


def test_word_ball_matches_reference():
    for n in range(31):
        ball = word_ball(n)
        expected = _word_ball_reference(n)
        assert ball.dtype == np.int64 and ball.flags.c_contiguous
        assert ball.shape == (len(expected), 3)
        assert list(map(tuple, ball.tolist())) == expected


def test_word_ball_cap():
    # radius 90 is the largest ball under MAX_BALL_ROWS
    assert len(word_ball(90)) == 988441 <= MAX_BALL_ROWS


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"np.{name} used before the cap was checked")


@pytest.mark.parametrize("n", [91, 100000, 10 ** 12])
def test_word_ball_over_the_cap_raises_before_allocating(n, monkeypatch):
    monkeypatch.setattr(kleinian, "np", _NoNumpy())
    with pytest.raises(ValueError, match="ball rows"):
        word_ball(n)


def _expected_limit_families(spec, n):
    """Oracle: each element's power limit from the affine fixed point.

    For word (k, n, m) with translation (u, v) in conjugated coordinates,
    positive k contracts onto z1 = u / (1 - lam^k), negative k onto
    z2 = v / (1 - lam^-k); pure translations accumulate on the line at
    infinity.
    """
    pencil1, pencil2 = [], []
    infinity = 0
    for (k, a, b) in word_ball(n).tolist():
        if (k, a, b) == (0, 0, 0):
            continue
        u, v = spec.P_inv @ np.array([a, b], dtype=float)
        if k > 0:
            pencil1.append(u / (1 - spec.lam ** k))
        elif k < 0:
            pencil2.append(v / (1 - spec.lam ** (-k)))
        else:
            infinity += 1

    def dedupe(values, eps=1e-9):
        out = []
        for v in sorted(values):
            if not out or v - out[-1] > eps * max(1.0, abs(v)):
                out.append(v)
        return out

    return dedupe(pencil1), dedupe(pencil2), infinity


def _match_sets(got, expected, tol=1e-6):
    got = sorted(got)
    expected = sorted(expected)
    assert len(got) == len(expected)
    assert all(abs(a - b) <= tol * max(1.0, abs(b))
               for a, b in zip(got, expected))


def test_limit_kernels_match_fixed_point_oracle():
    for spec in (SPEC, SPEC_B):
        n = 5
        res = pseudo_limit_kernels(spec, n)
        assert res.nonconverged == []
        assert res.points == []
        got1, got2 = [], []
        weight1 = weight2 = weight_inf = 0
        for ll in res.lines:
            family, r = classify_limit_line(ll.line)
            assert family in ("pencil1", "pencil2", "infinity")
            if family == "pencil1":
                got1.append(r)
                weight1 += ll.weight
            elif family == "pencil2":
                got2.append(r)
                weight2 += ll.weight
            else:
                weight_inf += ll.weight
        exp1, exp2, exp_inf = _expected_limit_families(spec, n)
        _match_sets(got1, exp1)
        _match_sets(got2, exp2)
        ball_size = len(word_ball(n))
        assert weight_inf == exp_inf
        assert weight1 + weight2 + weight_inf == ball_size - 1


PARTITION_MATRICES = ([[2, 1], [1, 1]], [[3, 2], [1, 1]], [[5, 4], [1, 1]], [[7, 4], [5, 3]])


def _qsqrtd_limit_kernels(spec, rows):
    """(dual bytes, weight, family) of each kernel line of the words in rows,
    merged by an exact key in Q(sqrt D), D = tr^2 - 4, in first-word order.

    The parameter is a fixed multiple, per pencil, of (c x + (ev - a) y) /
    (lam^|k| - 1), ev = lam or 1/lam by the sign of k; doubled, that is
    (alpha + beta sqrt D) / (gamma + delta sqrt D) = (p + q sqrt D) / r, with
    lam^k = (X + Y sqrt D) / 2.  The dual of each line is built from its
    first word by the library's float formula.
    """
    (a, _), (c, d) = spec.A
    t = a + d
    D = t * t - 4
    top = max((abs(k) for k, _, _ in rows), default=0)
    powers = [(2, 0)]
    for _ in range(top):
        X, Y = powers[-1]
        powers.append(((t * X + D * Y) // 2, (X + t * Y) // 2))
    index, out = {}, []
    for (k, x, y) in rows:
        if k == 0:
            if x == 0 and y == 0:
                continue
            key = (0,)
        else:
            alpha = 2 * c * x + (t - 2 * a) * y
            beta = y if k > 0 else -y
            X, Y = powers[abs(k)]
            gamma, delta = X - 2, Y
            p = alpha * gamma - beta * delta * D
            q = beta * gamma - alpha * delta
            r = gamma * gamma - D * delta * delta
            g = math.gcd(p, q, r) if r > 0 else -math.gcd(p, q, r)
            key = (1 if k > 0 else -1, p // g, q // g, r // g)
        if key in index:
            out[index[key]][1] += 1
            continue
        index[key] = len(out)
        u, v = spec.P_inv @ np.array([x, y], dtype=float)
        line = ProjectiveLine([1.0, 0.0, u / (spec.lam ** k - 1.0)] if k > 0 else
                              [0.0, 1.0, v / (spec.lam ** -k - 1.0)] if k < 0 else
                              [0.0, 0.0, 1.0])
        out.append([line.dual.tobytes(), 1,
                    "pencil1" if k > 0 else "pencil2" if k < 0 else "infinity"])
    return [tuple(o) for o in out]


@pytest.mark.parametrize("n", [4, 8, 12, 16, 20])
@pytest.mark.parametrize("A", PARTITION_MATRICES)
def test_fixed_point_keys_match_the_qsqrtd_keys(A, n, monkeypatch):
    # the same lines, first-word order, weights, families and dual bytes, on
    # the sorted ball and on the ball reversed, whose first words differ
    spec = ToralGroupSpec.from_matrix(A)
    rows = _word_ball_reference(n)
    for order in (rows, rows[::-1]):
        monkeypatch.setattr(kleinian, "word_ball",
                            lambda n, order=order: np.array(order, dtype=np.int64))
        got = [(l.line.dual.tobytes(), l.weight, l.family)
               for l in pseudo_limit_kernels(spec, n).lines]
        assert got == _qsqrtd_limit_kernels(spec, order)


def _int_powers(A, n):
    """A^k for |k| <= n as integer 2 x 2 lists, by repeated products."""
    (a, b), (c, d) = A
    out = {0: [[1, 0], [0, 1]]}
    for step, M in ((1, [[a, b], [c, d]]), (-1, [[d, -b], [-c, a]])):
        P = out[0]
        for k in range(1, n + 1):
            P = [[P[0][0] * M[0][0] + P[0][1] * M[1][0], P[0][0] * M[0][1] + P[0][1] * M[1][1]],
                 [P[1][0] * M[0][0] + P[1][1] * M[1][0], P[1][0] * M[0][1] + P[1][1] * M[1][1]]]
            out[step * k] = P
    return out


def _largest_key_term(A, n):
    """Largest |f y - h x|, |g x - e y| or |det| of the fixed-point keys
    (f y - h x, g x - e y) / det of the radius-n ball, [[e, f], [g, h]] =
    A^k - I, before the gcd reduction, in Python ints."""
    powers = _int_powers(A, n)
    largest = 0
    for (k, x, y) in _word_ball_reference(n):
        if k == 0:
            continue
        (e, f), (g, h) = powers[k]
        e, h = e - 1, h - 1
        largest = max(largest, abs(f * y - h * x), abs(g * x - e * y), abs(e * h - f * g))
    return largest


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("A", PARTITION_MATRICES)
def test_pencil_weights_match_the_periodic_point_count(A, n):
    # the words with fixed point x* and sign s are (k, (I - A^k) x*) for the k
    # of sign s with A^k x* = x* mod Z^2, so a pencil line's weight counts the
    # k with |k| + |(I - A^k) x*|_1 <= n
    spec = ToralGroupSpec.from_matrix(A)
    powers = _int_powers(A, n)
    fixed = {}
    for (k, x, y) in _word_ball_reference(n):
        if k != 0:
            (e, f), (g, h) = powers[k]
            det = (e - 1) * (h - 1) - f * g
            star = (Fraction(f * y - (h - 1) * x, det), Fraction(g * x - (e - 1) * y, det))
            fixed.setdefault((1 if k > 0 else -1, star), None)
    pencils = [l for l in pseudo_limit_kernels(spec, n).lines if l.family != "infinity"]
    assert len(pencils) == len(fixed)
    for line, (sign, (p, q)) in zip(pencils, fixed):
        assert line.family == ("pencil1" if sign > 0 else "pencil2")
        param = (spec.P_inv @ np.array([float(p), float(q)]))[0 if sign > 0 else 1]
        assert abs(line.parameter - param) <= 1e-9 * max(1.0, abs(param))
        # x* = (p, q) / r over a common denominator, so (I - A^k) x* = (bp, bq) / r
        r = p.denominator * q.denominator // math.gcd(p.denominator, q.denominator)
        p, q = int(p * r), int(q * r)
        weight = 0
        for k in range(sign, sign * (n + 1), sign):
            (e, f), (g, h) = powers[k]
            bp, bq = p - e * p - f * q, q - g * p - h * q
            if bp % r == 0 and bq % r == 0 and abs(k) * r + abs(bp) + abs(bq) <= n * r:
                weight += 1
        assert line.weight == weight


def test_limit_kernels_read_the_ball_as_python_ints(monkeypatch):
    # at N = 40 the exact keys of [[3, 2], [1, 1]] pass 2^63, so an int64 word
    # in the key arithmetic would wrap or raise
    A = [[3, 2], [1, 1]]
    assert _largest_key_term(A, 40) > 2 ** 63
    spec = ToralGroupSpec.from_matrix(A)
    hits = intersecting_elements(spec, TEST_BOX, 40)
    assert all(type(x) is int for g in hits for x in g)
    shipped = pseudo_limit_kernels(spec, 40)
    monkeypatch.setattr(kleinian, "word_ball",
                        lambda n: np.array(_word_ball_reference(n), dtype=np.int64))
    reference = pseudo_limit_kernels(spec, 40)
    assert len(shipped.lines) == len(reference.lines)
    for got, want in zip(shipped.lines, reference.lines):
        assert got.line.dual.tobytes() == want.line.dual.tobytes()
        assert (got.weight, got.family) == (want.weight, want.family)


def test_limit_kernels_trivial_ball():
    res = pseudo_limit_kernels(SPEC, 0)
    assert res.lines == [] and res.points == [] and res.nonconverged == []


def _power_limit(M):
    """Accumulation matrix of the powers of M in pseudo-projective space.

    Normalized repeated squaring, at most 120 times, stopping once successive
    lifts agree within 1e-14; None unless they end within 1e-6.
    """
    L = PseudoProjectiveMap(M).matrix
    gap = math.inf
    for _ in range(120):
        L2 = PseudoProjectiveMap(L @ L).matrix
        gap = float(np.abs(L2 - L).max())
        L = L2
        if gap <= 1e-14:
            break
    return L if gap <= 1e-6 else None


def _power_limit_lines(spec, n):
    """Second route to the limit lines: the power limit of each conjugated
    word, its SVD kernel, and a linear-scan dedupe at sup-gap 1e-9, in ball
    order."""
    lines, weights = [], []
    for g in map(tuple, word_ball(n).tolist()):
        if g == (0, 0, 0):
            continue
        limit = _power_limit(toral_element(spec, *g))
        assert limit is not None, g
        ker = PseudoProjectiveMap(limit).kernel_projective()
        assert isinstance(ker, ProjectiveLine), g
        for i, known in enumerate(lines):
            if np.abs(known.dual - ker.dual).max() < 1e-9:
                weights[i] += 1
                break
        else:
            lines.append(ker)
            weights.append(1)
    return lines, weights


def test_limit_kernels_match_power_iteration():
    for spec in (SPEC, SPEC_B):
        res = pseudo_limit_kernels(spec, 5)
        lines, weights = _power_limit_lines(spec, 5)
        assert [ll.weight for ll in res.lines] == weights
        for ll, line in zip(res.lines, lines):
            assert np.abs(ll.line.dual - line.dual).max() < 1e-9


def _decimal_limit_lines(A, n):
    """Limit lines by 60-digit arithmetic: {family: [(parameter, weight)]}.

    Rebuilds the conjugating eigenbasis of ToralGroupSpec in decimal
    (columns (b, ev - a), which needs b != 0, scaled to sup norm one with the
    leading entry positive), evaluates -u / (lam^k - 1) and -v / (lam^-k - 1)
    for every word, and merges sorted parameters closer than 1e-40.
    """
    (a, b), (c, d) = A
    with localcontext() as ctx:
        ctx.prec = 60
        root = Decimal((a + d) ** 2 - 4).sqrt()
        lam = (a + d + root) / 2

        def eigvec(ev):
            v = [Decimal(b), ev - a]
            top = max(abs(v[0]), abs(v[1]))
            v = [x / top for x in v]
            return v if (v[0] if v[0] != 0 else v[1]) > 0 else [-x for x in v]

        (p0, p1), (q0, q1) = eigvec(lam), eigvec(1 / lam)
        det = p0 * q1 - q0 * p1
        params = {"pencil1": [], "pencil2": []}
        infinity = 0
        for k, x, y in itertools.product(range(-n, n + 1), repeat=3):
            if abs(k) + abs(x) + abs(y) > n or (k, x, y) == (0, 0, 0):
                continue
            if k == 0:
                infinity += 1
            elif k > 0:
                u = (q1 * x - q0 * y) / det
                params["pencil1"].append(-u / (lam ** k - 1))
            else:
                v = (p0 * y - p1 * x) / det
                params["pencil2"].append(-v / (lam ** -k - 1))
        out = {"infinity": [(None, infinity)]}
        for family, values in params.items():
            clusters = []
            for r in sorted(values):
                if clusters and r - clusters[-1][0] < Decimal("1e-40"):
                    clusters[-1][1] += 1
                else:
                    clusters.append([r, 1])
            out[family] = [(float(r), w) for r, w in clusters]
        return out


@pytest.mark.parametrize("n,totals", [(8, (627, 627)), (12, (2147, 2187)),
                                      (16, (5099, 5235))])
def test_limit_line_counts_are_exact(n, totals):
    got_totals = []
    for A, spec in (([[2, 1], [1, 1]], SPEC), ([[3, 2], [1, 1]], SPEC_B)):
        exact = _decimal_limit_lines(A, n)
        res = pseudo_limit_kernels(spec, n)
        got = {"infinity": [], "pencil1": [], "pencil2": []}
        for ll in res.lines:
            family, r = classify_limit_line(ll.line)
            assert (family, r) == (ll.family, ll.parameter)
            got[ll.family].append((ll.parameter, ll.weight))
        assert got["infinity"] == exact["infinity"]
        for family in ("pencil1", "pencil2"):
            lib = sorted(got[family])
            assert len(lib) == len(exact[family])
            for (r, w), (r_exact, w_exact) in zip(lib, exact[family]):
                assert w == w_exact
                assert abs(r - r_exact) <= 1e-12 * max(1.0, abs(r_exact))
        got_totals.append(len(res.lines))
    assert tuple(got_totals) == totals


def test_classify_reference_lines():
    expected = [("infinity", None), ("pencil1", 0.0), ("pencil1", 1.0),
                ("pencil2", 0.0), ("pencil2", 1.0)]
    got = [classify_limit_line(l) for l in reference_limit_lines()]
    for (fam_g, r_g), (fam_e, r_e) in zip(got, expected):
        assert fam_g == fam_e
        if r_e is None:
            assert r_g is None
        else:
            assert abs(r_g - r_e) < 1e-12
    assert classify_limit_line(ProjectiveLine([1, 1, 1]))[0] == "unclassified"


def test_pencil_concurrency_structure():
    # the line at infinity passes through both pencil base points, so it is
    # concurrent with any two members of one pencil; hence no five of the
    # limit lines avoid a triple intersection
    linf, p1a, p1b, p2a, p2b = reference_limit_lines()
    assert lines_concurrent(linf, p1a, p1b)
    assert lines_concurrent(linf, p2a, p2b)
    assert not lines_concurrent(p1a, p1b, p2a)
    assert not lines_concurrent(linf, p1a, p2a)


def test_general_position_of_reference_lines():
    res = general_position_max(reference_limit_lines())
    assert isinstance(res, GeneralPositionResult)
    assert res.size == 4
    assert res.exhaustive
    lines = reference_limit_lines()
    for i, j, k in itertools.combinations(res.witness, 3):
        assert not lines_concurrent(lines[i], lines[j], lines[k])


def test_general_position_on_computed_limit_set():
    res = pseudo_limit_kernels(SPEC, 6)
    lines = [ll.line for ll in res.lines]
    assert len(lines) > 20
    gp = general_position_max(lines)
    assert gp.size == 4
    assert not gp.exhaustive


def test_general_position_empty_and_small():
    assert general_position_max([]).size == 0
    two = [ProjectiveLine([1, 0, 0]), ProjectiveLine([0, 1, 0])]
    res = general_position_max(two)
    assert res.size == 2 and res.exhaustive


@pytest.mark.parametrize("n", [0, 1, 2, 8, 12, 16, 24])
@pytest.mark.parametrize("A", [[[2, 1], [1, 1]], [[3, 2], [1, 1]],
                               [[5, 4], [1, 1]], [[3, 2], [4, 3]]])
def test_limit_general_position_by_the_two_pencil_rule(A, n):
    res = pseudo_limit_kernels(ToralGroupSpec.from_matrix(A), n)
    gp = limit_general_position(res)
    assert gp.size == len(gp.witness) == {0: 0, 1: 3}.get(n, 4)
    assert gp.exhaustive
    families = [res.lines[i].family for i in gp.witness]
    assert ("infinity" in families) == (n == 1)
    for family in ("pencil1", "pencil2"):
        r = [ll.parameter for ll in res.lines if ll.family == family]
        ends = [res.lines[i].parameter for i in gp.witness if res.lines[i].family == family]
        assert sorted(ends) == ([min(r), max(r)] if n > 1 else r)
    witness = [res.lines[i].line for i in gp.witness]
    for triple in itertools.combinations(witness, 3):
        assert not lines_concurrent(*triple)
    assert general_position_max(witness).size == gp.size
    if n <= 12 and A in ([[2, 1], [1, 1]], [[3, 2], [1, 1]]):
        assert general_position_max([ll.line for ll in res.lines]).size == gp.size


def test_limit_general_position_breaks_parameter_ties_by_index():
    # a tie goes to the first line for the least parameter and to the last
    # for the greatest
    lines = [LimitLine(ProjectiveLine([1, 0, -r]), 1, "pencil1") for r in (1, 0, 2, 0, 2)]
    lines += [LimitLine(ProjectiveLine([0, 1, -r]), 1, "pencil2") for r in (5, 5)]
    assert limit_general_position(LimitKernelResult(lines, [], [])).witness == (1, 4, 5, 6)


def _dedupe_reference(lines):
    """Scalar form of the general-position dedupe: keep a line iff its sup-gap
    to every kept line is at least 1e-9, in input order.  Python complex
    numbers take the same hypot modulus as numpy, at a fraction of the cost
    per pair."""
    kept, duals = [], []
    for l in lines:
        a, b, c = l.dual.tolist()
        if all(max(abs(a - p), abs(b - q), abs(c - r)) >= 1e-9 for p, q, r in duals):
            kept.append(l)
            duals.append((a, b, c))
    return kept


def _general_position_reference(lines, tol=1e-8):
    """Scalar form of general_position_max: one determinant per triple, and a
    greedy scan that takes each compatible line in index order.  Each
    triple's determinant is taken once per call, on its rows in index
    order, and looked up after that."""
    ls = _dedupe_reference(lines)
    nl = len(ls)
    if nl == 0:
        return GeneralPositionResult(0, (), True)
    duals = np.array([l.dual for l in ls])
    concurrent = {}

    def compatible(idx, chosen):
        for a, b in itertools.combinations(chosen, 2):
            t = tuple(sorted((a, b, idx)))
            if t not in concurrent:
                concurrent[t] = abs(np.linalg.det(duals[list(t)])) <= tol
            if concurrent[t]:
                return False
        return True

    if nl <= 20:
        best = ()

        def extend(chosen, start):
            nonlocal best
            if len(chosen) > len(best):
                best = chosen
            if len(chosen) + (nl - start) <= len(best):
                return
            for i in range(start, nl):
                if compatible(i, chosen):
                    extend(chosen + (i,), i + 1)

        extend((), 0)
        return GeneralPositionResult(len(best), best, True)
    chosen = ()
    for i in range(nl):
        if compatible(i, chosen):
            chosen = chosen + (i,)
    return GeneralPositionResult(len(chosen), chosen, False)


@pytest.mark.parametrize("n", [6, 8, 12])
def test_general_position_matches_scalar_reference(n):
    for spec in (SPEC, SPEC_B):
        lines = [ll.line for ll in pseudo_limit_kernels(spec, n).lines]
        assert general_position_max(lines) == _general_position_reference(lines)


_grid = st.integers(-9, 9)


@st.composite
def _grid_duals(draw, min_through, max_through):
    """Distinct duals (1, z2, z3) on a dyadic grid, which normalization leaves
    as drawn.  Most lines pass through one of a few centres, so concurrent
    triples abound; grid determinants are zero or far above the concurrency
    tolerance."""
    centres = draw(st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
                            min_size=1, max_size=3, unique=True))
    through = draw(st.lists(st.tuples(st.sampled_from(centres), _grid, _grid),
                            min_size=min_through, max_size=max_through))
    free = draw(st.lists(st.tuples(_grid, _grid, _grid, _grid), max_size=3))
    duals = [(1, complex(a, b) / 16, -(x + complex(a, b) / 16 * y) / 4)
             for (x, y), a, b in through]
    duals += [(1, complex(a, b) / 16, complex(c, e) / 16) for a, b, c, e in free]
    return list(dict.fromkeys(duals))


@st.composite
def _planted_lines(draw):
    """Grid lines (_grid_duals) and near-duplicates of some of them: z2 or z3
    moved by 5e-10, which must merge, or by 2e-9, which must stay, in the
    real or imaginary direction, up or down.  A grid line with |z3| <= 1
    keeps its drawn coordinates, so its dedupe key (_index_cell) is a
    multiple of 1/64, a whole number of the 2^-25 wide cells: it sits on a
    cell boundary, and the moves down and up plant pairs on both sides."""
    duals = draw(_grid_duals(21, 40))
    picks = draw(st.lists(st.tuples(st.integers(0, len(duals) - 1),
                                    st.sampled_from([5e-10, 2e-9]),
                                    st.sampled_from([1, 2]),
                                    st.sampled_from([1, -1, 1j, -1j])),
                          max_size=10, unique_by=lambda t: t[0]))
    near = []
    for i, gap, j, direction in picks:
        d = list(duals[i])
        d[j] += gap * direction
        near.append(tuple(d))
    return duals, near, sum(1 for _, gap, _, _ in picks if gap > 1e-9)


@given(planted=_planted_lines(), order=st.randoms(use_true_random=False))
def test_general_position_matches_scalar_reference_on_planted_lines(planted, order):
    duals, near, staying = planted
    lines = [ProjectiveLine(d) for d in duals + near]
    assert len(dedupe(lines)) == len(duals) + staying
    order.shuffle(lines)
    kept = dedupe(lines)
    assert [id(l) for l in kept] == [id(l) for l in _dedupe_reference(lines)]
    res = general_position_max(lines)
    assert res == _general_position_reference(lines)
    for i, j, k in itertools.combinations(res.witness, 3):
        assert not lines_concurrent(kept[i], kept[j], kept[k])


@given(duals=_grid_duals(6, 7))
def test_general_position_is_the_first_largest_subset(duals):
    # a route that shares nothing with the search: every subset, largest
    # first, in combinations order, each triple by its LU determinant; the
    # search must return the size and, as witness, the first such subset
    lines = [ProjectiveLine(d) for d in duals]
    n = len(lines)
    concurrent = {t for t in itertools.combinations(range(n), 3)
                  if lines_concurrent(*(lines[i] for i in t))}
    first = next(s for r in range(n, -1, -1) for s in itertools.combinations(range(n), r)
                 if concurrent.isdisjoint(itertools.combinations(s, 3)))
    assert general_position_max(lines) == GeneralPositionResult(len(first), first, True)


def _index_cell(line):
    """The dedupe's index cell of a line, by scalar arithmetic: the key
    sum_j (j + 1) Re d_j + (j + 4) Im d_j in cells 2^-25 wide."""
    a, b, c = line.dual.tolist()
    key = a.real + 2 * b.real + 3 * c.real + 4 * a.imag + 5 * b.imag + 6 * c.imag
    return math.floor(key * 2 ** 25)


def test_dedupe_compares_lines_across_index_cells():
    """Centres on a cell boundary (each key is dyadic) and 1.5e-9 to either
    side of it, each with near-duplicates whose z2 and z3 move diagonally by
    0.9e-9 (merge) or 1.1e-9 (stay) to either side: the key shifts by up to
    1.4e-8, into the next cell, and neighbouring centres chain the merges,
    so the kept set depends on order."""
    groups = []
    for base in ([1, 0, 0], [1, 0.25, -0.5j], [1, 1 / 16 + 3j / 16, 0.5]):
        group = []
        for t in (-1.5e-9, 0.0, 1.5e-9):
            centre = np.array(base, dtype=complex) + [0, 0, t]
            group.append(ProjectiveLine(centre))
            for gap in (0.9e-9, 1.1e-9):
                for sign in (1, -1):
                    step = sign * gap * (1 + 1j) / math.sqrt(2)
                    group.append(ProjectiveLine(centre + [0, step, step]))
        assert len({_index_cell(l) for l in group}) >= 2
        groups.append(group)
    lines = [l for g in groups for l in g]
    orders = [lines, lines[::-1]]
    for seed in range(20):
        shuffled = list(lines)
        random.Random(seed).shuffle(shuffled)
        orders.append(shuffled)
    for order in orders:
        kept = dedupe(order)
        assert [id(l) for l in kept] == [id(l) for l in _dedupe_reference(order)]
        assert len(kept) < len(lines)


def test_dedupe_separates_mirrored_pencil_lines():
    """[1, 0, c] and [0, 1, c] have the same plain coordinate sum, and for a
    symmetric A such as [[2, 1], [1, 1]] every limit line has such a twin.
    The weighted key puts the twins in different cells, here with
    near-duplicates of each at sup-gap 5e-10 (merge) and 2e-9 (stay), and on
    the N = 8 limit lines; the kept lines must be those of the all-pairs
    scan in every order."""
    lines = []
    for c in (0.0, 0.25, -0.5, 1 / 3, 0.7, -0.9, 1.0):
        for base in ([1, 0, c], [0, 1, c]):
            base = np.array(base, dtype=complex)
            lines.append(ProjectiveLine(base))
            for gap in (5e-10, 2e-9):
                for step in (gap, -gap, 1j * gap):
                    lines.append(ProjectiveLine(base + [0, 0, step]))
    bases = lines[::7]
    for one, two in zip(bases[::2], bases[1::2]):
        assert _index_cell(one) != _index_cell(two)
    assert len(dedupe(lines)) == 2 * 7 * 4
    orders = [lines, lines[::-1]]
    for seed in range(10):
        shuffled = list(lines)
        random.Random(seed).shuffle(shuffled)
        orders.append(shuffled)
    for order in orders:
        assert [id(l) for l in dedupe(order)] == [id(l) for l in _dedupe_reference(order)]
    limit = [ll.line for ll in pseudo_limit_kernels(SPEC, 8).lines]
    assert [id(l) for l in dedupe(limit)] == [id(l) for l in _dedupe_reference(limit)]


@pytest.mark.parametrize("spec, kept, result", [
    (SPEC, 5015, GeneralPositionResult(4, (0, 1, 2508, 2509), False)),
    (SPEC_B, 5007, GeneralPositionResult(2, (0, 1), False))])
def test_general_position_on_the_radius_16_lines(spec, kept, result):
    # the kept counts and results of the all-pairs dedupe before the index;
    # the float search falls short of the exact 4 on SPEC_B
    lines = [ll.line for ll in pseudo_limit_kernels(spec, 16).lines]
    assert len(dedupe(lines)) == kept
    assert general_position_max(lines) == result


def test_membership_quadrants():
    for s1 in (1, -1):
        for s2 in (1, -1):
            p = ProjectivePoint([complex(0.3, s1 * 0.8), complex(-0.2, s2 * 1.4), 1.0])
            res = kulkarni_membership(p)
            assert res.in_domain
            assert res.signs == (s1, s2)
    # imaginary parts far below any tolerance still decide the quadrant
    for coords, signs in (([0.5 + 1e-300j, -2 + 1e-300j, 1], (1, 1)),
                          ([0.5 - 1e-300j, 2 - 3e-300j, 1], (-1, -1))):
        res = kulkarni_membership(ProjectivePoint(coords))
        assert res.in_domain and res.signs == signs
    for coords, reason in (([1, 1j, 0], "on the line at infinity"),
                           ([1.0, 1j, 1.0], "first coordinate real"),
                           ([1j, 2.0, 1.0], "second coordinate real")):
        res = kulkarni_membership(ProjectivePoint(coords))
        assert not res.in_domain and res.signs is None
        assert res.reason == reason


def test_membership_invariant_under_group(rng):
    for _ in range(50):
        k, n, m = (int(v) for v in rng.integers(-2, 3, size=3))
        p = ProjectivePoint([complex(rng.uniform(-1, 1), rng.uniform(0.2, 2)),
                             complex(rng.uniform(-1, 1), -rng.uniform(0.2, 2)), 1.0])
        M = toral_element(SPEC, k, n, m)
        moved = projective_act(M, p)
        before = kulkarni_membership(p)
        after = kulkarni_membership(moved)
        assert after.in_domain
        assert after.signs == before.signs


def test_box_validation():
    with pytest.raises(ValueError):
        intersecting_elements(SPEC, ((1.0, 0.0), (1.0, 2.0), (0.0, 1.0), (1.0, 2.0)), 2)
    with pytest.raises(ValueError):
        intersecting_elements(SPEC, ((0.0, 1.0), (0.0, 2.0), (0.0, 1.0), (1.0, 2.0)), 2)
    # the box is validated before the radius
    with pytest.raises(ValueError, match="ordered"):
        intersecting_elements(SPEC, ((1.0, 0.0), (1.0, 2.0), (0.0, 1.0), (1.0, 2.0)), -1)
    with pytest.raises(ValueError, match="heights"):
        intersecting_elements(SPEC, ((0.0, 1.0), (0.0, 2.0), (0.0, 1.0), (1.0, 2.0)), -1)
    with pytest.raises(ValueError, match="word bound"):
        intersecting_elements(SPEC, TEST_BOX, -1)


def test_intersecting_elements_contains_identity():
    hits = intersecting_elements(SPEC, TEST_BOX, 2)
    assert (0, 0, 0) in hits


def test_intersecting_elements_match_corner_oracle():
    for spec in (SPEC, SPEC_B):
        for n in (4, 8):
            lib = set(intersecting_elements(spec, TEST_BOX, n))
            oracle = {
                g for g in map(tuple, word_ball(n).tolist())
                if affine_box_hits_via_matrix(
                    toral_element(spec, *g), TEST_BOX)
            }
            assert lib == oracle


def test_intersections_stabilize():
    small = set(intersecting_elements(SPEC, TEST_BOX, 6))
    large = set(intersecting_elements(SPEC, TEST_BOX, 12))
    assert small == large
    assert len(intersecting_elements(SPEC, TEST_BOX, 6)) == len(small)


def _intersecting_elements_reference(spec, box, n):
    """Second route to intersecting_elements: one element at a time, with the
    translation from a 2 x 2 matrix-vector product."""
    (x1, y1, x2, y2) = box
    pad = 1e-12
    hits = []
    for (k, a, b) in word_ball(n).tolist():
        s = spec.lam ** k
        u, v = spec.P_inv @ np.array([a, b], dtype=float)
        if s * y1[0] > y1[1] + pad or s * y1[1] < y1[0] - pad:
            continue
        if y2[0] / s > y2[1] + pad or y2[1] / s < y2[0] - pad:
            continue
        if s * x1[0] + u > x1[1] + pad or s * x1[1] + u < x1[0] - pad:
            continue
        if x2[0] / s + v > x2[1] + pad or x2[1] / s + v < x2[0] - pad:
            continue
        hits.append((k, a, b))
    return hits


def _lattice_pool():
    """The 108 determinant-one matrices with entries in [-6, 6],
    2 < trace <= 20 and nonzero off-diagonal entries."""
    return [((a, b), (c, d)) for a, b, c, d in itertools.product(range(-6, 7), repeat=4)
            if a * d - b * c == 1 and 2 < a + d <= 20 and b and c]


def _seeded_box(seed):
    """A box with heights bounded away from zero, drawn like a lattice op's."""
    rng = random.Random(f"box:{seed}")
    box = []
    for _ in range(2):
        x0 = rng.uniform(-2.0, 2.0)
        box.append((x0, x0 + rng.uniform(0.2, 2.0)))
        y0 = rng.uniform(0.5, 2.0)
        box.append((y0, y0 * rng.uniform(1.2, 4.0)))
    return tuple(box)


def test_intersecting_elements_match_reference_on_the_lattice_pool():
    pool = _lattice_pool()
    assert len(pool) == 108
    hits = 0
    for i, A in enumerate(pool):
        spec = ToralGroupSpec.from_matrix(A)
        box = _seeded_box(i)
        got = intersecting_elements(spec, box, 12)
        assert got == _intersecting_elements_reference(spec, box, 12)
        assert all(type(x) is int for g in got for x in g)
        hits += len(got)
    assert hits > len(pool)


@pytest.mark.parametrize("spec", [SPEC, SPEC_B], ids=["2111", "3211"])
@pytest.mark.parametrize("n", [4, 8])
def test_intersecting_elements_match_reference_on_the_test_box(spec, n):
    assert intersecting_elements(spec, TEST_BOX, n) == \
        _intersecting_elements_reference(spec, TEST_BOX, n)


_PLANT_SPECS = [SPEC, SPEC_B, ToralGroupSpec.from_matrix([[5, 4], [1, 1]]),
                ToralGroupSpec.from_matrix([[3, 2], [4, 3]])]


@pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
@pytest.mark.parametrize("edge", range(8))
@given(which=st.integers(0, len(_PLANT_SPECS) - 1),
       k=st.integers(-2, 2), a=st.integers(-1, 1), b=st.integers(-1, 1),
       centres=st.tuples(st.floats(-2.0, 2.0), st.floats(0.5, 2.0),
                         st.floats(-2.0, 2.0), st.floats(0.5, 2.0)),
       widths=st.tuples(*[st.floats(0.0, 1.0)] * 4))
def test_intersecting_elements_on_planted_edges(edge, side, which, k, a, b,
                                                centres, widths):
    """Each interval holds a point c and its image under g = (k, a, b), so g
    passes every test but one: one box edge sits at g's padded image plus or
    minus 1e-13, and decides by its side whether g is a hit."""
    spec = _PLANT_SPECS[which]
    # a height edge set from the other needs s above one (edges 0, 3) or below
    if edge < 4:
        k = (1 if edge in (0, 3) else -1) * max(abs(k), 1)
    g = (k, a, b)
    s = spec.lam ** k
    u, v = spec.P_inv @ np.array([a, b], dtype=float)
    maps = (lambda x: s * x + u, lambda y: s * y, lambda x: x / s + v, lambda y: y / s)
    box = []
    for f, c, w, height in zip(maps, centres, widths, (False, True, False, True)):
        lo, hi = sorted((c, f(c)))
        box.append([lo / (1 + w), hi * (1 + w)] if height else [lo - w, hi + w])
    pad, delta = 1e-12, side * 1e-13
    # edges 2i and 2i + 1 test y1, y2, x1, x2 in turn; an even edge compares
    # the image's low end with the box's high end, an odd one the high end
    # with the low end, and the set edge puts that comparison delta from
    # equality
    i = (1, 3, 0, 2)[edge // 2]
    if edge % 2 == 0:
        box[i][1] = maps[i](box[i][0]) - pad + delta
    else:
        box[i][0] = maps[i](box[i][1]) + pad + delta
    x1, y1, x2, y2 = box
    assume(x1[0] <= x1[1] and x2[0] <= x2[1])
    misses = [s * y1[0] > y1[1] + pad, s * y1[1] < y1[0] - pad,
              y2[0] / s > y2[1] + pad, y2[1] / s < y2[0] - pad,
              s * x1[0] + u > x1[1] + pad, s * x1[1] + u < x1[0] - pad,
              x2[0] / s + v > x2[1] + pad, x2[1] / s + v < x2[0] - pad]
    missed = delta < 0 if edge % 2 == 0 else delta > 0
    assert misses == [missed if j == edge else False for j in range(8)]
    box = tuple(map(tuple, box))
    got = intersecting_elements(spec, box, 4)
    assert got == _intersecting_elements_reference(spec, box, 4)
    assert (g in got) != missed


def test_lattice_embedding_is_homomorphism(rng):
    for _ in range(60):
        g = tuple(int(v) for v in rng.integers(-3, 4, size=3))
        h = tuple(int(v) for v in rng.integers(-3, 4, size=3))
        lhs = sol_lattice_embed(SPEC, *toral_compose(SPEC, g, h))
        rhs = sol_mul(sol_lattice_embed(SPEC, *g), sol_lattice_embed(SPEC, *h))
        assert abs(lhs.t - rhs.t) < 1e-12
        assert abs(lhs.x - rhs.x) < 1e-12
        assert abs(lhs.y - rhs.y) < 1e-12


def test_semidirect_relation_through_embedding():
    shift = sol_lattice_embed(SPEC, 1, 0, 0)
    A = np.array(SPEC.A)
    for (n, m) in ((1, 0), (0, 1), (2, -3), (-1, -1)):
        trans = sol_lattice_embed(SPEC, 0, n, m)
        conj = sol_mul(sol_mul(shift, trans), shift.inverse())
        n2, m2 = A @ np.array([n, m])
        target = sol_lattice_embed(SPEC, 0, int(n2), int(m2))
        assert abs(conj.t - target.t) < 1e-12
        assert abs(conj.x - target.x) < 1e-12
        assert abs(conj.y - target.y) < 1e-12


def test_action_routes_agree(rng):
    for _ in range(100):
        g = tuple(int(v) for v in rng.integers(-3, 4, size=3))
        z = ProductPoint.from_coords([rng.uniform(-2, 2), rng.uniform(0.3, 3),
                                      rng.uniform(-2, 2), rng.uniform(0.3, 3)])
        direct = toral_act(SPEC, g, z)
        through_sol = sol_act(STANDARD, sol_lattice_embed(SPEC, *g), z)
        assert np.abs(direct.coords() - through_sol.coords()).max() < 1e-10
        M = toral_element(SPEC, *g)
        img = projective_act(M, ProjectivePoint([z.z1.complex, z.z2.complex, 1.0]))
        w1 = img.coords[0] / img.coords[2]
        w2 = img.coords[1] / img.coords[2]
        assert abs(w1 - direct.z1.complex) < 1e-10
        assert abs(w2 - direct.z2.complex) < 1e-10


def test_toral_action_composes(rng):
    for _ in range(60):
        g = tuple(int(v) for v in rng.integers(-2, 3, size=3))
        h = tuple(int(v) for v in rng.integers(-2, 3, size=3))
        z = ProductPoint.from_coords([rng.uniform(-2, 2), rng.uniform(0.3, 3),
                                      rng.uniform(-2, 2), rng.uniform(0.3, 3)])
        staged = toral_act(SPEC, g, toral_act(SPEC, h, z))
        combined = toral_act(SPEC, toral_compose(SPEC, g, h), z)
        assert np.abs(staged.coords() - combined.coords()).max() < 1e-10


def _verify_conjugator(U, A, T):
    """Exact integer recheck U A = T U and |det U| = 1."""
    U = [[int(U[0][0]), int(U[0][1])], [int(U[1][0]), int(U[1][1])]]
    det = U[0][0] * U[1][1] - U[0][1] * U[1][0]
    assert det in (1, -1)
    UA = [[sum(U[i][k] * A[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    TU = [[sum(T[i][k] * U[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    assert UA == TU


def test_lattice_iso_self():
    A = [[2, 1], [1, 1]]
    res = lattice_iso_test(A, A)
    assert res.status == "found"
    target = A if res.target == "B" else [[1, -1], [-1, 2]]
    _verify_conjugator(res.conjugator, A, target)


def test_lattice_iso_inverse_pair():
    A = [[2, 1], [1, 1]]
    Ainv = [[1, -1], [-1, 2]]
    res = lattice_iso_test(A, Ainv)
    assert res.status == "found"
    target = Ainv if res.target == "B" else A
    _verify_conjugator(res.conjugator, A, target)


def test_lattice_iso_conjugate_pair():
    A = [[2, 1], [1, 1]]
    B = [[3, -1], [1, 0]]     # V A V^{-1} with V = [[1, 1], [0, 1]]
    res = lattice_iso_test(A, B)
    assert res.status == "found"
    Binv = [[0, 1], [-1, 3]]
    target = B if res.target == "B" else Binv
    _verify_conjugator(res.conjugator, A, target)


def test_lattice_iso_refutes_distinct_traces():
    res = lattice_iso_test([[2, 1], [1, 1]], [[3, 2], [1, 1]])
    assert res.status == "refuted"
    assert res.conjugator is None


def _mat_mul(X, Y):
    return tuple(tuple(sum(X[i][k] * Y[k][j] for k in range(2)) for j in range(2))
                 for i in range(2))


def _mat_inv(M):
    """Inverse of a determinant-one integer matrix."""
    (a, b), (c, d) = M
    return ((d, -b), (-c, a))


def _box_matrices(m):
    """Hyperbolic determinant-one matrices with entries in [-m, m], by trace."""
    by_trace = {}
    for a, b, c, d in itertools.product(range(-m, m + 1), repeat=4):
        if a * d - b * c == 1 and abs(a + d) > 2:
            by_trace.setdefault(a + d, []).append(((a, b), (c, d)))
    return by_trace


def _brute_force_conjugates(mats, m, bound):
    """For each A in mats, every U A U^{-1} with entries in [-m, m], over all
    U in GL(2, Z) with entries in [-bound, bound]: the enumeration oracle."""
    grid = np.arange(-bound, bound + 1)
    p, q, r, s = (g.ravel() for g in np.meshgrid(grid, grid, grid, grid, indexing="ij"))
    det = p * s - q * r
    keep = np.abs(det) == 1
    p, q, r, s, det = p[keep], q[keep], r[keep], s[keep], det[keep]
    out = {}
    for A in mats:
        (a, b), (c, d) = A
        # U A, then times U^{-1} = det U * [[s, -q], [-r, p]]
        e, f, g, h = p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d
        conj = det * np.stack([e * s - f * r, f * p - e * q, g * s - h * r, h * p - g * q])
        inside = np.abs(conj).max(axis=0) <= m
        out[A] = {((w, x), (y, z)) for w, x, y, z in conj[:, inside].T.tolist()}
    return out


def test_lattice_iso_decides_the_box_like_brute_force():
    by_trace = _box_matrices(6)
    mats = [A for ms in by_trace.values() for A in ms]
    conjugates = _brute_force_conjugates(mats, 6, 10)
    decided = found = 0
    for ms in by_trace.values():
        for A in ms:
            for B in ms:
                res = lattice_iso_test(A, B)
                expect = B in conjugates[A] or _mat_inv(B) in conjugates[A]
                assert res.status == ("found" if expect else "refuted"), (A, B)
                if expect:
                    _verify_conjugator(res.conjugator, A,
                                       B if res.target == "B" else _mat_inv(B))
                    found += 1
                decided += 1
    assert (decided, found) == (4512, 4000)


_LETTERS = {"R": ((1, 1), (0, 1)), "r": ((1, -1), (0, 1)),
            "L": ((1, 0), (1, 1)), "l": ((1, 0), (-1, 1)), "J": ((0, 1), (1, 0))}
_SMALL_HYPERBOLIC = [A for ms in _box_matrices(3).values() for A in ms]


@example(word="RRJ" * 8, A=((2, 1), (1, 1)), invert=False)   # U = [[985, 408], [408, 169]]
@given(word=st.text(alphabet="RrLlJ", max_size=14),
       A=st.sampled_from(_SMALL_HYPERBOLIC), invert=st.booleans())
def test_lattice_iso_finds_planted_conjugates(word, A, invert):
    U = ((1, 0), (0, 1))
    for x in word:
        U = _mat_mul(U, _LETTERS[x])
    T = _mat_inv(A) if invert else A
    # U^{-1} = det U * adj U, and det U = +-1
    det = U[0][0] * U[1][1] - U[0][1] * U[1][0]
    B = _mat_mul(_mat_mul(U, T), tuple(tuple(det * x for x in row) for row in _mat_inv(U)))
    res = lattice_iso_test(A, B)
    assert res.status == "found"
    _verify_conjugator(res.conjugator, A, B if res.target == "B" else _mat_inv(B))


def test_lattice_iso_refutes_same_trace_non_conjugates():
    res = lattice_iso_test([[5, 4], [1, 1]], [[3, 2], [4, 3]])
    assert res.status == "refuted"
    assert res.conjugator is None and res.target is None


def _rl_reduce_by_letters(M):
    """The positive-word reduction one letter at a time, with the least
    rotation found by comparing the rotated strings: the oracle of the
    run-length form, which takes each run in one division."""
    (a, b), (c, d) = M
    t = a + d
    V = ((1, 0), (0, 1))
    while True:
        k = ((t - 2 * a) * c + c * c) // (2 * c * c)
        a, b, d = a + k * c, b + k * (d - a) - k * k * c, d - k * c
        V = _mat_mul(((1, k), (0, 1)), V)
        if b > 0 and c > 0:
            break
        a, b, c, d = d, -c, -b, a
        V = _mat_mul(((0, -1), (1, 0)), V)
    word = ""
    while b or c:
        if a >= c and b >= d:
            word, a, b = word + "R", a - c, b - d
        else:
            word, c, d = word + "L", c - a, d - b
    i = min(range(len(word)), key=lambda j: word[j:] + word[:j])
    for x in word[:i]:
        V = _mat_mul(_LETTERS[x.lower()], V)
    return [list(r) for r in V], word[i:] + word[:i]


def _runs_to_word(runs):
    return "".join(("L" if i % 2 == 0 else "R") * q for i, q in enumerate(runs))


def test_rl_runs_match_the_letter_by_letter_reduction():
    box = [A for ms in _box_matrices(12).values() for A in ms if A[0][0] + A[1][1] > 2]
    periodic = []
    for w in ("RRL" * 5, "RL" * 6, "RRLL" * 3, "LRR" * 4, "LLRLLR", "RLRRLRRR",
              "RLLR" * 3, "LRRL" * 4):
        U = ((1, 0), (0, 1))
        for x in w:
            U = _mat_mul(U, _LETTERS[x])
        periodic.append(U)
    assert len(box) == 548
    for A in box + periodic:
        V, runs = kleinian._rl_reduce([list(r) for r in A])
        assert (V, _runs_to_word(runs)) == _rl_reduce_by_letters(A), A


def _planted(A, U):
    """U A U^-1 for U in GL(2, Z)."""
    det = U[0][0] * U[1][1] - U[0][1] * U[1][0]
    return _mat_mul(_mat_mul(U, A), tuple(tuple(det * x for x in r) for r in _mat_inv(U)))


def _power(M, k):
    out = ((1, 0), (0, 1))
    for _ in range(k):
        out = _mat_mul(out, M)
    return out


@pytest.mark.parametrize("k", [34, 40])
def test_lattice_iso_conjugator_is_exact_past_int64(k):
    # (RRL)^34 gives a conjugator entry in [2^63, 2^64), which an int64 or
    # float64 array cannot hold; (RRL)^40 gives entries above 2^64
    A = ((2, 1), (1, 1))
    B = _planted(A, _power(((3, 2), (1, 1)), k))
    res = lattice_iso_test(A, B)
    assert res.status == "found"
    assert max(abs(x) for row in res.conjugator.tolist() for x in row) >= 2 ** 63
    assert all(type(x) is int for row in res.conjugator.tolist() for x in row)
    _verify_conjugator(res.conjugator, A, B if res.target == "B" else _mat_inv(B))


def test_lattice_iso_decides_entries_past_1e18_quickly():
    A = ((10 ** 18, 1), (10 ** 18 - 1, 1))
    B = _planted(A, ((5, 3), (-2, -1)))
    t0 = time.perf_counter()
    res = lattice_iso_test(A, B)
    assert time.perf_counter() - t0 < 1.0
    assert res.status == "found"
    _verify_conjugator(res.conjugator, A, B if res.target == "B" else _mat_inv(B))
    big = ((10 ** 60, 1), (10 ** 60 - 1, 1))
    assert lattice_iso_test(big, _planted(big, _power(((1, 1), (1, 2)), 9))).status == "found"


def test_lattice_iso_refutes_a_same_trace_pair_under_large_conjugators():
    A = _planted(((5, 4), (1, 1)), _power(((3, 2), (1, 1)), 30))
    B = _planted(((3, 2), (4, 3)), _power(((2, 1), (1, 1)), 45))
    assert max(abs(x) for r in A + B for x in r) > 10 ** 30
    res = lattice_iso_test(A, B)
    assert res.status == "refuted"
    assert res.conjugator is None and res.target is None


def test_spec_rejects_a_matrix_too_large_for_float_eigendata():
    h = 10 ** 160
    a = 10 ** 310      # small trace, entries past the float range
    for A in ([[h, 1], [h - 1, 1]], [[a, -1], [a * a - 3 * a + 1, 3 - a]]):
        with pytest.raises(ValueError, match="too large"):
            ToralGroupSpec.from_matrix(A)


@pytest.mark.parametrize("bad", [[[1.5, 1], [1, 1]], [[2, 0], [0, 1]], [[2, 1], [1, 0]]])
def test_one_hyperbolicity_rule(bad):
    with pytest.raises(ValueError) as spec_error:
        ToralGroupSpec.from_matrix(bad)
    for pair in ((bad, [[2, 1], [1, 1]]), ([[2, 1], [1, 1]], bad)):
        with pytest.raises(ValueError) as iso_error:
            lattice_iso_test(*pair)
        assert str(iso_error.value) == str(spec_error.value)


def test_only_the_spec_rejects_negative_trace():
    neg = [[-2, -1], [-1, -1]]
    with pytest.raises(ValueError, match="trace above two"):
        ToralGroupSpec.from_matrix(neg)
    res = lattice_iso_test(neg, [[-1, -1], [-1, -2]])
    assert res.status == "found"
    _verify_conjugator(res.conjugator, neg, [[-1, -1], [-1, -2]])
    assert lattice_iso_test([[-5, -4], [-1, -1]], [[-3, -2], [-4, -3]]).status == "refuted"


def test_lattice_iso_rejects_invalid_input():
    with pytest.raises(ValueError):
        lattice_iso_test([[1, 1], [0, 1]], [[2, 1], [1, 1]])
    with pytest.raises(ValueError):
        lattice_iso_test([[2, 1], [1, 1]], [[2, 0], [0, 2]])


def test_fundamental_domain_properties(rng):
    lam = SPEC.lam
    for _ in range(200):
        z = ProductPoint.from_coords([rng.uniform(-4, 4), rng.uniform(0.05, 20),
                                      rng.uniform(-4, 4), rng.uniform(0.05, 20)])
        element, rep = fundamental_domain_reduce(SPEC, z)
        assert 1.0 - 1e-12 <= rep.z1.y < lam * (1 + 1e-12)
        frac = SPEC.P @ np.array([rep.z1.x, rep.z2.x])
        assert np.all(frac >= -1e-9) and np.all(frac < 1 + 1e-9)
        moved = toral_act(SPEC, element, z)
        assert np.abs(moved.coords() - rep.coords()).max() < 1e-10


def test_fundamental_domain_idempotent(rng):
    for _ in range(100):
        z = ProductPoint.from_coords([rng.uniform(-3, 3), rng.uniform(0.1, 10),
                                      rng.uniform(-3, 3), rng.uniform(0.1, 10)])
        _, rep = fundamental_domain_reduce(SPEC, z)
        element2, rep2 = fundamental_domain_reduce(SPEC, rep)
        assert element2 == (0, 0, 0)
        assert np.abs(rep2.coords() - rep.coords()).max() < 1e-12


def test_fundamental_domain_orbit_invariance(rng):
    for _ in range(100):
        z = ProductPoint.from_coords([rng.uniform(-2, 2), rng.uniform(0.3, 3),
                                      rng.uniform(-2, 2), rng.uniform(0.3, 3)])
        _, rep = fundamental_domain_reduce(SPEC, z)
        g = tuple(int(v) for v in rng.integers(-2, 3, size=3))
        _, rep_g = fundamental_domain_reduce(SPEC, toral_act(SPEC, g, z))
        assert np.abs(rep_g.coords() - rep.coords()).max() < 1e-8


def _toral_edge_points(spec):
    """Heights exactly lam^j and the 80 floats on each side, then points of
    the height band whose P w lands within an ulp of a lattice point or whose
    x1 is -0.0."""
    pts = [(-0.0, 1.0, x2, 2.0) for x2 in (-0.5, -0.25, -0.0, 0.0, 0.25, 0.5)]
    for j in range(-25, 26):
        near = (np.array(spec.lam ** j).view(np.int64) + np.arange(-80, 81)).view(np.float64)
        pts += [(0.3, y1, -0.7, 1.5) for y1 in near.tolist()]
    for n, m in itertools.product(range(-3, 4), repeat=2):
        w = spec.P_inv @ np.array([n, m], dtype=float)
        for x1 in (np.nextafter(w[0], -np.inf), w[0], np.nextafter(w[0], np.inf)):
            for x2 in (np.nextafter(w[1], -np.inf), w[1], np.nextafter(w[1], np.inf)):
                pts.append((float(x1), 1.0, float(x2), 2.0))
    return pts


@pytest.mark.parametrize("A", [[[2, 1], [1, 1]], [[3, 2], [1, 1]], [[5, 4], [1, 1]],
                               [[7, 4], [5, 3]], [[0, 1], [-1, 3]]])
def test_fundamental_domain_rows_equal_the_scalar_bit_for_bit(A):
    spec = ToralGroupSpec.from_matrix(A)
    rng = np.random.default_rng(5)
    X = np.array(_toral_edge_points(spec))
    X = np.vstack([X, np.column_stack([rng.uniform(-30, 30, 2000), np.exp(rng.uniform(-9, 9, 2000)),
                                       rng.uniform(-30, 30, 2000), np.exp(rng.uniform(-9, 9, 2000))])])
    # the array body, on every row at once, against the scalar body per row
    elements, reps = fundamental_domain_reduce(spec, ProductPoint.from_coords(X.T))
    for row, g, rep in zip(X, np.transpose(elements), reps.coords().T):
        want_g, want_rep = fundamental_domain_reduce(spec, ProductPoint.from_coords(row))
        assert tuple(g.tolist()) == want_g
        assert [v.hex() for v in rep.tolist()] == [v.hex() for v in want_rep.coords().tolist()]
    # the planted points straddle the floors: both sides of some lattice lines
    near = X[6 + 51 * 161:, [0, 2]] @ spec.P.T
    assert (np.floor(near) != np.round(near)).any() and (np.floor(near) == np.round(near)).any()

"""Hyperbolic toral groups acting on the complex projective plane.

A hyperbolic integer matrix A spawns the cyclic-by-lattice group of
projective maps (k, n, m) |-> [[A^k, (n, m)], [0, 1]].  Conjugating by the
eigenbasis diagonalizes the block, the affine chart splits into four
half-plane products, and accumulation of the group produces kernel lines
lying in two real pencils plus the line at infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import ProductPoint, UpperHalfPoint, _diag, _per_element
from .sol import SolElement, SolParams, phi


# ---------------------------------------------------------------------------
# projective primitives

def _normalize_homogeneous(v: np.ndarray) -> np.ndarray:
    """Scale the complex array v to sup-norm one with the first entry above
    1e-12 in modulus real positive.

    The moduli are read as Python floats, whose max costs less than np.max
    on three entries.  A Python max can pass over a NaN, so a NaN sum, which
    any NaN modulus makes, stands in for the max as np.max's NaN would: no
    entry of v / NaN is a pivot, and the pivot lookup raises ValueError.
    The pivot stays a NumPy scalar; a Python complex would round the
    rotation factor differently.
    """
    mods = np.abs(v).ravel().tolist()
    total = sum(mods)
    m = total if total != total else max(mods)
    if m == 0:
        raise ValueError("homogeneous data cannot be identically zero")
    v = v / m
    flat = v.ravel()
    pivot = flat[(np.abs(flat) > 1e-12).tolist().index(True)]
    return v * (pivot.conjugate() / abs(pivot))


def _normalize_rows(V: np.ndarray) -> np.ndarray:
    """_normalize_homogeneous on each row of the complex (L, 3) array V, bit for
    bit: the same ufuncs row-wise, with |pivot| by np.hypot, which matches the
    scalar abs where np.abs on an array can differ in the last bit."""
    m = np.abs(V).max(axis=1, keepdims=True)
    if not m.all():
        raise ValueError("homogeneous data cannot be identically zero")
    V = V / m
    p = V[np.arange(len(V)), (np.abs(V) > 1e-12).argmax(axis=1)][:, None]
    return V * (p.conjugate() / np.hypot(p.real, p.imag))


@dataclass(frozen=True)
class ProjectivePoint:
    """Point of P^2_C in normalized homogeneous coordinates."""

    coords: np.ndarray

    def __init__(self, coords: Sequence[complex]) -> None:
        c = np.asarray(coords, dtype=complex)
        if c.shape != (3,):
            raise ValueError("projective point needs 3 homogeneous coordinates")
        object.__setattr__(self, "coords", _normalize_homogeneous(c))


@dataclass(frozen=True)
class ProjectiveLine:
    """Line of P^2_C in normalized dual coordinates; z is on the line iff dual . z = 0."""

    dual: np.ndarray

    def __init__(self, dual: Sequence[complex]) -> None:
        d = np.asarray(dual, dtype=complex)
        if d.shape != (3,):
            raise ValueError("projective line needs 3 dual coordinates")
        object.__setattr__(self, "dual", _normalize_homogeneous(d))

    @classmethod
    def _normalized(cls, dual: np.ndarray) -> "ProjectiveLine":
        """Wrap a dual that is already normalized, without normalizing again."""
        line = object.__new__(cls)
        object.__setattr__(line, "dual", dual)
        return line


# ---------------------------------------------------------------------------
# hyperbolic toral groups

def _int_mat(M) -> List[List[int]]:
    A = [[int(M[i][j]) for j in range(2)] for i in range(2)]
    for i in range(2):
        for j in range(2):
            if A[i][j] != M[i][j]:
                raise ValueError("matrix entries must be integers")
    return A


def _validate_hyperbolic(M, positive: bool = False) -> List[List[int]]:
    """The one hyperbolicity rule: integer entries, determinant one and
    |trace| > 2.  positive also asks for trace > 2, which an eigenvalue above
    one needs; negate first a matrix whose trace is below minus two."""
    A = _int_mat(M)
    if A[0][0] * A[1][1] - A[0][1] * A[1][0] != 1:
        raise ValueError("matrix must have determinant one")
    tr = A[0][0] + A[1][1]
    if positive and tr <= 2:
        raise ValueError("matrix must be hyperbolic with trace above two")
    if abs(tr) <= 2:
        raise ValueError("matrix must be hyperbolic")
    return A


def _imul(X, Y):
    return [[X[0][0] * Y[0][0] + X[0][1] * Y[1][0], X[0][0] * Y[0][1] + X[0][1] * Y[1][1]],
            [X[1][0] * Y[0][0] + X[1][1] * Y[1][0], X[1][0] * Y[0][1] + X[1][1] * Y[1][1]]]


def _ipow(A, k: int):
    """Exact integer power of a determinant-one matrix, any sign of k."""
    if k < 0:
        A = [[A[1][1], -A[0][1]], [-A[1][0], A[0][0]]]
        k = -k
    R = [[1, 0], [0, 1]]
    while k:
        if k & 1:
            R = _imul(R, A)
        A = _imul(A, A)
        k >>= 1
    return R


@dataclass(frozen=True)
class ToralGroupSpec:
    """Hyperbolic A in SL(2, Z) together with its eigendata.

    lam is the eigenvalue above one; P holds normalized eigenvector columns,
    so A P = P diag(lam, 1/lam).  The translation lattice in conjugated
    coordinates is spanned by the columns of P^{-1}.
    """

    A: tuple
    lam: float
    P: np.ndarray
    P_inv: np.ndarray

    @classmethod
    def from_matrix(cls, A) -> "ToralGroupSpec":
        M = _validate_hyperbolic(A, positive=True)
        tr = M[0][0] + M[1][1]

        def eigvec(ev: float) -> np.ndarray:
            # the off-diagonal entries of a hyperbolic matrix are nonzero
            v = np.array([M[0][1], ev - M[0][0]], dtype=float)
            v = v / np.abs(v).max()
            lead = v[np.nonzero(np.abs(v) > 1e-12)[0][0]]
            return v if lead > 0 else -v

        try:
            lam = (tr + math.sqrt(tr * tr - 4)) / 2.0
            P = np.column_stack([eigvec(lam), eigvec(1.0 / lam)])
        except OverflowError:
            raise ValueError("matrix entries too large for float eigendata") from None
        return cls(tuple(tuple(r) for r in M), lam, P, np.linalg.inv(P))


def _translation(spec: ToralGroupSpec, n, m) -> np.ndarray:
    """P^{-1}(n, m) for integers n and m, or one row per entry of the 1-D
    integer arrays n and m: a 2 x 2 product per entry by a stacked
    np.matmul, the bits of the single spec.P_inv @ (n, m) (an elementwise
    a x + b y can differ by FMA)."""
    return np.matmul(spec.P_inv, np.array([n, m], dtype=float).T[..., None])[..., 0]


def toral_element(spec: ToralGroupSpec, k, n, m) -> np.ndarray:
    """3 x 3 matrix [[diag(lam^k, lam^-k), P^{-1}(n, m)], [0, 1]] of the group
    element (k, n, m) in conjugated coordinates, one per entry, stacked
    along the first axis, when k, n and m are 1-D integer arrays.  lam^k is
    a Python float power per entry; np.power can differ in the last bit."""
    power = partial(pow, spec.lam)
    out = _diag(_per_element(power, k), _per_element(power, -k), 1.0)
    out[..., :2, 2] = _translation(spec, n, m)
    return out


def toral_act(spec: ToralGroupSpec, g: Tuple[int, int, int],
              z: ProductPoint) -> ProductPoint:
    """Conjugated affine action on the product of half planes, one image per
    entry when g = (k, n, m) holds 1-D integer arrays or z array fields.

    The first factor scales by s = lam^k, the second by 1 / s, and P^{-1}(n, m)
    translates the real parts, with the bits of Python's complex arithmetic
    on s + 0j, whose zero part only turns a real quotient of -0.0 into +0.0.
    Raises, once every power is taken, OverflowError from a power,
    ZeroDivisionError for a power that underflows to zero and ValueError for
    an image height that is not positive.
    """
    k, n, m = g
    s = _per_element(partial(pow, spec.lam), k)
    if not (s.all() if isinstance(s, np.ndarray) else s):
        raise ZeroDivisionError("complex division by zero")
    u, v = _translation(spec, n, m).T
    return ProductPoint(UpperHalfPoint(s * z.z1.x + u, s * z.z1.y),
                        UpperHalfPoint((z.z2.x + 0.0) / s + v, z.z2.y / s))


def toral_compose(spec: ToralGroupSpec,
                  g: Tuple[int, int, int],
                  h: Tuple[int, int, int]) -> Tuple[int, int, int]:
    """Exact semidirect product law (k, b)(k', b') = (k + k', b + A^k b')."""
    k, n, m = g
    k2, n2, m2 = h
    Ak = _ipow([list(r) for r in spec.A], k)
    return (k + k2, n + Ak[0][0] * n2 + Ak[0][1] * m2, m + Ak[1][0] * n2 + Ak[1][1] * m2)


# the most rows word_ball builds: radius 90 has 988 441, radius 91 1 021 567
MAX_BALL_ROWS = 10 ** 6


def _ball_size(n: int) -> int:
    """Rows of the radius-n ball, (2n + 1)(2n^2 + 2n + 3) / 3."""
    return (2 * n + 1) * (2 * n * n + 2 * n + 3) // 3


def _centred_runs(r: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Run index and value of each entry of range(-r_i, r_i + 1), i in order,
    concatenated."""
    width = 2 * r + 1
    run = np.repeat(np.arange(len(r)), width)
    start = np.cumsum(width) - width
    return run, np.arange(int(width.sum()), dtype=np.int64) - (start + r)[run]


def word_ball(n: int) -> np.ndarray:
    """Elements (k, n, m) with |k| + |n| + |m| <= n, one per row of a
    C-contiguous (M, 3) int64 array, rows sorted; the same coordinate set for
    every A.  Callers read rows through .tolist(), or as tuples through
    zip(*ball.T.tolist()), which builds no list per row: arithmetic on the
    Python ints cannot wrap, and lam ** k stays a float power, not np.power.
    """
    if n < 0:
        raise ValueError("word bound must be nonnegative")
    if _ball_size(n) > MAX_BALL_ROWS:
        raise ValueError(f"word bound {n} gives more than {MAX_BALL_ROWS} ball rows")
    k = np.arange(-n, n + 1, dtype=np.int64)
    i, a = _centred_runs(n - np.abs(k))
    k = k[i]
    j, b = _centred_runs(n - np.abs(k) - np.abs(a))
    return np.stack([k[j], a[j], b], axis=1)


# ---------------------------------------------------------------------------
# limit kernels

@dataclass(frozen=True)
class LimitLine:
    line: ProjectiveLine
    weight: int          # number of ball elements accumulating on this line
    family: str          # "pencil1" | "pencil2" | "infinity"

    @property
    def parameter(self) -> Optional[float]:
        """r of the pencil-1 line z1 = r z3 or the pencil-2 line z2 = r z3;
        None for the line at infinity."""
        if self.family == "infinity":
            return None
        d = self.line.dual
        return float((-d[2] / d[0 if self.family == "pencil1" else 1]).real)


@dataclass(frozen=True)
class LimitKernelResult:
    lines: List[LimitLine]
    points: List[Tuple[ProjectivePoint, int]]      # always empty; the benchmark tracer reads it
    nonconverged: List[Tuple[int, int, int]]       # always empty; the benchmark tracer reads it


def pseudo_limit_kernels(spec: ToralGroupSpec, n: int) -> LimitKernelResult:
    """Kernel lines of the accumulation maps of the word ball, in closed form.

    In conjugated coordinates the powers of word (k, x, y), with translation
    (u, v) = P^{-1}(x, y), accumulate on a rank-one map whose kernel is the
    pencil-1 line z1 = -u / (lam^k - 1) z3 for k > 0, the pencil-2 line
    z2 = -v / (lam^-k - 1) z3 for k < 0, and the line at infinity for k = 0;
    each line carries that family, read from the sign of k.  The pencil
    parameter is a coordinate of P^{-1} x*, where x* = -(A^k - I)^{-1}(x, y)
    in Q^2 is the word's fixed point.  The eigendirections are irrational, so
    two rational points with the same coordinate are equal: (sign k, x*) in
    lowest integer terms is an exact key, and the line counts and weights
    hold at every n.  Lines keep the order of their first word in the sorted
    ball; no kernel is a point and no power sequence fails to converge, so
    points and nonconverged stay empty.
    """
    A = [list(r) for r in spec.A]
    levels = {}                         # k -> entries and determinant of A^k - I
    for k in range(-n, n + 1):
        if k:
            (e, f), (g, h) = _ipow(A, k)
            levels[k] = (e - 1, f, g, h - 1, (e - 1) * (h - 1) - f * g)
    index = {}
    first: List[Tuple[int, int, int]] = []
    weights: List[int] = []
    for k, x, y in zip(*word_ball(n).T.tolist()):
        if k == 0:
            if x == 0 and y == 0:
                continue
            key = (0,)
        else:
            # x* = (f y - h x, g x - e y) / det
            e, f, g, h, det = levels[k]
            p, q = f * y - h * x, g * x - e * y
            s = math.gcd(p, q, det) if det > 0 else -math.gcd(p, q, det)
            key = (1 if k > 0 else -1, p // s, q // s, det // s)
        i = index.get(key)
        if i is not None:
            weights[i] += 1
            continue
        index[key] = len(first)
        weights.append(1)
        first.append((k, x, y))
    # the dual of each line from its first word: [1, 0, u / (lam^k - 1)],
    # [0, 1, v / (lam^-k - 1)] or [0, 0, 1], with (u, v) = P^{-1}(x, y) by
    # stacked matmuls (an entrywise a x + b y may fuse into an FMA) and a
    # Python float power per level (np.power can differ in the last bit)
    words = np.array(first, dtype=np.int64).reshape(-1, 3)
    k = words[:, 0]
    uv = np.matmul(spec.P_inv, words[:, 1:, None].astype(float))[:, :, 0]
    den = np.array([spec.lam ** j - 1.0 for j in range(1, n + 1)])
    rows = np.flatnonzero(k)
    col = (k[rows] < 0).astype(np.intp)          # 0 on pencil 1, 1 on pencil 2
    V = np.zeros((len(first), 3), dtype=complex)
    V[rows, col] = 1.0
    V[rows, 2] = uv[rows, col] / den[np.abs(k[rows]) - 1]
    V[k == 0, 2] = 1.0
    families = ["pencil1" if j > 0 else "pencil2" if j < 0 else "infinity"
                for j, _, _ in first]
    return LimitKernelResult([LimitLine(ProjectiveLine._normalized(d), w, f)
                              for d, w, f in zip(_normalize_rows(V), weights, families)],
                             [], [])


def classify_limit_line(line: ProjectiveLine):
    """Match a line against the limit family, reading dual entries and
    imaginary parts of modulus at most 1e-8 as zero.

    Returns ("infinity", None), ("pencil1", r) for z1 = r z3,
    ("pencil2", r) for z2 = r z3, or ("unclassified", None).
    """
    tol = 1e-8
    l1, l2, l3 = line.dual
    if abs(l1) <= tol and abs(l2) <= tol:
        return ("infinity", None)
    if abs(l2) <= tol and abs(l1) > tol:
        r = -l3 / l1
        if abs(r.imag) <= tol:
            return ("pencil1", float(r.real))
    if abs(l1) <= tol and abs(l2) > tol:
        r = -l3 / l2
        if abs(r.imag) <= tol:
            return ("pencil2", float(r.real))
    return ("unclassified", None)


# ---------------------------------------------------------------------------
# general position

@dataclass(frozen=True)
class GeneralPositionResult:
    size: int
    witness: Tuple[int, ...]      # indices into the deduplicated line list
    exhaustive: bool


def _dedupe_lines(duals: np.ndarray) -> List[int]:
    """Indices of the rows of the (L, 3) dual array kept in order: each row
    whose sup-gap to every kept row is at least 1e-9.

    Rows are indexed by the key s = sum_j (j + 1) Re d_j + (j + 4) Im d_j in
    cells of width w = 2^-25 (about 2.98e-8); the weights keep the pencil-1
    dual [1, 0, c] and the pencil-2 dual [0, 1, c] in different cells.  Only
    a row's own cell and the two beside it can hold a row that close:
    - a sup-gap below 1e-9 moves each of the twelve real coordinates by less
      than 1e-9, so the exact key by less than (1 + 2 + ... + 6) 1e-9 =
      21e-9;
    - the duals have sup-norm one, so the weighted terms of a key sum to at
      most 21 in modulus, and each computed key is within 3 * 2^-53 * 21 +
      2^-53 * 21 < 1e-14 of its exact value (two three-term dot products
      and one addition, in any order);
    - so two such computed keys differ by less than 21e-9 + 2e-14 < w, and
      s * 2^25, which is exact, floors to cells at most one apart.
    A row alone in its cell, with both neighbouring cells empty, is within
    that gap of no other row, so it is kept; all such rows are found at once
    from the sorted cells.  The other rows run in order against the kept
    rows of the three cells.  A power-of-two width makes the division exact,
    and puts a dyadic grid line's key on a cell boundary.
    """
    cells = np.floor((duals.real @ [1.0, 2.0, 3.0] + duals.imag @ [4.0, 5.0, 6.0])
                     * 2.0 ** 25).astype(np.int64)
    order = np.argsort(cells, kind="stable")
    apart = np.diff(cells[order]) >= 2          # sorted neighbours two cells apart
    alone = np.ones(len(cells), dtype=bool)
    alone[1:] &= apart
    alone[:-1] &= apart
    keep = np.empty_like(alone)
    keep[order] = alone
    index: Dict[int, List[int]] = {}
    crowded = np.flatnonzero(~keep)
    for i, cell in zip(crowded.tolist(), cells[crowded].tolist()):
        near = [j for c in (cell - 1, cell, cell + 1) for j in index.get(c, ())]
        if not near or np.abs(duals[near] - duals[i]).max(axis=1).min() >= 1e-9:
            index.setdefault(cell, []).append(i)
            keep[i] = True
    return np.flatnonzero(keep).tolist()


def general_position_max(lines: Sequence[ProjectiveLine]) -> GeneralPositionResult:
    """Largest subset with no three concurrent lines, by a float search over
    an arbitrary line list.

    Exhaustive branch and bound up to 20 distinct lines; above that one
    greedy scan in index order, flagged non-exhaustive.  Both the dedupe
    (sup-gap 1e-9) and the concurrency test (a triple product
    |d . (d_a x d_b)| <= 1e-8) decide by tolerance, so on a dense line list
    the answer can fall short: on the N = 16 limit lines of [[3, 2], [1, 1]]
    it returns 2.  limit_general_position decides the limit family exactly.
    The dedupe keeps a line alone in its index cell at once and compares
    each other line only with the kept lines of its cell and the two beside
    it (see _dedupe_lines), so on the 5000-odd N = 16 lines the search takes
    about 0.01 s on a 2-vCPU x86-64 VM (0.02-0.04 s with the plain
    coordinate sum as the index key).
    """
    duals = np.array([l.dual for l in lines]).reshape(-1, 3)
    duals = duals[_dedupe_lines(duals)]
    nl = len(duals)
    # the coordinates rotated by one and by two places, for d_a x d_i
    r1, r2 = duals[:, [1, 2, 0]], duals[:, [2, 0, 1]]

    def add(chosen: Sequence[int], ok: np.ndarray, i: int) -> np.ndarray:
        """The candidates left of ok once line i joins chosen: all but i and
        the lines concurrent with i and a chosen line.  Three lines meet when
        d . (d_a x d_i) vanishes, so each chosen a prunes every candidate in
        one product; the cross product is np.cross's formula, bit for bit."""
        ok = ok.copy()
        ok[i] = False
        if chosen:
            a = list(chosen)
            cross = r1[a] * r2[i] - r2[a] * r1[i]
            ok &= (np.abs(duals @ cross.T) > 1e-8).all(axis=1)
        return ok

    if nl <= 20:
        best: Tuple[int, ...] = ()

        def extend(chosen: Tuple[int, ...], ok: np.ndarray) -> None:
            """Search the subsets that add candidates of ok, which is this
            call's own mask, to chosen, in index order."""
            nonlocal best
            if len(chosen) > len(best):
                best = chosen
            for i in np.flatnonzero(ok).tolist():
                ok[i] = False
                # i and the candidates after it cannot beat best, nor can
                # any later i: stop
                if len(chosen) + 1 + np.count_nonzero(ok) <= len(best):
                    break
                extend(chosen + (i,), add(chosen, ok, i))

        extend((), np.ones(nl, dtype=bool))
        return GeneralPositionResult(len(best), best, True)

    # one greedy scan: each line in index order that is concurrent with no
    # chosen pair
    ok = np.ones(nl, dtype=bool)
    chosen: List[int] = []
    while ok.any():
        i = int(np.argmax(ok))
        ok = add(chosen, ok, i)
        chosen.append(i)
    return GeneralPositionResult(len(chosen), tuple(chosen), False)


def limit_general_position(result: LimitKernelResult) -> GeneralPositionResult:
    """Largest subset of the limit lines with no three concurrent, exactly.

    Every pencil-1 line passes through [0:1:0], every pencil-2 line through
    [1:0:0], and the line at infinity through both, while a pencil-1 and a
    pencil-2 line meet off it.  So a subset is in general position exactly
    when it holds at most two lines per pencil, and the line at infinity only
    beside at most one per pencil: with n1, n2 lines in the pencils the size
    is max(min(n1, 2) + min(n2, 2), [L_inf] + min(n1, 1) + min(n2, 1)) <= 4.
    The witness (indices into result.lines) takes the least and the greatest
    parameter of each pencil; lines of distinct exact keys are distinct, and
    the extreme pair keeps a float check well conditioned.
    """
    by_family = {"pencil1": [], "pencil2": [], "infinity": []}
    for i, ll in enumerate(result.lines):
        by_family[ll.family].append(i)
    ends = []
    for family in ("pencil1", "pencil2"):
        idx = by_family[family]
        r = {i: result.lines[i].parameter for i in idx}
        # the first index of the least parameter, the last of the greatest
        ends.append(idx if len(idx) < 2 else
                    [min(idx, key=r.get), max(reversed(idx), key=r.get)])
    pencils = ends[0] + ends[1]
    with_inf = by_family["infinity"][:1] + ends[0][:1] + ends[1][:1]
    witness = with_inf if len(with_inf) > len(pencils) else pencils
    return GeneralPositionResult(len(witness), tuple(sorted(witness)), True)


# ---------------------------------------------------------------------------
# discontinuity domain

@dataclass(frozen=True)
class MembershipResult:
    in_domain: bool
    signs: Optional[Tuple[int, int]]
    reason: str


def kulkarni_membership(p: ProjectivePoint) -> MembershipResult:
    """Locate a point (conjugated coordinates) relative to the discontinuity
    region, the four products of open half-planes, which are the same for
    every hyperbolic A.  The tests are exact: a point is outside only where
    z3 or an imaginary part is zero."""
    z1, z2, z3 = p.coords
    if z3 == 0:
        return MembershipResult(False, None, "on the line at infinity")
    u1, u2 = z1 / z3, z2 / z3
    if u1.imag == 0:
        return MembershipResult(False, None, "first coordinate real")
    if u2.imag == 0:
        return MembershipResult(False, None, "second coordinate real")
    return MembershipResult(True, (1 if u1.imag > 0 else -1, 1 if u2.imag > 0 else -1),
                            "interior point")


Box4 = Tuple[Tuple[float, float], Tuple[float, float],
             Tuple[float, float], Tuple[float, float]]


def _check_box(box: Box4) -> None:
    (x1, y1, x2, y2) = box
    for lo, hi in box:
        if not lo <= hi:
            raise ValueError("box intervals must be ordered")
    if y1[0] <= 0 or y2[0] <= 0:
        raise ValueError("box must keep both heights away from the limit set")


def intersecting_elements(spec: ToralGroupSpec, box: Box4,
                          n: int) -> List[Tuple[int, int, int]]:
    """Ball elements whose conjugated affine image of the box meets the box,
    in ball order.

    The action is interval-exact: z1 scales by lam^k and translates, z2 by
    lam^{-k}; overlaps are padded outward by 1e-12.  The four interval tests
    run on the columns of the ball array at once.  lam^k is a Python float
    power per k (np.power can differ in the last bit), and (u, v) =
    P^{-1}(a, b) is multiplied and added entrywise, not by matmul, which may
    fuse the multiply and the add.  Hits come back as tuples of Python ints.
    """
    _check_box(box)
    (x1, y1, x2, y2) = box
    pad = 1e-12
    ball = word_ball(n)
    k, a, b = ball.T
    s = np.array([spec.lam ** j for j in range(-n, n + 1)])[k + n]
    u = spec.P_inv[0, 0] * a + spec.P_inv[0, 1] * b
    v = spec.P_inv[1, 0] * a + spec.P_inv[1, 1] * b
    miss = (s * y1[0] > y1[1] + pad) | (s * y1[1] < y1[0] - pad)
    miss |= (y2[0] / s > y2[1] + pad) | (y2[1] / s < y2[0] - pad)
    miss |= (s * x1[0] + u > x1[1] + pad) | (s * x1[1] + u < x1[0] - pad)
    miss |= (x2[0] / s + v > x2[1] + pad) | (x2[1] / s + v < x2[0] - pad)
    return list(map(tuple, ball[~miss].tolist()))


# ---------------------------------------------------------------------------
# lattice embeddings and isomorphism

def sol_lattice_embed(spec: ToralGroupSpec, k, n, m) -> SolElement:
    """Element of the continuous solvable group acting like (k, n, m), one
    per entry when k, n and m are 1-D integer arrays.

    The conjugated affine action is that of (k, u, v) at scaling base lam,
    (u, v) the conjugated translation pair; phi reads it in standard
    coordinates, t = k log(lam).
    """
    u, v = _translation(spec, n, m).T
    return phi(SolParams(spec.lam), SolElement(k, u, v))


@dataclass(frozen=True)
class LatticeIsoResult:
    status: str                        # "found" | "refuted"
    conjugator: Optional[np.ndarray]   # integer matrix U with U A U^{-1} = target
    target: Optional[str]              # "B" | "B_inverse"


def _conjugates_to(U, A, B) -> bool:
    """Exact check U A = B U with det U = +-1."""
    det = U[0][0] * U[1][1] - U[0][1] * U[1][0]
    if det not in (1, -1):
        return False
    UA = _imul(U, A)
    BU = _imul(B, U)
    return UA == BU


def _rl_reduce(M) -> Tuple[List[List[int]], Tuple[int, ...]]:
    """Conjugate a determinant-one M with trace above two to a positive word.

    Returns V in SL(2, Z) and the run lengths (l1, r1, l2, r2, ...) of the
    word w = L^l1 R^r1 L^l2 R^r2 ... in R = [[1, 1], [0, 1]] and
    L = [[1, 0], [1, 1]] with V M V^{-1} the product of w, rotated to its
    least rotation (L before R).  Positive words conjugate in SL(2, Z) are
    rotations of one another (Katok 2003; Karpenkov 2013), so the runs are a
    complete conjugacy invariant.  Each run costs one division, as in a
    continued fraction, so the time is logarithmic in the entries.
    """
    (a, b), (c, d) = M
    t = a + d
    V = [[1, 0], [0, 1]]
    while True:
        # put a within |c|/2 of t/2, so that b c > 0 or else |b| < |c|/4; a
        # quarter turn then makes b, c > 0 or shrinks |c| fourfold
        k = ((t - 2 * a) * c + c * c) // (2 * c * c)
        a, b, d = a + k * c, b + k * (d - a) - k * k * c, d - k * c
        V = _imul([[1, k], [0, 1]], V)
        if b > 0 and c > 0:
            break
        a, b, c, d = d, -c, -b, a
        V = _imul([[0, -1], [1, 0]], V)
    # all entries are positive now, and one row dominates the other entrywise:
    # it carries the next letter, as many times as it still dominates
    runs = []                          # (letter, length), letters alternating
    while b or c:
        if a >= c and b >= d:
            q = b // d if c == 0 else min(a // c, b // d)
            runs.append(("R", q))
            a, b = a - q * c, b - q * d
        else:
            q = c // a if b == 0 else min(c // a, d // b)
            runs.append(("L", q))
            c, d = c - q * a, d - q * b
    # the runs of w read cyclically, (first run in runs, letter, length) in
    # the order they start in w: equal end letters make one run, the last
    cyc = [(k, x, q) for k, (x, q) in enumerate(runs)]
    if runs[0][0] == runs[-1][0]:
        cyc = cyc[1:-1] + [(len(runs) - 1, runs[0][0], runs[-1][1] + runs[0][1])]
    # the least rotation starts at an L run: a longer L run, then a shorter R
    # run, comes first, and min keeps the first start in w among equals
    signed = [-q if x == "L" else q for _, x, q in cyc]
    j = min((j for j, (_, x, _) in enumerate(cyc) if x == "L"),
            key=lambda j: signed[j:] + signed[:j])
    for x, q in runs[:cyc[j][0]]:
        V = _imul([[1, -q], [0, 1]] if x == "R" else [[1, 0], [-q, 1]], V)
    return V, tuple(abs(q) for q in signed[j:] + signed[:j])


def lattice_iso_test(A, B) -> LatticeIsoResult:
    """Decide conjugacy of <A> and <B> inside GL(2, Z), up to inverting B.

    The trace is a conjugacy invariant and matches that of the inverse, so a
    trace mismatch refutes.  U A U^{-1} = T exactly when U (-A) U^{-1} = -T,
    so a trace below -2 is negated away.  Conjugating by J = [[0, 1], [1, 0]]
    swaps R and L and covers the determinant -1 conjugators, so B or B^{-1}
    is conjugate to A exactly when its R/L word, after J or not, equals that
    of A.  The conjugator U = W V_T^{-1} V_A is then verified in integers.
    """
    Ai = _validate_hyperbolic(A)
    Bi = _validate_hyperbolic(B)
    tr = Ai[0][0] + Ai[1][1]
    if tr != Bi[0][0] + Bi[1][1]:
        return LatticeIsoResult("refuted", None, None)
    sign = 1 if tr > 0 else -1

    def reduce(W, M):
        return _rl_reduce([[sign * x for x in row] for row in _imul(_imul(W, M), W)])

    I, J = [[1, 0], [0, 1]], [[0, 1], [1, 0]]
    VA, word = reduce(I, Ai)
    for name, T in (("B", Bi), ("B_inverse", _ipow(Bi, -1))):
        for W in (I, J):
            VT, word_T = reduce(W, T)
            if word_T == word:
                U = _imul(_imul(W, _ipow(VT, -1)), VA)
                if not _conjugates_to(U, Ai, T):
                    raise ArithmeticError("equal R/L words without an "
                                          "integer conjugator")
                # Python ints, exact at any size
                return LatticeIsoResult("found", np.array(U, dtype=object), name)
    return LatticeIsoResult("refuted", None, None)


# ---------------------------------------------------------------------------
# fundamental domain

def fundamental_domain_reduce(spec: ToralGroupSpec,
                              z: ProductPoint) -> Tuple[Tuple[int, int, int], ProductPoint]:
    """Move z into the standard fundamental domain of the lattice action.

    The height of the first factor is scaled into [1, lam), then the
    horizontal pair is reduced modulo the conjugated translation lattice.
    Returns the group element applied and the representative, one of each
    per entry on array fields, the element as float arrays, which cannot
    wrap.  The array body gives the scalar body's bits by math.log,
    math.floor and a Python lam^k per entry and the scalar's 2 x 2 product
    per entry by stacked matmuls (np.log, np.power and an elementwise
    a x + b y can differ in the last bit); single points keep the scalar
    body, about two thirds of the array body's time per point.
    """
    if not isinstance(z.z1.y, np.ndarray):
        k = -math.floor(math.log(z.z1.y) / math.log(spec.lam))
        s = spec.lam ** k
        w = np.array([s * z.z1.x, z.z2.x / s])
        n, m = map(int, np.floor(spec.P @ w).tolist())
        x1, x2 = (spec.P_inv @ (float(-n), float(-m)) + w).tolist()
        return ((k, -n, -m), ProductPoint(UpperHalfPoint(x1, s * z.z1.y),
                                          UpperHalfPoint(x2, z.z2.y / s)))
    k = [-math.floor(math.log(y) / math.log(spec.lam)) for y in z.z1.y.tolist()]
    s = np.array([spec.lam ** j for j in k])
    w = np.column_stack([s * z.z1.x, z.z2.x / s])
    # (-n, -m) stays float, as in the scalar's translation: no int64 to wrap
    t = -np.floor(np.matmul(spec.P, w[:, :, None]))
    x1, x2 = (np.matmul(spec.P_inv, t)[:, :, 0] + w).T
    reps = ProductPoint(UpperHalfPoint(x1, s * z.z1.y), UpperHalfPoint(x2, z.z2.y / s))
    return (np.array(k, dtype=float), *t[:, :, 0].T), reps

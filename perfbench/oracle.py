"""Independent answers the benchmark checks solfold against.

Nothing here imports solfold, and nothing calls its word balls, its box
counting or its conjugacy search: each answer is recomputed by another route.

- Limit lines are keyed exactly in Q(sqrt D), D = tr^2 - 4, with stdlib
  fractions, so no float tolerance can merge or split two lines.
- Lattice instances, their box hits, their fundamental-domain checks and the
  brute-force conjugacy table used to audit "refuted" answers.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

Matrix = Tuple[Tuple[int, int], Tuple[int, int]]

FAMILIES = ("infinity", "pencil1", "pencil2")


def as_matrix(A) -> Matrix:
    """Validate a hyperbolic matrix of SL(2, Z) with trace above two."""
    try:
        (a, b), (c, d) = A
    except (TypeError, ValueError):
        raise ValueError("matrix must be 2 x 2")
    if any(type(x) is not int for x in (a, b, c, d)):
        raise ValueError("matrix entries must be Python integers")
    if a * d - b * c != 1:
        raise ValueError("matrix must have determinant one")
    if a + d <= 2:
        raise ValueError("matrix must have trace above two")
    return ((a, b), (c, d))


def parse_matrix(text: str) -> Matrix:
    """'a,b,c,d' in row-major order, as the solfold command line takes it."""
    a, b, c, d = (int(p) for p in text.split(","))
    return as_matrix(((a, b), (c, d)))


def ball(n: int) -> List[Tuple[int, int, int]]:
    """Words (k, a, b) with |k| + |a| + |b| <= n, in no particular order."""
    if n < 0:
        raise ValueError("ball radius must be nonnegative")
    out = []
    for k in range(-n, n + 1):
        for a in range(-(n - abs(k)), n - abs(k) + 1):
            r = n - abs(k) - abs(a)
            out.extend((k, a, b) for b in range(-r, r + 1))
    return out


def ball_size(n: int) -> int:
    return (2 * n + 1) * (2 * n * n + 2 * n + 3) // 3


# ---------------------------------------------------------------------------
# exact limit lines

def _lam_power(t: int, D: int, k: int) -> Tuple[int, int]:
    """lam^k = (X + Y sqrt D) / 2 for lam = (t + sqrt D) / 2 and k >= 0."""
    X, Y = 2, 0
    for _ in range(k):
        X, Y = t * X + D * Y, X + t * Y
        if X % 2 or Y % 2:
            raise ArithmeticError("lam power left the ring of integers")
        X, Y = X // 2, Y // 2
    return X, Y


def exact_limit_lines(A, n: int) -> Dict[str, Counter]:
    """Limit lines of the radius-n word ball, per family, with their weights.

    Word (k, x, y) with k > 0 accumulates on the pencil-1 line keyed by
    (c x + (lam - a) y) / (lam^k - 1); k < 0 gives the pencil-2 line keyed by
    the same form with mu = 1/lam in place of lam and mu^k in place of lam^k;
    k = 0 gives the line at infinity.  A key is proportional to the line's
    pencil parameter by a factor fixed per family, so equal keys are equal
    lines.  Keys are (p, q) with value p + q sqrt D, p and q exact fractions.
    """
    (a, _), (c, d) = as_matrix(A)
    if n < 0:
        raise ValueError("ball radius must be nonnegative")
    t = a + d
    D = t * t - 4
    powers = [_lam_power(t, D, k) for k in range(n + 1)]
    lines: Dict[str, Counter] = {f: Counter() for f in FAMILIES}
    for (k, x, y) in ball(n):
        if k == 0:
            if x or y:
                lines["infinity"][0] += 1
            continue
        # 2 (c x + (lam - a) y) = alpha + beta sqrt D; lam^|k| - 1 = (gamma + delta sqrt D) / 2
        alpha = 2 * c * x + (t - 2 * a) * y
        beta = y if k > 0 else -y
        X, Y = powers[abs(k)]
        gamma, delta = X - 2, Y
        norm = gamma * gamma - D * delta * delta
        key = (Fraction(alpha * gamma - beta * delta * D, norm),
               Fraction(beta * gamma - alpha * delta, norm))
        lines["pencil1" if k > 0 else "pencil2"][key] += 1
    return lines


def limit_summary(A, n: int) -> Dict[str, List[int]]:
    """Sorted line weights per family: the form the export is checked against."""
    return {f: sorted(w.values()) for f, w in exact_limit_lines(A, n).items()}


def line_count(summary: Dict[str, List[int]]) -> int:
    return sum(len(w) for w in summary.values())


def limit_export_errors(doc: dict, expected: Dict[str, List[int]]) -> List[str]:
    """Differences between a limit-set export and the exact summary."""
    errors = []
    got: Dict[str, List[int]] = {}
    for line in doc["lines"]:
        got.setdefault(line["family"], []).append(int(line["cluster_size"]))
    for family in sorted(set(got) | set(expected)):
        g = sorted(got.get(family, []))
        e = expected.get(family, [])
        if g != e:
            errors.append(f"{family}: {len(g)} lines, exact {len(e)}"
                          + ("" if len(g) != len(e) else " (weights differ)"))
    if doc["points"]:
        errors.append(f"{len(doc['points'])} limit points")
    if doc["nonconverged"]:
        errors.append(f"{len(doc['nonconverged'])} nonconverged elements")
    return errors


# ---------------------------------------------------------------------------
# lattice instances

def lattice_pool() -> List[Matrix]:
    """The 108 det-1 matrices with entries in [-6, 6], 2 < trace <= 20 and
    nonzero off-diagonals."""
    pool = []
    for a, b, c, d in itertools.product(range(-6, 7), repeat=4):
        if a * d - b * c == 1 and 2 < a + d <= 20 and b and c:
            pool.append(((a, b), (c, d)))
    return pool


def inverse(M: Matrix) -> Matrix:
    (a, b), (c, d) = M
    return ((d, -b), (-c, a))


def _mul(X, Y) -> Matrix:
    return ((X[0][0] * Y[0][0] + X[0][1] * Y[1][0], X[0][0] * Y[0][1] + X[0][1] * Y[1][1]),
            (X[1][0] * Y[0][0] + X[1][1] * Y[1][0], X[1][0] * Y[0][1] + X[1][1] * Y[1][1]))


def certificate_holds(U, A, T) -> bool:
    """U A = T U exactly in integers with det U = +-1."""
    try:
        (p, q), (r, s) = U
        U = ((int(p), int(q)), (int(r), int(s)))
    except (TypeError, ValueError):
        return False
    if (p, q, r, s) != (U[0][0], U[0][1], U[1][0], U[1][1]):
        return False
    if U[0][0] * U[1][1] - U[0][1] * U[1][0] not in (1, -1):
        return False
    return _mul(U, as_matrix(A)) == _mul(as_matrix(T), U)


def iso_errors(A: Matrix, B: Matrix, status: str, conjugator, target,
               conjugate_pairs) -> List[str]:
    """Audit one lattice_iso_test answer.

    found must carry a certificate for B or B^{-1}; refuted must survive the
    brute-force search (conjugate_pairs); not_found decides nothing and is
    not an error.
    """
    if status == "found":
        T = {"B": B, "B_inverse": inverse(B)}.get(target)
        if T is None or conjugator is None:
            return [f"found without a usable certificate (target {target!r})"]
        if not certificate_holds(conjugator, A, T):
            return ["found certificate fails U A = T U, det U = +-1"]
        return []
    if status == "refuted":
        if (A, B) in conjugate_pairs:
            return ["refuted a pair the brute-force search conjugates"]
        return []
    if status == "not_found":
        return []
    return [f"unknown status {status!r}"]


def _unimodular(bound: int) -> List[Matrix]:
    """Every U in GL(2, Z) with entries in [-bound, bound]."""
    out = []
    for p, q in itertools.product(range(-bound, bound + 1), repeat=2):
        g, x, y = _egcd(p, q)
        if g != 1:
            continue
        # p x + q y = 1, so the second row (-y, x) gives det +1 and (y, -x)
        # det -1; every other second row adds a multiple of (p, q)
        for r0, s0 in ((-y, x), (y, -x)):
            lo, hi = -10 ** 9, 10 ** 9
            for base, step in ((r0, p), (s0, q)):
                if step > 0:
                    lo = max(lo, -((bound + base) // step))
                    hi = min(hi, (bound - base) // step)
                elif step < 0:
                    lo = max(lo, -((bound - base) // -step))
                    hi = min(hi, (bound + base) // -step)
                elif abs(base) > bound:
                    hi = lo - 1
            out.extend(((p, q), (r0 + j * p, s0 + j * q)) for j in range(lo, hi + 1))
    return out


def _egcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, x, y) with a x + b y = g = gcd(a, b) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        qt, rm = divmod(a, b)
        a, b = b, rm
        x0, x1 = x1, x0 - qt * x1
        y0, y1 = y1, y0 - qt * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def brute_force_conjugate_pairs(pool: Sequence[Matrix], bound: int = 40) -> set:
    """Pairs (A, B) of the pool with U A U^{-1} in {B, B^{-1}} for some U in
    GL(2, Z) with entries in [-bound, bound]."""
    import numpy as np

    Us = np.array(_unimodular(bound), dtype=np.int64)
    det = Us[:, 0, 0] * Us[:, 1, 1] - Us[:, 0, 1] * Us[:, 1, 0]
    adj = np.stack([np.stack([Us[:, 1, 1], -Us[:, 0, 1]], -1),
                    np.stack([-Us[:, 1, 0], Us[:, 0, 0]], -1)], 1)
    Uinv = adj * det[:, None, None]
    index = set(pool)
    reach = max(abs(x) for M in pool for row in M for x in row)
    pairs = set()
    for A in pool:
        conj = Us @ np.array(A, dtype=np.int64) @ Uinv
        conj = conj[(np.abs(conj) <= reach).all(axis=(1, 2))]
        for M in {tuple(map(tuple, m)) for m in conj.tolist()}:
            for B in (M, inverse(M)):
                if B in index:
                    pairs.add((A, B))
    return pairs


def lattice_instance(pool: Sequence[Matrix], seed: int, op_id: int) -> dict:
    """One seeded lattice op: a pool matrix A, a same-trace partner B, a box
    with heights bounded away from 0, and 100 points each with a word of the
    radius-2 ball."""
    rng = random.Random(f"lattice:{seed}:{op_id}")
    A = rng.choice(pool)
    tr = A[0][0] + A[1][1]
    partners = [B for B in pool if B[0][0] + B[1][1] == tr and B != A]
    B = rng.choice(partners)
    box = []
    for _ in range(2):
        x0 = rng.uniform(-2.0, 2.0)
        box.append((x0, x0 + rng.uniform(0.2, 2.0)))
        y0 = rng.uniform(0.5, 2.0)
        box.append((y0, y0 * rng.uniform(1.2, 4.0)))
    words = ball(2)
    points = [((rng.uniform(-3.0, 3.0), rng.uniform(0.2, 5.0),
                rng.uniform(-3.0, 3.0), rng.uniform(0.2, 5.0)),
               rng.choice(words)) for _ in range(100)]
    return {"A": A, "B": B, "box": tuple(box), "points": points}


class BoxHits:
    """Box-hit enumeration over the benchmark's own radius-n ball.

    Uses the group's eigendata (lam, P^{-1}) as given and repeats the
    interval test of the conjugated affine action, padded by 1e-12.
    """

    def __init__(self, n: int) -> None:
        import numpy as np

        self.words = np.array(ball(n), dtype=np.int64)
        self.n = n

    def hits(self, lam: float, P_inv, box) -> set:
        import numpy as np

        (x1, y1, x2, y2) = box
        pad = 1e-12
        k, a, b = self.words.T
        scale = np.array([lam ** j for j in range(-self.n, self.n + 1)])
        s = scale[k + self.n]
        u = P_inv[0][0] * a + P_inv[0][1] * b
        v = P_inv[1][0] * a + P_inv[1][1] * b
        ok = ~((s * y1[0] > y1[1] + pad) | (s * y1[1] < y1[0] - pad))
        ok &= ~((y2[0] / s > y2[1] + pad) | (y2[1] / s < y2[0] - pad))
        ok &= ~((s * x1[0] + u > x1[1] + pad) | (s * x1[1] + u < x1[0] - pad))
        ok &= ~((x2[0] / s + v > x2[1] + pad) | (x2[1] / s + v < x2[0] - pad))
        return {tuple(w) for w in self.words[ok].tolist()}


def domain_errors(lam: float, P, rep, tol: float = 1e-9) -> List[str]:
    """rep = (x1, y1, x2, y2) must have y1 in [1, lam) and (x1, x2) in the
    half-open unit cell of the conjugated lattice, P (x1, x2) in [0, 1)^2."""
    x1, y1, x2, _ = rep
    errors = []
    if not (1.0 - tol <= y1 < lam * (1.0 + tol)):
        errors.append(f"height {y1!r} outside [1, lam)")
    for c in (P[0][0] * x1 + P[0][1] * x2, P[1][0] * x1 + P[1][1] * x2):
        if not (-tol <= c < 1.0 + tol):
            errors.append(f"cell coordinate {c!r} outside [0, 1)")
    return errors

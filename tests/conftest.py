"""Shared fixtures and independent numerical oracles.

Everything here recomputes geometric quantities from first principles
(explicit coefficient formulas, finite differences, exhaustive enumeration)
without touching the library's closed forms, so each test compares two
genuinely independent routes to the same number.
"""

from __future__ import annotations

import math
import os
from pathlib import Path
from typing import Callable, List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import settings

from solfold import HeisElement, MixedPoint, ProductPoint, ProjectivePoint, UpperHalfPoint

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")

# The CLI determinism criterion runs `python -m solfold.cli` in a subprocess;
# give it the source tree that the pytest configuration puts on sys.path.
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(Path(__file__).resolve().parents[1] / "src")]
    + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

SEED = 20240817


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(SEED)


# ---------------------------------------------------------------------------
# finite-difference oracles

def fd_jacobian(f: Callable, x, h: float = 1e-3) -> np.ndarray:
    """Fourth-order Jacobian: central differences plus one Richardson step."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(f(x), dtype=float)
    J = np.zeros((f0.size, x.size))
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = 1.0

        def diff(step):
            return (np.asarray(f(x + step * e), dtype=float)
                    - np.asarray(f(x - step * e), dtype=float)) / (2 * step)

        J[:, j] = (4.0 * diff(h / 2) - diff(h)) / 3.0
    return J


def fd_christoffel(metric_fn: Callable[[np.ndarray], np.ndarray], x,
                   h: float = 1e-5) -> np.ndarray:
    """Christoffel symbols from the coefficient derivatives.

    Gamma^k_ij = g^{kl} (d_i g_jl + d_j g_il - d_l g_ij) / 2, with the
    coefficient derivatives taken by central differences.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    dg = np.zeros((n, n, n))
    for l in range(n):
        e = np.zeros(n)
        e[l] = 1.0
        dg[l] = (metric_fn(x + h * e) - metric_fn(x - h * e)) / (2 * h)
    ginv = np.linalg.inv(metric_fn(x))
    gamma = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                s = 0.0
                for l in range(n):
                    s += ginv[k, l] * (dg[i][j, l] + dg[j][i, l] - dg[l][i, j])
                gamma[k, i, j] = 0.5 * s
    return gamma


def fd_pullback(metric_fn: Callable, embed: Callable, x, h: float = 1e-3) -> np.ndarray:
    """Numerical first fundamental form J^T G J of an embedding."""
    J = fd_jacobian(embed, x, h)
    G = metric_fn(np.asarray(embed(np.asarray(x, dtype=float)), dtype=float))
    return J.T @ G @ J


def cross_r4(u, v, w) -> np.ndarray:
    """Triple cross product on R^4: the X with <X, z> = det(u, v, w, z) for all
    z, so X is Euclidean-orthogonal to u, v, w and multilinear alternating."""
    M = np.vstack([u, v, w])
    return np.array([np.linalg.det(np.vstack([M, np.eye(4)[i]])) for i in range(4)])


# explicit coefficient matrices, written out rather than taken from the library

def product_metric_matrix(c) -> np.ndarray:
    """(dx1^2 + dy1^2) / (2 y1^2) + (dx2^2 + dy2^2) / (2 y2^2)."""
    y1, y2 = c[1], c[3]
    return np.diag([0.5 / y1 ** 2, 0.5 / y1 ** 2, 0.5 / y2 ** 2, 0.5 / y2 ** 2])


def mixed_metric_matrix(c) -> np.ndarray:
    """dx^2 + dy^2 + (dp^2 + dq^2) / q^2."""
    q = c[3]
    return np.diag([1.0, 1.0, 1.0 / q ** 2, 1.0 / q ** 2])


def scaled_half_plane_distance(x1, y1, x2, y2) -> float:
    """Distance for (dx^2 + dy^2) / (2 y^2) via the cosh relation."""
    arg = 1.0 + ((x2 - x1) ** 2 + (y2 - y1) ** 2) / (2.0 * y1 * y2)
    return math.acosh(max(arg, 1.0)) / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# exhaustive enumeration oracles

def toral_element_integral(spec, k: int, n: int, m: int) -> np.ndarray:
    """Exact block matrix [[A^k, (n, m)], [0, 1]] of the toral element (k, n, m),
    by |k| products of Python integers (A^-1 is the adjugate, det A = 1)."""
    (a, b), (c, d) = spec.A
    step = ((a, b), (c, d)) if k >= 0 else ((d, -b), (-c, a))
    P = ((1, 0), (0, 1))
    for _ in range(abs(k)):
        P = tuple(tuple(P[i][0] * step[0][j] + P[i][1] * step[1][j] for j in range(2))
                  for i in range(2))
    return np.array([[P[0][0], P[0][1], n], [P[1][0], P[1][1], m], [0, 0, 1]], dtype=object)


def heis_mul_ints(g: Tuple[int, int, int], h: Tuple[int, int, int]):
    return (g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1])


def heis_ball_dp(n: int) -> set:
    """Word ball by value iteration over a bounding box.

    dist(v) is relaxed n times against all six one-generator predecessors.
    Any geodesic to a length <= n element keeps |a|, |b| <= n and |c| <= n^2,
    so restricting to the box loses nothing.
    """
    gens = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    inv = [(-a, -b, -c + a * b) for (a, b, c) in gens]
    big = n + 1
    dist = {}
    for a in range(-n, n + 1):
        for b in range(-n, n + 1):
            for c in range(-n * n, n * n + 1):
                dist[(a, b, c)] = 0 if (a, b, c) == (0, 0, 0) else big
    for _ in range(n):
        new = {}
        for v in dist:
            best = dist[v]
            for gi in inv:
                u = heis_mul_ints(v, gi)
                if u in dist and dist[u] + 1 < best:
                    best = dist[u] + 1
            new[v] = best
        dist = new
    return {v for v, d in dist.items() if d <= n}


def cube_hit_by_grid(g: Tuple[int, int, int], steps: int = 4) -> bool:
    """Whether g . [0,1]^3 meets [0,1]^3, decided by exact grid search.

    For integer g the constraint region, when nonempty, always contains a
    point with quarter-integer coordinates, so a step-1/4 sweep is complete;
    quarter integers are exact binary floats, making every comparison exact.
    """
    a_g, b_g, c_g = g
    for i in range(steps + 1):
        a = i / steps
        if not 0.0 <= a_g + a <= 1.0:
            continue
        for j in range(steps + 1):
            b = j / steps
            if not 0.0 <= b_g + b <= 1.0:
                continue
            for k in range(steps + 1):
                c = k / steps
                if 0.0 <= c_g + c + a_g * b <= 1.0:
                    return True
    return False


def affine_box_hits_via_matrix(M: np.ndarray, box, pad: float = 1e-12) -> bool:
    """Whether the conjugated affine image of a 4D box meets the box.

    The image intervals are read off by pushing the two extreme corners
    through the full 3 x 3 projective matrix; the diagonal conjugated form
    acts monotonically on each coordinate, so corners suffice.
    """
    (x1, y1, x2, y2) = box

    def image(corner):
        z1 = complex(corner[0], corner[1])
        z2 = complex(corner[2], corner[3])
        v = M @ np.array([z1, z2, 1.0], dtype=complex)
        w1, w2 = v[0] / v[2], v[1] / v[2]
        return (w1.real, w1.imag, w2.real, w2.imag)

    lo = image((x1[0], y1[0], x2[0], y2[0]))
    hi = image((x1[1], y1[1], x2[1], y2[1]))
    for (a, b), l, h in zip(box, lo, hi):
        if max(l, h) < a - pad or min(l, h) > b + pad:
            return False
    return True


# ---------------------------------------------------------------------------
# forms that no command takes any more

def rand_product(rng: np.random.Generator, ymin: float, ymax: float) -> ProductPoint:
    """Random point of H x H: real parts in [-3, 3), heights in [ymin, ymax)."""
    x1, x2 = rng.uniform(-3.0, 3.0, size=2)
    y1, y2 = rng.uniform(ymin, ymax, size=2)
    return ProductPoint(UpperHalfPoint(x1, y1), UpperHalfPoint(x2, y2))


def rand_mixed(rng: np.random.Generator, ymin: float, ymax: float):
    """Random point of C x H: coordinates in [-3, 3), height in [ymin, ymax)."""
    zr, zi, wx = rng.uniform(-3.0, 3.0, size=3)
    return MixedPoint(complex(zr, zi), UpperHalfPoint(wx, rng.uniform(ymin, ymax)))


def projective_act(matrix: np.ndarray, p):
    """Image of a ProjectivePoint under a projective transformation."""
    return ProjectivePoint(np.asarray(matrix, dtype=complex) @ p.coords)


def _heis_reduce_reference(g, moduli=(1, 1, 1)):
    """heis_reduce_mod_integer_lattice as its scalar body computed it, with
    math.floor: the lattice part in Python ints, exact at any size."""
    d1, d2, d3 = moduli
    if d1 < 1 or d2 < 1 or d3 < 1 or (d1 * d2) % d3 != 0:
        raise ValueError("moduli must be positive with d3 dividing d1*d2")
    A = d1 * math.floor(g.a / d1)
    alpha = g.a - A
    B = d2 * math.floor(g.b / d2)
    beta = g.b - B
    C = d3 * math.floor((g.c - A * beta) / d3)
    gamma = g.c - C - A * beta
    return HeisElement(A, B, C), HeisElement(alpha, beta, gamma)


# ---------------------------------------------------------------------------
# the block draws of embed-agreement and of the two quotient checks: each
# builds default_rng(seed) and draws each entry as one block of shape
# (samples, k), in the order given here

def embed_agreement_draws(seed: int, samples: int):
    """An index into the 25 words of word_ball(2) per point, the points'
    (x1, x2), then their heights (y1, y2) in [0.3, 4)."""
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 25, size=(samples, 1)), rng.uniform(-3.0, 3.0, size=(samples, 2)),
            rng.uniform(0.3, 4.0, size=(samples, 2)))


def sol_quotient_draws(seed: int, samples: int):
    """The points' (x1, x2), their heights (y1, y2) in [0.2, 5), then ten
    indices per point into the 24 nonzero words of word_ball(2)."""
    rng = np.random.default_rng(seed)
    return (rng.uniform(-3.0, 3.0, size=(samples, 2)), rng.uniform(0.2, 5.0, size=(samples, 2)),
            rng.integers(0, 24, size=(samples, 10)))


def heis_quotient_draws(seed: int, samples: int):
    """The points' (Re z, Im z, Re w) of C x H, their heights Im w in
    [0.2, 5), the elements (a, b, c), then ten integer words per sample,
    entries in [-3, 4), as 30 columns."""
    rng = np.random.default_rng(seed)
    return (rng.uniform(-3.0, 3.0, size=(samples, 3)), rng.uniform(0.2, 5.0, size=(samples, 1)),
            rng.uniform(-4.0, 4.0, size=(samples, 3)), rng.integers(-3, 4, size=(samples, 30)))


# ---------------------------------------------------------------------------
# acceptance reporting

class AcceptanceLog:
    def __init__(self) -> None:
        self.lines: List[str] = []

    def record(self, number: int, description: str, ok: bool) -> None:
        verdict = "PASS" if ok else "FAIL"
        line = f"acceptance {number:2d} {verdict}  {description}"
        self.lines.append(line)
        print(line)


_ACCEPTANCE = AcceptanceLog()


@pytest.fixture(scope="session")
def acceptance_log() -> AcceptanceLog:
    return _ACCEPTANCE


def pytest_terminal_summary(terminalreporter) -> None:
    if _ACCEPTANCE.lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE.lines):
            terminalreporter.write_line(line)

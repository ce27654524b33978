"""Command-line front end: verification suites, data exports, report rendering.

Grammar: solfold <verify | export TARGET | report> [--key value | --key=value]...,
the keys those of the command's flag table.  Reports are JSON with one row
per check; exports are CSV or JSON.  Identical configuration and seed
produce byte-identical output.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import _fd
from .geometry import (MetricSpec, MixedPoint, ProductPoint, UpperHalfPoint,
                       geodesic_residual)
from .heisenberg import (HeisElement, factored_proper_discontinuity_check,
                         heis_act, heis_commutator, heis_leaf_jacobian,
                         heis_leaf_separation_numeric, heis_mul,
                         heis_pullback_metric, heis_rectify,
                         heis_rectify_inverse, heis_reduce_mod_integer_lattice,
                         heis_word_ball)
from .kleinian import (MAX_BALL_ROWS, ToralGroupSpec, _ball_size, _normalize_rows,
                       classify_limit_line, general_position_max,
                       intersecting_elements, lattice_iso_test,
                       limit_general_position, pseudo_limit_kernels,
                       sol_lattice_embed, toral_act, toral_element, word_ball)
from .quotient import CheckRow, check_row, heis_quotient_check, sol_quotient_check
from .sol import (STANDARD, SolElement, SolParams, flow_equivariance_defect,
                  flow_speed, leaf_embed, leaf_metric, leaf_separation,
                  leaf_separation_numeric, normal_flow, rectify, rectify_inverse,
                  rectify_isometric, rectify_isometric_inverse, shape_operator,
                  sol_act)


class ConfigError(Exception):
    """Invalid configuration; carries the offending field name."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


# ---------------------------------------------------------------------------
# deterministic serialization

def _json_line(obj) -> str:
    """obj as one line of compact JSON, each float in its repr text, so it
    reads back as the same float; a NaN or an infinity raises ValueError."""
    return json.dumps(obj, allow_nan=False) + "\n"


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    # every cell is a Python int or float, written as in the JSON exports
    lines = [",".join(header)]
    lines.extend(",".join(map(repr, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# parsing

def _check_finite(field: str, *values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise ConfigError(field, f"{field} must be finite")


def _parse_int(field: str, lo: Optional[int] = None, hi: Optional[int] = None):
    def cast(s: str) -> int:
        try:
            v = int(s)
        except ValueError:
            raise ConfigError(field, f"{field} must be an integer, got {s!r}")
        if lo is not None and v < lo:
            raise ConfigError(field, f"{field} must be at least {lo}")
        if hi is not None and v > hi:
            raise ConfigError(field, f"{field} must be at most {hi}")
        return v
    return cast


def _parse_pos_float(field: str, bounds: Tuple[float, float] = (0.0, math.inf)):
    lo, hi = bounds

    def cast(s: str) -> float:
        try:
            v = float(s)
        except ValueError:
            raise ConfigError(field, f"{field} must be a number, got {s!r}")
        if not v > 0:
            raise ConfigError(field, f"{field} must be positive")
        _check_finite(field, v)
        if not lo <= v <= hi:
            raise ConfigError(field, f"{field} must lie in [{lo:g}, {hi:g}]")
        return v
    return cast


# The sol rows move heights in [0.3, 4) by lam^t and e^s with |t|, |s| <= 2, so
# into [0.3 e^-2 lam^-2, 4 e^2 lam^2] for lam > 1 (lam^2 and lam^-2 swap below
# 1).  At 1e153 that is [4.1e-308, 3.0e307]: every power, height and
# coordinate stays a finite, normal, nonzero float.  Beyond about 2.5e153 a
# height can overflow.
_LAMBDA_RANGE = (1e-153, 1e153)


def _parse_choice(field: str, choices: Sequence[str]):
    def cast(s: str) -> str:
        if s not in choices:
            raise ConfigError(field, f"{field} must be one of {', '.join(choices)}, "
                                     f"got {s!r}")
        return s
    return cast


def _parse_matrix(s: str) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    parts = s.split(",")
    if len(parts) != 4:
        raise ConfigError("A", "A needs four comma-separated integers a,b,c,d")
    try:
        a, b, c, d = (int(p) for p in parts)
    except ValueError:
        raise ConfigError("A", f"A entries must be integers, got {s!r}")
    return ((a, b), (c, d))


def _parse_complex_token(field: str, token: str) -> complex:
    try:
        v = complex(token.strip().replace("i", "j"))
    except ValueError:
        raise ConfigError(field, f"cannot parse complex number {token!r}")
    _check_finite(field, v.real, v.imag)
    return v


def _parse_base(s: str) -> Tuple[complex, complex]:
    parts = s.split(",")
    if len(parts) != 2:
        raise ConfigError("base", "base needs two comma-separated complex numbers")
    return (_parse_complex_token("base", parts[0]),
            _parse_complex_token("base", parts[1]))


def _parse_point4(field: str):
    def cast(s: str) -> Tuple[float, float, float, float]:
        parts = s.split(",")
        if len(parts) != 4:
            raise ConfigError(field, f"{field} needs four comma-separated reals")
        try:
            vals = tuple(float(p) for p in parts)
        except ValueError:
            raise ConfigError(field, f"{field} entries must be numbers, got {s!r}")
        if vals[1] <= 0 or vals[3] <= 0:
            raise ConfigError(field, f"{field} heights must be positive")
        _check_finite(field, *vals)
        return vals
    return cast


_MAX_RANGE_VALUES = 10 ** 6
# at the bound, verify --suite all takes 0.9 s and 84 MB RSS on a 2-vCPU x86-64 VM
_MAX_SAMPLES = 10 ** 5
# the largest word-ball radius N whose ball fits in MAX_BALL_ROWS rows, and in
# the limit pipeline's budget (export limit-set --N 41 there: 2.2 s, 170 MB RSS)
_LIMIT_ROWS = 10 ** 5
_MAX_N, _MAX_LIMIT_N = (next(n for n in itertools.count() if _ball_size(n + 1) > rows)
                        for rows in (MAX_BALL_ROWS, _LIMIT_ROWS))


def _parse_range(field: str):
    def cast(s: str) -> Tuple[float, float, float]:
        parts = s.split(":")
        if len(parts) != 3:
            raise ConfigError(field, f"{field} must look like start:stop:step")
        try:
            a, b, step = (float(p) for p in parts)
        except ValueError:
            raise ConfigError(field, f"{field} pieces must be numbers, got {s!r}")
        if step <= 0 or b < a:
            raise ConfigError(field, f"{field} needs stop >= start and step > 0")
        # a finite (stop - start) / step keeps the value count finite
        _check_finite(field, a, b, step, (b - a) / step)
        if _range_count((a, b, step)) > _MAX_RANGE_VALUES:
            raise ConfigError(field, f"{field} has more than {_MAX_RANGE_VALUES} values")
        return (a, b, step)
    return cast


def _range_count(r: Tuple[float, float, float]) -> int:
    a, b, step = r
    return int(math.floor((b - a) / step + 1e-9)) + 1


def _range_values(r: Tuple[float, float, float]) -> List[float]:
    a, b, step = r
    return [a + i * step for i in range(_range_count(r))]


def _load_config_file(path: str) -> Dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ConfigError("config", f"cannot read config file: {e}")
    out: Dict[str, str] = {}
    for i, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError("config", f"line {i} is not key=value: {stripped!r}")
        key, _, value = stripped.partition("=")
        out[key.strip()] = value.strip()
    return out


def _spec_or_error(A) -> ToralGroupSpec:
    try:
        return ToralGroupSpec.from_matrix(A)
    except ValueError as e:
        raise ConfigError("A", str(e))


def _check_lam_power(spec: ToralGroupSpec, n: int) -> None:
    """Exit 2 unless lam^n is a finite float, n the largest power of lam a
    command takes: a limit-kernel denominator lam^N - 1, the radius-8 ball
    of the discontinuity-stable row, or the lam^3 of a quotient reduction.
    Where it overflows, the field is A when lam^8 overflows too, else N."""
    def finite(k: int) -> bool:
        try:
            spec.lam ** k
        except OverflowError:
            return False
        return True

    if not finite(n):
        field = "N" if finite(8) else "A"
        raise ConfigError(field, f"{field} gives a power of lam that overflows a float")


# ---------------------------------------------------------------------------
# verification suites

# Bounds of the draws of a point (x1, x2, y1, y2) of H x H, and of a point
# (Re z, Im z, Re w, Im w) of C x H: three coordinates in [-3, 3), then the height.
_PRODUCT_DRAWS = ((-3, 3), (-3, 3), (0.3, 4.0), (0.3, 4.0))
_MIXED_DRAWS = ((-3, 3), (-3, 3), (-3, 3), (0.3, 4.0))


def _uniform_columns(rng: np.random.Generator, n: int, *bounds) -> np.ndarray:
    """n rows of uniform draws, the j-th value of each in bounds[j], returned
    as columns.  One block draw reads the stream, and gives the values, of a
    loop that draws the values of each row in turn."""
    lo, hi = np.array(bounds, dtype=float).T
    return rng.uniform(lo, hi, size=(n, len(bounds))).T


def _suite_sol(cfg: Dict[str, object]) -> List[CheckRow]:
    rng = np.random.default_rng(cfg["seed"])
    samples, lam = cfg["samples"], cfg["lambda"]
    try:
        params = STANDARD if lam is None else SolParams(lam)
    except ValueError as e:
        raise ConfigError("lambda", str(e))
    rows: List[CheckRow] = []
    ghyp = MetricSpec.half_hyperbolic_product()

    # per sample: a point, an element (t, x, y), a flow time s
    x1, x2, y1, y2, t, x, y, s = _uniform_columns(
        rng, samples, *_PRODUCT_DRAWS, (-2, 2), (-3, 3), (-3, 3), (-2, 2))
    z = ProductPoint(UpperHalfPoint(x1, y1), UpperHalfPoint(x2, y2))
    worst = flow_equivariance_defect(params, z, SolElement(t, x, y), s)
    rows.append(check_row("flow-equivariance", worst, 1e-12,
                          "the normal flow commutes with every leaf action"))

    # per sample: a point, then a flow time
    x1, x2, y1, y2, t = _uniform_columns(rng, min(samples, 100), *_PRODUCT_DRAWS, (-1.5, 1.5))
    z = ProductPoint(UpperHalfPoint(x1, y1), UpperHalfPoint(x2, y2))
    worst = float(geodesic_residual(ghyp, lambda u: normal_flow(z, u).coords(), t).max())
    rows.append(check_row("flow-geodesic", worst, 1e-6,
                          "flow lines are geodesics of the product metric"))

    x1, x2, y1, y2, s = _uniform_columns(rng, min(samples, 200), *_PRODUCT_DRAWS, (-2, 2))
    z = ProductPoint(UpperHalfPoint(x1, y1), UpperHalfPoint(x2, y2))
    worst = float(np.abs(flow_speed(z, s) - 1.0).max())
    rows.append(check_row("flow-unit-speed", worst, 1e-10,
                          "the normal field has unit length everywhere"))

    # per sample: the heights of a base point, then an element (t, x, y)
    y1, y2, *txy = _uniform_columns(rng, min(samples, 60), (0.4, 2.5), (0.4, 2.5),
                                    (-1.5, 1.5), (-2, 2), (-2, 2))
    base = ProductPoint(UpperHalfPoint(0.0, y1), UpperHalfPoint(0.0, y2))
    num = _fd.pullback(ghyp.matrix,
                       lambda c: leaf_embed(STANDARD, base, SolElement(*c)).coords(), txy)
    worst = float(np.abs(num - leaf_metric(base, txy[0])).max())
    rows.append(check_row("leaf-metric", worst, 1e-10,
                          "each leaf inherits the solvable model metric"))

    worst = 0.0
    for t in (-1.0, 0.0, 1.0):
        for s in (-1.0, 0.0, 1.0):
            ev = shape_operator(t, s).eigenvalues
            worst = max(worst, float(np.abs(ev - np.array([-1.0, -1.0, 0.0])).max()))
    rows.append(check_row("shape-spectrum", worst, 1e-6,
                          "principal curvatures of every leaf are -1, -1, 0"))

    sep = leaf_separation_numeric(0.0, 1.0)
    res = abs(sep.value - leaf_separation(0.0, 1.0)) + (0.0 if sep.converged else 1.0)
    rows.append(check_row("leaf-separation", res, 1e-4,
                          "distance between leaves equals the gap of their parameters"))

    # per sample: chart coordinates (t, x, y, s), then a point
    t, x, y, s, x1, x2, y1, y2 = _uniform_columns(rng, samples, *[(-2, 2)] * 4,
                                                  *_PRODUCT_DRAWS)
    txys = np.array([t, x, y, s])
    back = np.array(rectify_inverse(rectify(t, x, y, s)))
    backi = np.array(rectify_isometric_inverse(rectify_isometric(t, x, y, s)))
    z = ProductPoint(UpperHalfPoint(x1, y1), UpperHalfPoint(x2, y2))
    again = rectify(*rectify_inverse(z))
    worst = float(max(np.abs(back - txys).max(), np.abs(backi - txys).max(),
                      np.abs(again.coords() - z.coords()).max()))
    rows.append(check_row("rectify-roundtrip", worst, 1e-12,
                          "the straightening charts invert exactly"))
    return rows


def _suite_heis(cfg: Dict[str, object]) -> List[CheckRow]:
    rng = np.random.default_rng(cfg["seed"])
    samples = cfg["samples"]
    rows: List[CheckRow] = []

    # per sample: three elements g, h, k
    g, h, k = (HeisElement(*abc) for abc in
               _uniform_columns(rng, samples, *[(-3, 3)] * 9).reshape(3, 3, -1))
    lhs = heis_mul(heis_mul(g, h), k)
    rhs = heis_mul(g, heis_mul(h, k))
    e = heis_mul(g, g.inverse())
    worst = float(np.abs([lhs.a - rhs.a, lhs.b - rhs.b, lhs.c - rhs.c,
                          e.a, e.b, e.c]).max())
    rows.append(check_row("group-axioms", worst, 1e-14,
                          "associativity and inverses hold to machine precision"))

    zr, zi, p, q = _uniform_columns(rng, min(samples, 200), *_MIXED_DRAWS)
    m = MixedPoint(zr + 1j * zi, UpperHalfPoint(p, q))
    bad = np.count_nonzero(np.linalg.matrix_rank(heis_leaf_jacobian(m)) != 3)
    rows.append(check_row("jacobian-rank", float(bad), 0.0,
                          "every orbit map is an immersion of rank 3"))

    # per sample: an element (a, b, c), then a height exponent s
    a, b, c, s = _uniform_columns(rng, samples, *[(-3, 3)] * 3, (-2, 2))
    g2, s2 = heis_rectify_inverse(heis_rectify(HeisElement(a, b, c), s))
    worst = float(np.abs([g2.a - a, g2.b - b, g2.c - c, s2 - s]).max())
    rows.append(check_row("rectify-roundtrip", worst, 1e-12,
                          "the group-times-height chart inverts exactly"))

    # per sample: a height y0, then an element (a, b, c)
    y0, *abc = _uniform_columns(rng, min(samples, 50), (0.4, 2.5), *[(-2, 2)] * 3)
    base = MixedPoint(0j, UpperHalfPoint(0.0, y0))
    num = _fd.pullback(MetricSpec.euclidean_times_hyperbolic().matrix,
                       lambda c: heis_act(HeisElement(*c), base).coords(), abc)
    worst = float(np.abs(num - heis_pullback_metric(y0)).max())
    rows.append(check_row("pullback-metric", worst, 1e-10,
                          "orbit metric is flat left-invariant with height weights"))

    comm = heis_commutator(HeisElement(1, 0, 0), HeisElement(0, 1, 0))
    rows.append(check_row("commutator", max(abs(comm.a), abs(comm.b), abs(comm.c - 1)),
                          0.0, "the horizontal generators commute to the central one"))

    g = _uniform_columns(rng, samples, *[(-5, 5)] * 3)
    lat, rep = heis_reduce_mod_integer_lattice(HeisElement(*g))
    lat2, rep2 = heis_reduce_mod_integer_lattice(rep)
    prod = np.array(heis_mul(lat, rep).triple())
    rep, lat2, rep2 = (np.array(h.triple()) for h in (rep, lat2, rep2))
    in_cube = ((0 <= rep) & (rep < 1)).all()
    worst = float(max(np.abs(prod - g).max(), 0.0 if in_cube else 1.0,
                      np.abs(lat2).max(), np.abs(rep2 - rep).max()))
    rows.append(check_row("cube-reduction", worst, 1e-12,
                          "unit-cube representatives are unique and consistent"))

    diff = 0
    for n in range(1, 5):
        cg, ca = factored_proper_discontinuity_check(heis_word_ball(n))
        diff = max(diff, abs(cg - ca))
    rows.append(check_row("factored-counts", float(diff), 0.0,
                          "group-side and ambient-side intersection counts agree"))

    sep = heis_leaf_separation_numeric(0.0, 1.0)
    # the leaves at heights e^{s0} and e^{s1} are |s1 - s0| apart, as in sol
    res = abs(sep.value - leaf_separation(0.0, 1.0)) + (0.0 if sep.converged else 1.0)
    rows.append(check_row("leaf-separation", res, 1e-4,
                          "distance between orbit leaves equals the height gap"))
    return rows


_TEST_BOX = ((0.1, 0.9), (1.0, 2.0), (0.1, 0.9), (1.0, 2.0))


def _suite_kleinian(cfg: Dict[str, object]) -> List[CheckRow]:
    samples, A = cfg["samples"], cfg["A"]
    spec = _spec_or_error(A)
    _check_lam_power(spec, max(cfg["N"], 8))
    rows: List[CheckRow] = []

    expected = 1 + sum(4 * r * r + 2 for r in range(1, 5))
    rows.append(check_row("word-ball-size", float(abs(len(word_ball(4)) - expected)),
                          0.0, "the radius-4 ball has 129 elements"))

    kres = pseudo_limit_kernels(spec, cfg["N"])
    # the float classifier against the exact family each line was built in
    misfiled = sum(1 for l in kres.lines if classify_limit_line(l.line)[0] != l.family)
    has_inf = any(l.family == "infinity" for l in kres.lines)
    res = misfiled + (0 if has_inf or cfg["N"] == 0 else 1)
    rows.append(check_row("limit-kernels", float(res), 0.0,
                          "every accumulation kernel is a line in the two real pencils "
                          "or the line at infinity"))

    # the two-pencil rule, its witness checked by the float search and its
    # bound by the exact zeros that put pencil 1 through [0:1:0], pencil 2
    # through [1:0:0] and the line at infinity through both
    gp = limit_general_position(kres)
    witness = [kres.lines[i].line for i in gp.witness]
    off_base = sum(1 for l in kres.lines
                   if (l.family != "pencil2" and l.line.dual[1] != 0)
                   or (l.family != "pencil1" and l.line.dual[0] != 0))
    # no lines at N = 0; at N = 1 one per pencil and the line at infinity
    size = {0: 0, 1: 3}.get(cfg["N"], 4)
    res = (abs(gp.size - size) + (gp.size - general_position_max(witness).size)
           + off_base)
    rows.append(check_row("general-position", float(res), 0.0,
                          "at most four of the limit lines are in general position"))

    c1 = len(intersecting_elements(spec, _TEST_BOX, 4))
    c2 = len(intersecting_elements(spec, _TEST_BOX, 8))
    rows.append(check_row("discontinuity-stable", float(abs(c1 - c2)), 0.0,
                          "only finitely many elements move the test box onto itself"))

    (a, b), (c, d) = A
    # (A, B, the status a correct decision returns); the last pair has trace
    # 6 and is not conjugate
    iso_cases = ((A, A, "found"), (A, ((d, -b), (-c, a)), "found"),
                 (A, ((3, 2), (1, 1)) if a + d != 4 else ((2, 1), (1, 1)), "refuted"),
                 (((5, 4), (1, 1)), ((3, 2), (4, 3)), "refuted"))
    iso_bad = sum(lattice_iso_test(P, Q).status != want for P, Q, want in iso_cases)
    rows.append(check_row("lattice-iso", float(iso_bad), 0.0,
                          "R/L run words decide conjugacy: matches carry an integer "
                          "conjugator, a trace or word mismatch refutes"))

    rows.append(_embed_agreement(spec, cfg["seed"], min(samples, 300)))
    return rows


def _embed_agreement(spec: ToralGroupSpec, seed: int, samples: int) -> CheckRow:
    """The toral action on samples points of H x H, each moved by a word of
    the radius-2 ball, three ways, each once over the samples: toral_act, the
    reference, the solvable action and the projective one in the chart z3 = 1."""
    ball = word_ball(2)
    rng = np.random.default_rng(seed)
    # one block per entry, in this order: a word per point, the points'
    # (x1, x2), then their (y1, y2)
    words = rng.integers(0, len(ball), size=(samples, 1))
    x = rng.uniform(-3.0, 3.0, size=(samples, 2))
    y = rng.uniform(0.3, 4.0, size=(samples, 2))
    X = np.stack((x, y), axis=2).reshape(samples, 4)
    G = ball[words[:, 0]]
    z = ProductPoint.from_coords(X.T)
    direct = toral_act(spec, G.T, z).coords().T
    via_sol = sol_act(STANDARD, sol_lattice_embed(spec, *G.T), z).coords().T
    # stacked matrices on normalized (z1, z2, 1): the bits of one matmul and
    # two normalizations per sample
    V = _normalize_rows(np.column_stack([X.view(complex), np.ones(samples)]))
    img = _normalize_rows(np.matmul(toral_element(spec, *G.T).astype(complex),
                                    V[:, :, None])[:, :, 0])
    via_proj = (img[:, :2] / img[:, 2:]).view(float)
    worst = float(np.abs(np.concatenate([direct - via_sol, direct - via_proj])).max())
    return check_row("embed-agreement", worst, 1e-10,
                     "projective, affine, and solvable descriptions of the "
                     "action coincide")


def _suite_quotient(cfg: Dict[str, object]) -> List[CheckRow]:
    spec = _spec_or_error(cfg["A"])
    # the radius-2 words reach lam^2, and their reduction one power more
    _check_lam_power(spec, 3)
    n, seed = min(cfg["samples"], 300), cfg["seed"]
    rows = (("sol", sol_quotient_check(spec, samples=n, seed=seed)),
            ("heis", heis_quotient_check((1, 1, 1), samples=n, seed=seed)))
    return [replace(c, name=f"{tag}-{c.name}") for tag, checks in rows for c in checks]


_SUITES: Dict[str, Callable[[Dict[str, object]], List[CheckRow]]] = {
    "sol": _suite_sol, "heis": _suite_heis,
    "kleinian": _suite_kleinian, "quotient": _suite_quotient,
}


def run_suite(cfg: Dict[str, object]) -> List[CheckRow]:
    """Execute the suite cfg["suite"] and return its check rows, each
    threshold multiplied by cfg["tol-scale"]; "all" runs every suite in turn
    and prefixes each row name with its suite."""
    if cfg["suite"] != "all":
        rows = _SUITES[cfg["suite"]](cfg)
    else:
        rows = [replace(r, name=f"{name}/{r.name}")
                for name, suite in _SUITES.items() for r in suite(cfg)]
    scale = cfg["tol-scale"]
    return [check_row(r.name, r.residual, r.threshold * scale, r.claim)
            for r in rows]


def _report_json(suite: str, seed: int, rows: Sequence[CheckRow]) -> str:
    doc = {
        "suite": suite,
        "seed": seed,
        "checks": [
            {"name": r.name, "residual": r.residual, "threshold": r.threshold,
             "pass": r.passed, "claim": r.claim}
            for r in rows
        ],
    }
    return _json_line(doc)


# ---------------------------------------------------------------------------
# commands

def _cmd_verify(cfg: Dict[str, object]) -> int:
    rows = run_suite(cfg)
    _emit(_report_json(cfg["suite"], cfg["seed"], rows), cfg["out"])
    return 0 if all(r.passed for r in rows) else 1


def _cmd_export(sub: str, cfg: Dict[str, object]) -> int:
    if sub == "flow":
        z = ProductPoint.from_coords(cfg["z"])
        rows = _positive_rows("s-range", lambda s: normal_flow(z, s).coords().tolist(),
                              _range_values(cfg["s-range"]), (2, 4))
        return _emit_table(cfg, ["s", "x1", "y1", "x2", "y2"], rows)
    if sub == "leaf-metric":
        def metric_row(y1: float, y2: float) -> Callable[[float], List[float]]:
            base = ProductPoint(UpperHalfPoint(0.0, y1), UpperHalfPoint(0.0, y2))
            return lambda t: leaf_metric(base, t).diagonal().tolist()
        # g_xx depends on y1 alone and g_yy on y2 alone: a height whose own
        # row at t = 0 fails is named before the range
        for key in ("y1", "y2"):
            _positive_rows(key, metric_row(cfg[key], cfg[key]), [0.0], (1, 2, 3))
        rows = _positive_rows("t-range", metric_row(cfg["y1"], cfg["y2"]),
                              _range_values(cfg["t-range"]), (1, 2, 3))
        return _emit_table(cfg, ["t", "g_tt", "g_xx", "g_yy"], rows)
    if sub == "limit-set":
        spec = _spec_or_error(cfg["A"])
        _check_lam_power(spec, cfg["N"])
        res = pseudo_limit_kernels(spec, cfg["N"])
        # (re, im) of every dual entry as Python floats, read from one array
        duals = np.array([item.line.dual for item in res.lines],
                         dtype=complex).view(float).reshape(-1, 3, 2).tolist()
        lines = [{"dual": dual, "cluster_size": item.weight, "family": item.family,
                  "parameter": item.parameter} for item, dual in zip(res.lines, duals)]
        doc = {
            "A": [list(r) for r in cfg["A"]],
            "N": cfg["N"],
            "lam": spec.lam,
            "lines": lines,
            "points": [],
            "nonconverged": [],
        }
        _emit(_json_line(doc), cfg["out"])
        return 0
    if sub == "orbit":
        spec = _spec_or_error(cfg["A"])
        b1, b2 = cfg["base"]
        if b1.imag <= 0 or b2.imag <= 0:
            raise ConfigError("base", "base must lie in the product of upper "
                                      "half planes")
        ball = word_ball(cfg["N"])
        try:
            with np.errstate(over="ignore"):      # an overflow to inf is refused below
                moved = toral_act(spec, ball.T, ProductPoint.from_complex(b1, b2)).coords()
        except (ArithmeticError, ValueError):
            moved = np.array(np.nan)
        if not np.isfinite(moved).all():
            raise ConfigError("N", "N gives an orbit coordinate that is not a finite "
                                   "float or a height that is not positive")
        rows = [g + x for g, x in zip(ball.tolist(), moved.T.tolist())]
        return _emit_table(cfg, ["k", "n", "m", "x1", "y1", "x2", "y2"], rows)
    # domain
    spec = _spec_or_error(cfg["A"])
    doc = {
        "A": [list(r) for r in cfg["A"]],
        "lam": spec.lam,
        "height_interval": [1.0, spec.lam],
        "lattice_basis_columns": [[spec.P_inv[0, 0], spec.P_inv[1, 0]],
                                  [spec.P_inv[0, 1], spec.P_inv[1, 1]]],
        "description": "first height in [1, lam); horizontal pair in the "
                       "half-open unit cell spanned by the basis columns",
    }
    _emit(_json_line(doc), cfg["out"])
    return 0


def _positive_rows(field: str, row: Callable[[float], List[float]],
                   values: List[float], columns: Tuple[int, ...]) -> List[List]:
    """The rows [v, *row(v)] of a table, whose given columns must hold finite
    positive floats; a row that overflows, divides by an underflowed zero or
    leaves the positive floats exits 2 naming field."""
    try:
        rows = [[v, *row(v)] for v in values]
        ok = all(math.isfinite(r[i]) and r[i] > 0 for r in rows for i in columns)
    except (ArithmeticError, ValueError):
        ok = False
    if not ok:
        raise ConfigError(field, f"{field} gives a coefficient or height that is "
                                 "not a finite positive float")
    return rows


def _emit_table(cfg: Dict[str, object], header: List[str], rows: List[List]) -> int:
    if cfg["format"] == "csv":
        _emit(_csv_text(header, rows), cfg["out"])
    else:
        _emit(_json_line([dict(zip(header, row)) for row in rows]), cfg["out"])
    return 0


def _report_checks(doc) -> List[dict]:
    """The check rows of a verify report: an object whose checks are objects,
    each with a string name, a finite residual and threshold, and a bool pass
    that says whether the residual is at most the threshold.  Any other
    document exits 2 with field in."""
    checks = doc.get("checks", []) if type(doc) is dict else None
    if type(checks) is not list or not all(type(c) is dict for c in checks):
        raise ConfigError("in", "report must be an object whose checks are a list "
                                 "of objects")
    for c in checks:
        if type(c.get("name", "")) is not str:
            raise ConfigError("in", "a check name must be a string")
        for key in ("residual", "threshold"):
            v = c.get(key, 0.0)
            try:
                ok = type(v) in (int, float) and math.isfinite(v)
            except OverflowError:       # an integer beyond the floats
                ok = False
            if not ok:
                raise ConfigError("in", f"a check {key} must be a finite number")
        if type(c.get("pass")) is not bool:
            raise ConfigError("in", "a check pass must be true or false")
        if c["pass"] != (c.get("residual", 0.0) <= c.get("threshold", 0.0)):
            raise ConfigError("in", "a check pass must say whether its residual "
                                    "is at most its threshold")
    return checks


def _cmd_report(cfg: Dict[str, object]) -> int:
    if cfg["in"] is None:
        raise ConfigError("in", "report needs --in FILE")
    try:
        with open(str(cfg["in"]), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as e:
        raise ConfigError("in", f"cannot read report: {e}")
    checks = _report_checks(doc)
    width = max([len(c.get("name", "")) for c in checks] + [4])
    lines = [f"suite: {doc.get('suite', '?')}    seed: {doc.get('seed', '?')}"]
    lines.append(f"{'name'.ljust(width)}  {'residual':>12}  {'threshold':>12}  pass")
    for c in checks:
        lines.append(
            f"{c.get('name', '').ljust(width)}  "
            f"{float(c.get('residual', 0.0))!r:>12}  "
            f"{float(c.get('threshold', 0.0))!r:>12}  "
            f"{'yes' if c.get('pass') else 'NO'}")
    npass = sum(1 for c in checks if c.get("pass"))
    lines.append(f"summary: {npass}/{len(checks)} checks passed")
    _emit("\n".join(lines) + "\n", cfg["out"])
    return 0 if npass == len(checks) else 1


# ---------------------------------------------------------------------------
# entry point

# Flags of each command and export target: key -> (parser, default).  The key
# is at once the long flag without its "--" and the config-file key; a
# table's order is the order in which its values are parsed.
_FORMAT = (_parse_choice("format", ("csv", "json")), "csv")
_FLAGS: Dict[str, Dict[str, Tuple[Callable, object]]] = {
    "verify": {"suite": (_parse_choice("suite", (*_SUITES, "all")), "all"),
               "seed": (_parse_int("seed", lo=0), 0),
               "samples": (_parse_int("samples", lo=1, hi=_MAX_SAMPLES), 500),
               "tol-scale": (_parse_pos_float("tol-scale"), 1.0),
               "A": (_parse_matrix, ((2, 1), (1, 1))),
               "lambda": (_parse_pos_float("lambda", _LAMBDA_RANGE), None),
               "N": (_parse_int("N", lo=0, hi=_MAX_LIMIT_N), 6),
               "out": (str, None)},
    "flow": {"z": (_parse_point4("z"), (0.0, 1.0, 0.0, 1.0)),
             "s-range": (_parse_range("s-range"), (-2.0, 2.0, 0.1)),
             "out": (str, None), "format": _FORMAT},
    "leaf-metric": {"y1": (_parse_pos_float("y1"), 1.0 / math.sqrt(2.0)),
                    "y2": (_parse_pos_float("y2"), 1.0 / math.sqrt(2.0)),
                    "t-range": (_parse_range("t-range"), (-2.0, 2.0, 0.25)),
                    "out": (str, None), "format": _FORMAT},
    "limit-set": {"A": (_parse_matrix, ((2, 1), (1, 1))),
                  "N": (_parse_int("N", lo=0, hi=_MAX_LIMIT_N), 8),
                  "out": (str, None)},
    "orbit": {"A": (_parse_matrix, ((2, 1), (1, 1))),
              "N": (_parse_int("N", lo=0, hi=_MAX_N), 4),
              "base": (_parse_base, (1j, 1j)),
              "out": (str, None), "format": _FORMAT},
    "domain": {"A": (_parse_matrix, ((2, 1), (1, 1))),
               "out": (str, None)},
    "report": {"in": (str, None), "out": (str, None)},
}
_EXPORTS = ("flow", "leaf-metric", "limit-set", "orbit", "domain")
_HELP = ("-h", "--help")


def _command_line(args: List[str]) -> Optional[Tuple[str, Dict[str, str]]]:
    """The flag table and flag values of verify, report or export TARGET, then
    --key value or --key=value pairs, each value taken whole and the last of
    a repeated key kept; None for -h or --help where a command, a target or
    a flag is expected."""
    command, *rest = args or [""]
    table, field, choices = command, "command", ("verify", "export", "report")
    if command == "export":
        table, *rest = rest or [""]
        field, choices = "target", _EXPORTS
    if table in _HELP:
        return None
    _parse_choice(field, choices)(table)
    keys = {*_FLAGS[table], "config"}
    flags: Dict[str, str] = {}
    words = iter(rest)
    for tok in words:
        if tok in _HELP:
            return None
        key, eq, value = tok.removeprefix("--").partition("=")
        if key not in keys or not tok.startswith("--"):
            raise ConfigError(key or tok, f"{table} has no flag {tok!r}")
        value = value if eq else next(words, None)
        if value is None:
            raise ConfigError(key, f"--{key} needs a value")
        flags[key] = value
    return table, flags


def _usage() -> str:
    return "".join(f"usage: solfold {'export ' if table in _EXPORTS else ''}{table} "
                   + " ".join(f"[--{key} {key.upper()}]" for key in [*flags, "config"])
                   + "\n" for table, flags in _FLAGS.items())


def _resolve(flags: Dict[str, str],
             table: Dict[str, Tuple[Callable, object]]) -> Dict[str, object]:
    """Merge flag values, config-file values, and defaults; flags win."""
    cfg_file = _load_config_file(flags["config"]) if "config" in flags else {}
    for key in cfg_file:
        if key not in table:
            raise ConfigError(key, f"unknown config key {key!r}")
    raw = {**cfg_file, **flags}
    return {key: cast(raw[key]) if key in raw else default
            for key, (cast, default) in table.items()}


def main(argv: Optional[List[str]] = None) -> int:
    try:
        parsed = _command_line(list(sys.argv[1:]) if argv is None else list(argv))
        if parsed is None:
            sys.stdout.write(_usage())
            return 0
        table, flags = parsed
        cfg = _resolve(flags, _FLAGS[table])
        if table in _EXPORTS:
            return _cmd_export(table, cfg)
        return _cmd_verify(cfg) if table == "verify" else _cmd_report(cfg)
    except ConfigError as e:
        sys.stdout.write(_json_line({"error": {"field": e.field, "message": str(e)}}))
        return 2
    except OSError as e:
        sys.stdout.write(_json_line({"error": {"field": "out", "message": str(e)}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: verification suites, data exports, report rendering.

Grammar: solfold <verify|export|report> [subcommand] [flags].  Reports are
JSON with one row per check; exports are CSV or JSON.  Identical
configuration and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import _fd
from .geometry import (MetricSpec, MixedPoint, ProductPoint, UpperHalfPoint,
                       geodesic_residual, metric_norm, rand_mixed, rand_product)
from .heisenberg import (HeisElement, UNIT_CUBE,
                         factored_proper_discontinuity_check, heis_act,
                         heis_commutator, heis_leaf_jacobian,
                         heis_leaf_separation_numeric, heis_mul,
                         heis_pullback_metric, heis_rectify,
                         heis_rectify_inverse, heis_reduce_mod_integer_lattice,
                         heis_word_ball)
from .kleinian import (ProjectivePoint, ToralGroupSpec, classify_limit_line,
                       general_position_max, lattice_iso_test,
                       proper_discontinuity_count, projective_act,
                       pseudo_limit_kernels, sol_lattice_embed, toral_act,
                       toral_element, word_ball)
from .quotient import (CheckRow, check_row, heis_quotient_check,
                       sol_quotient_check)
from .sol import (SolElement, SolParams, flow_equivariance_defect, leaf_embed,
                  leaf_metric, leaf_separation_numeric, normal_flow,
                  normal_flow_velocity, rectify, rectify_inverse,
                  rectify_isometric, rectify_isometric_inverse, shape_operator,
                  sol_act)


class ConfigError(Exception):
    """Invalid configuration; carries the offending field name."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


# ---------------------------------------------------------------------------
# deterministic serialization

def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("cannot serialize a non-finite number")
    return format(float(x), ".17g")


def _json_text(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{inner}{json.dumps(str(k))}: {_json_text(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        parts = [f"{inner}{_json_text(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    # every cell is a number, written exactly as in the JSON exports
    lines = [",".join(header)]
    lines.extend(",".join(_json_text(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# parsing

def _parse_int(field: str, lo: Optional[int] = None):
    def cast(s: str) -> int:
        try:
            v = int(s)
        except ValueError:
            raise ConfigError(field, f"{field} must be an integer, got {s!r}")
        if lo is not None and v < lo:
            raise ConfigError(field, f"{field} must be at least {lo}")
        return v
    return cast


def _parse_pos_float(field: str):
    def cast(s: str) -> float:
        try:
            v = float(s)
        except ValueError:
            raise ConfigError(field, f"{field} must be a number, got {s!r}")
        if not v > 0:
            raise ConfigError(field, f"{field} must be positive")
        return v
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
    t = token.strip().replace("i", "j")
    if t in ("j", "+j"):
        t = "1j"
    elif t == "-j":
        t = "-1j"
    else:
        t = t.replace("+j", "+1j").replace("-j", "-1j")
    try:
        return complex(t)
    except ValueError:
        raise ConfigError(field, f"cannot parse complex number {token!r}")


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
        return vals
    return cast


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
        return (a, b, step)
    return cast


def _range_values(r: Tuple[float, float, float]) -> List[float]:
    a, b, step = r
    n = int(math.floor((b - a) / step + 1e-9)) + 1
    return [a + i * step for i in range(n)]


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


# Flags of each command and export target: key -> (parser, default).  The key
# is at once the long flag without its "--", the config-file key, and the
# argparse dest; a table's order is the order in which its values are parsed.
_FLAGS: Dict[str, Dict[str, Tuple[Callable, object]]] = {
    "verify": {"suite": (str, "all"),
               "seed": (_parse_int("seed"), 0),
               "samples": (_parse_int("samples", lo=1), 500),
               "tol-scale": (_parse_pos_float("tol-scale"), 1.0),
               "A": (_parse_matrix, ((2, 1), (1, 1))),
               "lambda": (_parse_pos_float("lambda"), None),
               "N": (_parse_int("N", lo=0), 6),
               "out": (str, None), "format": (str, "json")},
    "flow": {"z": (_parse_point4("z"), (0.0, 1.0, 0.0, 1.0)),
             "s-range": (_parse_range("s-range"), (-2.0, 2.0, 0.1)),
             "out": (str, None), "format": (str, "csv")},
    "leaf-metric": {"y1": (_parse_pos_float("y1"), 1.0 / math.sqrt(2.0)),
                    "y2": (_parse_pos_float("y2"), 1.0 / math.sqrt(2.0)),
                    "t-range": (_parse_range("t-range"), (-2.0, 2.0, 0.25)),
                    "out": (str, None), "format": (str, "csv")},
    "limit-set": {"A": (_parse_matrix, ((2, 1), (1, 1))),
                  "N": (_parse_int("N", lo=0), 8),
                  "seed": (_parse_int("seed"), 0),
                  "out": (str, None), "format": (str, "json")},
    "orbit": {"A": (_parse_matrix, ((2, 1), (1, 1))),
              "N": (_parse_int("N", lo=0), 4),
              "base": (_parse_base, (1j, 1j)),
              "out": (str, None), "format": (str, "csv")},
    "domain": {"A": (_parse_matrix, ((2, 1), (1, 1))),
               "seed": (_parse_int("seed"), 0),
               "out": (str, None), "format": (str, "json")},
    "report": {"in": (str, None), "out": (str, None)},
}
_EXPORTS = ("flow", "leaf-metric", "limit-set", "orbit", "domain")

# Flags whose values may begin with a minus sign without being a plain
# negative integer (ranges, points, matrices, floats such as -1e-3), which
# argparse would take for an option; string and integer flags are left out.
_VALUE_FLAGS = {"--" + key for table in _FLAGS.values()
                for key, (cast, default) in table.items()
                if cast is not str and not isinstance(default, int)}


def _resolve(ns: argparse.Namespace,
             table: Dict[str, Tuple[Callable, object]]) -> Dict[str, object]:
    """Merge flag values, config-file values, and defaults; flags win."""
    cfg_file = _load_config_file(ns.config) if ns.config else {}
    for key in cfg_file:
        if key not in table:
            raise ConfigError(key, f"unknown config key {key!r}")
    resolved: Dict[str, object] = {}
    for key, (cast, default) in table.items():
        raw = getattr(ns, key)
        if raw is None:
            raw = cfg_file.get(key)
        resolved[key] = default if raw is None else cast(raw)
    return resolved


# ---------------------------------------------------------------------------
# verification suites

def _suite_sol(cfg: Dict[str, object]) -> List[CheckRow]:
    rng = np.random.default_rng(cfg["seed"])
    samples, scale, lam = cfg["samples"], cfg["tol-scale"], cfg["lambda"]
    try:
        params = SolParams.standard() if lam is None else SolParams(lam)
    except ValueError as e:
        raise ConfigError("lambda", str(e))
    rows: List[CheckRow] = []
    ghyp = MetricSpec.half_hyperbolic_product()

    worst = 0.0
    for _ in range(samples):
        z = rand_product(rng, 0.3, 4.0)
        g = SolElement(rng.uniform(-2, 2), rng.uniform(-3, 3), rng.uniform(-3, 3))
        worst = max(worst, flow_equivariance_defect(params, z, g, rng.uniform(-2, 2)))
    rows.append(check_row("flow-equivariance", worst, 1e-12,
                          "the normal flow commutes with every leaf action", scale))

    worst = 0.0
    for _ in range(min(samples, 100)):
        z = rand_product(rng, 0.3, 4.0)
        curve = lambda u: normal_flow(z, u).coords()
        worst = max(worst, geodesic_residual(ghyp, curve, rng.uniform(-1.5, 1.5)))
    rows.append(check_row("flow-geodesic", worst, 1e-6,
                          "flow lines are geodesics of the product metric", scale))

    worst = 0.0
    for _ in range(min(samples, 200)):
        z = rand_product(rng, 0.3, 4.0)
        s = rng.uniform(-2, 2)
        speed = metric_norm(ghyp, normal_flow(z, s), normal_flow_velocity(z, s))
        worst = max(worst, abs(speed - 1.0))
    rows.append(check_row("flow-unit-speed", worst, 1e-10,
                          "the normal field has unit length everywhere", scale))

    worst = 0.0
    for _ in range(min(samples, 60)):
        y1, y2 = rng.uniform(0.4, 2.5, size=2)
        base = ProductPoint(UpperHalfPoint(0.0, y1), UpperHalfPoint(0.0, y2))
        txy = np.array([rng.uniform(-1.5, 1.5), rng.uniform(-2, 2), rng.uniform(-2, 2)])
        embed = lambda c: leaf_embed(SolParams.standard(), base,
                                     SolElement(c[0], c[1], c[2])).coords()
        num = _fd.pullback(ghyp.matrix, embed, txy)
        worst = max(worst, float(np.abs(num - leaf_metric(base, txy[0])).max()))
    rows.append(check_row("leaf-metric", worst, 1e-10,
                          "each leaf inherits the solvable model metric", scale))

    worst = 0.0
    for t in (-1.0, 0.0, 1.0):
        for s in (-1.0, 0.0, 1.0):
            ev = np.sort(shape_operator(t, s).eigenvalues)
            worst = max(worst, float(np.abs(ev - np.array([-1.0, -1.0, 0.0])).max()))
    rows.append(check_row("shape-spectrum", worst, 1e-6,
                          "principal curvatures of every leaf are -1, -1, 0", scale))

    sep = leaf_separation_numeric(0.0, 1.0)
    res = abs(sep.value - 1.0) + (0.0 if sep.converged else 1.0)
    rows.append(check_row("leaf-separation", res, 1e-4,
                          "distance between leaves equals the gap of their parameters",
                          scale))

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
                          "the straightening charts invert exactly", scale))
    return rows


def _suite_heis(cfg: Dict[str, object]) -> List[CheckRow]:
    rng = np.random.default_rng(cfg["seed"])
    samples, scale = cfg["samples"], cfg["tol-scale"]
    rows: List[CheckRow] = []

    worst = 0.0
    for _ in range(samples):
        g, h, k = (HeisElement(*rng.uniform(-3, 3, size=3)) for _ in range(3))
        lhs = heis_mul(heis_mul(g, h), k)
        rhs = heis_mul(g, heis_mul(h, k))
        worst = max(worst, abs(lhs.a - rhs.a), abs(lhs.b - rhs.b), abs(lhs.c - rhs.c))
        e = heis_mul(g, g.inverse())
        worst = max(worst, abs(e.a), abs(e.b), abs(e.c))
    rows.append(check_row("group-axioms", worst, 1e-14,
                          "associativity and inverses hold to machine precision", scale))

    bad = 0
    for _ in range(min(samples, 200)):
        m = rand_mixed(rng, 0.3, 4.0)
        if np.linalg.matrix_rank(heis_leaf_jacobian(m)) != 3:
            bad += 1
    rows.append(check_row("jacobian-rank", float(bad), 0.0,
                          "every orbit map is an immersion of rank 3", scale))

    worst = 0.0
    for _ in range(samples):
        g = HeisElement(*rng.uniform(-3, 3, size=3))
        s = rng.uniform(-2, 2)
        g2, s2 = heis_rectify_inverse(heis_rectify(g, s))
        worst = max(worst, abs(g2.a - g.a), abs(g2.b - g.b), abs(g2.c - g.c),
                    abs(s2 - s))
    rows.append(check_row("rectify-roundtrip", worst, 1e-12,
                          "the group-times-height chart inverts exactly", scale))

    worst = 0.0
    geh = MetricSpec.euclidean_times_hyperbolic()
    for _ in range(min(samples, 50)):
        y0 = rng.uniform(0.4, 2.5)
        abc = rng.uniform(-2, 2, size=3)
        base = MixedPoint(0j, UpperHalfPoint(0.0, y0))
        embed = lambda c: heis_act(HeisElement(c[0], c[1], c[2]), base).coords()
        num = _fd.pullback(geh.matrix, embed, abc)
        worst = max(worst, float(np.abs(num - heis_pullback_metric(y0)).max()))
    rows.append(check_row("pullback-metric", worst, 1e-10,
                          "orbit metric is flat left-invariant with height weights", scale))

    comm = heis_commutator(HeisElement(1, 0, 0), HeisElement(0, 1, 0))
    rows.append(check_row("commutator", max(abs(comm.a), abs(comm.b), abs(comm.c - 1)),
                          0.0, "the horizontal generators commute to the central one",
                          scale))

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
                          "unit-cube representatives are unique and consistent", scale))

    diff = 0
    for n in range(1, 5):
        cg, ca = factored_proper_discontinuity_check(heis_word_ball(n), UNIT_CUBE, 0.0)
        diff = max(diff, abs(cg - ca))
    rows.append(check_row("factored-counts", float(diff), 0.0,
                          "group-side and ambient-side intersection counts agree", scale))

    sep = heis_leaf_separation_numeric(0.0, 1.0)
    res = abs(sep.value - 1.0) + (0.0 if sep.converged else 1.0)
    rows.append(check_row("leaf-separation", res, 1e-4,
                          "distance between orbit leaves equals the height gap", scale))
    return rows


_TEST_BOX = ((0.1, 0.9), (1.0, 2.0), (0.1, 0.9), (1.0, 2.0))


def _suite_kleinian(cfg: Dict[str, object]) -> List[CheckRow]:
    rng = np.random.default_rng(cfg["seed"])
    samples, scale, A = cfg["samples"], cfg["tol-scale"], cfg["A"]
    spec = _spec_or_error(A)
    rows: List[CheckRow] = []

    expected = 1 + sum(4 * r * r + 2 for r in range(1, 5))
    rows.append(check_row("word-ball-size", float(abs(len(word_ball(spec, 4)) - expected)),
                          0.0, "the radius-4 ball has 129 elements", scale))

    kres = pseudo_limit_kernels(spec, min(cfg["N"], 6))
    unclassified = sum(1 for l in kres.lines
                       if classify_limit_line(l.line)[0] == "unclassified")
    has_inf = any(classify_limit_line(l.line)[0] == "infinity" for l in kres.lines)
    res = unclassified + len(kres.nonconverged) + len(kres.points) + (0 if has_inf else 1)
    rows.append(check_row("limit-kernels", float(res), 0.0,
                          "every accumulation kernel is a line in the two real pencils "
                          "or the line at infinity", scale))

    gp = general_position_max([l.line for l in kres.lines])
    rows.append(check_row("general-position", float(abs(gp.size - 4)), 0.0,
                          "at most four of the limit lines are in general position",
                          scale))

    c1 = proper_discontinuity_count(spec, _TEST_BOX, 4)
    c2 = proper_discontinuity_count(spec, _TEST_BOX, 8)
    rows.append(check_row("discontinuity-stable", float(abs(c1 - c2)), 0.0,
                          "only finitely many elements move the test box onto itself",
                          scale))

    iso_bad = 0
    r1 = lattice_iso_test(A, A)
    iso_bad += 0 if r1.status == "found" else 1
    Ai = np.linalg.inv(np.array(A)).round().astype(int)
    r2 = lattice_iso_test(A, tuple(map(tuple, Ai)))
    iso_bad += 0 if r2.status == "found" else 1
    r3 = lattice_iso_test(A, ((3, 2), (1, 1)) if (A[0][0] + A[1][1]) != 4
                          else ((2, 1), (1, 1)))
    iso_bad += 0 if r3.status == "refuted" else 1
    rows.append(check_row("lattice-iso", float(iso_bad), 0.0,
                          "conjugacy search certifies matches and trace refutes "
                          "mismatches", scale))

    worst = 0.0
    ball = word_ball(spec, 2)
    for _ in range(min(samples, 300)):
        g = ball[int(rng.integers(0, len(ball)))]
        z = rand_product(rng, 0.3, 4.0)
        direct = toral_act(spec, g, z).coords()
        via_sol = sol_act(SolParams.standard(), sol_lattice_embed(spec, *g), z).coords()
        M = toral_element(spec, *g, form="conjugated")
        img = projective_act(M, ProjectivePoint([z.z1.complex, z.z2.complex, 1.0]))
        w1, w2 = img.coords[0] / img.coords[2], img.coords[1] / img.coords[2]
        via_proj = np.array([w1.real, w1.imag, w2.real, w2.imag])
        worst = max(worst, float(np.abs(direct - via_sol).max()),
                    float(np.abs(direct - via_proj).max()))
    rows.append(check_row("embed-agreement", worst, 1e-10,
                          "projective, affine, and solvable descriptions of the "
                          "action coincide", scale))
    return rows


def _suite_quotient(cfg: Dict[str, object]) -> List[CheckRow]:
    spec = _spec_or_error(cfg["A"])
    n, seed = min(cfg["samples"], 300), cfg["seed"]
    reports = (("sol", sol_quotient_check(spec, samples=n, seed=seed)),
               ("heis", heis_quotient_check((1, 1, 1), samples=n, seed=seed)))
    # the reports hold unscaled rows; prefix and scale them for verify
    return [check_row(f"{tag}-{c.name}", c.residual, c.threshold, c.claim,
                      cfg["tol-scale"])
            for tag, rep in reports for c in rep.checks]


_SUITES: Dict[str, Callable[[Dict[str, object]], List[CheckRow]]] = {
    "sol": _suite_sol, "heis": _suite_heis,
    "kleinian": _suite_kleinian, "quotient": _suite_quotient,
}


def run_suite(cfg: Dict[str, object]) -> List[CheckRow]:
    """Execute the suite cfg["suite"] and return its check rows; "all" runs
    every suite in turn and prefixes each row name with its suite."""
    if cfg["suite"] != "all":
        return _SUITES[cfg["suite"]](cfg)
    return [replace(r, name=f"{name}/{r.name}")
            for name, suite in _SUITES.items() for r in suite(cfg)]


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
    return _json_text(doc) + "\n"


# ---------------------------------------------------------------------------
# commands

def _cmd_verify(ns: argparse.Namespace) -> int:
    cfg = _resolve(ns, _FLAGS["verify"])
    if cfg["suite"] != "all" and cfg["suite"] not in _SUITES:
        raise ConfigError("suite", f"unknown suite {cfg['suite']!r}")
    if cfg["format"] != "json":
        raise ConfigError("format", "verify reports are json only")
    rows = run_suite(cfg)
    _emit(_report_json(cfg["suite"], cfg["seed"], rows), cfg["out"])
    return 0 if all(r.passed for r in rows) else 1


def _cmd_export(ns: argparse.Namespace) -> int:
    sub = ns.target
    cfg = _resolve(ns, _FLAGS[sub])
    if sub == "flow":
        z = ProductPoint.from_coords(cfg["z"])
        rows = [[s, *normal_flow(z, s).coords()] for s in _range_values(cfg["s-range"])]
        header = ["s", "x1", "y1", "x2", "y2"]
        return _emit_table(cfg, header, rows)
    if sub == "leaf-metric":
        base = ProductPoint(UpperHalfPoint(0.0, cfg["y1"]),
                            UpperHalfPoint(0.0, cfg["y2"]))
        rows = []
        for t in _range_values(cfg["t-range"]):
            g = leaf_metric(base, t)
            rows.append([t, g[0, 0], g[1, 1], g[2, 2]])
        return _emit_table(cfg, ["t", "g_tt", "g_xx", "g_yy"], rows)
    if sub == "limit-set":
        if cfg["format"] != "json":
            raise ConfigError("format", "limit-set export is json only")
        spec = _spec_or_error(cfg["A"])
        res = pseudo_limit_kernels(spec, cfg["N"])
        lines = []
        for item in res.lines:
            family, r = classify_limit_line(item.line)
            d = item.line.dual
            lines.append({
                "dual": [[d[i].real, d[i].imag] for i in range(3)],
                "cluster_size": item.weight,
                "family": family,
                "parameter": r,
            })
        doc = {
            "A": [list(r) for r in cfg["A"]],
            "N": cfg["N"],
            "seed": cfg["seed"],
            "lam": spec.lam,
            "lines": lines,
            "points": [{"coords": [[p.coords[i].real, p.coords[i].imag]
                                   for i in range(3)], "cluster_size": w}
                       for p, w in res.points],
            "nonconverged": [list(t) for t in res.nonconverged],
        }
        _emit(_json_text(doc) + "\n", cfg["out"])
        return 0
    if sub == "orbit":
        spec = _spec_or_error(cfg["A"])
        b1, b2 = cfg["base"]
        if b1.imag <= 0 or b2.imag <= 0:
            raise ConfigError("base", "base must lie in the product of upper "
                                      "half planes")
        z = ProductPoint.from_complex(b1, b2)
        rows = []
        for g in word_ball(spec, cfg["N"]):
            c = toral_act(spec, g, z).coords()
            rows.append([g[0], g[1], g[2], *c])
        return _emit_table(cfg, ["k", "n", "m", "x1", "y1", "x2", "y2"], rows)
    # domain
    if cfg["format"] != "json":
        raise ConfigError("format", "domain export is json only")
    spec = _spec_or_error(cfg["A"])
    doc = {
        "A": [list(r) for r in cfg["A"]],
        "seed": cfg["seed"],
        "lam": spec.lam,
        "height_interval": [1.0, spec.lam],
        "lattice_basis_columns": [[spec.P_inv[0, 0], spec.P_inv[1, 0]],
                                  [spec.P_inv[0, 1], spec.P_inv[1, 1]]],
        "description": "first height in [1, lam); horizontal pair in the "
                       "half-open unit cell spanned by the basis columns",
    }
    _emit(_json_text(doc) + "\n", cfg["out"])
    return 0


def _emit_table(cfg: Dict[str, object], header: List[str], rows: List[List]) -> int:
    if cfg["format"] == "csv":
        _emit(_csv_text(header, rows), cfg["out"])
    elif cfg["format"] == "json":
        doc = [dict(zip(header, row)) for row in rows]
        _emit(_json_text(doc) + "\n", cfg["out"])
    else:
        raise ConfigError("format", f"unknown format {cfg['format']!r}")
    return 0


def _cmd_report(ns: argparse.Namespace) -> int:
    cfg = _resolve(ns, _FLAGS["report"])
    if cfg["in"] is None:
        raise ConfigError("in", "report needs --in FILE")
    try:
        with open(str(cfg["in"]), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError("in", f"cannot read report: {e}")
    checks = doc.get("checks", [])
    width = max([len(c.get("name", "")) for c in checks] + [4])
    lines = [f"suite: {doc.get('suite', '?')}    seed: {doc.get('seed', '?')}"]
    lines.append(f"{'name'.ljust(width)}  {'residual':>12}  {'threshold':>12}  pass")
    for c in checks:
        lines.append(
            f"{c.get('name', '').ljust(width)}  "
            f"{_fmt_float(float(c.get('residual', 0.0))):>12}  "
            f"{_fmt_float(float(c.get('threshold', 0.0))):>12}  "
            f"{'yes' if c.get('pass') else 'NO'}")
    npass = sum(1 for c in checks if c.get("pass"))
    lines.append(f"summary: {npass}/{len(checks)} checks passed")
    _emit("\n".join(lines) + "\n", cfg["out"])
    return 0 if npass == len(checks) else 1


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="solfold",
                                description="verify and export the foliation "
                                            "and limit-set computations")
    subs = p.add_subparsers(dest="command", required=True)
    v = subs.add_parser("verify", help="run verification suites")
    e = subs.add_parser("export", help="export curves, grids, and limit data")
    e.add_argument("target", choices=_EXPORTS)
    r = subs.add_parser("report", help="render a JSON report as text")
    for sub, tables, func in ((v, ("verify",), _cmd_verify),
                              (e, _EXPORTS, _cmd_export),
                              (r, ("report",), _cmd_report)):
        # export takes the union of its targets' flags and ignores the rest
        for key in dict.fromkeys(k for t in tables for k in _FLAGS[t]):
            sub.add_argument("--" + key, dest=key)
        sub.add_argument("--config")
        sub.set_defaults(func=func)
    return p


def _glue_negative_values(args: List[str]) -> List[str]:
    """Join flags to values that begin with a minus sign so argparse does
    not mistake numbers like -2:2:0.1 for option names."""
    out: List[str] = []
    i = 0
    while i < len(args):
        tok = args[i]
        if (tok in _VALUE_FLAGS and i + 1 < len(args)
                and args[i + 1].startswith("-") and len(args[i + 1]) > 1
                and args[i + 1][1] in "0123456789."):
            out.append(f"{tok}={args[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = list(sys.argv[1:]) if argv is None else list(argv)
    ns = parser.parse_args(_glue_negative_values(args))
    try:
        return ns.func(ns)
    except ConfigError as e:
        sys.stdout.write(_json_text(
            {"error": {"field": e.field, "message": str(e)}}) + "\n")
        return 2
    except OSError as e:
        sys.stdout.write(_json_text(
            {"error": {"field": "out", "message": str(e)}}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

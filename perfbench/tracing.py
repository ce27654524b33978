"""Spans and counters around solfold's public functions, for the traced run.

Tracer.install() rebinds every attribute of every loaded solfold module that
holds one of the listed functions, so calls made from solfold.cli, from
solfold.quotient and from inside solfold.kleinian are all seen, and
Tracer.uninstall() puts the original objects back.  Spans stay in memory;
layer_metrics() turns them into per-layer numbers when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import oracle


def _cli_info(args, kwargs, result):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    flags = dict(zip(argv[1::2], argv[2::2])) if argv[:1] == ["verify"] else {}
    return {"suite": flags.get("--suite"), "rc": result}


def _limit_info(args, kwargs, result):
    spec, n = args[0], args[1] if len(args) > 1 else kwargs["n"]
    elements = (sum(l.weight for l in result.lines) + sum(w for _, w in result.points)
                + len(result.nonconverged))
    return {"A": spec.A, "n": n, "lines": len(result.lines), "elements": elements}


def _boxes_info(args, kwargs, result):
    n = args[2] if len(args) > 2 else kwargs["n"]
    return {"scanned": oracle.ball_size(n), "hits": len(result)}


def _separation_info(args, kwargs, result):
    return {"evaluations": result.evaluations, "converged": bool(result.converged)}


# name -> (home module, attribute, what to record after the call returns);
# kind "count" keeps a call counter instead of spans
LISTED: Dict[str, Tuple[str, str, str, Optional[Callable]]] = {
    "cli.main": ("solfold.cli", "main", "span", _cli_info),
    "kleinian.word_ball": ("solfold.kleinian", "word_ball", "span",
                           lambda a, k, r: {"elements": len(r)}),
    "kleinian.pseudo_limit_kernels": ("solfold.kleinian", "pseudo_limit_kernels",
                                      "span", _limit_info),
    "kleinian.general_position_max": (
        "solfold.kleinian", "general_position_max", "span",
        lambda a, k, r: {"lines_in": len(a[0] if a else k["lines"]),
                         "exhaustive": bool(r.exhaustive)}),
    "kleinian.intersecting_elements": ("solfold.kleinian", "intersecting_elements",
                                       "span", _boxes_info),
    "kleinian.fundamental_domain_reduce": ("solfold.kleinian",
                                           "fundamental_domain_reduce", "span", None),
    "kleinian.toral_act": ("solfold.kleinian", "toral_act", "count", None),
    "kleinian.lattice_iso_test": ("solfold.kleinian", "lattice_iso_test", "span",
                                  lambda a, k, r: {"status": r.status}),
    "sol.leaf_separation_numeric": ("solfold.sol", "leaf_separation_numeric",
                                    "span", _separation_info),
    "heisenberg.heis_leaf_separation_numeric": (
        "solfold.heisenberg", "heis_leaf_separation_numeric", "span",
        _separation_info),
    "heisenberg.factored_proper_discontinuity_check": (
        "solfold.heisenberg", "factored_proper_discontinuity_check", "span", None),
    "quotient.sol_quotient_check": ("solfold.quotient", "sol_quotient_check",
                                    "span", None),
    "quotient.heis_quotient_check": ("solfold.quotient", "heis_quotient_check",
                                     "span", None),
}


class TraceError(RuntimeError):
    """A listed function is missing, or a workload never called it."""


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info")

    def __init__(self, name, start, end, parent, op, info):
        self.name, self.start, self.end = name, start, end
        self.parent, self.op, self.info = parent, op, info


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()     # (name, op) -> calls
        self.op: Optional[int] = None
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._wrappers: Dict[int, Callable] = {}

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn: Callable, info: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = Span(name, start, clock(), parent, self.op, None)
                raise
            finally:
                stack.pop()
            end = clock()
            spans[idx] = Span(name, start, end, parent, self.op,
                              info(args, kwargs, result) if info else None)
            return result

        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(name, self.op)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise TraceError("tracer already installed")
        originals: Dict[int, Tuple[str, Callable]] = {}
        for name, (home, attr, kind, info) in LISTED.items():
            try:
                fn = getattr(importlib.import_module(home), attr, None)
            except ImportError:
                fn = None
            if not callable(fn):
                raise TraceError(f"listed function {name} ({home}.{attr}) not found")
            if id(fn) not in self._wrappers:
                self._wrappers[id(fn)] = (self._counter(name, fn) if kind == "count"
                                          else self._span(name, fn, info))
            originals[id(fn)] = (name, fn)
        for modname, mod in sorted(sys.modules.items()):
            if mod is None or not (modname == "solfold" or modname.startswith("solfold.")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][1] is value:
                    setattr(mod, attr, self._wrappers[id(value)])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, value = self._patched.pop()
            setattr(mod, attr, value)

    # -- results -----------------------------------------------------------

    def called(self) -> Counter:
        seen = Counter(s.name for s in self.spans)
        for (name, _), n in self.counts.items():
            seen[name] += n
        return seen

    def require(self, expected) -> None:
        """Fail loudly if a function the workload must reach was never called."""
        seen = self.called()
        missing = sorted(name for name in expected if not seen[name])
        if missing:
            raise TraceError("listed functions never called: " + ", ".join(missing))

    def self_times(self) -> List[float]:
        """Span duration minus the time its child spans cover (children of one
        span never overlap: calls nest on one thread)."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own


# (metric, unit) in the order BENCHMARK.json lists them
LAYER_METRICS = [
    ("cli.verify.sol.s", "s"), ("cli.verify.heis.s", "s"),
    ("cli.verify.kleinian.s", "s"), ("cli.verify.quotient.s", "s"),
    ("cli.self_s", "s"), ("cli.bytes_out", "bytes"),
    ("kleinian.word_ball.s", "s"), ("kleinian.word_ball.elements", "count"),
    ("kleinian.pseudo_limit_kernels.s", "s"),
    ("kleinian.pseudo_limit_kernels.elements", "count"),
    ("kleinian.pseudo_limit_kernels.lines", "count"),
    ("kleinian.limit_lines_ratio", "ratio"),
    ("limit_set.n10_lines_ratio", "ratio"),
    ("kleinian.general_position_max.s", "s"),
    ("kleinian.general_position_max.lines_in", "count"),
    ("kleinian.general_position_max.exhaustive_frac", "ratio"),
    ("kleinian.intersecting_elements.s", "s"),
    ("kleinian.intersecting_elements.scanned", "count"),
    ("kleinian.intersecting_elements.hit_frac", "ratio"),
    ("kleinian.fundamental_domain_reduce.s", "s"),
    ("kleinian.fundamental_domain_reduce.calls", "count"),
    ("kleinian.toral_act.calls", "count"),
    ("kleinian.lattice_iso_test.s", "s"), ("kleinian.lattice_iso_test.calls", "count"),
    ("kleinian.lattice_iso_test.decided_frac", "ratio"),
    ("sol.leaf_separation_numeric.s", "s"),
    ("sol.leaf_separation_numeric.evaluations", "count"),
    ("sol.leaf_separation_numeric.converged_frac", "ratio"),
    ("heisenberg.heis_leaf_separation_numeric.s", "s"),
    ("heisenberg.heis_leaf_separation_numeric.evaluations", "count"),
    ("heisenberg.heis_leaf_separation_numeric.converged_frac", "ratio"),
    ("heisenberg.factored_proper_discontinuity_check.s", "s"),
    ("quotient.sol_quotient_check.s", "s"),
    ("quotient.heis_quotient_check.s", "s"),
    ("trace.overhead_frac", "ratio"),
]


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: List[int], bytes_out: Dict[int, int],
                  exact_lines: Callable[[tuple, int], int],
                  overhead_frac: float) -> Dict[str, float]:
    """Per-layer numbers of one traced run.

    Times (.s, self times except cli.verify.<suite>.s, which is the whole
    cli.main call) and counts are totals per traced op, reported as the
    median over the traced ops; ratios pool every call of the run.  A layer
    the workload never reaches reads 0.
    """
    own = tracer.self_times()
    per_op: Dict[str, Dict[int, float]] = defaultdict(lambda: defaultdict(float))
    pooled: Counter = Counter()

    def add(metric: str, op: int, value: float) -> None:
        per_op[metric][op] += value

    for s, t in zip(tracer.spans, own):
        short = s.name.split(".", 1)[1]
        if s.name == "cli.main":
            add("cli.self_s", s.op, t)
            if s.info and s.info["suite"]:
                add(f"cli.verify.{s.info['suite']}.s", s.op, s.end - s.start)
            continue
        add(f"{s.name}.s", s.op, t)
        add(f"{s.name}.calls", s.op, 1)
        info = s.info or {}
        if short == "word_ball":
            add("kleinian.word_ball.elements", s.op, info["elements"])
        elif short == "pseudo_limit_kernels":
            add("kleinian.pseudo_limit_kernels.elements", s.op, info["elements"])
            add("kleinian.pseudo_limit_kernels.lines", s.op, info["lines"])
            pooled["lines"] += info["lines"]
            pooled["exact_lines"] += exact_lines(info["A"], info["n"])
        elif short == "general_position_max":
            add("kleinian.general_position_max.lines_in", s.op, info["lines_in"])
            pooled["gp_calls"] += 1
            pooled["gp_exhaustive"] += info["exhaustive"]
        elif short == "intersecting_elements":
            add("kleinian.intersecting_elements.scanned", s.op, info["scanned"])
            pooled["scanned"] += info["scanned"]
            pooled["hits"] += info["hits"]
        elif short == "lattice_iso_test":
            pooled["iso_calls"] += 1
            pooled["iso_decided"] += info["status"] in ("found", "refuted")
        elif short.endswith("leaf_separation_numeric"):
            add(f"{s.name}.evaluations", s.op, info["evaluations"])
            pooled[s.name + ".calls"] += 1
            pooled[s.name + ".converged"] += info["converged"]
    for (name, op), n in tracer.counts.items():
        add(f"{name}.calls", op, n)
    for op, n in bytes_out.items():
        add("cli.bytes_out", op, n)

    out: Dict[str, float] = {}
    for metric, _ in LAYER_METRICS:
        values = per_op.get(metric)
        out[metric] = (statistics.median(values.get(op, 0.0) for op in ops)
                       if values and ops else 0.0)
    out["kleinian.limit_lines_ratio"] = _frac(pooled["lines"], pooled["exact_lines"])
    out["kleinian.general_position_max.exhaustive_frac"] = _frac(
        pooled["gp_exhaustive"], pooled["gp_calls"])
    out["kleinian.intersecting_elements.hit_frac"] = _frac(pooled["hits"],
                                                           pooled["scanned"])
    out["kleinian.lattice_iso_test.decided_frac"] = _frac(pooled["iso_decided"],
                                                          pooled["iso_calls"])
    for name in ("sol.leaf_separation_numeric",
                 "heisenberg.heis_leaf_separation_numeric"):
        out[name + ".converged_frac"] = _frac(pooled[name + ".converged"],
                                              pooled[name + ".calls"])
    out["trace.overhead_frac"] = overhead_frac
    return out

"""The three workloads: their inputs, their op and the check of each answer.

A workload is driven as prepare(op_id) (untimed: the benchmark's inputs),
op(inputs) (timed: solfold's public entry points only) and check(inputs,
answer) (untimed: a list of errors, empty when the answer is right).
solfold is imported in setup(), which the worker times as part of setup_s,
so this module imports nothing but the standard library and the oracle.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

import oracle


class Workload:
    group = 1              # ops per loop step; every step runs whole groups
    # worker processes of an untraced run: each sets up once and runs ops for
    # its share of the seconds, so set-up is sampled that many times and the
    # ops are spread over that many stretches of the machine's drifting speed
    workers = 6
    expected: tuple = ()   # listed functions a traced run must reach

    def __init__(self, plan: dict) -> None:
        self.seed = plan["seed"]
        self.workdir = plan["workdir"]
        self.data = plan.get("oracle", {})

    @classmethod
    def oracle_data(cls) -> dict:
        """The benchmark's own answers, computed once per run before any
        worker starts; a worker finds them in self.data."""
        return {}

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, op_id: int):
        return op_id

    def op(self, inputs, split: bool = False):
        raise NotImplementedError

    def check(self, inputs, answer) -> List[str]:
        raise NotImplementedError

    def bytes_out(self, answer) -> int:
        return 0

    def same(self, a, b) -> bool:
        return a == b

    def final_errors(self) -> List[Tuple[int, str]]:
        """(op id, error) pairs found once the loop has ended."""
        return []

    def probe_layers(self) -> Dict[str, float]:
        """Extra per-layer numbers a traced run measures once its loop has
        ended, outside every op."""
        return {}


class VerifyAll(Workload):
    """solfold verify --suite all --samples 500 --seed <seed*1000+i>, in-process.

    With split=True (the traced run) each suite is its own cli.main call.
    """

    expected = ("cli.main", "kleinian.word_ball", "kleinian.pseudo_limit_kernels",
                "kleinian.general_position_max", "kleinian.intersecting_elements",
                "kleinian.fundamental_domain_reduce", "kleinian.toral_act",
                "kleinian.lattice_iso_test", "sol.leaf_separation_numeric",
                "heisenberg.heis_leaf_separation_numeric",
                "heisenberg.factored_proper_discontinuity_check",
                "quotient.sol_quotient_check", "quotient.heis_quotient_check")
    SUITES = ("sol", "heis", "kleinian", "quotient")

    def setup(self) -> None:
        import solfold.cli
        self.cli = solfold.cli
        self.first = None

    def op(self, op_id, split=False):
        seed = str(self.seed * 1000 + op_id)
        out = []
        for suite in (self.SUITES if split else ("all",)):
            path = os.path.join(self.workdir, f"verify-{suite}.json")
            rc = self.cli.main(["verify", "--suite", suite, "--samples", "500",
                                "--seed", seed, "--out", path])
            with open(path, "rb") as fh:
                out.append((suite, rc, fh.read()))
        return out

    def check(self, op_id, answer):
        if self.first is None:
            self.first = (op_id, answer)
        return [f"verify --suite {suite} exited {rc}" for suite, rc, _ in answer if rc != 0]

    def bytes_out(self, answer):
        return sum(len(raw) for _, _, raw in answer)

    def final_errors(self):
        """The run's first seed, run again, must give byte-identical reports."""
        if self.first is None:
            return []
        op_id, answer = self.first
        again = self.op(op_id, split=len(answer) > 1)
        if again == answer:
            return []
        return [(op_id, f"seed {self.seed * 1000 + op_id} is not byte-identical "
                        "on a second run")]


class LimitSet(Workload):
    """solfold export limit-set --A <A> --N 8, then general_position_max on the
    lines read back; A alternates between the two matrices, one pair per step.

    solfold's float dedupe counts both matrices' lines exactly up to N = 9, so
    every op can pass the exact check; N = 8 rather than 9 halves the op time
    and so doubles the ops a run holds.  At N = 10 the dedupe merges two
    pencil-1 lines of 3,2,1,1 (1265 lines, exact 1267); a traced run measures
    that miscount once, as limit_set.n10_lines_ratio.
    """

    group = 2
    workers = 3            # each set-up already holds a full warm-up op
    N = 8
    PROBE = ("3,2,1,1", 10)
    MATRICES = ("2,1,1,1", "3,2,1,1")
    expected = ("cli.main", "kleinian.word_ball", "kleinian.pseudo_limit_kernels",
                "kleinian.general_position_max")

    @classmethod
    def oracle_data(cls):
        return {"limit": {A: oracle.limit_summary(oracle.parse_matrix(A), cls.N)
                          for A in cls.MATRICES}}

    def setup(self):
        import solfold.cli
        import solfold.kleinian
        self.cli, self.K = solfold.cli, solfold.kleinian
        self.path = os.path.join(self.workdir, "limit-set.json")

    def prepare(self, op_id):
        return self.MATRICES[(op_id + self.seed) % 2]

    def op(self, A, split=False):
        rc = self.cli.main(["export", "limit-set", "--A", A, "--N", str(self.N),
                            "--out", self.path])
        with open(self.path, "rb") as fh:
            raw = fh.read()
        doc = json.loads(raw)
        lines = [self.K.ProjectiveLine([complex(re, im) for re, im in line["dual"]])
                 for line in doc["lines"]]
        gp = self.K.general_position_max(lines)
        return {"rc": rc, "raw": raw, "doc": doc, "gp": gp.size}

    def check(self, A, answer):
        if answer["rc"] != 0:
            return [f"export limit-set --A {A} exited {answer['rc']}"]
        errors = oracle.limit_export_errors(answer["doc"], self.data["limit"][A])
        if answer["gp"] != 4:
            errors.append(f"general position size {answer['gp']}, expected 4")
        return [f"A={A} N={self.N}: {e}" for e in errors]

    def bytes_out(self, answer):
        return len(answer["raw"])

    def same(self, a, b):
        return (a["rc"], a["raw"], a["gp"]) == (b["rc"], b["raw"], b["gp"])

    def probe_layers(self):
        A, n = self.PROBE
        rc = self.cli.main(["export", "limit-set", "--A", A, "--N", str(n),
                            "--out", self.path])
        if rc != 0:
            raise RuntimeError(f"export limit-set --A {A} --N {n} exited {rc}")
        with open(self.path, encoding="utf-8") as fh:
            lines = len(json.load(fh)["lines"])
        exact = oracle.line_count(oracle.limit_summary(oracle.parse_matrix(A), n))
        return {"limit_set.n10_lines_ratio": lines / exact}


class Lattice(Workload):
    """One seeded instance per op: box hits in the radius-20 ball, 100 points
    reduced to the fundamental domain directly and after a radius-2 word, and
    one conjugacy test against a same-trace partner."""

    RADIUS = 20
    expected = ("kleinian.word_ball", "kleinian.intersecting_elements",
                "kleinian.fundamental_domain_reduce", "kleinian.toral_act",
                "kleinian.lattice_iso_test")

    @classmethod
    def oracle_data(cls):
        pairs = oracle.brute_force_conjugate_pairs(oracle.lattice_pool())
        return {"conjugate_pairs": sorted(pairs)}

    def setup(self):
        import solfold.geometry
        import solfold.kleinian
        self.K, self.G = solfold.kleinian, solfold.geometry
        self.pool = oracle.lattice_pool()
        self.specs = {A: self.K.ToralGroupSpec.from_matrix(A) for A in self.pool}
        self.box_hits = None
        self.conjugate = None

    def prepare(self, op_id):
        inst = oracle.lattice_instance(self.pool, self.seed, op_id)
        inst["spec"] = self.specs[inst["A"]]
        inst["points"] = [(self.G.ProductPoint.from_coords(c), g)
                          for c, g in inst["points"]]
        return inst

    def op(self, inst, split=False):
        K, spec = self.K, inst["spec"]
        hits = K.intersecting_elements(spec, inst["box"], self.RADIUS)
        reps = []
        for z, g in inst["points"]:
            direct = K.fundamental_domain_reduce(spec, z)[1].coords()
            moved = K.fundamental_domain_reduce(spec, K.toral_act(spec, g, z))[1].coords()
            reps.append((tuple(map(float, direct)), tuple(map(float, moved))))
        iso = K.lattice_iso_test(inst["A"], inst["B"])
        U = None if iso.conjugator is None else [[int(x) for x in row]
                                                 for row in iso.conjugator]
        return {"hits": hits, "reps": reps, "iso": (iso.status, U, iso.target)}

    def check(self, inst, answer):
        import numpy as np

        if self.box_hits is None:
            self.box_hits = oracle.BoxHits(self.RADIUS)
            self.conjugate = {tuple(tuple(map(tuple, M)) for M in pair)
                              for pair in self.data["conjugate_pairs"]}
        spec = inst["spec"]
        errors = []
        hits = [tuple(int(x) for x in h) for h in answer["hits"]]
        expected = self.box_hits.hits(spec.lam, spec.P_inv.tolist(), inst["box"])
        if len(set(hits)) != len(hits) or set(hits) != expected:
            errors.append(f"box hits {len(hits)}, enumeration {len(expected)}")
        P = spec.P.tolist()
        worst = 0.0
        for direct, moved in answer["reps"]:
            for rep in (direct, moved):
                errors.extend(oracle.domain_errors(spec.lam, P, rep))
            worst = max(worst, float(np.abs(np.subtract(direct, moved)).max()))
        if not worst <= 1e-8:
            errors.append(f"representatives disagree by {worst!r}")
        errors.extend(oracle.iso_errors(inst["A"], inst["B"], *answer["iso"],
                                        self.conjugate))
        return errors


WORKLOADS: Dict[str, type] = {"verify-all": VerifyAll, "limit-set": LimitSet,
                              "lattice": Lattice}

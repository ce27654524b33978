"""Tests of the benchmark itself: oracles, answer checks, failure counting and
tracing.

    python3 -m pytest -q perfbench/selftest.py

The file is not named test_*.py, so the repository's own test run does not
collect it.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
for p in (HERE, SRC):
    if p not in sys.path:
        sys.path.insert(0, p)

import oracle  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

from solfold import ProductPoint, cli, kleinian  # noqa: E402

A1 = ((2, 1), (1, 1))
A2 = ((3, 2), (1, 1))


# ---------------------------------------------------------------------------
# exact limit-line oracle

@pytest.mark.parametrize("n, counts", [(8, (627, 627)), (10, (1235, 1267)),
                                       (12, (2147, 2187))])
def test_exact_line_counts(n, counts):
    assert tuple(oracle.line_count(oracle.limit_summary(A, n)) for A in (A1, A2)) == counts


def test_exact_weights_cover_the_ball():
    for A in (A1, A2):
        s = oracle.limit_summary(A, 7)
        assert sum(sum(w) for w in s.values()) == oracle.ball_size(7) - 1
        assert s["infinity"] == [sum(1 for k, a, b in oracle.ball(7) if k == 0) - 1]


@pytest.mark.parametrize("bad", [((2, 1), (1, 2)),       # det 3
                                 ((1, 1), (0, 1)),       # trace 2, parabolic
                                 ((-2, -1), (-1, -1)),   # trace -3
                                 ((2.0, 1), (1, 1)),     # not an integer
                                 ((2, 1, 0), (1, 1)),    # not 2 x 2
                                 "2,1,1,1"])
def test_oracle_rejects_bad_matrices(bad):
    with pytest.raises(ValueError):
        oracle.exact_limit_lines(bad, 4)


def test_oracle_rejects_negative_radius():
    with pytest.raises(ValueError):
        oracle.exact_limit_lines(A1, -1)
    with pytest.raises(ValueError):
        oracle.parse_matrix("2,1,1")


def _export(tmp_path, A, n):
    path = tmp_path / "lines.json"
    text = ",".join(str(x) for row in A for x in row)
    assert cli.main(["export", "limit-set", "--A", text, "--N", str(n),
                     "--out", str(path)]) == 0
    return json.loads(path.read_text())


def test_export_check_accepts_the_library_where_it_is_exact(tmp_path):
    for A in (A1, A2):
        doc = _export(tmp_path, A, 6)
        assert oracle.limit_export_errors(doc, oracle.limit_summary(A, 6)) == []


def test_export_check_rejects_wrong_exports(tmp_path):
    doc = _export(tmp_path, A1, 5)
    expected = oracle.limit_summary(A1, 5)
    dropped = dict(doc, lines=doc["lines"][:-1])
    assert oracle.limit_export_errors(dropped, expected)
    reweighted = dict(doc, lines=[dict(doc["lines"][0], cluster_size=999)] + doc["lines"][1:])
    assert oracle.limit_export_errors(reweighted, expected)
    assert oracle.limit_export_errors(dict(doc, points=[{"cluster_size": 1}]), expected)
    assert oracle.limit_export_errors(dict(doc, nonconverged=[[1, 0, 0]]), expected)


# ---------------------------------------------------------------------------
# lattice checks

def test_pool_and_instances_are_seeded():
    pool = oracle.lattice_pool()
    assert len(pool) == 108
    a = oracle.lattice_instance(pool, 3, 17)
    assert a == oracle.lattice_instance(pool, 3, 17)
    assert a != oracle.lattice_instance(pool, 4, 17)
    tr = lambda M: M[0][0] + M[1][1]
    assert tr(a["A"]) == tr(a["B"]) and a["A"] != a["B"]


def test_certificate_check():
    M = ((5, 2), (2, 1))
    U = ((1, 1), (0, 1))
    B = oracle._mul(oracle._mul(U, M), oracle.inverse(U))       # U M U^-1
    assert oracle.certificate_holds(U, M, B)
    assert not oracle.certificate_holds(U, M, M)
    assert not oracle.certificate_holds(((2, 0), (0, 1)), A1, A1)      # det 2
    assert not oracle.certificate_holds(((1.5, 0), (0, 1)), A1, A1)    # not integral
    assert not oracle.certificate_holds("nonsense", A1, A1)
    assert oracle.iso_errors(M, B, "found", U, "B", set()) == []
    assert oracle.iso_errors(M, B, "found", U, "B_inverse", set())
    assert oracle.iso_errors(M, B, "found", None, "B", set())
    assert oracle.iso_errors(M, B, "found", U, None, set())
    assert oracle.iso_errors(M, B, "maybe", None, None, set())


def test_refutation_audit_and_brute_force():
    pool = oracle.lattice_pool()
    pairs = oracle.brute_force_conjugate_pairs(pool, bound=12)
    assert all((A, A) in pairs and (A, oracle.inverse(A)) in pairs for A in pool)
    A = pool[0]
    assert oracle.iso_errors(A, A, "refuted", None, None, pairs)
    assert oracle.iso_errors(A, A, "not_found", None, None, pairs) == []
    far = next(B for B in pool if (A, B) not in pairs)
    assert oracle.iso_errors(A, far, "refuted", None, None, pairs) == []


def test_found_answers_agree_with_brute_force():
    pool = oracle.lattice_pool()
    pairs = oracle.brute_force_conjugate_pairs(pool)
    for op_id in range(30):
        inst = oracle.lattice_instance(pool, 0, op_id)
        res = kleinian.lattice_iso_test(inst["A"], inst["B"])
        if res.status == "found":
            assert (inst["A"], inst["B"]) in pairs
            assert oracle.iso_errors(inst["A"], inst["B"], res.status,
                                     res.conjugator.tolist(), res.target, pairs) == []


def test_box_hits_enumeration_matches_library_without_calling_it(monkeypatch):
    pool = oracle.lattice_pool()
    insts = [oracle.lattice_instance(pool, 5, i) for i in range(8)]
    specs = [kleinian.ToralGroupSpec.from_matrix(inst["A"]) for inst in insts]
    library = [set(kleinian.intersecting_elements(s, i["box"], 9)) for s, i in zip(specs, insts)]

    def forbidden(*args, **kwargs):
        raise AssertionError("the enumeration must not use the library's ball")

    monkeypatch.setattr(kleinian, "word_ball", forbidden)
    monkeypatch.setattr(kleinian, "intersecting_elements", forbidden)
    hits = oracle.BoxHits(9)
    assert len(hits.words) == oracle.ball_size(9) == len(set(oracle.ball(9)))
    for spec, inst, expected in zip(specs, insts, library):
        assert hits.hits(spec.lam, spec.P_inv.tolist(), inst["box"]) == expected
    assert any(len(e) > 1 for e in library)


def test_domain_check():
    spec = kleinian.ToralGroupSpec.from_matrix(A1)
    P = spec.P.tolist()
    z = ProductPoint.from_coords([2.3, 0.37, -1.1, 2.0])
    rep = tuple(kleinian.fundamental_domain_reduce(spec, z)[1].coords())
    assert oracle.domain_errors(spec.lam, P, rep) == []
    assert oracle.domain_errors(spec.lam, P, (rep[0], rep[1] * spec.lam, rep[2], rep[3]))
    assert oracle.domain_errors(spec.lam, P, (rep[0] + 5.0, rep[1], rep[2], rep[3]))


# ---------------------------------------------------------------------------
# failure counting

class _WrongLattice(workloads.Lattice):
    def op(self, inst, split=False):
        answer = super().op(inst, split)
        answer["hits"] = answer["hits"] + [(99, 0, 0)]
        return answer


class _RaisingLattice(workloads.Lattice):
    warmed = False

    def op(self, inst, split=False):
        if self.warmed:
            raise ValueError("deliberate")
        self.warmed = True
        return super().op(inst, split)


def _plan(tmp_path, workload, trace=0, budget=0.3):
    data = {"conjugate_pairs": sorted(oracle.brute_force_conjugate_pairs(
        oracle.lattice_pool(), bound=8))}
    return {"workload": workload, "seed": 1, "trace": trace, "budget_s": budget,
            "first_op": 0, "final_check": True, "workdir": str(tmp_path), "src": SRC,
            "oracle": data, "result": str(tmp_path / "result.json")}


@pytest.mark.parametrize("cls", [_WrongLattice, _RaisingLattice])
def test_wrong_answers_are_counted_not_raised(tmp_path, monkeypatch, cls):
    monkeypatch.setitem(workloads.WORKLOADS, "lattice-bad", cls)
    result = worker.run(_plan(tmp_path, "lattice-bad"))
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert sum(result["failures"].values()) == result["failed"]


def test_right_answers_pass(tmp_path):
    result = worker.run(_plan(tmp_path, "lattice"))
    assert result["attempted"] >= 1 and result["failed"] == 0


def test_limit_set_probe_reports_the_n10_line_ratio(tmp_path):
    wl = workloads.LimitSet(_plan(tmp_path, "limit-set"))
    wl.setup()
    layers = wl.probe_layers()
    assert set(layers) == {"limit_set.n10_lines_ratio"}
    assert 0 < layers["limit_set.n10_lines_ratio"] <= 1


# ---------------------------------------------------------------------------
# tracing

def _bindings():
    return {(name, attr): value for name, mod in sys.modules.items()
            if mod is not None and name.split(".")[0] == "solfold"
            for attr, value in vars(mod).items() if callable(value)}


def _run_cli(tmp_path, argv):
    path = tmp_path / "out"
    rc = cli.main(argv + ["--out", str(path)])
    return rc, path.read_bytes()


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "kleinian", "--samples", "40", "--seed", "3"],
    ["verify", "--suite", "quotient", "--samples", "40", "--seed", "3"],
    ["export", "limit-set", "--A", "3,2,1,1", "--N", "5"],
])
def test_tracing_keeps_outputs_byte_identical(tmp_path, argv):
    before = _bindings()
    plain = _run_cli(tmp_path, argv)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = _run_cli(tmp_path, argv)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.spans
    assert _bindings() == before


def test_tracing_sees_calls_inside_the_library():
    tracer = tracing.Tracer()
    tracer.op = 0
    original = kleinian.word_ball
    tracer.install()
    try:
        assert kleinian.word_ball is not original
        kleinian.pseudo_limit_kernels(kleinian.ToralGroupSpec.from_matrix(A1), 3)
    finally:
        tracer.uninstall()
    assert kleinian.word_ball is original
    names = [s.name for s in tracer.spans]
    assert names == ["kleinian.pseudo_limit_kernels", "kleinian.word_ball"]
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent is None
    own = tracer.self_times()
    assert own[0] == pytest.approx((outer.end - outer.start) - (inner.end - inner.start))


def test_tracing_fails_loudly(monkeypatch):
    tracer = tracing.Tracer()
    with pytest.raises(tracing.TraceError):
        tracer.require(["kleinian.word_ball"])
    monkeypatch.setitem(tracing.LISTED, "kleinian.gone",
                        ("solfold.kleinian", "no_such_function", "span", None))
    before = _bindings()
    with pytest.raises(tracing.TraceError):
        tracing.Tracer().install()
    assert _bindings() == before


def test_speed_probe_samples_during_the_op_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = worker.SpeedProbe()
    start = time.perf_counter()
    with probe:
        time.sleep(0.1)
    elapsed = time.perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0 < probe.spent < elapsed and probe.slice_s > 0


def test_traced_run_reports_every_layer(tmp_path):
    result = worker.run(_plan(tmp_path, "lattice", trace=1, budget=0.5))
    assert result["failed"] == 0
    assert set(result["layers"]) == {name for name, _ in tracing.LAYER_METRICS}
    layers = result["layers"]
    assert layers["kleinian.intersecting_elements.scanned"] == oracle.ball_size(20)
    assert layers["kleinian.fundamental_domain_reduce.calls"] == 200
    assert layers["kleinian.toral_act.calls"] == 100
    assert layers["kleinian.lattice_iso_test.calls"] == 1
    assert layers["cli.verify.sol.s"] == 0.0


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))

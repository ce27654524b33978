"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line through the session log (repeated
in the terminal summary) and enforces the stated tolerance and time budget.
"""

import math
import subprocess
import sys
import time

import numpy as np

from solfold import (
    STANDARD,
    Z0,
    HeisElement,
    MixedPoint,
    ProductPoint,
    SolElement,
    ToralGroupSpec,
    UpperHalfPoint,
    classify_limit_line,
    factored_proper_discontinuity_check,
    flow_equivariance_defect,
    flow_speed,
    general_position_max,
    geodesic_residual,
    heis_act,
    heis_commutator,
    heis_leaf_jacobian,
    heis_leaf_separation_numeric,
    heis_mul,
    heis_pullback_metric,
    heis_rectify,
    heis_rectify_inverse,
    heis_reduce_mod_integer_lattice,
    heis_word_ball,
    intersecting_elements,
    lattice_iso_test,
    leaf_metric,
    leaf_separation_numeric,
    limit_general_position,
    normal_flow,
    pseudo_limit_kernels,
    rectify,
    rectify_inverse,
    rectify_isometric,
    rectify_isometric_inverse,
    shape_operator,
    sol_act,
    sol_lattice_embed,
    sol_quotient_check,
    toral_act,
    toral_compose,
    toral_element,
    word_ball,
)
from solfold.geometry import MetricSpec
from solfold.kleinian import ProjectivePoint

from conftest import (affine_box_hits_via_matrix, cube_hit_by_grid, fd_pullback,
                      product_metric_matrix, projective_act, toral_element_integral)

SEED = 11


def _rand_product(rng) -> ProductPoint:
    return ProductPoint.from_coords([rng.uniform(-3, 3), rng.uniform(0.3, 4),
                                     rng.uniform(-3, 3), rng.uniform(0.3, 4)])


def test_criterion_01_flow_equivariance(acceptance_log):
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        z = _rand_product(rng)
        g = SolElement(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        s = rng.uniform(-2, 2)
        worst = max(worst, flow_equivariance_defect(STANDARD, z, g, s))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 5.0
    acceptance_log.record(1, "flow commutes with the group action "
                             f"(max defect {worst:.2e} on 1e4 samples)", ok)
    assert worst < 1e-12
    assert elapsed < 5.0


def test_criterion_02_flow_geodesics_unit_speed(acceptance_log):
    rng = np.random.default_rng(SEED)
    metric = MetricSpec.half_hyperbolic_product()
    start = time.perf_counter()
    worst_res = 0.0
    worst_speed = 0.0
    for _ in range(1000):
        z = _rand_product(rng)
        t = rng.uniform(-2, 2)

        def curve(u, z=z):
            return normal_flow(z, u).coords()

        worst_res = max(worst_res, geodesic_residual(metric, curve, t))
        worst_speed = max(worst_speed, abs(flow_speed(z, t) - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst_res < 1e-6 and worst_speed < 1e-10 and elapsed < 5.0
    acceptance_log.record(2, "flow lines are unit-speed geodesics "
                             f"(residual {worst_res:.2e}, speed defect "
                             f"{worst_speed:.2e})", ok)
    assert worst_res < 1e-6
    assert worst_speed < 1e-10
    assert elapsed < 5.0


def test_criterion_03_leaf_metric(acceptance_log):
    rng = np.random.default_rng(SEED)
    worst_fd = 0.0
    for _ in range(30):
        y1, y2 = rng.uniform(0.4, 2.5, size=2)
        z = ProductPoint(UpperHalfPoint(0.0, y1), UpperHalfPoint(0.0, y2))
        v0 = [rng.uniform(-1.5, 1.5), rng.uniform(-2, 2), rng.uniform(-2, 2)]

        def orbit(v, z=z):
            return sol_act(STANDARD, SolElement(v[0], v[1], v[2]), z).coords()

        numeric = fd_pullback(product_metric_matrix, orbit, v0)
        t = v0[0]
        target = np.diag([1.0,
                          math.exp(-2 * t) / (2 * y1 ** 2),
                          math.exp(2 * t) / (2 * y2 ** 2)])
        worst_fd = max(worst_fd, float(np.abs(numeric - target).max()))
    worst_base = 0.0
    for t in np.linspace(-2, 2, 41):
        got = leaf_metric(Z0, float(t))
        target = np.diag([1.0, math.exp(-2 * t), math.exp(2 * t)])
        worst_base = max(worst_base, float(np.abs(got - target).max()))
    ok = worst_fd < 1e-10 and worst_base < 1e-12
    acceptance_log.record(3, "induced leaf metric matches the closed form "
                             f"(pullback {worst_fd:.2e}, base slice "
                             f"{worst_base:.2e})", ok)
    assert worst_fd < 1e-10
    assert worst_base < 1e-12


def test_criterion_04_principal_curvatures(acceptance_log):
    start = time.perf_counter()
    worst = 0.0
    for t in np.linspace(-1.0, 1.0, 5):
        for s in np.linspace(-1.0, 1.0, 5):
            res = shape_operator(float(t), float(s))
            worst = max(worst, float(np.abs(res.eigenvalues
                                            - np.array([-1.0, -1.0, 0.0])).max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 10.0
    acceptance_log.record(4, "principal curvature spectrum is (-1, -1, 0) "
                             f"(max deviation {worst:.2e} on the 5x5 grid)", ok)
    assert worst < 1e-6
    assert elapsed < 10.0


def test_criterion_05_leaf_separations(acceptance_log):
    pairs = [(0.0, 0.5), (0.0, 1.0), (0.0, 2.0), (-1.0, 1.0)]
    start = time.perf_counter()
    worst = 0.0
    for s0, s1 in pairs:
        sol_res = leaf_separation_numeric(s0, s1)
        heis_res = heis_leaf_separation_numeric(s0, s1)
        assert sol_res.converged and heis_res.converged
        worst = max(worst,
                    abs(sol_res.value - abs(s1 - s0)),
                    abs(heis_res.value - abs(s1 - s0)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 60.0
    acceptance_log.record(5, "minimized leaf separations equal the flow-time "
                             f"gap (max error {worst:.2e})", ok)
    assert worst < 1e-4
    assert elapsed < 60.0


def test_criterion_06_rectification_round_trips(acceptance_log):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(10_000):
        q = (rng.uniform(-2, 2), rng.uniform(-3, 3), rng.uniform(-3, 3),
             rng.uniform(-2, 2))
        back = rectify_inverse(rectify(*q))
        worst = max(worst, max(abs(a - b) for a, b in zip(q, back)))
        back2 = rectify_isometric_inverse(rectify_isometric(*q))
        worst = max(worst, max(abs(a - b) for a, b in zip(q, back2)))
        z = _rand_product(rng)
        again = rectify(*rectify_inverse(z)).coords()
        worst = max(worst, float(np.abs(again - z.coords()).max()))
    spec = ToralGroupSpec.from_matrix([[2, 1], [1, 1]])
    checks = sol_quotient_check(spec, samples=1000, seed=SEED)
    leaf_check = {c.name: c for c in checks}["leaf-preservation"]
    ok = worst < 1e-12 and leaf_check.residual < 1e-10 and leaf_check.passed
    acceptance_log.record(6, "rectifying charts invert to 1e-12 and the "
                             "lattice action preserves leaves "
                             f"(round trip {worst:.2e}, leaf residual "
                             f"{leaf_check.residual:.2e})", ok)
    assert worst < 1e-12
    assert leaf_check.passed and leaf_check.residual < 1e-10


def test_criterion_07_heisenberg_suite(acceptance_log):
    rng = np.random.default_rng(SEED)
    worst_axiom = 0.0
    for _ in range(10_000):
        g, h, k = (HeisElement(*rng.uniform(-3, 3, size=3)) for _ in range(3))
        left = heis_mul(heis_mul(g, h), k)
        right = heis_mul(g, heis_mul(h, k))
        worst_axiom = max(worst_axiom,
                          *(abs(a - b) for a, b in zip(left.triple(), right.triple())))
        inv = heis_mul(g, g.inverse())
        worst_axiom = max(worst_axiom, *(abs(v) for v in inv.triple()))

    worst_action = 0.0
    rank_ok = True
    for _ in range(1000):
        g, h = (HeisElement(*rng.uniform(-2, 2, size=3)) for _ in range(2))
        m = MixedPoint(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                       UpperHalfPoint(rng.uniform(-2, 2), rng.uniform(0.3, 3)))
        two = heis_act(g, heis_act(h, m)).coords()
        one = heis_act(heis_mul(g, h), m).coords()
        worst_action = max(worst_action, float(np.abs(two - one).max()))
        rank_ok = rank_ok and np.linalg.matrix_rank(heis_leaf_jacobian(m)) == 3

    worst_trip = 0.0
    for _ in range(1000):
        g = HeisElement(*rng.uniform(-3, 3, size=3))
        s = rng.uniform(-2, 2)
        back_g, back_s = heis_rectify_inverse(heis_rectify(g, s))
        worst_trip = max(worst_trip, abs(back_s - s),
                         *(abs(a - b) for a, b in zip(back_g.triple(), g.triple())))

    worst_metric = 0.0
    for y0 in np.linspace(0.5, 2.0, 7):
        got = heis_pullback_metric(float(y0))
        target = np.diag([y0 ** 2, 1 / y0 ** 2, 1.0])
        worst_metric = max(worst_metric, float(np.abs(got - target).max()))

    comm = heis_commutator(HeisElement(1, 0, 0), HeisElement(0, 1, 0))
    comm_ok = comm.triple() == (0, 0, 1)

    worst_reduce = 0.0
    for _ in range(1000):
        g = HeisElement(*rng.uniform(-6, 6, size=3))
        lattice, rep = heis_reduce_mod_integer_lattice(g)
        prod = heis_mul(lattice, rep)
        worst_reduce = max(worst_reduce,
                           *(abs(a - b) for a, b in zip(prod.triple(), g.triple())))
        if not (0 <= rep.a < 1 and 0 <= rep.b < 1 and 0 <= rep.c < 1):
            worst_reduce = math.inf
        lat2, rep2 = heis_reduce_mod_integer_lattice(rep)
        if lat2.triple() != (0, 0, 0) or rep2 != rep:
            worst_reduce = math.inf
        for _ in range(3):
            ell = HeisElement(*(int(v) for v in rng.integers(-2, 3, size=3)))
            _, other = heis_reduce_mod_integer_lattice(heis_mul(ell, g))
            worst_reduce = max(worst_reduce,
                               *(abs(a - b) for a, b in
                                 zip(other.triple(), rep.triple())))

    ok = (worst_axiom < 1e-14 and worst_action < 1e-14 and rank_ok
          and worst_trip < 1e-12 and worst_metric < 1e-10 and comm_ok
          and worst_reduce < 1e-12)
    acceptance_log.record(7, "nilpotent-group suite: axioms "
                             f"{worst_axiom:.2e}, action {worst_action:.2e}, "
                             f"rank 3, chart {worst_trip:.2e}, metric "
                             f"{worst_metric:.2e}, commutator central, "
                             f"reduction {worst_reduce:.2e}", ok)
    assert worst_axiom < 1e-14
    assert worst_action < 1e-14
    assert rank_ok
    assert worst_trip < 1e-12
    assert worst_metric < 1e-10
    assert comm_ok
    assert worst_reduce < 1e-12


def test_criterion_08_factored_discontinuity_counts(acceptance_log):
    ok = True
    detail = []
    for n in range(1, 5):
        ball = heis_word_ball(n)
        count_group, count_ambient = factored_proper_discontinuity_check(ball)
        brute = sum(cube_hit_by_grid(g) for g in ball.tolist())
        detail.append(f"N={n}: {count_group}")
        ok = ok and (count_group == count_ambient == brute)
    acceptance_log.record(8, "factored intersection counts agree exactly with "
                             "enumeration (" + ", ".join(detail) + ")", ok)
    assert ok


def test_criterion_09_limit_set_combinatorics(acceptance_log):
    start = time.perf_counter()
    ok = True
    sizes = []
    for A in ([[2, 1], [1, 1]], [[3, 2], [1, 1]]):
        spec = ToralGroupSpec.from_matrix(A)
        res = pseudo_limit_kernels(spec, 8)
        ok = ok and res.nonconverged == [] and res.points == []
        for ll in res.lines:
            family, _ = classify_limit_line(ll.line)
            ok = ok and family in ("pencil1", "pencil2", "infinity")
        gp = general_position_max([ll.line for ll in res.lines])
        sizes.append(gp.size)
        ok = ok and gp.size == 4 and limit_general_position(res).size == 4
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    acceptance_log.record(9, "limit kernels fill two pencils plus one line "
                             f"and max general position is {sizes}", ok)
    assert ok
    assert elapsed < 60.0


def test_criterion_10_box_intersections_stabilize(acceptance_log):
    box = ((0.1, 0.9), (1.0, 2.0), (0.1, 0.9), (1.0, 2.0))
    start = time.perf_counter()
    ok = True
    counts = []
    for A in ([[2, 1], [1, 1]], [[3, 2], [1, 1]]):
        spec = ToralGroupSpec.from_matrix(A)
        small = set(intersecting_elements(spec, box, 6))
        large = set(intersecting_elements(spec, box, 12))
        brute = {g for g in map(tuple, word_ball(12).tolist())
                 if affine_box_hits_via_matrix(
                     toral_element(spec, *g), box)}
        counts.append(len(large))
        ok = ok and small == large == brute
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    acceptance_log.record(10, "box-overlap element sets stabilize and match "
                              f"enumeration (sizes {counts})", ok)
    assert ok
    assert elapsed < 60.0


def test_criterion_11_lattice_embedding(acceptance_log):
    rng = np.random.default_rng(SEED)
    spec = ToralGroupSpec.from_matrix([[2, 1], [1, 1]])
    worst = 0.0
    for _ in range(1000):
        g = tuple(int(v) for v in rng.integers(-3, 4, size=3))
        z = _rand_product(rng)
        direct = toral_act(spec, g, z)
        through_sol = sol_act(STANDARD, sol_lattice_embed(spec, *g), z)
        worst = max(worst, float(np.abs(direct.coords()
                                        - through_sol.coords()).max()))
        M = toral_element(spec, *g)
        img = projective_act(M, ProjectivePoint([z.z1.complex, z.z2.complex, 1.0]))
        w1 = img.coords[0] / img.coords[2]
        w2 = img.coords[1] / img.coords[2]
        worst = max(worst, abs(w1 - direct.z1.complex), abs(w2 - direct.z2.complex))

    exact = True
    shift = (1, 0, 0)
    inv_shift = (-1, 0, 0)
    A = spec.A
    for n in range(-3, 4):
        for m in range(-3, 4):
            conj = toral_compose(spec, toral_compose(spec, shift, (0, n, m)), inv_shift)
            n2 = A[0][0] * n + A[0][1] * m
            m2 = A[1][0] * n + A[1][1] * m
            exact = exact and conj == (0, n2, m2)
            lhs = toral_element_integral(spec, *toral_compose(spec, (2, n, m), (-1, m, n)))
            rhs = toral_element_integral(spec, 2, n, m) @ toral_element_integral(spec, -1, m, n)
            exact = exact and lhs.tolist() == rhs.tolist()

    ok = worst < 1e-10 and exact
    acceptance_log.record(11, "discrete action matches the continuous "
                              f"embedding (defect {worst:.2e}; semidirect "
                              "relations exact)", ok)
    assert worst < 1e-10
    assert exact


def _conjugator_valid(U, A, T) -> bool:
    U = [[int(U[0][0]), int(U[0][1])], [int(U[1][0]), int(U[1][1])]]
    det = U[0][0] * U[1][1] - U[0][1] * U[1][0]
    if det not in (1, -1):
        return False
    UA = [[sum(U[i][k] * A[k][j] for k in range(2)) for j in range(2)]
          for i in range(2)]
    TU = [[sum(T[i][k] * U[k][j] for k in range(2)) for j in range(2)]
          for i in range(2)]
    return UA == TU


def test_criterion_12_lattice_isomorphism(acceptance_log):
    A = [[2, 1], [1, 1]]
    Ainv = [[1, -1], [-1, 2]]
    ok = True

    res_self = lattice_iso_test(A, A)
    ok = ok and res_self.status == "found"
    target = A if res_self.target == "B" else Ainv
    ok = ok and _conjugator_valid(res_self.conjugator, A, target)

    res_inv = lattice_iso_test(A, Ainv)
    ok = ok and res_inv.status == "found"
    target = Ainv if res_inv.target == "B" else A
    ok = ok and _conjugator_valid(res_inv.conjugator, A, target)

    B = [[3, -1], [1, 0]]          # conjugate of A by [[1, 1], [0, 1]]
    Binv = [[0, 1], [-1, 3]]
    res_conj = lattice_iso_test(A, B)
    ok = ok and res_conj.status == "found"
    target = B if res_conj.target == "B" else Binv
    ok = ok and _conjugator_valid(res_conj.conjugator, A, target)

    res_ref = lattice_iso_test([[2, 1], [1, 1]], [[3, 2], [1, 1]])
    ok = ok and res_ref.status == "refuted" and res_ref.conjugator is None

    acceptance_log.record(12, "R/L word decision: self, inverse, and conjugate "
                              "pairs found with exact witnesses; distinct "
                              "traces refuted", ok)
    assert ok


def test_criterion_13_cli_determinism(acceptance_log, tmp_path):
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    cmd = [sys.executable, "-m", "solfold.cli", "verify", "--suite", "all",
           "--seed", "7", "--samples", "150"]
    for f in (f1, f2):
        proc = subprocess.run(cmd + ["--out", str(f)], capture_output=True)
        assert proc.returncode == 0, proc.stdout.decode() + proc.stderr.decode()
    same = f1.read_bytes() == f2.read_bytes()
    acceptance_log.record(13, "repeated command-line runs emit byte-identical "
                              "reports", same)
    assert same

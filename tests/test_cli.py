"""Command-line behavior: determinism, exits, exports, config merging."""

import contextlib
import io
import json
import math
import re
import shlex
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from solfold import LimitKernelResult, ToralGroupSpec, pseudo_limit_kernels, word_ball
from solfold import cli
from solfold.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_verify_single_suite_passes(capsys):
    rc, out = run(capsys, "verify", "--suite", "sol", "--seed", "1",
                  "--samples", "60")
    assert rc == 0
    doc = json.loads(out)
    assert doc["suite"] == "sol"
    assert doc["seed"] == 1
    assert doc["checks"]
    for row in doc["checks"]:
        assert set(row) == {"name", "residual", "threshold", "pass", "claim"}
        assert row["pass"] is True
        assert row["residual"] <= row["threshold"] or row["threshold"] == 0.0


def test_verify_all_prefixes_names(capsys):
    rc, out = run(capsys, "verify", "--suite", "all", "--seed", "0",
                  "--samples", "50")
    assert rc == 0
    names = [row["name"] for row in json.loads(out)["checks"]]
    for prefix in ("sol/", "heis/", "kleinian/", "quotient/"):
        assert any(n.startswith(prefix) for n in names)


def test_verify_deterministic_bytes(tmp_path, capsys):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for f in (f1, f2):
        rc, _ = run(capsys, "verify", "--suite", "all", "--seed", "7",
                    "--samples", "80", "--out", str(f))
        assert rc == 0
    assert f1.read_bytes() == f2.read_bytes()
    assert b"\r" not in f1.read_bytes()


def test_verify_unknown_suite_is_config_error(capsys):
    rc, out = run(capsys, "verify", "--suite", "nope")
    assert rc == 2
    assert json.loads(out)["error"]["field"] == "suite"


def test_verify_malformed_matrix_is_config_error(capsys):
    rc, out = run(capsys, "verify", "--suite", "kleinian", "--A", "2,1,1")
    assert rc == 2
    err = json.loads(out)["error"]
    assert err["field"] == "A"
    assert err["message"]


def test_verify_non_hyperbolic_matrix_is_config_error(capsys):
    rc, out = run(capsys, "verify", "--suite", "kleinian", "--A", "1,1,0,1",
                  "--samples", "10")
    assert rc == 2
    assert json.loads(out)["error"]["field"] == "A"


def test_verify_rejects_non_json_format(capsys):
    rc, out = run(capsys, "verify", "--format", "csv")
    assert rc == 2
    assert json.loads(out)["error"]["field"] == "format"


def test_tol_scale_multiplies_thresholds(capsys):
    rc, out = run(capsys, "verify", "--suite", "sol", "--seed", "2",
                  "--samples", "40", "--tol-scale", "1e-6")
    assert rc == 1
    doc = json.loads(out)
    rows = {r["name"]: r for r in doc["checks"]}
    assert rows["flow-equivariance"]["threshold"] == pytest.approx(1e-18, rel=1e-12)
    assert any(not r["pass"] for r in doc["checks"])

    def rows_at(scale):
        argv = ["verify", "--suite", "all", "--seed", "2", "--samples", "40",
                "--tol-scale", repr(scale)]
        return json.loads(run(capsys, *argv)[1])["checks"]

    base = rows_at(1.0)
    assert any(r["name"].startswith("quotient/") for r in base)
    for scale in (1e-6, 10.0):
        rows = rows_at(scale)
        assert [r["name"] for r in rows] == [r["name"] for r in base]
        for r, b in zip(rows, base):
            assert r["residual"] == b["residual"]
            assert r["threshold"] == b["threshold"] * scale, r["name"]
            assert r["pass"] == (r["residual"] <= r["threshold"]), r["name"]


def test_tol_scale_must_be_positive(capsys):
    rc, out = run(capsys, "verify", "--tol-scale", "-2")
    assert rc == 2
    assert json.loads(out)["error"]["field"] == "tol-scale"


def test_export_flow_default_grid(capsys):
    rc, out = run(capsys, "export", "flow")
    assert rc == 0
    lines = out.split("\n")
    assert lines[0] == "s,x1,y1,x2,y2"
    assert lines[-1] == ""
    rows = [l.split(",") for l in lines[1:-1]]
    assert len(rows) == 41
    first = [float(v) for v in rows[0]]
    assert first[0] == -2.0
    assert first[1] == 0.0 and first[3] == 0.0
    assert abs(first[2] - math.exp(-2.0)) < 1e-15
    assert abs(first[4] - math.exp(-2.0)) < 1e-15
    last = [float(v) for v in rows[-1]]
    assert abs(last[0] - 2.0) < 1e-9


def test_export_flow_negative_range_token(capsys):
    # a range value starting with a minus sign must parse as a value
    rc, out = run(capsys, "export", "flow", "--s-range", "-1:1:0.5")
    assert rc == 0
    assert len(out.strip().split("\n")) == 1 + 5


def test_export_flow_custom_base_point(capsys):
    rc, out = run(capsys, "export", "flow", "--z", "0,2,0,3",
                  "--s-range", "0:1:0.5")
    assert rc == 0
    rows = [l.split(",") for l in out.strip().split("\n")[1:]]
    s0 = [float(v) for v in rows[0]]
    assert s0[2] == 2.0 and s0[4] == 3.0


def test_export_flow_rejects_bad_base(capsys):
    rc, out = run(capsys, "export", "flow", "--z", "0,-1,0,1")
    assert rc == 2
    assert json.loads(out)["error"]["field"] == "z"


def test_export_flow_json_format(capsys):
    rc, out = run(capsys, "export", "flow", "--s-range", "0:0.2:0.1",
                  "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert isinstance(doc, list) and len(doc) == 3
    assert set(doc[0]) == {"s", "x1", "y1", "x2", "y2"}


def test_export_leaf_metric_values(capsys):
    rc, out = run(capsys, "export", "leaf-metric")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,g_tt,g_xx,g_yy"
    rows = [[float(v) for v in l.split(",")] for l in lines[1:]]
    assert len(rows) == 17
    for t, g_tt, g_xx, g_yy in rows:
        assert g_tt == 1.0
        assert abs(g_xx - math.exp(-2 * t)) < 1e-12
        assert abs(g_yy - math.exp(2 * t)) < 1e-12


def test_export_orbit_row_count_matches_ball(capsys):
    spec = ToralGroupSpec.from_matrix([[2, 1], [1, 1]])
    for N in (2, 4):
        rc, out = run(capsys, "export", "orbit", "--N", str(N))
        assert rc == 0
        lines = out.strip().split("\n")
        ball = list(map(tuple, word_ball(N).tolist()))
        assert len(lines) == 1 + len(ball)
        triples = [tuple(int(v) for v in l.split(",")[:3]) for l in lines[1:]]
        assert triples == ball
        heights = [float(l.split(",")[4]) for l in lines[1:]]
        assert all(h > 0 for h in heights)


def test_export_orbit_rejects_base_outside_domain(capsys):
    rc, out = run(capsys, "export", "orbit", "--base", "1-2i,i")
    assert rc == 2
    assert json.loads(out)["error"]["field"] == "base"


@pytest.mark.parametrize("base", ["1e+i,1i", "1e-i,1i", "1i,2e+i", "x,1i"])
def test_export_orbit_rejects_malformed_base(base, capsys):
    # an exponent with no digits is malformed, not a bare imaginary unit
    rc, out = run(capsys, "export", "orbit", "--base", base)
    assert rc == 2
    assert json.loads(out)["error"]["field"] == "base"


@pytest.mark.parametrize("argv, field", [
    ("export flow --s-range 0:nan:0.1", "s-range"),
    ("export flow --s-range 0:inf:1", "s-range"),
    # finite pieces, but 1e600 values
    ("export flow --s-range 0:1e300:1e-300", "s-range"),
    ("export flow --z 0,nan,0,1", "z"),
    ("export flow --z 0,inf,0,1", "z"),
    ("export orbit --base 1i,nanj", "base"),
    ("export leaf-metric --y1 inf", "y1"),
    ("verify --suite sol --lambda inf", "lambda"),
    ("verify --suite sol --tol-scale inf", "tol-scale"),
], ids=["s-range-nan", "s-range-inf", "s-range-count", "z-nan", "z-inf", "base-nan",
        "y1-inf", "lambda-inf", "tol-scale-inf"])
def test_non_finite_flag_values_are_config_errors(argv, field, capsys):
    rc, out = run(capsys, *argv.split())
    assert rc == 2
    err = json.loads(out)["error"]
    assert err["field"] == field
    assert err["message"] == f"{field} must be finite"


@pytest.mark.parametrize("token, value", [
    ("i", 1j), ("-i", -1j), ("+i", 1j), ("1+i", 1 + 1j), ("2-i", 2 - 1j),
    ("0.5i", 0.5j), (" 3i ", 3j), ("-1+0.5i", -1 + 0.5j),
])
def test_complex_tokens_with_a_bare_unit(token, value):
    assert cli._parse_complex_token("base", token) == value


def test_string_flag_takes_a_value_that_looks_negative(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc, out = run(capsys, "export", "orbit", "--N", "0", "--out", "-1.csv")
    assert rc == 0 and out == ""
    lines = (tmp_path / "-1.csv").read_text().split("\n")
    assert lines[0] == "k,n,m,x1,y1,x2,y2" and lines[1].startswith("0,0,0,")


def test_export_limit_set_structure(capsys):
    rc, out = run(capsys, "export", "limit-set", "--N", "4")
    assert rc == 0
    doc = json.loads(out)
    assert doc["A"] == [[2, 1], [1, 1]]
    assert doc["N"] == 4
    assert doc["nonconverged"] == []
    assert doc["points"] == []
    assert doc["lines"]
    families = set()
    for line in doc["lines"]:
        assert set(line) == {"dual", "cluster_size", "family", "parameter"}
        families.add(line["family"])
        assert line["cluster_size"] >= 1
    assert families == {"infinity", "pencil1", "pencil2"}
    inf = [l for l in doc["lines"] if l["family"] == "infinity"]
    assert len(inf) == 1
    dual = np.array([complex(a, b) for a, b in inf[0]["dual"]])
    assert np.abs(dual - np.array([0, 0, 1])).max() < 1e-8


def test_verify_kleinian_evaluates_the_configured_radius(monkeypatch, capsys):
    radii = []
    pseudo_limit_kernels = cli.pseudo_limit_kernels

    def recording(spec, n):
        radii.append(n)
        return pseudo_limit_kernels(spec, n)

    monkeypatch.setattr(cli, "pseudo_limit_kernels", recording)
    rc, out = run(capsys, "verify", "--suite", "kleinian", "--A", "3,2,1,1",
                  "--N", "16")
    assert rc == 0
    assert radii == [16]
    rows = {r["name"]: r for r in json.loads(out)["checks"]}
    assert rows["general-position"]["residual"] == 0.0


@pytest.mark.parametrize("n", [0, 1, 2])
def test_verify_kleinian_passes_at_small_radii(n, capsys):
    # the ball of radius 0 has no limit line; radius 1 gives one line per
    # pencil and the line at infinity, three in general position
    rc, out = run(capsys, "verify", "--suite", "kleinian", "--N", str(n))
    assert rc == 0
    rows = {r["name"]: r for r in json.loads(out)["checks"]}
    assert rows["limit-kernels"]["residual"] == 0.0
    assert rows["general-position"]["residual"] == 0.0


def test_verify_fails_a_limit_line_in_the_wrong_family(monkeypatch, capsys):
    pseudo_limit_kernels = cli.pseudo_limit_kernels

    def misfiled(spec, n):
        res = pseudo_limit_kernels(spec, n)
        i = next(i for i, ll in enumerate(res.lines) if ll.family == "pencil1")
        lines = list(res.lines)
        lines[i] = replace(lines[i], family="pencil2")
        return LimitKernelResult(lines, res.points, res.nonconverged)

    monkeypatch.setattr(cli, "pseudo_limit_kernels", misfiled)
    with np.errstate(divide="ignore", invalid="ignore"):
        rc, out = run(capsys, "verify", "--suite", "kleinian", "--samples", "20")
    assert rc == 1
    rows = {r["name"]: r for r in json.loads(out)["checks"]}
    assert rows["limit-kernels"]["pass"] is False
    assert rows["limit-kernels"]["residual"] == 1.0


def test_verify_fails_a_same_trace_pair_reported_conjugate(monkeypatch, capsys):
    lattice_iso_test = cli.lattice_iso_test

    def confused(A, B):
        res = lattice_iso_test(A, B)
        if (A, B) == (((5, 4), (1, 1)), ((3, 2), (4, 3))):
            return replace(res, status="found")
        return res

    monkeypatch.setattr(cli, "lattice_iso_test", confused)
    rc, out = run(capsys, "verify", "--suite", "kleinian", "--samples", "20")
    assert rc == 1
    rows = {r["name"]: r for r in json.loads(out)["checks"]}
    assert rows["lattice-iso"]["pass"] is False
    assert rows["lattice-iso"]["residual"] == 1.0


@pytest.mark.parametrize("A", ["2,1,1,1", "3,2,1,1"])
def test_verify_lattice_iso_tests_the_exact_inverse(monkeypatch, capsys, A):
    # at A = [[2, 1], [1, 1]] a wrong inverse such as ((a, -b), (-c, d)) is
    # still conjugate to A, so the row's verdict cannot catch it; the pair
    # passed in must itself multiply to the identity
    calls = []
    lattice_iso_test = cli.lattice_iso_test

    def recorder(A, B):
        calls.append((A, B))
        return lattice_iso_test(A, B)

    monkeypatch.setattr(cli, "lattice_iso_test", recorder)
    rc, _ = run(capsys, "verify", "--suite", "kleinian", "--samples", "20",
                "--A", A)
    assert rc == 0
    ((a, b), (c, d)), ((e, f), (g, h)) = calls[1]
    assert ((a * e + b * g, a * f + b * h),
            (c * e + d * g, c * f + d * h)) == ((1, 0), (0, 1))


def _readme_blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(), re.S)


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(part)[1:]
                for block in _readme_blocks("sh") for line in block.splitlines()
                for part in line.split("&&") if part.strip().startswith("solfold ")]
    assert len(commands) >= 10
    for argv in commands:
        assert run(capsys, *argv)[0] == 0, argv


def test_readme_quick_start_runs():
    (code,) = _readme_blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue() == "627 4\n"


def test_export_floats_read_back_as_floats(capsys):
    """Every dual entry and pencil parameter of the limit-set export loads as
    a float, 1.0 and 0.0 included, and the lines of the words (k, 0, 0),
    z1 = 0 and z2 = 0, keep the sign of their -0.0 parameter."""
    rc, out = run(capsys, "export", "limit-set", "--N", "8")
    assert rc == 0
    lines = json.loads(out)["lines"]
    entries = [x for l in lines for entry in l["dual"] for x in entry]
    assert entries and all(type(x) is float for x in entries)
    params = [l["parameter"] for l in lines if l["family"] != "infinity"]
    assert params and all(type(p) is float for p in params)
    through_origin = [l["parameter"] for l in lines
                      if l["family"] != "infinity" and l["dual"][2] == [0.0, 0.0]]
    assert len(through_origin) == 2
    assert all(p == 0.0 and math.copysign(1.0, p) == -1.0 for p in through_origin)


@pytest.mark.parametrize("A, N", [("2,1,1,1", "8"), ("3,2,1,1", "12"), ("7,4,5,3", "5")])
def test_export_limit_set_round_trips_bit_for_bit(A, N, capsys):
    # each float is written as its repr, which reads back as the same double
    rc, out = run(capsys, "export", "limit-set", "--A", A, "--N", N)
    assert rc == 0
    doc = json.loads(out)
    spec = ToralGroupSpec.from_matrix(cli._parse_matrix(A))
    res = pseudo_limit_kernels(spec, int(N))
    got = np.array([l["dual"] for l in doc["lines"]], dtype=float)
    want = np.array([l.line.dual for l in res.lines]).view(float).reshape(got.shape)
    assert got.tobytes() == want.tobytes()
    params = [l.parameter for l in res.lines]
    assert [None if p is None else float.hex(p) for p in params] == \
        [None if l["parameter"] is None else float.hex(l["parameter"]) for l in doc["lines"]]
    assert doc["lam"] == spec.lam


def test_export_domain_structure(capsys):
    rc, out = run(capsys, "export", "domain")
    assert rc == 0
    doc = json.loads(out)
    assert set(doc) == {"A", "lam", "height_interval",
                        "lattice_basis_columns", "description"}
    assert doc["lam"] == pytest.approx((3 + math.sqrt(5)) / 2, rel=1e-12)
    assert doc["height_interval"] == [1.0, doc["lam"]]
    cols = np.array(doc["lattice_basis_columns"], dtype=float)
    assert cols.shape == (2, 2) and abs(np.linalg.det(cols)) > 1e-6


def test_export_deterministic_bytes(tmp_path, capsys):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for f in (f1, f2):
        rc, _ = run(capsys, "export", "flow", "--out", str(f))
        assert rc == 0
    assert f1.read_bytes() == f2.read_bytes()


@pytest.mark.parametrize("bad, error", [
    (float("nan"), ValueError), ([1.0, float("inf")], ValueError),
    ({"x": np.float64("-inf")}, ValueError), ({"x": {1, 2}}, TypeError),
    ([np.bool_(True)], TypeError), (np.array([1.0]), TypeError),
    ({"x": float("nan")}, ValueError), ([[0.5, float("-inf")]], ValueError),
    # a non-finite float, or a leaf no writer takes, in a late record
    ([{"a": [1.0, 2.0]}, {"a": [3.0, 4.0]}, {"a": [5.0, float("nan")]}], ValueError),
    (({"a": 1.0}, {"a": 2.0}, {"a": float("inf")}), ValueError),
    ([{"a": 1.0}, {"a": 2.0}, {"a": {1, 2}}], TypeError)])
def test_json_writer_rejects_what_the_reference_rejects(bad, error):
    """The one encode call refuses what the standard encoder refuses: a NaN
    or an infinity, and a leaf that is no JSON type, in any record."""
    with pytest.raises(error):
        cli._json_line(bad)


def test_one_parser_serves_every_call_of_a_process(capsys):
    """Two subcommands, a bad flag (exit 2 with the JSON error line) and a
    good call after it give, call by call, what the same calls give in the
    reverse order: no call leaves state behind for the next."""
    calls = [("verify", "--suite", "heis", "--samples", "5"),
             ("export", "orbit", "--N", "1"),
             ("export", "domain", "--no-such-flag", "1"),
             ("export", "limit-set", "--N", "2")]

    def outputs(argvs):
        return [(main(list(argv)), *capsys.readouterr()) for argv in argvs]

    got = outputs(calls)
    assert [rc for rc, _, _ in got] == [0, 0, 2, 0]
    assert json.loads(got[2][1])["error"]["field"] == "no-such-flag"
    assert got[2][2] == ""
    assert outputs(calls[::-1]) == got[::-1]


# each malformed command line, and the field its error names
MALFORMED = [
    ("", "command"), ("frobnicate", "command"),
    ("export", "target"), ("export nope", "target"),
    ("verify --no-such-flag 1", "no-such-flag"), ("verify --samples", "samples"),
    ("verify --samp 5", "samp"), ("verify 5", "5"),
    ("verify --format json", "format"), ("export limit-set --format json", "format"),
    ("export domain --format json", "format"),
    ("verify --suite nope", "suite"), ("export flow --format xml", "format"),
    ("export orbit --format=", "format"),
]


@pytest.mark.parametrize("argv, field", MALFORMED, ids=[a or "empty" for a, _ in MALFORMED])
def test_malformed_command_lines_exit_2_naming_the_field(argv, field, capsys):
    rc = main(argv.split())
    out, err = capsys.readouterr()
    assert rc == 2 and err == ""
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.loads(out)["error"]["field"] == field


def test_each_command_takes_exactly_the_keys_of_its_table(capsys):
    every = {key for flags in cli._FLAGS.values() for key in flags}
    for table, flags in cli._FLAGS.items():
        command = ["export", table] if table in cli._EXPORTS else [table]
        for key in [*flags, "config"]:
            assert cli._command_line([*command, f"--{key}", "-v"]) == (table, {key: "-v"})
        for key in sorted(every - set(flags)):
            rc, out = run(capsys, *command, f"--{key}", "1")
            assert rc == 2 and json.loads(out)["error"]["field"] == key


@pytest.mark.parametrize("argv", ["--help", "-h", "verify --help", "export --help",
                                  "export flow -h", "report --in r.json --help"])
def test_help_names_every_flag(argv, capsys):
    rc = main(argv.split())
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    assert len(out.splitlines()) == len(cli._FLAGS)
    for flags in cli._FLAGS.values():
        for key in [*flags, "config"]:
            assert f"--{key} " in out


def test_values_that_begin_with_a_minus_are_taken_whole(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    by_eq = run(capsys, "export", "orbit", "--N", "0", "--base=-0+1i,-0.0+2i")
    assert by_eq == run(capsys, "export", "orbit", "--N", "0", "--base", "-0+1i,-0.0+2i")
    assert by_eq == (0, "k,n,m,x1,y1,x2,y2\n0,0,0,0.0,1.0,0.0,2.0\n")
    # a minus and a letter, and a value spelled like a flag
    for name in ("-x.csv", "--help"):
        assert run(capsys, "export", "orbit", "--N", "0", "--base=-0+1i,-0.0+2i",
                   "--out", name) == (0, "")
        assert (tmp_path / name).read_text() == by_eq[1]
    # the last value of a repeated flag wins
    assert run(capsys, "export", "flow", "--s-range", "0:1:1", "--s-range=-1:1:0.5")[1] \
        == run(capsys, "export", "flow", "--s-range", "-1:1:0.5")[1]


def test_report_renders_passing_table(tmp_path, capsys):
    report = tmp_path / "report.json"
    rc, _ = run(capsys, "verify", "--suite", "heis", "--seed", "4",
                "--samples", "50", "--out", str(report))
    assert rc == 0
    rc, out = run(capsys, "report", "--in", str(report))
    assert rc == 0
    assert "suite: heis" in out
    lines = out.strip().split("\n")
    assert lines[-1].startswith("summary: ")
    n = len(json.loads(report.read_text())["checks"])
    assert lines[-1] == f"summary: {n}/{n} checks passed"


def test_report_flags_failures(tmp_path, capsys):
    report = tmp_path / "failing.json"
    rc, _ = run(capsys, "verify", "--suite", "sol", "--seed", "2",
                "--samples", "40", "--tol-scale", "1e-9", "--out", str(report))
    assert rc == 1
    rc, out = run(capsys, "report", "--in", str(report))
    assert rc == 1
    assert "NO" in out


def test_report_requires_input(capsys):
    rc, out = run(capsys, "report")
    assert rc == 2
    assert json.loads(out)["error"]["field"] == "in"


def test_report_missing_file_is_config_error(tmp_path, capsys):
    rc, out = run(capsys, "report", "--in", str(tmp_path / "absent.json"))
    assert rc == 2
    assert json.loads(out)["error"]["field"] == "in"


@pytest.mark.parametrize("text, message", [
    ("[1]", "report must be an object whose checks are a list of objects"),
    ('{"checks": [1]}', "report must be an object whose checks are a list of objects"),
    ('{"checks": {"a": 1}}', "report must be an object whose checks are a list of objects"),
    ('{"checks": [{"name": 3}]}', "a check name must be a string"),
    ('{"checks": [{"name": "a", "residual": "0.5"}]}', "a check residual must be a finite number"),
    # json.load reads NaN and Infinity, and integers beyond the floats
    ('{"checks": [{"name": "a", "residual": NaN}]}', "a check residual must be a finite number"),
    ('{"checks": [{"name": "a", "threshold": Infinity}]}',
     "a check threshold must be a finite number"),
    ('{"checks": [{"name": "a", "residual": 1%s}]}' % ("0" * 400),
     "a check residual must be a finite number"),
    ('{"checks": [{"name": "a", "residual": true}]}', "a check residual must be a finite number"),
    # pass is a JSON bool, and says whether the residual is within the threshold
    ('{"checks": [{"name": "a", "residual": 5, "threshold": 1, "pass": "false"}]}',
     "a check pass must be true or false"),
    ('{"checks": [{"name": "a", "residual": 0.5, "threshold": 1, "pass": 1}]}',
     "a check pass must be true or false"),
    ('{"checks": [{"name": "a", "residual": 0.5, "threshold": 1}]}',
     "a check pass must be true or false"),
    ('{"checks": [{"name": "a", "residual": 5, "threshold": 1, "pass": true}]}',
     "a check pass must say whether its residual is at most its threshold"),
    ('{"checks": [{"name": "a", "residual": 1, "threshold": 1, "pass": false}]}',
     "a check pass must say whether its residual is at most its threshold"),
], ids=["top-level-list", "check-not-object", "checks-object", "name-number",
        "residual-string", "residual-nan", "threshold-infinity", "residual-huge-int",
        "residual-bool", "pass-string", "pass-number", "pass-missing", "pass-disagrees",
        "fail-disagrees"])
def test_report_rejects_a_malformed_document(text, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    rc, out = run(capsys, "report", "--in", str(path))
    assert rc == 2
    assert json.loads(out)["error"] == {"field": "in", "message": message}


@pytest.mark.parametrize("data", [b"\xff\xfe", b"[" * 100_000 + b"]" * 100_000],
                         ids=["not-utf8", "nested-past-the-recursion-limit"])
def test_report_unreadable_document_is_config_error(data, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    rc, out = run(capsys, "report", "--in", str(path))
    assert rc == 2
    err = json.loads(out)["error"]
    assert err["field"] == "in" and err["message"].startswith("cannot read report: ")


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nsuite=quotient\nseed=11\nsamples=40\n")
    rc, out = run(capsys, "verify", "--config", str(cfg))
    assert rc == 0
    doc = json.loads(out)
    assert doc["suite"] == "quotient"
    assert doc["seed"] == 11
    # explicit flags win over the config file
    rc, out = run(capsys, "verify", "--config", str(cfg), "--seed", "3")
    assert json.loads(out)["seed"] == 3


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus=1\n")
    rc, out = run(capsys, "verify", "--config", str(cfg))
    assert rc == 2
    assert json.loads(out)["error"]["field"] == "bogus"


def test_config_file_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just a sentence\n")
    rc, out = run(capsys, "verify", "--config", str(cfg))
    assert rc == 2
    assert json.loads(out)["error"]["field"] == "config"


def test_unwritable_output_is_io_error(tmp_path, capsys):
    rc, out = run(capsys, "export", "domain",
                  "--out", str(tmp_path / "no-such-dir" / "x.json"))
    assert rc == 1
    assert json.loads(out)["error"]["field"] == "out"


def test_verify_flow_geodesic_passes_on_high_flow_lines(capsys):
    # this seed draws flow lines high enough that a coordinate-wise residual
    # read rounding noise as a failure on exact geodesics
    rc, out = run(capsys, "verify", "--suite", "sol", "--samples", "500",
                  "--seed", "110007")
    assert rc == 0
    rows = {r["name"]: r for r in json.loads(out)["checks"]}
    assert rows["flow-geodesic"]["pass"] is True


def test_verify_all_concatenates_the_single_suites(capsys):
    common = ("--seed", "3", "--samples", "40")
    rc, out = run(capsys, "verify", "--suite", "all", *common)
    rows = json.loads(out)["checks"]
    expected = []
    for suite in ("sol", "heis", "kleinian", "quotient"):
        _, single = run(capsys, "verify", "--suite", suite, *common)
        expected += [dict(r, name=f"{suite}/{r['name']}")
                     for r in json.loads(single)["checks"]]
    assert rc == 0
    assert len(rows) == 27
    assert rows == expected


# (command, a config key, its value, a key that only other commands accept)
CONFIG_CASES = {
    "verify": (("verify", "--suite", "heis", "--samples", "20"),
               "tol-scale", "1e-20", "z"),
    "flow": (("export", "flow"), "s-range", "-1:1:0.5", "N"),
    "leaf-metric": (("export", "leaf-metric"), "t-range", "-1:1:0.5", "z"),
    "limit-set": (("export", "limit-set"), "N", "3", "base"),
    "orbit": (("export", "orbit"), "base", "2i,3i", "seed"),
    "domain": (("export", "domain"), "A", "3,2,1,1", "N"),
    "report": (("report",), "in", None, "suite"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_CASES))
def test_config_file_key_matches_flag(case, tmp_path, capsys):
    command, key, value, foreign = CONFIG_CASES[case]
    if value is None:
        value = str(tmp_path / "report.json")
        run(capsys, "verify", "--suite", "heis", "--samples", "20", "--out", value)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    by_config = run(capsys, *command, "--config", str(cfg))
    assert by_config == run(capsys, *command, f"--{key}", value)
    assert by_config != run(capsys, *command)

    cfg.write_text(f"{foreign}=1\n")
    rc, out = run(capsys, *command, "--config", str(cfg))
    assert rc == 2
    err = json.loads(out)["error"]
    assert err["field"] == foreign
    assert repr(foreign) in err["message"]


@pytest.mark.parametrize("command", [("verify", "--suite", "heis", "--samples", "5")])
def test_negative_seed_is_config_error(command, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=-3\n")
    for extra in (("--seed", "-3"), ("--config", str(cfg))):
        rc, out = run(capsys, *command, *extra)
        assert rc == 2
        assert json.loads(out)["error"]["field"] == "seed"


# the orbit export holds the ball alone and takes every radius whose ball
# fits in 10^6 rows; the limit pipeline's budget of 10^5 rows stops at 41
@pytest.mark.parametrize("command, cap", [(("verify", "--suite", "kleinian"), 41),
                                          (("export", "limit-set"), 41),
                                          (("export", "orbit"), 90)],
                         ids=["command0", "command1", "command2"])
def test_N_above_the_ball_cap_is_config_error(command, cap, tmp_path, capsys,
                                              monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the radius must be rejected before any ball is built")

    for name in ("word_ball", "pseudo_limit_kernels", "intersecting_elements"):
        monkeypatch.setattr(cli, name, forbidden)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"N={cap + 1}\n")
    for extra in (("--N", str(cap + 1)), ("--config", str(cfg))):
        rc, out = run(capsys, *command, *extra)
        assert rc == 2
        err = json.loads(out)["error"]
        assert err["field"] == "N" and f"at most {cap}" in err["message"]
    table = command[0] if command[0] == "verify" else command[1]
    assert cli._FLAGS[table]["N"][0](str(cap)) == cap
    budget = 10 ** 5 if cap == 41 else 10 ** 6
    assert cli._ball_size(cap) <= budget < cli._ball_size(cap + 1)


def test_samples_above_the_bound_is_config_error(tmp_path, capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the sample count must be rejected before any suite runs")

    monkeypatch.setattr(cli, "_uniform_columns", forbidden)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples=100001\n")
    for extra in (("--samples", "100001"), ("--config", str(cfg))):
        rc, out = run(capsys, "verify", *extra)
        assert rc == 2
        err = json.loads(out)["error"]
        assert err["field"] == "samples" and "at most 100000" in err["message"]
    parse = cli._FLAGS["verify"]["samples"][0]
    assert parse("100000") == 100000 and parse("10000") == 10000


# a flag of another export target, with a value that target would accept
FOREIGN_EXPORT_FLAGS = {"flow": ("A", "3,2,1,1"), "leaf-metric": ("N", "3"),
                        "limit-set": ("base", "2i,3i"), "orbit": ("y1", "2"),
                        "domain": ("z", "0,1,0,1")}


@pytest.mark.parametrize("target", sorted(FOREIGN_EXPORT_FLAGS))
def test_export_rejects_flags_of_other_targets(target, tmp_path, capsys):
    key, value = FOREIGN_EXPORT_FLAGS[target]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    by_flag = run(capsys, "export", target, f"--{key}", value)
    by_config = run(capsys, "export", target, "--config", str(cfg))
    for rc, out in (by_flag, by_config):
        assert rc == 2
        assert json.loads(out)["error"]["field"] == key


@pytest.mark.parametrize("A, message", [
    ("1,1,0,1", "matrix must be hyperbolic with trace above two"),
    ("-2,-1,-1,-1", "matrix must be hyperbolic with trace above two"),
    ("2,0,0,1", "matrix must have determinant one"),
])
def test_bad_matrix_messages(A, message, capsys):
    for command in (("verify", "--suite", "kleinian", "--samples", "5"),
                    ("export", "domain")):
        rc, out = run(capsys, *command, "--A", A)
        assert rc == 2
        assert json.loads(out)["error"] == {"field": "A", "message": message}


@pytest.mark.parametrize("command", [("verify", "--suite", "kleinian", "--samples", "5"),
                                     ("export", "limit-set"), ("export", "orbit"),
                                     ("export", "domain")])
def test_matrix_too_large_for_a_float_eigenvalue_is_a_config_error(command, capsys):
    # the trace passes 1.3e154, where its square overflows a float
    h = 10 ** 160
    rc, out = run(capsys, *command, "--A", f"{h},1,{h - 1},1")
    assert rc == 2
    assert json.loads(out)["error"] == {
        "field": "A", "message": "matrix entries too large for float eigendata"}


@pytest.mark.parametrize("lam", [
    "1e300",    # lam^2 overflows
    "1e200",    # lam^-2 underflows to 0, and a height divides by it
    "1e-320",   # subnormal: lam^2 is 0
    repr(math.nextafter(1e153, math.inf)),
    repr(math.nextafter(1e-153, 0.0)),
])
def test_lambda_outside_its_range_is_a_config_error(lam, capsys):
    for suite in ("sol", "all", "kleinian"):
        rc, out = run(capsys, "verify", "--suite", suite, "--samples", "5", "--lambda", lam)
        assert rc == 2
        assert json.loads(out)["error"] == {
            "field": "lambda", "message": "lambda must lie in [1e-153, 1e+153]"}


@pytest.mark.parametrize("lam", [1e153, 1e-153])
def test_lambda_at_its_bounds_keeps_every_height_a_normal_float(lam, capsys):
    # the sol rows move heights in [0.3, 4] by lam^t e^s with |t|, |s| <= 2
    big = max(lam, 1 / lam)
    assert 4.0 * big ** 2 * math.exp(2) < sys.float_info.max
    assert 0.3 / big ** 2 * math.exp(-2) > sys.float_info.min
    rc, out = run(capsys, "verify", "--suite", "sol", "--samples", "50", "--lambda", repr(lam))
    # so the rows are computed; far from 1 the flow defect outgrows 1e-12
    assert rc in (0, 1)
    rows = json.loads(out)["checks"]
    assert len(rows) == 7 and all(math.isfinite(r["residual"]) for r in rows)


@pytest.mark.parametrize("argv, field", [
    ("export flow --s-range 0:1e12:1", "s-range"),
    ("export leaf-metric --t-range 0:1e12:1", "t-range"),
    ("export flow --s-range -1:1:1e-7", "s-range"),
])
def test_ranges_with_too_many_values_exit_before_building_them(argv, field, monkeypatch,
                                                                capsys):
    def refuse(r):
        raise AssertionError("the range was built")
    monkeypatch.setattr(cli, "_range_values", refuse)
    rc, out = run(capsys, *argv.split())
    assert rc == 2
    assert json.loads(out)["error"]["field"] == field


@pytest.mark.parametrize("argv, field", [
    ("export leaf-metric --y1 1e-200", "y1"),       # y1**2 underflows to 0
    ("export leaf-metric --y1 1e200", "y1"),        # y1**2 overflows
    ("export leaf-metric --y2 1e200", "y2"),
    ("export leaf-metric --y1 1e-160", "y1"),       # 1 / (2 y1**2) is inf
    ("export leaf-metric --y2 1e154", "y2"),        # 1 / (2 y2**2) is 0
    ("export leaf-metric --t-range=700:701:1", "t-range"),    # exp overflows
    ("export leaf-metric --t-range=-400:-399:1", "t-range"),  # g_yy underflows to 0
    ("export leaf-metric --y1 1e-200 --t-range=700:701:1", "y1"),
    ("export flow --s-range=-800:-799:1", "s-range"),         # a height reaches 0
    ("export flow --s-range=800:801:1", "s-range"),           # exp overflows
    ("export flow --z 0,1e300,0,1 --s-range=700:701:1", "s-range"),  # a height is inf
])
def test_exports_whose_values_leave_the_positive_floats_are_config_errors(argv, field,
                                                                          capsys):
    rc, out = run(capsys, *argv.split())
    assert rc == 2
    assert json.loads(out)["error"] == {
        "field": field,
        "message": f"{field} gives a coefficient or height that is not a finite positive float"}


_HUGE, _LARGE = 10 ** 100, 10 ** 30      # lam about 1e100 and 1e30


@pytest.mark.parametrize("argv, field", [
    # lam^2 is finite, but the discontinuity-stable row takes lam^8
    (f"verify --suite kleinian --samples 5 --A {_HUGE},{_HUGE - 1},1,1 --N 2", "A"),
    (f"export limit-set --A {_HUGE},{_HUGE - 1},1,1 --N 4", "A"),
    # lam^8 is finite, lam^11 is not
    (f"verify --suite kleinian --samples 5 --A {_LARGE},{_LARGE - 1},1,1 --N 11", "N"),
    (f"export limit-set --A {_LARGE},{_LARGE - 1},1,1 --N 11", "N"),
    # the quotient reduction takes lam^3
    (f"verify --suite quotient --A {10 ** 103},{10 ** 103 - 1},1,1", "A"),
    (f"verify --suite quotient --A {10 ** 153},{10 ** 153 - 1},1,1", "A"),
], ids=["verify-A", "export-A", "verify-N", "export-N", "quotient-103", "quotient-153"])
def test_large_traces_whose_powers_overflow_are_config_errors(argv, field, capsys):
    """A power of lam beyond the floats exits 2, not in a traceback: with
    field A when lam^8 already overflows, else with field N."""
    rc = main(argv.split())
    out, err = capsys.readouterr()
    assert rc == 2 and err == ""
    assert json.loads(out)["error"] == {
        "field": field, "message": f"{field} gives a power of lam that overflows a float"}


@pytest.mark.parametrize("seed", [0, 1, 124586])
def test_quotient_suite_at_large_traces_reports_or_names_A(seed, capsys):
    """Traces 10^e up to the eigendata limit, 102.7 and 102.8 on either side
    of lam^3's overflow: a report (exit 0 or 1) or exit 2 naming A."""
    for e in [*range(100, 154), 102.7, 102.8]:
        a = 10 ** e if isinstance(e, int) else int(10 ** e)
        rc = main(["verify", "--suite", "quotient", "--seed", str(seed),
                   "--A", f"{a},{a - 1},1,1"])
        out, err = capsys.readouterr()
        doc = json.loads(out)
        assert err == "" and (rc in (0, 1) and len(doc["checks"]) == 6
                              or rc == 2 and doc["error"]["field"] == "A"), e


def test_range_value_bound_is_inclusive():
    parse = cli._parse_range("s-range")
    assert cli._range_count(parse(f"0:{cli._MAX_RANGE_VALUES - 1}:1")) \
        == cli._MAX_RANGE_VALUES
    with pytest.raises(cli.ConfigError):
        parse(f"0:{cli._MAX_RANGE_VALUES}:1")


@pytest.mark.parametrize("argv", [
    "export orbit --A 5000,1,4999,1 --N 90",     # lam^90 overflows
    "export orbit --A 3000,1,2999,1 --N 90",
    "export orbit --base 1e300i,1i --N 90",      # a height overflows to inf
    "export orbit --base 1i,1e-300i --N 90",     # a height underflows to 0
])
def test_orbit_points_that_leave_the_floats_are_config_errors(argv, capsys):
    rc = main(argv.split())
    out, err = capsys.readouterr()
    assert rc == 2 and err == ""
    assert json.loads(out)["error"] == {
        "field": "N",
        "message": "N gives an orbit coordinate that is not a finite float or a height "
                   "that is not positive"}

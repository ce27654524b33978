"""Command-line behavior: determinism, exits, exports, config merging."""

import json
import math

import numpy as np
import pytest

from solfold import ToralGroupSpec, word_ball
from solfold.cli import main


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
        ball = word_ball(spec, N)
        assert len(lines) == 1 + len(ball)
        triples = [tuple(int(v) for v in l.split(",")[:3]) for l in lines[1:]]
        assert triples == ball
        heights = [float(l.split(",")[4]) for l in lines[1:]]
        assert all(h > 0 for h in heights)


def test_export_orbit_rejects_base_outside_domain(capsys):
    rc, out = run(capsys, "export", "orbit", "--base", "1-2i,i")
    assert rc == 2
    assert json.loads(out)["error"]["field"] == "base"


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


def test_export_domain_structure(capsys):
    rc, out = run(capsys, "export", "domain")
    assert rc == 0
    doc = json.loads(out)
    assert set(doc) == {"A", "seed", "lam", "height_interval",
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
    assert len(rows) == 28
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

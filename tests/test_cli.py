import json
import math
import os
import shlex

import pytest

from hardy_lab.cli import main


def read(path):
    with open(path) as fh:
        return json.load(fh)


def test_tree_then_hardy_pipeline(tmp_path):
    out = str(tmp_path)
    assert main(["tree", "--chain", "2", "--out", out]) == 0
    tree = read(os.path.join(out, "tree.json"))["report"]
    assert tree == {"root": 0, "parents": [[1, 0], [2, 1]]}
    problem = {"tree": tree, "u": [1.0, 1.0], "v": [1.0, 1.0], "p": 2.0}
    with open(os.path.join(out, "problem.json"), "w") as fh:
        json.dump(problem, fh)
    assert main(["hardy", "--input", os.path.join(out, "problem.json"),
                 "--out", out]) == 0
    rep = read(os.path.join(out, "hardy.json"))["report"]
    assert rep["a_chain"] == pytest.approx(math.sqrt(2), abs=1e-6)
    assert rep["c_exact"] == pytest.approx(1.618034, abs=1e-6)
    assert rep["b_ehp"] == pytest.approx(math.sqrt(2), abs=1e-6)
    assert all(rep["checks"].values())


def test_hardy_on_bare_tree_uses_unit_weights(tmp_path):
    out = str(tmp_path)
    assert main(["tree", "--chain", "1", "--out", out]) == 0
    assert main(["hardy", "--input", os.path.join(out, "tree.json"),
                 "--out", out]) == 0
    rep = read(os.path.join(out, "hardy.json"))["report"]
    # single vertex: all four constants equal v1/u1 = 1
    for key in ("a_chain", "a_tree", "b_ehp", "c_exact"):
        assert rep[key] == pytest.approx(1.0, abs=1e-9)


def test_hardy_cap_exceeded_exits_3(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["tree", "--star", "8", "--out", out]) == 0
    tree = os.path.join(out, "tree.json")
    assert main(["hardy", "--input", tree, "--cap", "10", "--out", out]) == 3
    assert "hull points" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "hardy.json"))
    assert main(["hardy", "--input", tree, "--cap", "16", "--out", out]) == 0
    assert read(os.path.join(out, "hardy.json"))["report"]["b_count"] == 16


def test_random_tree_seeded(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["tree", "--random", "12", "--seed", "5", "--out", a]) == 0
    assert main(["tree", "--random", "12", "--seed", "5", "--out", b]) == 0
    assert read(os.path.join(a, "tree.json"))["report"] == \
        read(os.path.join(b, "tree.json"))["report"]


def test_covering_reports_and_csv(tmp_path):
    out = str(tmp_path)
    assert main(["covering", "--phi", "demo", "--depth", "3", "--out", out]) == 0
    doc = read(os.path.join(out, "covering.json"))
    assert doc["report"]["structure"]["disjoint"]
    assert doc["report"]["structure"]["coverage_exact"]
    assert doc["config"]["depth"] == 3
    assert doc["version"]
    with open(os.path.join(out, "levels.csv")) as fh:
        header = fh.readline().strip().split(",")
    assert header == ["size_class", "edge", "count", "volume"]


def test_covering_rough_profile(tmp_path):
    out = str(tmp_path)
    assert main(["covering", "--phi", "rough", "--depth", "3", "--out", out]) == 0
    doc = read(os.path.join(out, "covering.json"))["report"]
    assert doc["covering"]["profile"] == "rough"
    assert doc["structure"]["disjoint"]
    assert doc["structure"]["coverage_exact"]


def test_covering_alpha_must_match_profile(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["covering", "--phi", "demo", "--alpha", "0.3", "--depth", "2",
                 "--out", out]) == 2
    assert "alpha" in capsys.readouterr().err
    assert main(["covering", "--phi", "nope", "--out", out]) == 2
    assert not os.path.exists(os.path.join(out, "covering.json"))


def test_report_file_mode_follows_umask(tmp_path):
    old = os.umask(0o022)
    try:
        assert main(["tree", "--chain", "2", "--out", str(tmp_path)]) == 0
    finally:
        os.umask(old)
    assert os.stat(tmp_path / "tree.json").st_mode & 0o777 == 0o644


def test_readme_examples_run(tmp_path):
    # every `hardy-lab ...` line of the README, in order, with runs/ in tmp_path
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        lines = [ln.split("#")[0].strip() for ln in fh if ln.startswith("hardy-lab ")]
    assert len(lines) >= 6
    for line in lines:
        argv = shlex.split(line.replace("runs/", f"{tmp_path}/runs/"))[1:]
        assert main(argv) == 0, line


def test_covering_matches_golden_file(tmp_path):
    out = str(tmp_path)
    assert main(["covering", "--phi", "demo", "--alpha", "0.5", "--depth", "3",
                 "--out", out]) == 0
    produced = read(os.path.join(out, "covering.json"))["report"]["covering"]
    golden_path = os.path.join(os.path.dirname(__file__), "data",
                               "demo_depth3_golden.json")
    assert produced == read(golden_path)


def test_covering_byte_identical(tmp_path):
    # identical RunConfig (same out dir) twice: byte-identical report files
    out = str(tmp_path)
    assert main(["covering", "--phi", "demo", "--depth", "3", "--out", out]) == 0
    with open(os.path.join(out, "covering.json"), "rb") as fh:
        first = fh.read()
    assert main(["covering", "--phi", "demo", "--depth", "3", "--out", out]) == 0
    with open(os.path.join(out, "covering.json"), "rb") as fh:
        second = fh.read()
    assert first == second


def test_decompose_command(tmp_path):
    out = str(tmp_path)
    assert main(["decompose", "--phi", "demo", "--depth", "4", "--beta", "0.0",
                 "--seed", "3", "--out", out]) == 0
    doc = read(os.path.join(out, "decomposition.json"))["report"]
    ver = doc["verification"]
    assert ver["measured_ratio"] <= ver["predicted_bound"]
    assert ver["support_ok"]


def test_ineq_command_and_sweep(tmp_path):
    out = str(tmp_path)
    assert main(["ineq", "--kind", "improved_poincare", "--phi", "flat",
                 "--depth", "0", "--samples", "20000", "--out", out]) == 0
    rep = read(os.path.join(out, "ineq.json"))["report"]
    assert rep["ratio"] == pytest.approx(math.sqrt(1 / 12), rel=0.05)
    assert main(["ineq", "--kind", "improved_poincare", "--phi", "demo",
                 "--depth", "3", "--beta-grid", "0.0,0.5",
                 "--samples", "8000", "--out", out]) == 0
    with open(os.path.join(out, "sweep.csv")) as fh:
        rows = fh.read().strip().splitlines()
    assert len(rows) == 3   # header + two betas


def test_format_csv_writes_flat_rows(tmp_path):
    out = str(tmp_path)
    assert main(["tree", "--chain", "2", "--out", out]) == 0
    assert main(["hardy", "--input", os.path.join(out, "tree.json"),
                 "--out", out, "--format", "csv"]) == 0
    with open(os.path.join(out, "hardy.csv")) as fh:
        header = fh.readline().strip().split(",")
    assert "c_exact" in header and "a_chain" in header
    assert main(["ineq", "--phi", "flat", "--depth", "0", "--samples", "5000",
                 "--out", out, "--format", "csv"]) == 0
    assert os.path.exists(os.path.join(out, "ineq.csv"))


def test_exit_code_bad_input(tmp_path):
    out = str(tmp_path)
    missing = os.path.join(out, "nope.json")
    assert main(["hardy", "--input", missing, "--out", out]) == 2
    assert main(["tree", "--out", out]) == 2


def test_ineq_bad_p_exits_2(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["ineq", "--p", "0", "--depth", "3", "--samples", "1000",
                 "--out", out]) == 2
    assert "p must be finite and >= 1" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "ineq.json"))


def test_exit_code_resource_cap(tmp_path):
    out = str(tmp_path)
    assert main(["covering", "--phi", "demo", "--depth", "8", "--cap", "50",
                 "--out", out]) == 3


def test_reports_embed_config_and_version(tmp_path):
    out = str(tmp_path)
    assert main(["tree", "--star", "3", "--out", out]) == 0
    doc = read(os.path.join(out, "tree.json"))
    assert doc["config"]["star"] == 3
    assert doc["version"].count(".") == 2

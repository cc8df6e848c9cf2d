import dataclasses
import json
import math
import os
import shlex

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hardy_lab as hl
import hardy_lab.cli as cli
from hardy_lab.cli import _report_text, main

from oracles import row_export


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


def test_hardy_problem_p_mismatch_exits_2(tmp_path, capsys):
    # a problem file brings its own p; a different --p is refused, not ignored
    out = str(tmp_path)
    problem = os.path.join(out, "problem.json")
    with open(problem, "w") as fh:
        json.dump({"tree": {"root": 0, "parents": [[1, 0], [2, 1]]},
                   "u": [1.0, 1.0], "v": [1.0, 1.0], "p": 3.0}, fh)
    assert main(["hardy", "--input", problem, "--p", "1.5", "--out", out]) == 2
    assert "--p 1.5 does not match the problem's p = 3" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "hardy.json"))


@pytest.mark.parametrize("source,flags,p", [
    ("problem", [], 3.0),
    ("problem", ["--p", "3"], 3.0),
    ("tree", [], 2.0),
    ("tree", ["--p", "1.5"], 1.5),
])
def test_hardy_config_echoes_the_p_used(tmp_path, source, flags, p):
    out = str(tmp_path)
    assert main(["tree", "--chain", "2", "--out", out]) == 0
    path = os.path.join(out, "tree.json")
    if source == "problem":
        path = os.path.join(out, "problem.json")
        with open(path, "w") as fh:
            json.dump({"tree": read(os.path.join(out, "tree.json"))["report"],
                       "u": [1.0, 1.0], "v": [1.0, 1.0], "p": 3.0}, fh)
    assert main(["hardy", "--input", path, "--out", out] + flags) == 0
    doc = read(os.path.join(out, "hardy.json"))
    assert doc["config"]["p"] == p
    # and the report was computed at that p
    ones = [1.0, 1.0]
    want = hl.hardy_report(hl.make_problem(hl.chain_tree(2), ones, ones, p)).to_json()
    assert doc["report"]["c_exact"] == want["c_exact"]


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


def test_readme_library_block_runs():
    # the README's one ```python block (Library entry points), as written
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        blocks = fh.read().split("```python\n")[1:]
    assert len(blocks) == 1
    exec(blocks[0].split("```")[0], {})


def test_covering_matches_golden_file(tmp_path):
    out = str(tmp_path)
    assert main(["covering", "--phi", "demo", "--alpha", "0.5", "--depth", "3",
                 "--out", out]) == 0
    produced = read(os.path.join(out, "covering.json"))["report"]["covering"]
    golden_path = os.path.join(os.path.dirname(__file__), "data",
                               "demo_depth3_golden.json")
    assert row_export(produced) == read(golden_path)


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


@pytest.mark.parametrize("flag,message", [
    ("--chain", "chain needs at least one edge"),
    ("--star", "star needs at least one leaf"),
    ("--random", "need at least two vertices"),
])
def test_tree_size_zero_reports_the_library_error(tmp_path, capsys, flag, message):
    # 0 is a given size, not a missing option: the builder's own error is shown
    out = str(tmp_path)
    assert main(["tree", flag, "0", "--out", out]) == 2
    err = capsys.readouterr().err
    assert message in err and "is required" not in err
    assert os.listdir(out) == []


@pytest.mark.parametrize("theta_max", ["1", "0.5", "-2", "inf", "nan"])
def test_theta_max_out_of_range_exits_2(tmp_path, capsys, theta_max):
    out = str(tmp_path)
    assert main(["tree", "--chain", "3", "--out", out]) == 0
    assert main(["hardy", "--input", os.path.join(out, "tree.json"),
                 f"--theta-max={theta_max}", "--out", out]) == 2
    assert main(["decompose", "--depth", "3", f"--theta-max={theta_max}",
                 "--out", out]) == 2
    assert "theta_max must be finite and > 1" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["tree.json"]


@pytest.mark.parametrize("argv", [["--p", "nan"], ["--beta", "nan"], ["--p", "0.5"],
                                  ["--depth", "-1"]])
def test_covering_bad_input_exits_2(tmp_path, argv):
    out = str(tmp_path)
    assert main(["covering", "--depth", "3", *argv, "--out", out]) == 2
    assert os.listdir(out) == []


@pytest.mark.parametrize("argv", [["covering", "--phi", "rough", "--depth", "8", "--beta", "-400"],
                                  ["ineq", "--phi", "rough", "--depth", "6", "--beta", "-400"]])
def test_overflowing_weight_exits_2_naming_beta_and_p(tmp_path, capsys, argv):
    # on the smallest edge 2^-j (j = 8 or 6) d^(beta p) = 2^(800 j) overflows a
    # float: refused by name, with no traceback and no numpy warning (both
    # are errors here)
    out = str(tmp_path)
    assert main([*argv, "--out", out]) == 2
    assert "beta = -400 and p = 2" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_underflowing_tail_runs_cleanly(tmp_path):
    # d^(beta p) underflows to 0 on the small edges: the tail's decay is 0,
    # taken without a divide-by-zero warning
    out = str(tmp_path)
    assert main(["covering", "--beta", "400", "--out", out]) == 0
    assert read(os.path.join(out, "covering.json"))["report"]["tail"]["decay"] == 0.0


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("depth", [0, 1])
def test_missing_tail_decay_is_null(tmp_path, depth):
    # with fewer than two size classes in Gamma* there is no decay ratio:
    # it is written as null, not as a bare NaN token
    out = str(tmp_path)
    assert main(["covering", "--depth", str(depth), "--out", out]) == 0
    with open(os.path.join(out, "covering.json")) as fh:
        doc = json.load(fh, parse_constant=_refuse_constant)
    assert doc["report"]["tail"]["decay"] is None


def _no_build(*args, **kwargs):
    raise AssertionError("the covering was built before the arguments were checked")


@pytest.mark.parametrize("command,argv,message", [
    ("covering", ["--p", "nan"], "p must be finite and >= 1"),
    ("covering", ["--p", "0.5"], "p must be finite and >= 1"),
    ("covering", ["--beta", "nan"], "beta must be finite"),
    ("covering", ["--beta", "inf"], "beta must be finite"),
    ("decompose", ["--beta", "nan"], "beta must be finite"),
    ("decompose", ["--p", "inf"], "p must be finite and >= 1"),
    ("decompose", ["--p", "1"], "p must lie in (1, inf)"),
    ("ineq", ["--beta", "nan"], "beta must be finite"),
    ("ineq", ["--p", "nan"], "p must be finite and >= 1"),
    ("ineq", ["--beta-grid=0.0,nan"], "beta must be finite"),
    ("ineq", ["--kind", "fractional_poincare"], "fractional_poincare needs s, tau in (0, 1)"),
    ("ineq", ["--kind", "fractional_poincare", "--s", "0.5"],
     "fractional_poincare needs s, tau in (0, 1)"),
    ("ineq", ["--s", "0.5"], "improved_poincare takes no s or tau"),
    ("ineq", ["--kind", "korn", "--tau", "0.5"], "korn takes no s or tau"),
    ("ineq", ["--samples", "0"], "samples must be >= 1"),
    ("ineq", ["--beta-grid=0.0,0.1", "--samples", "0"], "samples must be >= 1"),
    ("decompose", ["--theta-max", "1"], "theta_max must be finite and > 1"),
    ("decompose", ["--theta-max", "inf"], "theta_max must be finite and > 1"),
])
def test_beta_and_p_checked_before_the_build(tmp_path, capsys, monkeypatch,
                                             command, argv, message):
    monkeypatch.setattr(cli, "build_covering", _no_build)
    out = str(tmp_path)
    assert main([command, "--phi", "rough", "--depth", "10", *argv, "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert os.listdir(out) == []


@pytest.mark.parametrize("command,unread", [
    (["tree", "--chain", "2"], "--format"),
    (["hardy", "--input", "tree.json"], "--seed"),
    (["covering", "--depth", "2"], "--seed"),
    (["covering", "--depth", "2"], "--format"),
    (["decompose", "--depth", "2"], "--format"),
])
def test_subcommands_take_only_options_they_read(capsys, command, unread):
    value = "csv" if unread == "--format" else "1"
    with pytest.raises(SystemExit) as exc:
        main([*command, unread, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {unread}" in capsys.readouterr().err


def test_report_configs_hold_only_read_options(tmp_path):
    out = str(tmp_path)
    runs = [(["tree", "--chain", "2"], "tree.json", {"seed"}),
            (["hardy", "--input", os.path.join(out, "tree.json")], "hardy.json", {"format"}),
            (["covering", "--depth", "2"], "covering.json", set()),
            (["decompose", "--depth", "2"], "decomposition.json", {"seed"}),
            (["ineq", "--depth", "2", "--samples", "500"], "ineq.json", {"seed", "format"})]
    for argv, name, read_opts in runs:
        assert main([*argv, "--out", out]) == 0
        config = read(os.path.join(out, name))["config"]
        assert {"seed", "format"} & config.keys() == read_opts, name


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


def _five_reports():
    cov = hl.build_covering(hl.profile_demo(), depth_max=3)
    problem = hl.weights_from_beta(cov, -0.2, 2.0)
    g = hl.random_mean_zero(hl.space_from_covering(cov, beta=-0.2), np.random.default_rng(0))
    chain = hl.make_problem(hl.chain_tree(3), [1.0] * 3, [1.0] * 3, 2.0)
    return [hl.hardy_report(chain),
            hl.verify_decomposition(hl.decompose(g, problem), 1.0),
            hl.inequality_ratio("improved_poincare", hl.f_linear(), cov, -0.2, 2.0, samples=500),
            hl.verify_counting_bounds(cov),
            hl.tail_integrability(cov, -0.2, 2.0)]


# the keys a report writes besides its fields; anything else is a report change
REPORT_EXTRAS = {"VerifyReport": {"sum_ok", "means_ok", "estimate_ok"}}


def test_report_keys_are_the_dataclass_fields():
    reports = _five_reports()
    assert [type(r).__name__ for r in reports] == [
        "HardyReport", "VerifyReport", "RatioReport", "BoundsReport", "TailReport"]
    for rep in reports:
        fields = {f.name for f in dataclasses.fields(rep)}
        assert set(rep.to_json()) == fields | REPORT_EXTRAS.get(type(rep).__name__, set())


def test_fractional_tree_ids_exit_2(tmp_path, capsys):
    # ids were truncated to int: this tree ran as (1,0),(2,1), the problem
    # with parent 1.7 on parent 1
    out = str(tmp_path)
    tree = os.path.join(out, "fractional_tree.json")
    with open(tree, "w") as fh:
        json.dump({"root": 0, "parents": [[1, 0.9], [2.5, 1]]}, fh)
    assert main(["tree", "--input", tree, "--out", out]) == 2
    assert "parent id 0.9 of vertex 1 is not an integer" in capsys.readouterr().err
    problem = os.path.join(out, "fractional_problem.json")
    with open(problem, "w") as fh:
        json.dump({"tree": {"root": 0, "parents": [[1, 0], [2, 1.7]]},
                   "u": [1.0, 1.0], "v": [1.0, 1.0], "p": 2.0}, fh)
    assert main(["hardy", "--input", problem, "--out", out]) == 2
    assert "parent id 1.7 of vertex 2 is not an integer" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["fractional_problem.json", "fractional_tree.json"]


def test_tree_file_root_mismatch_exits_2(tmp_path, capsys):
    # the pairs make vertex 0 the root: a file naming root 2 was read as
    # root 0 and written back as such
    out = str(tmp_path)
    tree = os.path.join(out, "root2_tree.json")
    with open(tree, "w") as fh:
        json.dump({"root": 2, "parents": [[1, 0]]}, fh)
    message = "root 2 does not match the root 0 of the parent pairs"
    assert main(["tree", "--input", tree, "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert main(["hardy", "--input", tree, "--out", out]) == 2
    assert message in capsys.readouterr().err
    problem = os.path.join(out, "root2_problem.json")
    with open(problem, "w") as fh:
        json.dump({"tree": {"root": 2, "parents": [[1, 0]]}, "u": [1.0], "v": [1.0],
                   "p": 2.0}, fh)
    assert main(["hardy", "--input", problem, "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["root2_problem.json", "root2_tree.json"]


def test_empty_gamma_star_exits_2(tmp_path, capsys):
    # the flat depth-0 covering is the root cube alone, so no Hardy problem
    out = str(tmp_path)
    assert main(["decompose", "--phi", "flat", "--depth", "0", "--out", out]) == 2
    assert "Gamma* is empty" in capsys.readouterr().err
    tree = os.path.join(out, "root_only.json")
    with open(tree, "w") as fh:
        json.dump({"root": 0, "parents": []}, fh)
    assert main(["hardy", "--input", tree, "--out", out]) == 2
    assert "Gamma* is empty" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["root_only.json"]


# -- the report writer against its oracle, json.dumps(sort_keys=True, indent=2)

def dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=2)


_leaves = st.one_of(
    st.integers(), st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-5, 1e300, 1e16]),
    st.booleans(), st.none(),
    st.text(), st.sampled_from(["\u00e9t\u00e9", "\u2202\U0001d49e", "a\x00b\x1f\n\t\"\\", ""]),
)
_docs = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5), st.lists(kids, max_size=5).map(tuple),
        st.lists(st.integers(-3, 3), max_size=4),     # all-int lists, joined in one step
        st.dictionaries(st.text(max_size=6), kids, max_size=5)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_docs)
def test_report_text_equals_json_dumps(doc):
    assert _report_text(doc) == dumps(doc)


def test_report_text_fixed_cases():
    # bools are not ints, even next to an equal int list
    doc = {"a": [1, 1], "b": [True, 1], "c": [1, True], "d": [1.0, 1], "e": (), "f": {}}
    assert _report_text(doc) == dumps(doc)
    # one int list at three indents
    doc = {"a": [1, 2], "b": [[1, 2], [[1, 2]]], "c": {"d": [1, 2]}}
    assert _report_text(doc) == dumps(doc)
    # numpy floats subclass float and print as floats; numpy ints do not
    doc = {"x": np.float64(0.1), "y": [np.float64("nan"), np.float64(-np.inf), np.float64(1e300)]}
    assert _report_text(doc) == dumps(doc)
    for bad in ({"x": np.int64(3)}, [{1, 2}], {"x": object()}):
        with pytest.raises(TypeError):
            dumps(bad)
        with pytest.raises(TypeError):
            _report_text(bad)
    with pytest.raises(TypeError, match="keys must be str"):
        _report_text({1: 2})


def test_every_subcommand_report_equals_json_dumps(tmp_path, monkeypatch):
    texts = []

    def checked(doc):
        text = _report_text(doc)
        assert text == dumps(doc)
        texts.append(text)
        return text

    monkeypatch.setattr(cli, "_report_text", checked)
    out = str(tmp_path)
    runs = [
        (["tree", "--random", "24", "--seed", "3"], "tree.json"),
        (["hardy", "--input", os.path.join(out, "tree.json"), "--p", "3"], "hardy.json"),
        (["covering", "--phi", "rough", "--depth", "5"], "covering.json"),
        (["covering", "--phi", "demo", "--depth", "4", "--beta", "-0.3"], "covering.json"),
        (["decompose", "--phi", "rough", "--depth", "4", "--beta", "-0.2", "--seed", "7"],
         "decomposition.json"),
        (["ineq", "--kind", "korn", "--phi", "demo", "--depth", "3", "--samples", "4000"],
         "ineq.json"),
        (["ineq", "--kind", "fractional_poincare", "--phi", "demo", "--depth", "3",
          "--s", "0.5", "--tau", "0.5", "--samples", "4000"], "ineq.json"),
        (["ineq", "--phi", "demo", "--depth", "3", "--beta-grid", "0.0,0.5",
          "--samples", "4000"], "ineq.json"),
    ]
    for argv, name in runs:
        assert main(argv + ["--out", out]) == 0, argv
        with open(os.path.join(out, name)) as fh:
            assert fh.read() == texts[-1] + "\n"
    assert len(texts) == len(runs)

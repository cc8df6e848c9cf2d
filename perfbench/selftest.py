"""Self-test of the benchmark at the tiny size; exits non-zero on failure.

    python3 perfbench/selftest.py

It asserts that every metric BENCHMARK.json names is emitted with its unit,
that the checker catches a deliberately wrong value, and that the seed
changes the demo_constants and monte_carlo inputs but not rough_threshold.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import run


def _spec() -> dict:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def check_metrics_emitted(workdir: Path) -> None:
    spec = _spec()
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            res = run.measure(w["name"], seed=1, seconds=0, trace=bool(trace),
                              size="tiny", workdir=workdir)["result"]
            assert res["correct"] and res["failed"] == 0, (w["name"], res)
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            assert got == expected[trace], (w["name"], trace, got)
            for k, m in res["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), k
            json.dumps(res)


def _run_tiny(name: str, seed: int, workdir: Path):
    from spans import Tracer
    from workloads import SIZES, WORKLOADS, Ops

    workload = WORKLOADS[name]
    ops = Ops(Tracer(False))
    inputs = workload.setup(seed, SIZES["tiny"], ops, workdir)
    out: dict = {}
    workload.run(inputs, ops, out)
    return workload, inputs, out, ops


def _failed_checks(workload, inputs, out, ops) -> list[str]:
    return [name for name, ok in workload.checks(inputs, out, ops) if not ok]


def check_wrong_values_caught(workdir: Path) -> None:
    workload, inputs, out, ops = _run_tiny("demo_constants", 1, workdir)
    assert _failed_checks(workload, inputs, out, ops) == []

    bad = copy.deepcopy(out)
    case = bad["cases"][0]
    case["c_primal"] = 2.0 * case["suff_bound"]
    failed = _failed_checks(workload, inputs, bad, ops)
    assert any(f.endswith("C_le_suff_bound") for f in failed), failed
    assert any(f.endswith("duality") for f in failed), failed

    bad = copy.deepcopy(out)
    p2 = next(i for i, pr in enumerate(inputs["corpus"]) if pr.p == 2.0)
    bad["corpus"][p2]["c_primal"] *= 1.001
    bad["corpus"][p2]["c_dual"] *= 1.001
    failed = _failed_checks(workload, inputs, bad, ops)
    assert f"corpus[{p2}].svd_oracle" in failed, failed

    workload, inputs, out, ops = _run_tiny("monte_carlo", 1, workdir)
    bad = copy.deepcopy(out)
    bad["ratios"][0]["ratio"] *= 1.05
    bad["ratios"][1]["low_confidence"] = True
    failed = _failed_checks(workload, inputs, bad, ops)
    assert len(failed) == 2, failed


def _corpus_digest(inputs: dict) -> str:
    text = json.dumps([pr.to_json() for pr in inputs["corpus"]], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def check_seed_dependence(workdir: Path) -> None:
    a = _run_tiny("rough_threshold", 1, workdir)
    b = _run_tiny("rough_threshold", 2, workdir)
    assert _failed_checks(*a) == _failed_checks(*b) == []   # also records the digests
    assert a[2] == b[2], "rough_threshold must not depend on the seed"

    a = _run_tiny("demo_constants", 1, workdir)
    b = _run_tiny("demo_constants", 2, workdir)
    assert _corpus_digest(a[1]) != _corpus_digest(b[1])
    ratios = [[d["ratio"] for c in x[2]["cases"] for d in c["decomposition"]] for x in (a, b)]
    assert ratios[0] != ratios[1], "the g draws must follow the seed"

    a = _run_tiny("monte_carlo", 1, workdir)
    b = _run_tiny("monte_carlo", 2, workdir)
    assert [r["lhs"] for r in a[2]["ratios"]] != [r["lhs"] for r in b[2]["ratios"]]


def main() -> int:
    run.pin_environment()
    run.import_library()
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".bench_selftest-") as tmp:
        workdir = Path(tmp)
        check_metrics_emitted(workdir)
        check_wrong_values_caught(workdir)
        check_seed_dependence(workdir)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

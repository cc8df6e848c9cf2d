"""The benchmark's workloads, written against the public hardy_lab API.

Each workload has four parts:

  setup(seed, size, ops, workdir) -> inputs    untimed, counted in setup_s
  run(inputs, ops, out)                        timed; fills the plain dict `out`
  checks(inputs, out, ops) -> (name, ok)...    untimed; behind failed_frac, and
                                               records report digests in `out`
  counts(inputs, out) -> {metric: value}       per-layer work counts

Only names exported by hardy_lab are called, plus hardy_lab.cli.write_report
and write_csv. `hardy_matrix`, `dense_cap`, `workers` and `max_points` are
never used, so the benchmark keeps running when the dense path, the thread
pool and the sampled containment test go. Fields a later version may drop
(ExactConstant.iterations and .residual, CubeCovering.inconclusive) are read
with getattr and recorded as None when absent. No cube count or golden value
is pinned: a corrected covering is allowed to change them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hardy_lab as hl
from hardy_lab.cli import write_csv, write_report

# Span name -> the per-layer metric its self time is added to.
SPAN_METRICS = {
    "build_covering": "covering.build_s",
    "check_disjoint_and_coverage": "covering.check_s",
    "verify_counting_bounds": "covering.bounds_s",
    "weights_from_beta": "covering.weights_s",
    "tail_integrability": "covering.tail_s",
    "optimize_theta": "hardy.optimize_theta_s",
    "a_tree": "hardy.levels_s",
    "a_chain": "hardy.levels_s",
    "exact_constant": "hardy.exact_constant_s",
    "hardy_report": "hardy.report_s",
    "space_from_covering": "decomp.space_s",
    "random_mean_zero": "decomp.decompose_s",
    "decompose": "decomp.decompose_s",
    "verify_decomposition": "decomp.verify_s",
    "inequality_ratio.improved_poincare": "inequalities.poincare_s",
    "inequality_ratio.korn": "inequalities.korn_s",
    "inequality_ratio.fractional_poincare": "inequalities.fractional_s",
    "density_split": "inequalities.density_split_s",
    "write_report": "cli.write_report_s",
}

COUNT_UNITS = {
    "covering.cubes": "count",
    "covering.inconclusive_frac": "ratio",
    "hardy.power_iterations": "count",
    "hardy.antichains": "count",
    "hardy.partial_B": "count",
    "tree.vertices": "count",
    "tree.max_depth": "count",
    "inequalities.samples": "count",
    "cli.report_bytes": "bytes",
}

REL_TOL = 1e-6          # duality, oracle and bound comparisons


class OpFailed(Exception):
    """A library call raised; the current workload run stops there."""


class Ops:
    """Runs library calls inside spans and counts attempts and failures.

    A raised error (NonConvergenceError, DecompositionError, CoveringError
    or any other) is recorded and counted against failed_frac, then
    re-raised as OpFailed so the caller can stop the run without crashing.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, span: str, fn, *args, **kwargs):
        self.attempted += 1
        with self.tracer.span(span):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:  # counted, reported, never fatal
                self.failed += 1
                self.errors.append(f"{span}: {type(exc).__name__}: {exc}")
                raise OpFailed(span) from exc

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check failed: {name}")


@dataclass(frozen=True)
class Size:
    rough_depth: int
    demo_depth: int
    corpus_trees: int
    corpus_vertices: tuple[int, int]    # inclusive range
    b_cap: int
    g_rounds: int
    mc_depth: int
    samples: tuple[int, int, int, int]  # flat Poincare, demo Poincare, Korn, fractional


SIZES = {
    "full": Size(rough_depth=8, demo_depth=8, corpus_trees=24,
                 corpus_vertices=(16, 28), b_cap=3000, g_rounds=3, mc_depth=6,
                 samples=(5 * 10 ** 5, 10 ** 6, 10 ** 6, 10 ** 5)),
    # the self-test size and the warm-up before every measurement
    "tiny": Size(rough_depth=4, demo_depth=4, corpus_trees=6,
                 corpus_vertices=(8, 12), b_cap=3000, g_rounds=1, mc_depth=3,
                 samples=(10 ** 5, 10 ** 4, 10 ** 4, 10 ** 3)),
}


# -- shared helpers ----------------------------------------------------------------

def _le(a: float, b: float) -> bool:
    return a <= b * (1.0 + REL_TOL)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _nondecreasing(levels) -> bool:
    return all(_le(a, b) for a, b in zip(levels, levels[1:]))


def _covering_summary(cov) -> dict:
    return {"cubes": cov.tree.n,
            "inconclusive": getattr(cov, "inconclusive", None),
            "tree_depth": cov.tree.max_depth}


def _covering_counts(summaries) -> dict:
    cubes = sum(s["cubes"] for s in summaries)
    known = [s for s in summaries if s["inconclusive"] is not None]
    frac = (sum(s["inconclusive"] for s in known) / sum(s["cubes"] for s in known)
            if known else 0.0)
    return {"covering.cubes": cubes, "covering.inconclusive_frac": frac,
            "tree.vertices": cubes,
            "tree.max_depth": max(s["tree_depth"] for s in summaries)}


def _structure(struct: dict, bounds) -> dict:
    return {"disjoint": bool(struct["disjoint"]),
            "coverage_exact": bool(struct["coverage_exact"]),
            "c1": bounds.c1, "c2": bounds.c2, "c3": bounds.c3}


def _structure_checks(label: str, s: dict):
    yield f"{label}.disjoint", s["disjoint"]
    yield f"{label}.coverage_exact", s["coverage_exact"]
    for k in ("c1", "c2", "c3"):
        yield f"{label}.{k}_finite_positive", math.isfinite(s[k]) and s[k] > 0


def _input_structure(cov, ops: Ops) -> dict:
    """Structure of a covering built in set-up, checked in the checks phase."""
    struct = ops.call("checks.check_disjoint_and_coverage",
                      hl.check_disjoint_and_coverage, cov)
    bounds = ops.call("checks.verify_counting_bounds", hl.verify_counting_bounds, cov)
    return _structure(struct, bounds)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# -- rough_threshold -------------------------------------------------------------------

class RoughThreshold:
    """The threshold study on the rough profile, the only one that saturates
    the counting bounds. Covering construction and its exact checks dominate,
    then the tree sums on a deep tree. No dense algebra and no sampling; the
    seed changes nothing."""

    name = "rough_threshold"
    P = 2.0
    BETAS = (-0.3, -0.2)      # either side of beta p = -alpha = -0.5

    def setup(self, seed: int, size: Size, ops: Ops, workdir: Path) -> dict:
        return {"depth": size.rough_depth, "out_dir": workdir / self.name}

    def run(self, inputs: dict, ops: Ops, out: dict) -> None:
        depth = inputs["depth"]
        cov = ops.call("build_covering", hl.build_covering, hl.profile_rough(), depth)
        out["covering"] = _covering_summary(cov)
        struct = ops.call("check_disjoint_and_coverage",
                          hl.check_disjoint_and_coverage, cov)
        bounds = ops.call("verify_counting_bounds", hl.verify_counting_bounds, cov)
        out["structure"] = _structure(struct, bounds)
        out["betas"] = []
        tails = []
        for beta in self.BETAS:
            problem = ops.call("weights_from_beta", hl.weights_from_beta, cov, beta, self.P)
            theta = ops.call("optimize_theta", hl.optimize_theta, problem)
            tree_sup = ops.call("a_tree", hl.a_tree, problem, theta.theta_star,
                                levels=cov.size_class)
            chain_sup = ops.call("a_chain", hl.a_chain, problem, levels=cov.size_class)
            tail = ops.call("tail_integrability", hl.tail_integrability, cov, beta, self.P)
            tails.append(tail)
            out["betas"].append({
                "beta": beta, "theta_star": theta.theta_star,
                "suff_bound": theta.suff_bound, "a_tree": tree_sup.value,
                "a_chain": chain_sup.value,
                "a_tree_levels": list(tree_sup.levels),
                "a_chain_levels": list(chain_sup.levels),
                "a_tree_diverging": tree_sup.diverging,
                "tail_geometric": tail.geometric, "tail_decay": tail.decay})
        config = {"phi": "rough", "depth": depth, "beta": self.BETAS[0], "p": self.P}
        out["report_files"] = ops.call("write_report", _export_covering,
                                       inputs["out_dir"], cov, struct, bounds,
                                       tails[0], config)

    def checks(self, inputs: dict, out: dict, ops: Ops):
        if "report_files" in out:   # recorded here, outside the timed part
            out["report"] = {Path(p).name: {"sha256": _sha256(p),
                                            "bytes": Path(p).stat().st_size}
                             for p in out["report_files"]}
        if "structure" in out:
            yield from _structure_checks("covering", out["structure"])
        for b in out.get("betas", []):
            label = f"beta={b['beta']}"
            # C itself is out of reach at this size; a_chain <= C <= suff_bound
            # still forces the outer inequality.
            yield f"{label}.a_chain_le_suff_bound", _le(b["a_chain"], b["suff_bound"])
            yield f"{label}.theta_levels_nondecreasing", _nondecreasing(b["a_tree_levels"])
            yield f"{label}.chain_levels_nondecreasing", _nondecreasing(b["a_chain_levels"])

    def counts(self, inputs: dict, out: dict) -> dict:
        counts = _covering_counts([out["covering"]]) if "covering" in out else {}
        counts["cli.report_bytes"] = sum(r["bytes"] for r in out.get("report", {}).values())
        return counts


def _export_covering(out_dir: Path, cov, struct, bounds, tail, config) -> list[str]:
    """The covering report, in the shape `hardy-lab covering` writes it."""
    payload = {
        "covering": cov.to_json(),
        "structure": {"disjoint": struct["disjoint"],
                      "coverage_exact": struct["coverage_exact"],
                      "covered_volume": float(struct["covered_volume"])},
        "bounds": bounds.to_json(),
        "tail": tail.to_json(),
    }
    files = [str(out_dir / "covering.json"), str(out_dir / "levels.csv")]
    write_report(files[0], payload, config)
    write_csv(files[1], cov.level_rows())
    return files


# -- demo_constants ----------------------------------------------------------------------

CORPUS_P = (1.5, 2.0, 3.0)
CORPUS_LOG_WEIGHT = math.log(10.0)     # weights log-uniform in [1/10, 10]
CORPUS_SHAPE_SEED = 20210826


def make_corpus(seed: int, size: Size) -> list:
    """Random recursive trees with seeded log-uniform weights, p cycling.

    The tree shapes come from a fixed stream and only the weights from the
    seed: the antichain enumeration, whose cost swings by orders of
    magnitude with the shape, then does the same work for every seed.
    """
    shapes = np.random.default_rng(CORPUS_SHAPE_SEED)
    weights = np.random.default_rng([seed, 0])
    lo, hi = size.corpus_vertices
    corpus = []
    for i in range(size.corpus_trees):
        tree = hl.random_tree(int(shapes.integers(lo, hi + 1)), shapes)
        u, v = np.exp(weights.uniform(-CORPUS_LOG_WEIGHT, CORPUS_LOG_WEIGHT,
                                      (2, tree.n - 1)))
        corpus.append(hl.make_problem(tree, u, v, CORPUS_P[i % len(CORPUS_P)]))
    return corpus


def path_sum_norm(problem) -> float:
    """Independent oracle for C at p = 2: the top singular value of
    M[s, t] = v_s / u_t over the non-root vertices t on the root path of s."""
    parent = problem.tree.parent
    verts = [t for t, p in enumerate(parent) if p != -1]
    col = {t: j for j, t in enumerate(verts)}
    M = np.zeros((len(verts), len(verts)))
    for i, s in enumerate(verts):
        t = s
        while parent[t] != -1:
            M[i, col[t]] = problem.v[s] / problem.u[t]
            t = parent[t]
    return float(np.linalg.svd(M, compute_uv=False)[0])


class DemoConstants:
    """Exact constants on the demo covering and a corpus of small wide trees.
    The dense Hardy operator and its power iteration dominate; the corpus
    exercises antichain enumeration and alpha_K at p = 2 and p != 2, and the
    decomposition runs on a real covering space."""

    name = "demo_constants"
    CASES = ((0.0, 2.0), (0.5, 3.0))   # (beta, p)
    EPSILON = 1e-3                      # density_split tail budget

    def setup(self, seed: int, size: Size, ops: Ops, workdir: Path) -> dict:
        cov = ops.call("build_covering", hl.build_covering, hl.profile_demo(),
                       size.demo_depth)
        return {"covering": cov, "corpus": make_corpus(seed, size),
                "seed": seed, "size": size}

    def run(self, inputs: dict, ops: Ops, out: dict) -> None:
        cov, size = inputs["covering"], inputs["size"]
        rng = np.random.default_rng([inputs["seed"], 1])   # the g draws
        out["covering"] = _covering_summary(cov)
        out["cases"] = []
        for beta, p in self.CASES:
            problem = ops.call("weights_from_beta", hl.weights_from_beta, cov, beta, p)
            theta = ops.call("optimize_theta", hl.optimize_theta, problem)
            chain_sup = ops.call("a_chain", hl.a_chain, problem, levels=cov.size_class)
            primal = ops.call("exact_constant", hl.exact_constant, problem, "primal")
            dual = ops.call("exact_constant", hl.exact_constant, problem, "dual")
            space = ops.call("space_from_covering", hl.space_from_covering, cov, beta=beta)
            case = {"beta": beta, "p": p, "theta_star": theta.theta_star,
                    "suff_bound": theta.suff_bound, "a_chain": chain_sup.value,
                    "a_chain_levels": list(chain_sup.levels),
                    "c_primal": primal.value, "c_dual": dual.value,
                    "iterations": [getattr(c, "iterations", None) for c in (primal, dual)],
                    "residual": [getattr(c, "residual", None) for c in (primal, dual)],
                    "decomposition": []}
            out["cases"].append(case)
            for _ in range(size.g_rounds):
                g = ops.call("random_mean_zero", hl.random_mean_zero, space, rng)
                result = ops.call("decompose", hl.decompose, g, problem)
                report = ops.call("verify_decomposition", hl.verify_decomposition,
                                  result, theta.suff_bound)
                case["decomposition"].append({"ratio": result.ratio,
                                              "predicted_bound": report.predicted_bound})
            dens = ops.call("density_split", hl.density_split, g, beta, p, self.EPSILON)
            case["density"] = {"lhs": dens.lhs, "rhs": dens.rhs, "psi": dens.psi,
                               "epsilon_depth": dens.epsilon_depth,
                               "estimate_ok": bool(dens.estimate_ok)}
        out["corpus"] = []
        for problem in inputs["corpus"]:
            rep = ops.call("hardy_report", hl.hardy_report, problem, b_cap=size.b_cap)
            out["corpus"].append({
                "vertices": problem.tree.n, "max_depth": problem.tree.max_depth,
                "p": problem.p, "b": rep.b_ehp, "b_count": rep.b_count,
                "partial_B": "partial_B" in rep.flags,
                "c_primal": rep.c_exact, "c_dual": rep.c_dual,
                "suff_bound": rep.suff_bound, "a_chain": rep.a_chain})

    def checks(self, inputs: dict, out: dict, ops: Ops):
        yield from _structure_checks("covering", _input_structure(inputs["covering"], ops))
        for c in out.get("cases", []):
            label = f"beta={c['beta']},p={c['p']}"
            yield f"{label}.a_chain_le_C", _le(c["a_chain"], c["c_primal"])
            yield f"{label}.C_le_suff_bound", _le(c["c_primal"], c["suff_bound"])
            yield f"{label}.chain_levels_nondecreasing", _nondecreasing(c["a_chain_levels"])
            yield f"{label}.duality", _close(c["c_primal"], c["c_dual"])
            if "density" in c:
                yield f"{label}.density_estimate_ok", c["density"]["estimate_ok"]
        for i, (problem, r) in enumerate(zip(inputs["corpus"], out.get("corpus", []))):
            label = f"corpus[{i}]"
            yield f"{label}.duality", _close(r["c_primal"], r["c_dual"])
            yield f"{label}.C_le_suff_bound", _le(r["c_primal"], r["suff_bound"])
            if not r["partial_B"]:
                yield f"{label}.sandwich", (_le(r["b"], r["c_primal"])
                                            and _le(r["c_primal"], 4.0 * r["b"]))
            if problem.p == 2.0:
                yield f"{label}.svd_oracle", _close(r["c_primal"], path_sum_norm(problem))

    def counts(self, inputs: dict, out: dict) -> dict:
        counts = _covering_counts([_covering_summary(inputs["covering"])])
        corpus = out.get("corpus", [])
        counts["tree.vertices"] += sum(r["vertices"] for r in corpus)
        counts["tree.max_depth"] = max([counts["tree.max_depth"]]
                                       + [r["max_depth"] for r in corpus])
        counts["hardy.power_iterations"] = sum(
            it or 0 for c in out.get("cases", []) for it in c["iterations"])
        counts["hardy.antichains"] = sum(r["b_count"] for r in corpus)
        counts["hardy.partial_B"] = sum(r["partial_B"] for r in corpus)
        return counts


# -- monte_carlo -----------------------------------------------------------------------

class MonteCarlo:
    """Inequality ratios by stratified Monte Carlo: only the sampler and the
    integrands work. The fractional kind locates every sample on its own and
    dominates the time; the sampler sets the peak memory."""

    name = "monte_carlo"
    BETA, P = 0.0, 2.0
    # f = x0 - 1/2 on the flat unit cell: ||f - mean f|| = sqrt(1/12), ||grad f|| = 1
    FLAT_POINCARE = math.sqrt(1.0 / 12.0)
    FLAT_TOL = 0.02
    FUNCTIONS = {"f_linear": hl.f_linear, "f_bilinear": hl.f_bilinear,
                 "u_shear": hl.u_shear}
    # (kind, function, covering, index into Size.samples)
    CALLS = (("improved_poincare", "f_linear", "flat", 0),
             ("improved_poincare", "f_bilinear", "demo", 1),
             ("korn", "u_shear", "demo", 2),
             ("fractional_poincare", "f_linear", "demo", 3))

    def setup(self, seed: int, size: Size, ops: Ops, workdir: Path) -> dict:
        demo = ops.call("build_covering", hl.build_covering, hl.profile_demo(),
                        size.mc_depth)
        flat = ops.call("build_covering", hl.build_covering, hl.profile_flat(), 0)
        return {"demo": demo, "flat": flat, "seed": seed, "size": size}

    def run(self, inputs: dict, ops: Ops, out: dict) -> None:
        out["coverings"] = {k: _covering_summary(inputs[k]) for k in ("demo", "flat")}
        out["ratios"] = []
        for kind, fname, cov, i in self.CALLS:
            samples = inputs["size"].samples[i]
            extra = {"s": 0.5, "tau": 0.5} if kind == "fractional_poincare" else {}
            rep = ops.call(f"inequality_ratio.{kind}", hl.inequality_ratio, kind,
                           self.FUNCTIONS[fname](), inputs[cov], self.BETA, self.P,
                           samples=samples, seed=inputs["seed"], **extra)
            out["ratios"].append({
                "kind": kind, "function": fname, "covering": cov,
                "samples": rep.sample_count, "lhs": rep.lhs, "rhs": rep.rhs,
                "ratio": rep.ratio, "spread": rep.spread,
                "low_confidence": bool(rep.low_confidence)})

    def checks(self, inputs: dict, out: dict, ops: Ops):
        for key in ("demo", "flat"):
            yield from _structure_checks(key, _input_structure(inputs[key], ops))
        for r in out.get("ratios", []):
            label = f"{r['kind']}[{r['function']},{r['covering']}]"
            yield f"{label}.confident", not r["low_confidence"]
            if r["covering"] == "flat":
                yield f"{label}.matches_sqrt_1_12", (
                    abs(r["ratio"] / self.FLAT_POINCARE - 1.0) <= self.FLAT_TOL)

    def counts(self, inputs: dict, out: dict) -> dict:
        counts = _covering_counts([_covering_summary(inputs[k]) for k in ("demo", "flat")])
        counts["inequalities.samples"] = sum(r["samples"] for r in out.get("ratios", []))
        return counts


WORKLOADS = {w.name: w for w in (RoughThreshold(), DemoConstants(), MonteCarlo())}

"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

The corpora are frozen by explicit seeds so every run checks identical
problems. Criterion 7 runs on the rough covering (depth 10), the geometry
that saturates the per-class cube counting ~2^{j(n-alpha)}, because only
there is the beta p = -alpha threshold sharp: on the single-kink demo
covering the class counts merely double and beta = -0.3 stays convergent.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import hardy_lab as hl
from hardy_lab.decomp import (
    CellFunction,
    decompose,
    random_mean_zero,
    space_from_covering,
    verify_decomposition,
)

from conftest import random_problem, session_elapsed, toy_two_cell_space
from oracles import chain_equivalence_check, hardy_matrix, integral, split_pair

CORPUS_SEED = 20260809
THETA_GRID = [64.0 ** (i / 64) for i in range(1, 65)]


def _line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}" + (f"  [{detail}]" if detail else ""))
    return ok


@pytest.fixture(scope="module")
def corpus():
    """50 random trees (<= 40 vertices) with log-uniform weights, per p."""
    out = {}
    for p in (1.5, 2.0, 3.0):
        rng = np.random.default_rng(CORPUS_SEED)
        out[p] = [random_problem(rng, max_vertices=40, p=p) for _ in range(50)]
    return out


@pytest.fixture(scope="module")
def corpus_constants(corpus):
    return {p: [(pr, hl.exact_constant(pr, "primal"))
                for pr in problems]
            for p, problems in corpus.items()}


def test_criterion_01_duality(corpus_constants):
    t0 = time.monotonic()
    worst = {p: 0.0 for p in corpus_constants}
    for p, pairs in corpus_constants.items():
        for pr, primal in pairs:
            dual = hl.exact_constant(pr, "dual")
            worst[p] = max(worst[p], abs(primal.value - dual.value) / primal.value)
    elapsed = time.monotonic() - t0
    ok = (worst[2.0] <= 1e-8 and worst[1.5] <= 1e-6 and worst[3.0] <= 1e-6
          and elapsed < 30.0)
    assert _line(1, "duality", ok,
                 f"worst p=2: {worst[2.0]:.2e}, p=1.5: {worst[1.5]:.2e}, "
                 f"p=3: {worst[3.0]:.2e}, {elapsed:.1f}s")


def test_criterion_02_sufficiency(corpus_constants):
    violations = 0
    for p, pairs in corpus_constants.items():
        q = p / (p - 1.0)
        for pr, primal in pairs:
            for theta in THETA_GRID:
                bound = (theta / (theta - 1.0)) ** (1.0 / q) * \
                    hl.a_tree(pr, theta).value
                if primal.value > bound * (1.0 + 1e-9):
                    violations += 1
    assert _line(2, "sufficiency", violations == 0,
                 f"{violations} violations over 150 problems x 64 thetas")


def test_criterion_03_sandwich(demo_cov6):
    t0 = time.monotonic()
    rng = np.random.default_rng(CORPUS_SEED + 3)
    ok = True
    problems = [random_problem(rng, max_vertices=14, p=2.0) for _ in range(50)]
    problems.append(hl.weights_from_beta(demo_cov6, 0.0, 2.0))
    for pr in problems:
        b = hl.ehp_B(pr).value
        c = hl.exact_constant(pr).value
        ac = hl.a_chain(pr).value
        ok &= b <= c * (1 + 1e-6)
        ok &= c <= 4.0 * b * (1 + 1e-6)
        ok &= ac <= b * (1 + 1e-9)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    assert _line(3, "sandwich B <= C <= 4B and A_chain <= B", ok,
                 f"50 trees and the demo depth-6 covering (C/B {c / b:.3f}), "
                 f"{elapsed:.1f}s")


def test_criterion_04_chain_equivalence():
    rng = np.random.default_rng(CORPUS_SEED + 4)
    ok = True
    for _ in range(50):
        n = int(rng.integers(1, 201))
        u = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), n))
        v = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), n))
        pr = hl.make_problem(hl.chain_tree(n), u, v, 2.0)
        ac = hl.a_chain(pr).value
        for theta in (1.5, 2.0, 4.0, 16.0):
            rep = chain_equivalence_check(pr, theta)
            at = hl.a_tree(pr, theta).value
            ok &= rep.cond2_ok
            ok &= at <= theta ** (1.0 / pr.p) * ac * (1 + 1e-9)
    assert _line(4, "chain equivalence", ok, "50 chains x 4 thetas")


def test_criterion_05_hand_oracles():
    two = hl.make_problem(hl.chain_tree(2), [1, 1], [1, 1], 2.0)
    star = hl.make_problem(hl.star_tree(2), [1, 1], [1, 1], 2.0)
    svd_two = float(np.linalg.svd(hardy_matrix(two), compute_uv=False)[0])
    checks = [
        abs(hl.a_chain(two).value - math.sqrt(2)) <= 1e-10,
        abs(svd_two - 1.618034) <= 1e-6,
        abs(hl.exact_constant(two).value - svd_two) <= 1e-6,
        abs(hl.ehp_B(two).value - math.sqrt(2)) <= 1e-6,
        abs(hl.exact_constant(star).value - 1.0) <= 1e-10,
        abs(hl.ehp_B(star).value - 1.0) <= 1e-6,
    ]
    assert _line(5, "hand-oracle spot values", all(checks), str(checks))


def test_criterion_06_covering_correctness(demo_cov10):
    t0 = time.monotonic()
    ok = demo_cov10.tree.n >= 1000
    struct = hl.check_disjoint_and_coverage(demo_cov10)
    ok &= struct["disjoint"] and struct["coverage_exact"]
    bounds = hl.verify_counting_bounds(demo_cov10)
    ok &= all(bounds.stable.values())
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    assert _line(6, "covering correctness", ok,
                 f"{demo_cov10.tree.n} cubes, fits {bounds.c1:.3g}/"
                 f"{bounds.c2:.3g}/{bounds.c3:.3g}, {elapsed:.1f}s")


def test_criterion_07_threshold_behavior(rough_cov10):
    """beta = -0.2 and -0.3 at p = 2, alpha = 1/2, on the rough covering.

    Divergent half: at beta = -0.3 the last five level ratios of
    a_tree(theta*) by size class are all >= 1.05. Threshold contrast: the
    v^p class sums s_j (the `sum` column of tail_integrability) scale like
    2^{-j(alpha + beta p)}, so the two-class steps s_{j+2}/s_j fall below 1
    when alpha + beta p > 0 and rise above 1 when it is < 0. Two-class
    steps average out the lacunary profile's odd/even oscillation in the
    class counts; the last three steps are checked.
    """
    cov = rough_cov10
    alpha, p = cov.profile.alpha, 2.0
    pr = hl.weights_from_beta(cov, -0.3, p)
    theta_star = hl.optimize_theta(pr).theta_star
    levels = np.array(hl.a_tree(pr, theta_star,
                                levels=cov.size_class).levels)
    div_ratios = (levels[1:] / levels[:-1])[-5:]
    ok = bool(np.all(div_ratios >= 1.05))
    steps = {}
    for beta in (-0.2, -0.3):
        sums = np.array([r["sum"] for r in hl.tail_integrability(cov, beta, p).rows])
        steps[beta] = (sums[2:] / sums[:-2])[-3:]
        if alpha + beta * p > 0:
            ok &= bool(np.all(steps[beta] < 1.0))
        else:
            ok &= bool(np.all(steps[beta] > 1.0))
    assert _line(7, "threshold behavior", ok,
                 f"div last5 ratios {np.round(div_ratios, 4)}, "
                 f"two-class steps beta=-0.2 {np.round(steps[-0.2], 3)}, "
                 f"beta=-0.3 {np.round(steps[-0.3], 3)}")


def test_criterion_08_decomposition(demo_cov6):
    alpha = demo_cov6.profile.alpha
    ok = True
    worst_ratio = 0.0
    for beta in (0.0, 1.0 - alpha):
        pr = hl.weights_from_beta(demo_cov6, beta, 2.0)
        space = space_from_covering(demo_cov6, beta=beta)
        bound = hl.optimize_theta(pr).suff_bound
        rng = np.random.default_rng(CORPUS_SEED + 8)
        for _ in range(20):
            g = random_mean_zero(space, rng)
            res = decompose(g, pr)
            rep = verify_decomposition(res, bound)   # raises on exact violations
            ok &= rep.sum_error <= 1e-12
            ok &= rep.max_part_mean <= rep.mean_bound
            ok &= rep.measured_ratio <= rep.predicted_bound
            worst_ratio = max(worst_ratio, rep.measured_ratio / rep.predicted_bound)
    # the 1-D toy reproduces the hand-derived parts exactly
    sp = toy_two_cell_space()
    res = decompose(CellFunction(sp, (1.0, -1.0, -1.0)), q=2.0)
    parts = {(t, i): v for t, i, v in zip(res.vertex.tolist(), res.frag.tolist(),
                                          res.value.tolist())}
    ok &= parts == {(0, 0): 1.0, (0, 1): -4.0, (1, 1): 3.0, (1, 2): -1.0}
    ok &= (res.lhs_norm, res.rhs_norm, res.ratio) == (8.0, 2.0, 4.0)
    assert _line(8, "decomposition", ok,
                 f"40 runs, worst measured/predicted = {worst_ratio:.3f}")


def test_criterion_09_split_pair():
    cells = [Fraction(1)] * 3
    fa, fb, _ = split_pair([Fraction(1), Fraction(0), Fraction(-1)], cells, {0, 1}, {1, 2})
    ok = fa == [Fraction(1), Fraction(-1), 0]
    ok &= fb == [0, Fraction(1), Fraction(-1)]

    rng = np.random.default_rng(CORPUS_SEED + 9)
    for _ in range(100):
        n_cells = int(rng.integers(3, 9))
        volume = [Fraction(int(rng.integers(1, 9)), 2 ** int(rng.integers(0, 4)))
                  for _ in range(n_cells)]
        cut_a = int(rng.integers(1, n_cells - 1))
        cut_b = int(rng.integers(cut_a, n_cells - 1))
        A = set(range(0, cut_b + 1))
        B = set(range(cut_a, n_cells))
        g = [Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 7)))
             for _ in range(n_cells)]
        g[0] -= integral(g, volume) / volume[0]
        ga, gb, _ = split_pair(g, volume, A, B)
        ok &= all(ga[i] == 0 for i in range(n_cells) if i not in A)
        ok &= all(gb[i] == 0 for i in range(n_cells) if i not in B)
        ok &= all(ga[i] + gb[i] == g[i] for i in range(n_cells))
        ok &= integral(ga, volume) == 0 and integral(gb, volume) == 0
    assert _line(9, "split_pair identities", bool(ok), "hand case + 100 random")


def test_criterion_10_poincare_checker(flat_cov0):
    t0 = time.monotonic()
    rep = hl.inequality_ratio("improved_poincare", hl.f_linear(), flat_cov0,
                              beta=0.0, p=2.0, samples=10 ** 6, seed=0)
    elapsed = time.monotonic() - t0
    target = math.sqrt(1.0 / 12.0)
    ok = (abs(rep.ratio - target) <= 0.02 * target
          and rep.spread < 0.02 and elapsed < 30.0)
    assert _line(10, "Poincare checker", ok,
                 f"ratio {rep.ratio:.6f} vs {target:.6f}, spread "
                 f"{rep.spread:.2e}, {elapsed:.1f}s")


def test_criterion_11_wall_clock():
    elapsed = session_elapsed()
    assert _line(11, "full suite wall clock", elapsed < 300.0, f"{elapsed:.1f}s")

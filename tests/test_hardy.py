import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hardy_lab as hl
from hardy_lab import hardy
from hardy_lab.hardy import _a_tree_terms, _bfs_weights, _pnorm_power
from hardy_lab.tree import TreeError

from conftest import random_problem
from oracles import (
    alpha_K,
    alpha_gram,
    chain_cond2,
    chain_equivalence_check,
    cold_bracket,
    ehp_enumerated,
    enumerate_antichains,
    hardy_matrix,
    multistart_pnorm,
    optimize_theta_per_theta,
    shadow_sums,
    tree_paths,
)

GOLDEN = math.sqrt((3.0 + math.sqrt(5.0)) / 2.0)   # top singular value of [[1,0],[1,1]]


def two_chain(p=2.0, u=(1.0, 1.0), v=(1.0, 1.0)):
    return hl.make_problem(hl.chain_tree(2), u, v, p)


def single(p=2.0, u=2.0, v=3.0):
    return hl.make_problem(hl.build_tree([(1, 0)]), [u], [v], p)


def star(p=2.0):
    return hl.make_problem(hl.star_tree(2), [1, 1], [1, 1], p)


# -- assemble_uv ---------------------------------------------------------------

def test_assemble_uv_unit_volume():
    t = hl.build_tree([(1, 0)])
    pr = hl.assemble_uv(t, [1.0], [2.0], [3.0], 2.0)
    assert pr.u[1] == 2.0 and pr.v[1] == 3.0


def test_assemble_uv_volume_powers():
    t = hl.build_tree([(1, 0)])
    pr = hl.assemble_uv(t, [16.0], [1.0], [1.0], 2.0)
    assert pr.u[1] == pytest.approx(4.0) and pr.v[1] == pytest.approx(4.0)
    pr = hl.assemble_uv(t, [8.0], [0.5], [2.0], 3.0)
    assert pr.u[1] == pytest.approx(1.0) and pr.v[1] == pytest.approx(4.0)


def test_assemble_uv_rejects_nonpositive():
    t = hl.build_tree([(1, 0)])
    with pytest.raises(ValueError):
        hl.assemble_uv(t, [0.0], [1.0], [1.0], 2.0)


# -- a_chain / a_tree ----------------------------------------------------------

def test_a_chain_hand_values():
    assert hl.a_chain(single()).value == pytest.approx(1.5, abs=1e-12)
    assert hl.a_chain(two_chain()).value == pytest.approx(math.sqrt(2), abs=1e-12)
    assert hl.a_chain(star()).value == pytest.approx(1.0, abs=1e-12)


def test_a_chain_argmax_is_lowest_id():
    # both vertices of the two-chain attain sqrt(2); the tie goes to id 1
    assert hl.a_chain(two_chain()).arg == 1


def test_a_tree_hand_values():
    assert hl.a_tree(single(), 2.0).value == pytest.approx(1.5, abs=1e-12)
    assert hl.a_tree(single(), 7.3).value == pytest.approx(1.5, abs=1e-12)
    assert hl.a_tree(two_chain(), 2.0).value == pytest.approx(
        math.sqrt(1 + math.sqrt(2)), abs=1e-12)


def test_a_tree_dominates_a_chain_at_large_theta():
    rng = np.random.default_rng(11)
    for _ in range(10):
        pr = random_problem(rng, max_vertices=25)
        ac = hl.a_chain(pr).value
        at = hl.a_tree(pr, 1e6).value
        assert at >= ac - 1e-9 * ac


def test_a_tree_rejects_theta_at_most_one():
    with pytest.raises(ValueError):
        hl.a_tree(two_chain(), 1.0)


# -- optimize_theta ------------------------------------------------------------

def test_optimize_theta_single_child_monotone():
    # g(theta) = (theta/(theta-1))^{1/2} * 3/2 decreases toward 3/2
    res = hl.optimize_theta(single())
    assert res.theta_star == pytest.approx(64.0, rel=1e-3)
    assert res.suff_bound == pytest.approx(math.sqrt(64 / 63) * 1.5, rel=1e-6)
    assert res.suff_bound > 1.5


@pytest.mark.parametrize("theta_max", [1.0, 0.5, -2.0, math.inf, math.nan])
def test_optimize_theta_rejects_theta_max(theta_max):
    # the grid lives on (1, theta_max]: theta_max = 1 divided by zero, one
    # below 1 took roots of negative numbers, inf gave theta* = inf
    for call in (hl.optimize_theta, hl.hardy_report):
        with pytest.raises(ValueError, match="theta_max"):
            call(single(), theta_max=theta_max)


def test_theta_grid_value_two_chain():
    g2 = math.sqrt(2) * hl.a_tree(two_chain(), 2.0).value
    assert g2 == pytest.approx(2.19737, abs=1e-5)


def test_optimize_theta_g_equals_a_tree_exactly():
    # the theta search hoists the path sums out of g(theta); its values must
    # still be (theta/(theta-1))^{1/q} a_tree(theta) to the last bit
    rng = np.random.default_rng(7)
    for p in (1.5, 2.0, 3.0):
        for _ in range(4):
            pr = random_problem(rng, max_vertices=30, p=p)
            q = pr.q
            res = hl.optimize_theta(pr)
            th = res.theta_star
            at = hl.a_tree(pr, th).value
            assert res.a_tree_value == at
            assert res.suff_bound == (th / (th - 1.0)) ** (1.0 / q) * at
            kernel = pr.tree.kernel
            u, v = _bfs_weights(pr)
            N = kernel.prefix(u ** (-q))
            thetas = (1.01, th, 7.5, 64.0)
            vals = _a_tree_terms(kernel, N, v ** p, thetas, q, p)[0]
            for j, theta in enumerate(thetas):
                assert float(np.max(vals[:, j])) == hl.a_tree(pr, theta).value


def _corpus_problems(count=24, seed=None):
    # random recursive trees of 16-28 vertices, weights log-uniform in
    # [1/10, 10], p cycling 1.5, 2, 3. Without a seed, shapes and weights
    # come from one stream; with one, as in the benchmark corpus, shapes
    # come from that stream and weights from default_rng([seed, 0])
    shapes = np.random.default_rng(20210826)
    weights = shapes if seed is None else np.random.default_rng([seed, 0])
    out = []
    for i in range(count):
        tree = hl.random_tree(int(shapes.integers(16, 29)), shapes)
        u, v = np.exp(weights.uniform(-math.log(10.0), math.log(10.0), (2, tree.n - 1)))
        out.append(hl.make_problem(tree, u, v, (1.5, 2.0, 3.0)[i % 3]))
    return out


def test_benchmark_corpus_seed2_holds_the_near_tie():
    # problem 19's two largest root blocks have nearly the same norm, so
    # the primal power iteration converges slowly
    assert hl.exact_constant(_corpus_problems(seed=2)[19]).iterations > 2000


def test_optimize_theta_matches_per_theta_loop(rough_cov8, demo_cov8, monkeypatch):
    # the grid shares kernel passes among blocks of thetas; theta*, the
    # bound and a_tree(theta*) must equal the one-pass-per-theta search bit
    # for bit, also when the block cap splits the grid into many blocks
    rng = np.random.default_rng(11)
    # fans of k leaves under a hub below the root: sibling runs of 8 or more
    # in one reduceat (the kernel's runs start on the second level)
    def fan(k):
        return hl.build_tree([(1, 0)] + [(c, 1) for c in range(2, k + 2)])

    wide = [hl.make_problem(fan(k), *np.exp(rng.normal(0, 1.5, (2, k + 1))), p)
            for k, p in ((8, 2.0), (9, 1.5), (40, 3.0))]
    two_fans = hl.build_tree([(1, 0)] + [(c, 1) for c in range(2, 14)]
                             + [(c, 2) for c in range(14, 31)])
    wide.append(hl.make_problem(two_fans, np.ones(30), np.exp(rng.normal(0, 1.0, 30)), 2.0))
    coverings = [hl.weights_from_beta(rough_cov8, -0.2, 2.0),
                 hl.weights_from_beta(rough_cov8, 0.0, 3.0),
                 hl.weights_from_beta(demo_cov8, 0.0, 1.5)]
    corpus = _corpus_problems()

    def check(problems):
        for pr in problems:
            res = hl.optimize_theta(pr)
            assert (res.theta_star, res.suff_bound, res.a_tree_value) == \
                optimize_theta_per_theta(pr)

    check(corpus + wide + coverings)
    monkeypatch.setattr(hl.hardy, "THETA_BLOCK", 100)
    check(corpus[:6] + wide + coverings[:1])


def test_suff_bound_dominates_exact_constant():
    rng = np.random.default_rng(5)
    for _ in range(10):
        pr = random_problem(rng, max_vertices=20)
        res = hl.optimize_theta(pr)
        c = hl.exact_constant(pr).value
        assert c <= res.suff_bound * (1 + 1e-9)


def test_chain_theta_bound_against_a_chain():
    # on chains the optimized bound is controlled through theta^{1/p} A_chain
    rng = np.random.default_rng(6)
    for _ in range(5):
        n = int(rng.integers(2, 40))
        u = np.exp(rng.uniform(-2, 2, n))
        v = np.exp(rng.uniform(-2, 2, n))
        pr = hl.make_problem(hl.chain_tree(n), u, v, 2.0)
        res = hl.optimize_theta(pr)
        ac = hl.a_chain(pr).value
        th = res.theta_star
        assert res.suff_bound <= (th / (th - 1)) ** 0.5 * th ** 0.5 * ac * (1 + 1e-9)


# -- exact_constant ------------------------------------------------------------

def test_exact_constant_1x1():
    for p in (1.5, 2.0, 3.0):
        assert hl.exact_constant(single(p)).value == pytest.approx(1.5, abs=1e-9)


def test_exact_constant_two_chain_vs_charpoly_oracle():
    # characteristic polynomial of M'M for M = [[1,0],[1,1]]: x^2 - 3x + 1
    roots = np.roots([1.0, -3.0, 1.0])
    oracle = math.sqrt(max(roots))
    got = hl.exact_constant(two_chain())
    assert got.value == pytest.approx(oracle, abs=1e-10)
    assert got.value == pytest.approx(GOLDEN, abs=1e-10)
    assert got.c_upper - got.value <= 1e-10 * got.value
    assert got.value <= oracle * (1 + 1e-12) and oracle <= got.c_upper * (1 + 1e-12)


def test_exact_constant_star_identity_matrix():
    assert hl.exact_constant(star()).value == pytest.approx(1.0, abs=1e-12)
    M = hardy_matrix(star())
    assert np.array_equal(M, np.eye(2))


def test_exact_constant_vs_svd_oracle_random():
    rng = np.random.default_rng(12)
    for _ in range(15):
        pr = random_problem(rng, max_vertices=30)
        M = hardy_matrix(pr)
        svd = float(np.linalg.svd(M, compute_uv=False)[0])
        assert hl.exact_constant(pr).value == pytest.approx(svd, rel=1e-9)


def test_exact_constant_lower_bounded_by_random_search():
    rng = np.random.default_rng(13)
    pr = random_problem(rng, max_vertices=15, p=3.0)
    M = hardy_matrix(pr)
    c = hl.exact_constant(pr).value
    m = M.shape[1]
    best = 0.0
    for _ in range(200):
        x = np.abs(rng.standard_normal(m))
        best = max(best, float(np.sum((M @ x) ** 3) ** (1 / 3)
                               / np.sum(x ** 3) ** (1 / 3)))
    assert best <= c * (1 + 1e-9)


def test_duality_primal_equals_dual():
    rng = np.random.default_rng(14)
    for p in (1.5, 2.0, 3.0):
        for _ in range(5):
            pr = random_problem(rng, max_vertices=25, p=p)
            cp = hl.exact_constant(pr, "primal").value
            cd = hl.exact_constant(pr, "dual").value
            tol = 1e-8 if p == 2.0 else 1e-6
            assert abs(cp - cd) <= tol * cp


@pytest.mark.parametrize("p", [1.1, 10.0])
def test_exact_constant_extreme_p_vs_brute_force(p):
    # grid search over the nonnegative lp sphere of the 2x2 path matrix
    got = hl.exact_constant(two_chain(p)).value
    M = np.array([[1.0, 0.0], [1.0, 1.0]])
    ts = np.linspace(0.0, 1.0, 2_000_001)
    X = np.stack([ts, 1.0 - ts])
    vals = np.sum((M @ X) ** p, axis=0) ** (1 / p) / np.sum(X ** p, axis=0) ** (1 / p)
    assert got == pytest.approx(float(vals.max()), rel=1e-9)
    assert hl.exact_constant(two_chain(p), "dual").value == pytest.approx(got, rel=1e-8)


def test_scaling_invariance():
    rng = np.random.default_rng(15)
    pr = random_problem(rng, max_vertices=20)
    lam = 3.7
    gs = list(pr.tree.gamma_star)
    c = hl.exact_constant(pr).value
    both = hl.make_problem(pr.tree, lam * pr.u[gs], lam * pr.v[gs], pr.p)
    assert hl.exact_constant(both).value == pytest.approx(c, rel=1e-9)
    vonly = hl.make_problem(pr.tree, pr.u[gs], lam * pr.v[gs], pr.p)
    assert hl.exact_constant(vonly).value == pytest.approx(lam * c, rel=1e-9)


def _shuffled_problem(rng, n, p):
    """Random tree whose ids are shuffled, so that id order, BFS order and
    the root's position all differ."""
    parent = hl.random_tree(n, rng).parent
    perm = rng.permutation(n)              # old id -> new id
    new_parent = [0] * n
    for t, par in enumerate(parent):
        new_parent[perm[t]] = -1 if par == -1 else int(perm[par])
    tree = hl.RootedTree(new_parent)
    u, v = np.exp(rng.uniform(-2.0, 2.0, (2, n - 1)))
    return hl.make_problem(tree, u, v, p)


def _operators(monkeypatch, pr, form):
    """The (apply, apply_t, m, p) that exact_constant hands the power
    iteration for `form`, caught on the way in; m is the length of the
    start vector. The caught runs return their start as the iterate, and
    run on a copy of pr, so no caught primal stays cached on pr."""
    runs = []

    def catch(apply, apply_t, x, p):
        runs.append((apply, apply_t, len(x), p))
        return 1.0, 1.0, x, 0

    with monkeypatch.context() as m:
        m.setattr(hardy, "_pnorm_power", catch)
        hl.exact_constant(dataclasses.replace(pr), form)
    return runs[-1]


def test_operator_matches_dense_matrix(monkeypatch):
    rng = np.random.default_rng(31)
    for n in (2, 3, 17, 40):
        pr = _shuffled_problem(rng, n, 2.0)
        rank = pr.tree.kernel.rank
        M = hardy_matrix(pr)[np.ix_(rank, rank)]       # rows and columns in BFS order
        apply, apply_t, m, p = _operators(monkeypatch, pr, "primal")
        assert (m, p) == (n - 1, pr.p)
        X = rng.standard_normal(n - 1)
        np.testing.assert_allclose(apply(X.copy()), M @ X, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(apply_t(X.copy()), M.T @ X, rtol=1e-13, atol=1e-13)
        # the dual form iterates M' at the exponent q
        dual = _operators(monkeypatch, pr, "dual")
        np.testing.assert_allclose(dual[0](X.copy()), M.T @ X, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(dual[1](X.copy()), M @ X, rtol=1e-13, atol=1e-13)
        assert dual[2:] == (n - 1, pr.q)


def test_exact_constant_maximizer_in_id_order():
    rng = np.random.default_rng(32)
    for p in (1.5, 2.0, 3.0):
        pr = _shuffled_problem(rng, 25, p)
        assert pr.tree.root != 0 and list(pr.tree.kernel.order) != sorted(pr.tree.kernel.order)
        M = hardy_matrix(pr)
        primal = hl.exact_constant(pr, "primal")
        x = primal.maximizer
        assert np.sum(x ** p) == pytest.approx(1.0, rel=1e-12)
        assert np.sum((M @ x) ** p) ** (1 / p) == pytest.approx(primal.value, rel=1e-9)
        dual = hl.exact_constant(pr, "dual")
        y, q = dual.maximizer, pr.q
        assert np.sum((M.T @ y) ** q) ** (1 / q) == pytest.approx(dual.value, rel=1e-9)


def test_exact_constant_large_m_rough_cov10(rough_cov10):
    # 22751 cubes: far past what a dense m x m matrix could hold comfortably
    pr = hl.weights_from_beta(rough_cov10, -0.3, 2.0)
    assert len(pr.tree.gamma_star) > 5000
    primal = hl.exact_constant(pr, "primal")
    dual = hl.exact_constant(pr, "dual")
    ac = hl.a_chain(pr).value
    suff = hl.optimize_theta(pr).suff_bound
    assert ac <= primal.value <= suff
    assert dual.value == pytest.approx(primal.value, rel=1e-6)
    for got in (primal, dual):
        assert got.c_upper - got.value <= 1e-10 * got.value
    # each form's lower side is a lower bound on the other's upper side
    assert primal.value <= dual.c_upper * (1 + 1e-12)
    assert dual.value <= primal.c_upper * (1 + 1e-12)
    oracle = multistart_pnorm(pr, "primal")
    assert primal.value <= oracle * (1 + 1e-9) and oracle <= primal.c_upper * (1 + 1e-9)
    assert primal.c_upper <= suff
    b = hl.ehp_B(pr).value
    assert ac <= b * (1 + 1e-9)
    assert b <= primal.value * (1 + 1e-6) and primal.c_upper <= 4 * b * (1 + 1e-6)


def test_exact_constant_bracket_contains_multistart_oracle():
    # the deleted multistart iteration, at two seeds, lands inside the bracket
    rng = np.random.default_rng(21)
    for p in (1.5, 3.0):
        pr = random_problem(rng, max_vertices=20, p=p)
        got = hl.exact_constant(pr)
        assert got.c_upper - got.value <= 1e-10 * got.value
        for seed in (0, 1):
            oracle = multistart_pnorm(pr, seed=seed)
            assert got.value <= oracle * (1 + 1e-9) and oracle <= got.c_upper * (1 + 1e-9)


@given(st.integers(0, 10 ** 6), st.sampled_from([1.5, 2.0, 3.0]),
       st.sampled_from(["primal", "dual"]))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_exact_constant_bracket_vs_multistart_property(seed, p, form):
    # random recursive trees with log-normal weights: the deleted multistart
    # iteration's C lies inside the returned bracket, whose gap meets rtol.
    # Its ratio-change rule stops early on slowly converging problems (at
    # rtol = 1e-10 it lands 2.9e-9 below the bracket at seed 359, p = 1.5),
    # so the oracle runs at rtol = 1e-13.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 41))
    u, v = np.exp(1.5 * rng.standard_normal((2, n - 1)))
    pr = hl.make_problem(hl.random_tree(n, rng), u, v, p)
    got = hl.exact_constant(pr, form)
    oracle = multistart_pnorm(pr, form, rtol=1e-13)
    assert got.c_upper - got.value <= 1e-10 * got.value
    assert got.value <= oracle * (1 + 1e-9) and oracle <= got.c_upper * (1 + 1e-9)


def test_exact_constant_bracket_with_underflowed_maximizer():
    # the fifth of a stream of random trees with log-uniform weights in
    # [1/10, 10]: 25 vertices, whose three root subtrees are three
    # diagonal blocks of M: the maximizer lives on one, and the others decay
    # until some entries underflow to exact zeros
    shapes = np.random.default_rng(20210826)
    weights = np.random.default_rng([1, 0])
    for _ in range(5):
        tree = hl.random_tree(int(shapes.integers(16, 29)), shapes)
        u, v = np.exp(weights.uniform(-math.log(10.0), math.log(10.0), (2, tree.n - 1)))
    pr = hl.make_problem(tree, u, v, 2.0)
    assert tree.n == 25 and np.diff(tree.child_offsets)[tree.root] == 3
    svd = float(np.linalg.svd(hardy_matrix(pr), compute_uv=False)[0])
    for form in ("primal", "dual"):
        got = hl.exact_constant(pr, form)
        assert np.min(got.maximizer) == 0.0
        assert math.isfinite(got.c_upper)
        assert got.c_upper - got.value <= 1e-10 * got.value
        assert got.value <= svd * (1 + 1e-12) and svd <= got.c_upper * (1 + 1e-12)


def test_pnorm_power_skips_zero_over_zero():
    # A = diag(1, 0): the second entry of x is 0 after one step, and so is
    # that of F(x); the bound skips it instead of returning nan
    A = np.diag([1.0, 0.0])
    ones = np.full(2, 2.0 ** (-1.0 / 3.0))
    lower, upper, x, it = _pnorm_power(lambda x: A @ x, lambda y: A.T @ y, ones, 3.0)
    assert (lower, upper, it) == (1.0, 1.0, 2)
    assert x.tolist() == [1.0, 0.0]


# -- the cached primal and the dual started from it ------------------------------

def _fan_problems():
    # the fan trees of test_optimize_theta_matches_per_theta_loop
    rng = np.random.default_rng(11)

    def fan(k):
        return hl.build_tree([(1, 0)] + [(c, 1) for c in range(2, k + 2)])

    wide = [hl.make_problem(fan(k), *np.exp(rng.normal(0, 1.5, (2, k + 1))), p)
            for k, p in ((8, 2.0), (9, 1.5), (40, 3.0))]
    two_fans = hl.build_tree([(1, 0)] + [(c, 1) for c in range(2, 14)]
                             + [(c, 2) for c in range(14, 31)])
    wide.append(hl.make_problem(two_fans, np.ones(30), np.exp(rng.normal(0, 1.0, 30)), 2.0))
    return wide


def _bracket_problems(rough_cov8, demo_cov8):
    """Fresh problems, none with a primal cached yet."""
    return (_corpus_problems() + _corpus_problems(seed=2) + _fan_problems()
            + [hl.weights_from_beta(rough_cov8, b, p) for b, p in ((-0.2, 2.0), (0.0, 3.0))]
            + [hl.weights_from_beta(demo_cov8, b, p) for b, p in ((0.0, 1.5), (0.5, 3.0))])


def _fields(got):
    return got.value, got.c_upper, got.maximizer.tobytes(), got.form, got.iterations


def test_primal_bracket_equals_cold_oracle_bit_for_bit(rough_cov8, demo_cov8):
    for pr in _bracket_problems(rough_cov8, demo_cov8):
        lower, upper, x, it = cold_bracket(pr, "primal")
        assert _fields(hl.exact_constant(pr, "primal")) == \
            (lower, upper, x.tobytes(), "primal", it)


def test_warm_dual_bracket_overlaps_cold_oracle(rough_cov8, demo_cov8):
    for pr in _bracket_problems(rough_cov8, demo_cov8):
        warm = hl.exact_constant(pr, "dual")
        lower, upper, _, _ = cold_bracket(pr, "dual")
        assert max(warm.value, lower) <= min(warm.c_upper, upper) * (1 + 1e-12)
        assert warm.c_upper - warm.value <= 1e-10 * warm.value
        assert upper - lower <= 1e-10 * lower


def test_dual_bits_do_not_depend_on_the_primal_call(rough_cov8, demo_cov8):
    fresh = _bracket_problems(rough_cov8, demo_cov8)
    after = _bracket_problems(rough_cov8, demo_cov8)
    for a, b in zip(fresh, after):
        primal = hl.exact_constant(b, "primal")
        assert hl.exact_constant(b, "primal") is primal       # run once, then shared
        assert _fields(hl.exact_constant(a, "dual")) == _fields(hl.exact_constant(b, "dual"))
    # the shared arrays cannot be written through
    pr = fresh[0]
    for w in (pr.u, pr.v, hl.exact_constant(pr).maximizer,
              hl.exact_constant(pr, "dual").maximizer):
        assert not w.flags.writeable
    # a second report reuses the cached primal and gives the same bytes
    tree = hl.random_tree(24, np.random.default_rng(3))
    pr = hl.make_problem(tree, np.ones(tree.n - 1), np.ones(tree.n - 1), 3.0)
    assert _report_sha256(hl.hardy_report(pr)) == _report_sha256(hl.hardy_report(pr))


def test_warm_dual_closes_within_three_steps():
    for pr in _corpus_problems() + _corpus_problems(seed=2):
        assert hl.exact_constant(pr, "dual").iterations <= 3


# -- alpha_K (the oracle the enumeration of B runs on) ---------------------------

def _unit_problem(t):
    ones = np.ones(t.n - 1)
    return hl.make_problem(t, ones, ones, 2.0)


def test_antichain_validation():
    pr = _unit_problem(hl.chain_tree(2))
    with pytest.raises(TreeError, match="below"):
        alpha_K(pr, [1, 2])         # comparable
    with pytest.raises(TreeError, match="nonempty"):
        alpha_K(pr, [])
    with pytest.raises(TreeError, match="root"):
        alpha_K(pr, [0])
    with pytest.raises(TreeError, match="lie in"):
        alpha_K(pr, [3])            # out of range
    assert np.flatnonzero(alpha_K(pr, [2]).b).tolist() == [1, 2]
    pr = _unit_problem(hl.build_tree([(1, 0), (2, 0), (3, 1), (4, 1)]))
    assert alpha_K(pr, [4, 3, 2, 4]).alpha == alpha_K(pr, [2, 3, 4]).alpha
    with pytest.raises(TreeError, match="boundary vertex 4 lies below"):
        alpha_K(pr, [2, 4, 1])      # 1 lies above 4


def test_alpha_hand_values():
    pr = two_chain()
    r1 = alpha_K(pr, [1])
    assert r1.alpha == pytest.approx(1.0, abs=1e-12)
    assert r1.b[1] == pytest.approx(1.0) and r1.b[2] == 0.0
    r2 = alpha_K(pr, [2])
    assert r2.alpha == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert r2.b[1] == pytest.approx(0.5) and r2.b[2] == pytest.approx(0.5)
    r3 = alpha_K(star(), [1, 2])
    assert r3.alpha == pytest.approx(math.sqrt(2), abs=1e-12)
    assert r3.b[1] == pytest.approx(1.0) and r3.b[2] == pytest.approx(1.0)


def test_alpha_general_p_oracle():
    # min b1^3 + b2^3 with b1 + b2 = 1 is attained at b = (1/2, 1/2)
    pr = two_chain(p=3.0)
    r = alpha_K(pr, [2])
    assert r.alpha == pytest.approx(0.25 ** (1 / 3), rel=1e-12)
    assert r.b[1] == pytest.approx(0.5) and r.b[2] == pytest.approx(0.5)


def test_alpha_recursion_matches_closed_form_at_p2():
    # two independent routes: the tree recursion vs the Gram closed form
    rng = np.random.default_rng(16)
    checked = 0
    for _ in range(10):
        pr = random_problem(rng, max_vertices=14)
        for anti in itertools.islice(enumerate_antichains(pr.tree), 25):
            ref_alpha, ref_b = alpha_gram(pr, anti)
            assert ref_b.min() >= -1e-12        # feasible, so the minimiser
            r = alpha_K(pr, anti)
            assert r.alpha == pytest.approx(ref_alpha, rel=1e-10)
            np.testing.assert_allclose(r.b, ref_b, rtol=1e-9, atol=1e-12)
            checked += 1
    assert checked > 100


def test_alpha_constraints_satisfied_exactly():
    rng = np.random.default_rng(19)
    for p in (1.3, 2.0, 4.0):
        for _ in range(10):
            pr = random_problem(rng, max_vertices=12, p=p)
            anti = max(enumerate_antichains(pr.tree), key=len)
            r = alpha_K(pr, anti)
            assert np.all(r.b >= 0)
            paths = tree_paths(pr.tree)
            for t in anti:
                path_sum = sum(r.b[s] / pr.u[s] for s in paths[t])
                assert path_sum == pytest.approx(1.0, abs=1e-12)


# -- ehp_B ---------------------------------------------------------------------

def test_ehp_hand_values():
    assert hl.ehp_B(single()).value == pytest.approx(1.5, abs=1e-9)
    r = hl.ehp_B(two_chain())
    assert r.value == pytest.approx(math.sqrt(2), abs=1e-9)
    assert r.arg == (1,)       # both antichains tie; the first wins
    assert hl.ehp_B(star()).value == pytest.approx(1.0, abs=1e-9)


def test_ehp_cap_bounds_hull_points():
    pr = hl.make_problem(hl.star_tree(8), np.ones(8), np.ones(8), 2.0)
    full = hl.ehp_B(pr)
    assert full.count == 16         # one point per leaf, eight merged at the root
    assert hl.ehp_B(pr, cap=full.count) == full
    with pytest.raises(hl.HullCapExceeded) as exc:
        hl.ehp_B(pr, cap=10)
    assert exc.value.cap == 10 and exc.value.count > 10
    with pytest.raises(hl.HullCapExceeded):
        hl.hardy_report(pr, b_cap=10)
    assert hl.hardy_report(pr).b_count == full.count


def test_ehp_matches_enumeration_oracle():
    # the hull DP against the supremum over every antichain, on 300 random
    # trees; every seventh carries all-ones weights, so ties abound
    rng = np.random.default_rng(33)
    ps = (1.05, 1.3, 2.0, 3.5, 8.0)
    for i in range(300):
        n = int(rng.integers(2, 15))
        tree = hl.random_tree(n, rng)
        if i % 7 == 0:
            u = v = np.ones(n - 1)
        else:
            u, v = np.exp(rng.uniform(-2.0, 2.0, (2, n - 1)))
        pr = hl.make_problem(tree, u, v, ps[i % len(ps)])
        got = hl.ehp_B(pr)
        want, _ = ehp_enumerated(pr)
        assert got.value == pytest.approx(want, rel=1e-12)
        assert got.count <= n + sum(tree.depth)
        # the returned antichain attains the value
        w = np.zeros(n)
        w[list(tree.gamma_star)] = pr.v[list(tree.gamma_star)] ** pr.p
        svp = shadow_sums(tree, w)
        num = sum(svp[t] for t in got.arg) ** (1.0 / pr.p)
        assert num / alpha_K(pr, got.arg).alpha == pytest.approx(got.value, rel=1e-12)


def test_sandwich_small_random():
    rng = np.random.default_rng(17)
    for _ in range(15):
        pr = random_problem(rng, max_vertices=10)
        b = hl.ehp_B(pr).value
        c = hl.exact_constant(pr).value
        assert b <= c * (1 + 1e-6)
        assert c <= 4 * b * (1 + 1e-6)
        assert hl.a_chain(pr).value <= b * (1 + 1e-9)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_sandwich_general_p(p):
    rng = np.random.default_rng(18)
    for _ in range(10):
        pr = random_problem(rng, max_vertices=10, p=p)
        b = hl.ehp_B(pr).value
        c = hl.exact_constant(pr).value
        assert b <= c * (1 + 1e-6)
        assert c <= 4 * b * (1 + 1e-6)


# -- chain equivalence ----------------------------------------------------------

def test_cond2_length_one_chain():
    pr = hl.make_problem(hl.chain_tree(1), [1.4], [0.7], 2.0)
    rep = chain_equivalence_check(pr, 2.0)
    assert rep.cond2_ok and rep.atree_bound_ok


def test_cond2_hand_value_two_chain():
    # t at the top: lhs = 2^{-1/2} + 1, rhs = 2 * 2^{1/2}
    pr = two_chain()
    rep = chain_equivalence_check(pr, 2.0)
    assert rep.cond2_ok
    assert rep.atree_bound_ok
    assert rep.worst_margin == pytest.approx(2 * math.sqrt(2) / (2 ** -0.5 + 1),
                                             rel=1e-12)
    assert hl.a_tree(pr, 2.0).value <= 2 ** 0.5 * hl.a_chain(pr).value * (1 + 1e-9)


def test_chain_equivalence_rejects_non_chain():
    with pytest.raises(ValueError):
        chain_equivalence_check(star(), 2.0)


@given(st.integers(1, 60), st.sampled_from([1.5, 2.0, 4.0, 16.0]),
       st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_chain_equivalence_random(n, theta, seed):
    rng = np.random.default_rng(seed)
    u = np.exp(rng.uniform(-2, 2, n))
    v = np.exp(rng.uniform(-2, 2, n))
    pr = hl.make_problem(hl.chain_tree(n), u, v, 2.0)
    rep = chain_equivalence_check(pr, theta)
    assert rep.cond2_ok and rep.atree_bound_ok


def test_chain_cond2_matches_per_vertex_loop():
    # one shadow pass adds the leaf-up running sum's terms in the same order
    rng = np.random.default_rng(17)
    for k in range(40):
        n = int(rng.integers(1, 60))
        ids = rng.permutation(n + 1) if k % 2 else np.arange(n + 1)    # ids along the chain
        tree = hl.build_tree([(int(ids[i + 1]), int(ids[i])) for i in range(n)])
        u, v = np.exp(rng.uniform(-3, 3, (2, n)))
        pr = hl.make_problem(tree, u, v, float(rng.choice([1.5, 2.0, 3.0])))
        theta = float(rng.choice([1.01, 2.0, 16.0]))
        rep = chain_equivalence_check(pr, theta)
        assert (rep.cond2_ok, rep.worst_margin) == chain_cond2(pr, theta)


# -- report ---------------------------------------------------------------------

def test_report_single_vertex_all_constants_equal():
    pr = hl.make_problem(hl.chain_tree(1), [1.3], [2.6], 2.0)
    rep = hl.hardy_report(pr)
    assert rep.a_chain == pytest.approx(2.0)
    assert rep.c_exact == pytest.approx(2.0)
    assert rep.b_ehp == pytest.approx(2.0)
    assert rep.a_tree == pytest.approx(2.0)
    assert all(rep.checks.values())


def test_problem_rejects_empty_gamma_star():
    # a root alone leaves nothing to weigh, so no consumer can run on it
    with pytest.raises(ValueError, match=r"Gamma\* is empty"):
        hl.make_problem(hl.RootedTree([-1]), [], [], 2.0)


def test_problem_json_roundtrip():
    pr = two_chain(p=1.5, u=(0.3, 2.0), v=(1.0, 0.5))
    back = hl.HardyProblem.from_json(pr.to_json())
    assert back.p == pr.p
    assert np.allclose(back.u[1:], pr.u[1:])


def test_diverging_flag_on_growing_chain():
    # v grows geometrically along a chain: partial sups gain >5% per level
    n = 30
    v = 1.6 ** np.arange(1, n + 1)
    pr = hl.make_problem(hl.chain_tree(n), np.ones(n), v, 2.0)
    res = hl.a_chain(pr, levels=pr.tree.depth)
    assert res.diverging
    flat = hl.make_problem(hl.chain_tree(n), np.ones(n), np.ones(n) / n, 2.0)
    assert not hl.a_chain(flat, levels=flat.tree.depth).diverging
    # no levels, no profile
    for res in (hl.a_chain(pr), hl.a_tree(pr, 2.0)):
        assert res.levels == () and res.diverging is False


# -- the Hardy report, pinned ---------------------------------------------------

SMOKE_P3_REPORT_SHA256 = "7047ec763f79746f104a440a4dc938eb1c222b7489c7bfd4e371568b2b5618b4"
GROWING_CHAIN_REPORT_SHA256 = "17df4c3d3cc3b98a3aff5067121bbf3d8b88efb00fa98d492acbed6aa043821e"


def _report_sha256(report):
    doc = json.dumps(report.to_json(), sort_keys=True, indent=2)
    return hashlib.sha256(doc.encode()).hexdigest()


def test_smoke_p3_report_pinned():
    # the library path of `hardy-lab tree --random 24 --seed 3` then `hardy --p 3`
    tree = hl.random_tree(24, np.random.default_rng(3))
    ones = np.ones(tree.n - 1)
    rep = hl.hardy_report(hl.make_problem(tree, ones, ones, 3.0))
    assert _report_sha256(rep) == SMOKE_P3_REPORT_SHA256


def test_growing_chain_report_pinned():
    # both growth flags fire here (test_diverging_flag_on_growing_chain)
    n = 30
    pr = hl.make_problem(hl.chain_tree(n), np.ones(n), 1.6 ** np.arange(1, n + 1), 2.0)
    rep = hl.hardy_report(pr)
    assert rep.flags == ("diverging", "a_tree_diverging_at_theta_star")
    assert _report_sha256(rep) == GROWING_CHAIN_REPORT_SHA256

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hardy_lab as hl
from hardy_lab.hardy import HardyOperator, _a_tree_terms, _bfs_weights

from conftest import random_problem
from oracles import hardy_matrix

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
        ac = hl.a_chain(pr, with_levels=False).value
        at = hl.a_tree(pr, 1e6, with_levels=False).value
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
            for theta in (1.01, th, 7.5, 64.0):
                vals = _a_tree_terms(kernel, N, v ** p, theta, q, p)[0]
                assert float(np.max(vals)) == hl.a_tree(pr, theta).value


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
        ac = hl.a_chain(pr, with_levels=False).value
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
    assert got.residual < 1e-9


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


def test_operator_matches_dense_matrix():
    rng = np.random.default_rng(31)
    for n in (2, 3, 17, 40):
        pr = _shuffled_problem(rng, n, 2.0)
        M = hardy_matrix(pr)
        op = HardyOperator(pr)
        for shape in ((n - 1,), (n - 1, 3)):
            X = rng.standard_normal(shape)
            np.testing.assert_allclose(op.matvec(X), M @ X, rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(op.rmatvec(X), M.T @ X, rtol=1e-13, atol=1e-13)


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
    ac = hl.a_chain(pr, with_levels=False).value
    suff = hl.optimize_theta(pr).suff_bound
    assert ac <= primal.value <= suff
    assert dual.value == pytest.approx(primal.value, rel=1e-6)
    assert primal.residual <= 1e-8 and dual.residual <= 1e-8


def test_exact_constant_multistart_seed_stable():
    rng = np.random.default_rng(21)
    for p in (1.5, 3.0):
        pr = random_problem(rng, max_vertices=20, p=p)
        a = hl.exact_constant(pr, seed=0).value
        b = hl.exact_constant(pr, seed=1).value
        assert b == pytest.approx(a, rel=1e-9)


# -- alpha_K -------------------------------------------------------------------

def test_alpha_hand_values():
    pr = two_chain()
    r1 = hl.alpha_K(pr, [1])
    assert r1.alpha == pytest.approx(1.0, abs=1e-12)
    assert r1.b[1] == pytest.approx(1.0) and r1.b[2] == 0.0
    r2 = hl.alpha_K(pr, [2])
    assert r2.alpha == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert r2.b[1] == pytest.approx(0.5) and r2.b[2] == pytest.approx(0.5)
    r3 = hl.alpha_K(star(), [1, 2])
    assert r3.alpha == pytest.approx(math.sqrt(2), abs=1e-12)
    assert r3.b[1] == pytest.approx(1.0) and r3.b[2] == pytest.approx(1.0)


def test_alpha_general_p_oracle():
    # min b1^3 + b2^3 with b1 + b2 = 1 is attained at b = (1/2, 1/2)
    pr = two_chain(p=3.0)
    r = hl.alpha_K(pr, [2])
    assert r.alpha == pytest.approx(0.25 ** (1 / 3), rel=1e-12)
    assert r.method == "tree-recursion"
    assert r.b[1] == pytest.approx(0.5) and r.b[2] == pytest.approx(0.5)


def test_alpha_recursion_matches_closed_form_at_p2():
    # two independent routes: the Gram closed form vs the tree recursion
    rng = np.random.default_rng(16)
    from hardy_lab.hardy import _alpha_tree_recursion
    checked = 0
    for _ in range(10):
        pr = random_problem(rng, max_vertices=14)
        for anti in list(hl.enumerate_antichains(pr.tree, cap=200))[:25]:
            ref = hl.alpha_K(pr, anti)
            assert ref.method == "closed-form"
            support = sorted({s for t in anti for s in pr.tree.paths[t]})
            b = _alpha_tree_recursion(pr, tuple(anti), support)
            assert np.linalg.norm(b) == pytest.approx(ref.alpha, rel=1e-10)
            checked += 1
    assert checked > 100


def test_alpha_constraints_satisfied_exactly():
    rng = np.random.default_rng(19)
    for p in (1.3, 2.0, 4.0):
        for _ in range(10):
            pr = random_problem(rng, max_vertices=12, p=p)
            anti = max(hl.enumerate_antichains(pr.tree, cap=None), key=len)
            r = hl.alpha_K(pr, anti)
            assert np.all(r.b >= 0)
            for t in anti:
                path_sum = sum(r.b[s] / pr.u[s] for s in pr.tree.paths[t])
                assert path_sum == pytest.approx(1.0, abs=1e-12)


# -- ehp_B ---------------------------------------------------------------------

def test_ehp_hand_values():
    assert hl.ehp_B(single()).value == pytest.approx(1.5, abs=1e-9)
    r = hl.ehp_B(two_chain())
    assert r.value == pytest.approx(math.sqrt(2), abs=1e-9)
    assert r.arg == (1,)       # both antichains tie; the first wins
    assert hl.ehp_B(star()).value == pytest.approx(1.0, abs=1e-9)


def test_ehp_partial_flag():
    pr = hl.make_problem(hl.star_tree(8), np.ones(8), np.ones(8), 2.0)
    r = hl.ehp_B(pr, cap=20)
    assert r.partial and r.count == 20 and r.value > 0


def test_sandwich_small_random():
    rng = np.random.default_rng(17)
    for _ in range(15):
        pr = random_problem(rng, max_vertices=10)
        b = hl.ehp_B(pr).value
        c = hl.exact_constant(pr).value
        assert b <= c * (1 + 1e-6)
        assert c <= 4 * b * (1 + 1e-6)
        assert hl.a_chain(pr, with_levels=False).value <= b * (1 + 1e-9)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_sandwich_general_p(p):
    # exercises the tree-recursion alpha path on every enumerated antichain
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
    rep = hl.chain_equivalence_check(pr, 2.0)
    assert rep.cond2_ok and rep.atree_bound_ok


def test_cond2_hand_value_two_chain():
    # t at the top: lhs = 2^{-1/2} + 1, rhs = 2 * 2^{1/2}
    pr = two_chain()
    rep = hl.chain_equivalence_check(pr, 2.0)
    assert rep.cond2_ok
    assert rep.atree_bound_ok
    assert rep.worst_margin == pytest.approx(2 * math.sqrt(2) / (2 ** -0.5 + 1),
                                             rel=1e-12)
    assert hl.a_tree(pr, 2.0).value <= 2 ** 0.5 * hl.a_chain(pr).value * (1 + 1e-9)


def test_chain_equivalence_rejects_non_chain():
    with pytest.raises(ValueError):
        hl.chain_equivalence_check(star(), 2.0)


@given(st.integers(1, 60), st.sampled_from([1.5, 2.0, 4.0, 16.0]),
       st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_chain_equivalence_random(n, theta, seed):
    rng = np.random.default_rng(seed)
    u = np.exp(rng.uniform(-2, 2, n))
    v = np.exp(rng.uniform(-2, 2, n))
    pr = hl.make_problem(hl.chain_tree(n), u, v, 2.0)
    rep = hl.chain_equivalence_check(pr, theta)
    assert rep.cond2_ok and rep.atree_bound_ok


# -- report ---------------------------------------------------------------------

def test_report_single_vertex_all_constants_equal():
    pr = hl.make_problem(hl.chain_tree(1), [1.3], [2.6], 2.0)
    rep = hl.hardy_report(pr)
    assert rep.a_chain == pytest.approx(2.0)
    assert rep.c_exact == pytest.approx(2.0)
    assert rep.b_ehp == pytest.approx(2.0)
    assert rep.a_tree == pytest.approx(2.0)
    assert all(rep.checks.values())


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
    res = hl.a_chain(pr)
    assert res.diverging
    flat = hl.make_problem(hl.chain_tree(n), np.ones(n), np.ones(n) / n, 2.0)
    assert not hl.a_chain(flat).diverging

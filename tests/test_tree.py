import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

import hardy_lab as hl
from hardy_lab.tree import (
    Antichain,
    AntichainCapExceeded,
    TreeError,
    enumerate_antichains,
    induced_subtree,
)
from hardy_lab.hardy import _path_prefix_sums, _shadow_sums

from oracles import path_prefix_sums, shadow_sums


def test_build_smallest():
    t = hl.build_tree([(1, 0)])
    assert t.n == 2 and t.root == 0 and t.children[0] == (1,)


def test_build_two_chain():
    t = hl.build_tree([(1, 0), (2, 1)])
    assert t.parent == (-1, 0, 1)
    assert t.is_chain


def test_build_branching():
    t = hl.build_tree([(1, 0), (2, 0), (3, 1), (4, 1)])
    assert t.children[0] == (1, 2) and t.children[1] == (3, 4)
    assert t.path(4) == [1, 4]


def test_build_errors():
    with pytest.raises(TreeError, match="duplicate"):
        hl.build_tree([(1, 0), (1, 0)])
    with pytest.raises(TreeError, match="cycle"):
        hl.build_tree([(1, 2), (2, 1)])
    with pytest.raises(TreeError, match="dense"):
        hl.build_tree([(5, 0)])


def test_path_examples():
    t = hl.build_tree([(1, 0), (2, 1)])
    assert t.path(2) == [1, 2]
    assert t.path(1) == [1]
    b = hl.build_tree([(1, 0), (2, 0), (3, 1), (4, 1)])
    assert b.path(3) == [1, 3]


def test_path_of_root_flagged():
    t = hl.chain_tree(2)
    with pytest.warns(UserWarning):
        assert t.path(0) == []


def test_shadow_examples():
    t = hl.chain_tree(2)
    assert t.shadow(1) == [1, 2]
    assert t.shadow(2) == [2]
    b = hl.build_tree([(1, 0), (2, 0), (3, 1), (4, 1)])
    assert b.shadow(1) == [1, 3, 4]


def test_antichain_validation():
    t = hl.chain_tree(2)
    with pytest.raises(TreeError):
        Antichain.of(t, [1, 2])        # comparable
    with pytest.raises(TreeError):
        Antichain.of(t, [])
    with pytest.raises(TreeError):
        Antichain.of(t, [0])           # root
    assert Antichain.of(t, [2]).vertices == (2,)


def test_enumeration_hand_cases():
    assert list(enumerate_antichains(hl.chain_tree(2))) == [(1,), (2,)]
    assert list(enumerate_antichains(hl.star_tree(2))) == [(1,), (1, 2), (2,)]
    assert list(enumerate_antichains(hl.build_tree([(1, 0)]))) == [(1,)]


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_enumeration_count_chain(n):
    assert sum(1 for _ in enumerate_antichains(hl.chain_tree(n))) == n


@pytest.mark.parametrize("k", [1, 2, 4, 7])
def test_enumeration_count_star(k):
    assert sum(1 for _ in enumerate_antichains(hl.star_tree(k))) == 2 ** k - 1


def test_enumeration_cap():
    with pytest.raises(AntichainCapExceeded) as exc:
        list(enumerate_antichains(hl.star_tree(8), cap=10))
    assert exc.value.count == 10


def test_enumeration_no_duplicates_and_sorted():
    t = hl.random_tree(12, np.random.default_rng(3))
    out = list(enumerate_antichains(t))
    assert len(out) == len(set(out))
    assert out == sorted(out)
    for a in out:
        Antichain.of(t, a)             # each yield is a valid antichain


def test_induced_subtree_membership():
    # a in K, and no strict descendant of a boundary vertex stays in K
    t = hl.build_tree([(1, 0), (2, 0), (3, 1), (4, 1)])
    K, boundary = induced_subtree(t, [1])
    assert t.root in K
    assert boundary == {1}
    for s in boundary:
        assert not any(c in K for c in t.children[s])
    assert K == {0, 1}
    K2, boundary2 = induced_subtree(t, [2, 3])
    assert K2 == {0, 1, 2, 3} and boundary2 == {2, 3}


parents = st.integers(2, 60).flatmap(
    lambda n: st.tuples(st.just(n),
                        st.lists(st.integers(0, 10 ** 9), min_size=n - 1,
                                 max_size=n - 1)))


def _tree_from(draw_tuple):
    n, raw = draw_tuple
    return hl.RootedTree([-1] + [raw[i - 1] % i for i in range(1, n)])


@given(parents)
@settings(max_examples=60, deadline=None)
def test_shadow_path_duality(tup):
    t = _tree_from(tup)
    for v in t.gamma_star:
        shadow = set(t.shadow(v))
        assert shadow & set(t.path(v)) == {v}
        for s in shadow:
            assert v in t.path(s)


def test_shadow_path_on_200_vertex_tree():
    t = hl.random_tree(200, np.random.default_rng(7))
    for v in t.gamma_star:
        shadow = set(t.shadow(v))
        assert shadow & set(t.path(v)) == {v}
    for v in t.gamma_star:
        for s in t.shadow(v):
            assert v in t.path(s)


@given(parents)
@settings(max_examples=30, deadline=None)
def test_yielded_antichains_induce_valid_cuts(tup):
    t = _tree_from(tup)
    count = 0
    for a in enumerate_antichains(t, cap=300):
        if count > 50:
            break
        count += 1
        K, boundary = induced_subtree(t, a)
        assert t.root in K
        assert boundary == set(a)
        for s in boundary:
            assert all(c not in K for c in t.children[s])


def test_json_roundtrip():
    t = hl.random_tree(17, np.random.default_rng(0))
    assert hl.RootedTree.from_json(t.to_json()) == t


# -- the level-vectorised kernel against the per-vertex loops ----------------------

def _kernel_trees(demo_cov6):
    rng = np.random.default_rng(41)
    trees = [hl.random_tree(int(n), rng) for n in (2, 5, 30, 300)]
    trees += [hl.chain_tree(1), hl.chain_tree(50), hl.star_tree(1), hl.star_tree(40)]
    trees.append(hl.RootedTree([2, 2, -1, 0, 0, 1]))      # root is not vertex 0
    trees.append(demo_cov6.tree)
    return trees


def test_kernel_matches_per_vertex_loops(demo_cov6):
    rng = np.random.default_rng(42)
    for tree in _kernel_trees(demo_cov6):
        K = tree.kernel
        gs = list(tree.gamma_star)
        for k in (None, 3):
            w = np.zeros((tree.n,) if k is None else (tree.n, k))
            w[gs] = rng.uniform(0.1, 10.0, w[gs].shape)
            cols = [w] if k is None else list(w.T)
            want_N = np.stack([path_prefix_sums(tree, c) for c in cols], axis=-1)
            want_S = np.stack([shadow_sums(tree, c) for c in cols], axis=-1)
            got_N = K.prefix(w[K.order]).reshape(K.m, -1)
            got_S = K.shadow(w[K.order]).reshape(K.m, -1)
            np.testing.assert_allclose(got_N, want_N[K.order], rtol=1e-13, atol=0)
            np.testing.assert_allclose(got_S, want_S[K.order], rtol=1e-13, atol=0)
        # the id-order wrappers in hardy, root total included
        w1 = w[:, 0]
        np.testing.assert_allclose(_path_prefix_sums(tree, w1), path_prefix_sums(tree, w1),
                                   rtol=1e-13, atol=0)
        np.testing.assert_allclose(_shadow_sums(tree, w1), shadow_sums(tree, w1),
                                   rtol=1e-13, atol=0)

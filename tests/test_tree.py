import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

import hardy_lab as hl
from hardy_lab.tree import TreeError
from hardy_lab.hardy import _shadow_sums

from oracles import (
    AntichainCapExceeded,
    alpha_K,
    enumerate_antichains,
    induced_subtree,
    order_masks,
    path_prefix_sums,
    shadow_sums,
    tree_by_loops,
    tree_paths,
)


def _children(t, s) -> list:
    """The children of s, read off the tree's CSR arrays."""
    return t.child_ids[t.child_offsets[s]:t.child_offsets[s + 1]].tolist()


def test_build_smallest():
    t = hl.build_tree([(1, 0)])
    assert t.n == 2 and t.root == 0 and _children(t, 0) == [1]


def test_build_two_chain():
    t = hl.build_tree([(1, 0), (2, 1)])
    assert tuple(t.parent) == (-1, 0, 1)
    assert t.is_chain


def test_build_branching():
    t = hl.build_tree([(1, 0), (2, 0), (3, 1), (4, 1)])
    assert _children(t, 0) == [1, 2] and _children(t, 1) == [3, 4]
    assert tree_paths(t)[4] == (1, 4)


def test_build_errors():
    with pytest.raises(TreeError, match="duplicate"):
        hl.build_tree([(1, 0), (1, 0)])
    with pytest.raises(TreeError, match="cycle"):
        hl.build_tree([(1, 2), (2, 1)])
    with pytest.raises(TreeError, match="dense"):
        hl.build_tree([(5, 0)])


@pytest.mark.parametrize("parent,message", [
    ([-1, 0.7], "parent id 0.7 of vertex 1 is not an integer"),
    ([-1, 1.0], "parent id 1.0 of vertex 1 is not an integer"),
    ([-1, "0"], "parent id '0' of vertex 1 is not an integer"),
    ([-1, 0, True], "parent id True of vertex 2 is not an integer"),
    ([-1.0, 0], "parent id -1.0 of vertex 0 is not an integer"),
    (np.array([-1.0, 0.0]), "parent id -1.0 of vertex 0 is not an integer"),
    (np.array([-1, 0, 0]).astype(bool), "parent id True of vertex 0 is not an integer"),
])
def test_non_integer_parent_ids_refused(parent, message):
    # numpy once truncated them: [-1, 0.7] was the chain 0 -> 1
    with pytest.raises(TreeError) as exc:
        hl.RootedTree(parent)
    assert str(exc.value) == message


@pytest.mark.parametrize("pairs,message", [
    ([[1, 0.9], [2.5, 1]], "parent id 0.9 of vertex 1 is not an integer"),
    ([(1, 0), (2.5, 1)], "vertex id 2.5 is not an integer"),
    ([(1, 0), (2, 1.7)], "parent id 1.7 of vertex 2 is not an integer"),
    ([(True, 0)], "vertex id True is not an integer"),
    ([(1, None)], "parent id None of vertex 1 is not an integer"),
])
def test_build_tree_refuses_non_integer_ids(pairs, message):
    with pytest.raises(TreeError) as exc:
        hl.build_tree(pairs)
    assert str(exc.value) == message
    # integral numpy ids are integers
    assert hl.build_tree([(np.int64(1), np.int32(0))]) == hl.chain_tree(1)


def _kernel_paths_and_shadows(t):
    """path(v) and shadow(v) of every v in Gamma* as sets, from one kernel
    prefix and one kernel shadow pass over the identity: column j of each
    is the indicator of vertex order[j]."""
    K = t.kernel
    P, S = K.prefix(np.eye(K.m)), K.shadow(np.eye(K.m))
    path = {int(v): set(K.order[P[i] > 0].tolist()) for i, v in enumerate(K.order)}
    shadow = {int(v): set(K.order[S[i] > 0].tolist()) for i, v in enumerate(K.order)}
    return path, shadow


def test_path_examples():
    t = hl.build_tree([(1, 0), (2, 1)])
    assert tree_paths(t) == [(), (1,), (1, 2)]
    b = hl.build_tree([(1, 0), (2, 0), (3, 1), (4, 1)])
    assert tree_paths(b)[3] == (1, 3)
    assert _kernel_paths_and_shadows(b)[0][3] == {1, 3}


def test_shadow_examples():
    _, shadow = _kernel_paths_and_shadows(hl.chain_tree(2))
    assert shadow[1] == {1, 2}
    assert shadow[2] == {2}
    _, shadow = _kernel_paths_and_shadows(hl.build_tree([(1, 0), (2, 0), (3, 1), (4, 1)]))
    assert shadow[1] == {1, 3, 4}


def _unit_problem(t):
    ones = np.ones(t.n - 1)
    return hl.make_problem(t, ones, ones, 2.0)


def _is_antichain(above, vs) -> bool:
    """No two of vs comparable, judged by the oracle's bitmask order."""
    return all(not above[b] >> a & 1 for a in vs for b in vs if a != b)


def test_enumeration_hand_cases():
    assert list(enumerate_antichains(hl.chain_tree(2))) == [(1,), (2,)]
    assert list(enumerate_antichains(hl.star_tree(2))) == [(1,), (1, 2), (2,)]
    assert list(enumerate_antichains(hl.build_tree([(1, 0)]))) == [(1,)]


def test_enumeration_siblings_below_a_non_root_vertex():
    # 2 and 3 share the non-root ancestor 1 and are incomparable
    t = hl.RootedTree([-1, 0, 1, 1])
    assert list(enumerate_antichains(t)) == [(1,), (2,), (2, 3), (3,)]


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
    above, _ = order_masks(t)
    assert all(_is_antichain(above, a) for a in out)   # each yield is an antichain
    # and nothing is missed: every subset of Gamma* that is an antichain
    gs = t.gamma_star
    subsets = 0
    for mask in range(1, 1 << len(gs)):
        vs = [v for i, v in enumerate(gs) if mask >> i & 1]
        subsets += _is_antichain(above, vs)
    assert subsets == len(out)


def test_induced_subtree_membership():
    # a in K, and no strict descendant of a boundary vertex stays in K
    t = hl.build_tree([(1, 0), (2, 0), (3, 1), (4, 1)])
    K, boundary = induced_subtree(t, [1])
    assert t.root in K
    assert boundary == {1}
    for s in boundary:
        assert not any(c in K for c in _children(t, s))
    assert K == {0, 1}
    K2, boundary2 = induced_subtree(t, [2, 3])
    assert K2 == {0, 1, 2, 3} and boundary2 == {2, 3}


def _parent_lists(max_n):
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(st.just(n),
                            st.lists(st.integers(0, 10 ** 9), min_size=n - 1,
                                     max_size=n - 1)))


parents = _parent_lists(60)


def _tree_from(draw_tuple):
    n, raw = draw_tuple
    return hl.RootedTree([-1] + [raw[i - 1] % i for i in range(1, n)])


@given(_parent_lists(12))
@settings(max_examples=25, deadline=None)
def test_alpha_k_boundary_check_matches_oracle(tup):
    # every enumerated antichain is accepted, and every other nonempty subset
    # of Gamma* holds a comparable pair and is rejected
    t = _tree_from(tup)
    pr = _unit_problem(t)
    above, _ = order_masks(t)
    antichains = set(enumerate_antichains(t))
    gs = t.gamma_star
    for mask in range(1, 1 << len(gs)):
        vs = tuple(v for i, v in enumerate(gs) if mask >> i & 1)
        if vs in antichains:
            assert _is_antichain(above, vs)
            assert alpha_K(pr, vs).alpha > 0
        else:
            assert not _is_antichain(above, vs)
            with pytest.raises(TreeError, match="lies below"):
                alpha_K(pr, vs)


def _check_shadow_path_duality(t):
    # the kernel's paths are the oracle's, and s lies in shadow(v) exactly
    # when v lies on path(s)
    path, shadow = _kernel_paths_and_shadows(t)
    paths = tree_paths(t)
    for v in t.gamma_star:
        assert path[v] == set(paths[v])
        assert shadow[v] & path[v] == {v}
        assert shadow[v] == {s for s in t.gamma_star if v in path[s]}


@given(parents)
@settings(max_examples=60, deadline=None)
def test_shadow_path_duality(tup):
    _check_shadow_path_duality(_tree_from(tup))


def test_shadow_path_on_200_vertex_tree():
    _check_shadow_path_duality(hl.random_tree(200, np.random.default_rng(7)))


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
            assert all(c not in K for c in _children(t, s))


def test_json_roundtrip():
    t = hl.random_tree(17, np.random.default_rng(0))
    assert hl.RootedTree.from_json(t.to_json()) == t


def test_json_root_must_match_the_pairs():
    # the pairs' root is 0: a file naming another root is refused
    for root in (2, 1, "0", True, None):
        with pytest.raises(TreeError) as exc:
            hl.RootedTree.from_json({"root": root, "parents": [[1, 0], [2, 1]]})
        assert str(exc.value) == (f"root {root!r} does not match the root 0 "
                                  "of the parent pairs")
    assert hl.RootedTree.from_json({"root": 0, "parents": [[1, 0], [2, 1]]}).root == 0
    assert hl.RootedTree.from_json({"parents": [[0, 1]]}).root == 1


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
        # one column in vertex id order, and the id-order shadow wrapper in
        # hardy, root total included
        w1 = w[:, 0]
        np.testing.assert_allclose(K.prefix(w1[K.order]), path_prefix_sums(tree, w1)[K.order],
                                   rtol=1e-13, atol=0)
        np.testing.assert_allclose(_shadow_sums(tree, w1), shadow_sums(tree, w1),
                                   rtol=1e-13, atol=0)


# -- the array tree against the per-vertex loop constructor ------------------------

def _assert_matches_loops(parent):
    """RootedTree(parent) has the oracle's fields, or both raise the same
    TreeError text."""
    try:
        want = tree_by_loops(parent)
    except TreeError as exc:
        with pytest.raises(TreeError) as got:
            hl.RootedTree(parent)
        assert str(got.value) == str(exc)
        return
    t = hl.RootedTree(parent)
    assert (t.n, t.root, t.max_depth) == (want.n, want.root, max(want.depth))
    assert tuple(t.parent.tolist()) == want.parent
    assert tuple(t.topo.tolist()) == want.topo
    assert tuple(t.depth.tolist()) == want.depth
    assert tuple(t.gamma_star.tolist()) == want.gamma_star
    assert tuple(t.leaves.tolist()) == want.leaves
    assert t.is_chain == want.is_chain
    off, ids = t.child_offsets.tolist(), t.child_ids.tolist()
    assert tuple(tuple(ids[a:b]) for a, b in zip(off, off[1:])) == want.children


@st.composite
def _shuffled_trees(draw, max_n=40):
    """A random recursive tree on n vertices with its ids permuted, so the
    root can be any vertex."""
    n = draw(st.integers(1, max_n))
    attach = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    perm = draw(st.permutations(range(n)))
    parent = [0] * n
    parent[perm[0]] = -1
    for i, a in enumerate(attach, 1):
        parent[perm[i]] = perm[a]
    return parent


@st.composite
def _broken_trees(draw):
    """A valid parent list with one defect: no root, two roots, an id out
    of range on either side, a self-loop, or a longer cycle."""
    parent = draw(_shuffled_trees())
    n = len(parent)
    t = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["no_root", "two_roots", "above", "below",
                                 "self_loop", "cycle"]))
    root = parent.index(-1)
    if kind == "no_root":
        parent[root] = draw(st.integers(0, n - 1))
    elif kind == "two_roots":
        parent[t] = -1
    elif kind == "above":
        parent[t] = draw(st.integers(n, n + 5))
    elif kind == "below":
        parent[t] = draw(st.integers(-5, -2))
    elif kind == "self_loop":
        parent[t] = t
    else:
        # hang an ancestor of t below t: the path from t up to it closes
        path = [t]
        while parent[path[-1]] != -1:
            path.append(parent[path[-1]])
        a = path[draw(st.integers(0, len(path) - 1))]
        if a != root:
            parent[a] = t
    return parent


@given(st.one_of(_shuffled_trees(), _broken_trees(),
                 st.lists(st.integers(-3, 12), min_size=0, max_size=12)))
@settings(max_examples=300, deadline=None)
def test_array_tree_matches_loop_constructor(parent):
    _assert_matches_loops(parent)


def test_array_tree_error_texts():
    for parent, message in (([], "empty tree"),
                            ([0, 0], "expected exactly one root, found 0"),
                            ([-1, -1], "expected exactly one root, found 2"),
                            ([-1, 2], "parent id 2 of vertex 1 out of range"),
                            ([-1, 0, -3], "parent id -3 of vertex 2 out of range"),
                            ([-1, 2, 1, 0], "cycle detected through vertex 1"),
                            ([-1, 0, 2], "cycle detected through vertex 2")):
        with pytest.raises(TreeError) as exc:
            hl.RootedTree(parent)
        assert str(exc.value) == message
        _assert_matches_loops(parent)


def test_ids_beyond_int64_are_out_of_range():
    # an id no int64 holds is refused as out of range, not by the
    # OverflowError of the conversion or wrapped around, and after the root
    # count as usual
    for parent, message in (([-1, 2 ** 70], f"parent id {2 ** 70} of vertex 1 out of range"),
                            ([-1, 0, -2 ** 63 - 1],
                             f"parent id {-2 ** 63 - 1} of vertex 2 out of range"),
                            ([-1, 5, 2 ** 70], "parent id 5 of vertex 1 out of range"),
                            ([2 ** 64, 0], "expected exactly one root, found 0"),
                            ([-1, -1, 2 ** 64], "expected exactly one root, found 2"),
                            # converted to int64, 2^64 - 1 wrapped to -1, a root
                            (np.array([2 ** 64 - 1, 0], dtype=np.uint64),
                             "expected exactly one root, found 0")):
        with pytest.raises(TreeError) as exc:
            hl.RootedTree(parent)
        assert str(exc.value) == message
        _assert_matches_loops(parent)


def test_covering_trees_match_loop_constructor(rough_cov8, demo_cov8):
    for cov in (rough_cov8, demo_cov8):
        _assert_matches_loops(cov.tree.parent)


def test_array_tree_input_forms_and_read_only_arrays():
    parent = [2, 2, -1, 0, 0, 1]
    forms = [parent, tuple(parent), np.array(parent), np.array(parent, dtype=np.int32)]
    trees = [hl.RootedTree(f) for f in forms]
    assert all(t == trees[0] and hash(t) == hash(trees[0]) for t in trees)
    assert trees[0] != hl.RootedTree([-1, 0, 0, 0, 0, 1])
    assert trees[0] != parent
    t = trees[0]
    for name in ("parent", "child_offsets", "child_ids", "topo", "depth", "level_starts",
                 "gamma_star", "leaves"):
        arr = getattr(t, name)
        assert arr.dtype == np.int64
        with pytest.raises(ValueError):
            arr[0] = 1
    # the tree keeps its own copy of an array it was given
    given_parent = np.array(parent)
    u = hl.RootedTree(given_parent)
    given_parent[0] = 0
    assert given_parent.flags.writeable and tuple(u.parent) == tuple(parent)
    # scalars are Python ints
    assert all(type(x) is int for x in (t.n, t.root, t.max_depth))

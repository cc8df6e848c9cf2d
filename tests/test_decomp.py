import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

import hardy_lab as hl
import oracles
from hardy_lab.decomp import (
    CellFunction,
    CellSpace,
    DecompositionError,
    decompose,
    predicted_constant,
    random_mean_zero,
    space_from_covering,
    verify_decomposition,
)
from hardy_lab.tree import RootedTree

from conftest import toy_two_cell_space
from oracles import integral, split_pair

# 1-D unit cells (0,1), (1,2), (2,3) on a chain
THREE_CELLS = [Fraction(1)] * 3


# -- split_pair ------------------------------------------------------------------

def test_split_zero():
    fa, fb, _ = split_pair([0, 0, 0], THREE_CELLS, {0, 1}, {1, 2})
    assert all(v == 0 for v in fa) and all(v == 0 for v in fb)


def test_split_hand_example_exact():
    # A = (0,2), B = (1,3), f = +1 on (0,1), 0 on (1,2), -1 on (2,3)
    f = [Fraction(1), Fraction(0), Fraction(-1)]
    fa, fb, rep = split_pair(f, THREE_CELLS, {0, 1}, {1, 2})
    assert fa == [Fraction(1), Fraction(-1), 0]
    assert fb == [0, Fraction(1), Fraction(-1)]
    assert integral(fa, THREE_CELLS) == 0 and integral(fb, THREE_CELLS) == 0
    assert rep.overlap_volume == 1


def test_split_support_inside_a_only():
    # mean-zero f supported on A \ B would need two cells in A \ B; use
    # four cells instead
    f = [Fraction(1), Fraction(-1), 0, 0]
    fa, fb, _ = split_pair(f, [Fraction(1)] * 4, {0, 1, 2}, {2, 3})
    assert fa == f
    assert all(v == 0 for v in fb)


def test_split_errors():
    with pytest.raises(DecompositionError, match="overlap"):
        split_pair([1, -1, 0], THREE_CELLS, {0}, {2})
    with pytest.raises(DecompositionError, match="mean"):
        split_pair([1, 1, 1], THREE_CELLS, {0, 1}, {1, 2})
    with pytest.raises(DecompositionError, match="outside"):
        split_pair([1, -1, 5], THREE_CELLS, {0, 1}, {1, 0})


def _random_split_case(rng):
    n_cells = int(rng.integers(3, 9))
    volume = [Fraction(int(rng.integers(1, 9)), 2 ** int(rng.integers(0, 4)))
              for _ in range(n_cells)]
    cut_a = int(rng.integers(1, n_cells - 1))
    cut_b = int(rng.integers(cut_a, n_cells - 1))
    A = set(range(0, cut_b + 1))
    B = set(range(cut_a, n_cells))
    vals = [Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 7)))
            for _ in range(n_cells)]
    vals[0] -= integral(vals, volume) / volume[0]
    return volume, vals, A, B


def test_split_random_identities_exact():
    rng = np.random.default_rng(100)
    for _ in range(100):
        volume, f, A, B = _random_split_case(rng)
        fa, fb, _ = split_pair(f, volume, A, B)
        both = A | B
        assert all(fa[i] == 0 for i in range(len(volume)) if i not in A)
        assert all(fb[i] == 0 for i in range(len(volume)) if i not in B)
        assert all(fa[i] + fb[i] == f[i] for i in both)
        assert integral(fa, volume) == 0
        assert integral(fb, volume) == 0


def test_split_chain_composition_preserves_properties():
    # peel a chain of patches off one by one, as the pairwise argument does
    rng = np.random.default_rng(5)
    volume, f, _, _ = _random_split_case(rng)
    n = len(volume)
    remaining = f
    live = set(range(n))
    for cut in range(n - 1, 1, -1):
        A = set(range(cut - 1, n)) & live
        B = set(range(cut)) & live
        if not (A & B):
            continue
        fa, remaining, _ = split_pair(remaining, volume, A, B)
        assert integral(fa, volume) == 0 and integral(remaining, volume) == 0
        live = B


# -- decompose -------------------------------------------------------------------

def test_decompose_zero():
    sp = toy_two_cell_space()
    res = decompose(CellFunction(sp, (0.0, 0.0, 0.0)), q=2.0)
    assert res.ratio == 0.0 and "zero_ratio" in res.flags
    rep = verify_decomposition(res, 1.0)     # all checks pass, ratio 0
    assert rep.measured_ratio == 0.0 and rep.max_part_mean == 0.0


def test_decompose_toy_hand_parts():
    sp = toy_two_cell_space()
    g = CellFunction(sp, (1.0, -1.0, -1.0))
    res = decompose(g, q=2.0)
    # g_0 = {0: 1, 1: -4}, g_1 = {1: 3, 2: -1}
    assert res.vertex.tolist() == [0, 0, 1, 1]
    assert res.frag.tolist() == [0, 1, 1, 2]
    assert res.value.tolist() == [1.0, -4.0, 3.0, -1.0]
    assert res.to_json()["parts"] == {"0": {"0": 1.0, "1": -4.0}, "1": {"1": 3.0, "2": -1.0}}
    assert res.lhs_norm == 8.0
    assert res.rhs_norm == 2.0
    assert res.ratio == 4.0
    rep = verify_decomposition(res, 1.05)
    assert res.ratio <= rep.predicted_bound


def test_decompose_leaf_supported():
    # g carried entirely by one leaf core cell: all other parts vanish
    cov = hl.build_covering(hl.profile_flat(2.0), depth_max=3)
    sp = space_from_covering(cov, beta=0.0)
    leaf = cov.tree.leaves[0]
    frag = int(np.flatnonzero(sp.owner == leaf)[0])
    vals = [0.0] * len(sp.vol)
    vals[frag] = 1.0
    # balance inside the same core cell is impossible with one fragment;
    # use the leaf's connector (inside U_leaf as well)
    b = sp.bfrag[leaf]
    vals[b] = -sp.vol[frag] / sp.vol[b]
    res = decompose(CellFunction(sp, vals), q=2.0)
    assert set(res.frag[res.vertex == leaf].tolist()) <= set(oracles.u_frags(sp, leaf))
    assert set(res.vertex.tolist()) <= {leaf, cov.tree.parent[leaf]}
    doc = res.to_json()["parts"]
    assert len(doc) == cov.tree.n
    assert all(not doc[str(t)] for t in range(cov.tree.n) if t not in (leaf, cov.tree.parent[leaf]))


def test_decompose_rejects_nonzero_mean():
    sp = toy_two_cell_space()
    with pytest.raises(DecompositionError, match="mean"):
        decompose(CellFunction(sp, (1.0, 1.0, 1.0)), q=2.0)


def test_decompose_linearity(demo_cov6):
    sp = space_from_covering(demo_cov6, beta=0.0)
    rng = np.random.default_rng(8)
    g = random_mean_zero(sp, rng)
    r1 = decompose(g, q=2.0)
    r2 = decompose(CellFunction(sp, 2.0 * g.values), q=2.0)
    assert np.array_equal(r1.vertex, r2.vertex) and np.array_equal(r1.frag, r2.frag)
    assert np.array_equal(r2.value, 2.0 * r1.value)


def test_decompose_exactness_random(demo_cov6):
    beta = 0.0
    pr = hl.weights_from_beta(demo_cov6, beta, 2.0)
    sp = space_from_covering(demo_cov6, beta=beta)
    bound = hl.optimize_theta(pr).suff_bound
    rng = np.random.default_rng(9)
    for _ in range(5):
        g = random_mean_zero(sp, rng)
        res = decompose(g, pr)
        rep = verify_decomposition(res, bound)
        assert rep.sum_error <= 1e-12
        assert rep.max_part_mean <= rep.mean_bound
        assert rep.measured_ratio <= rep.predicted_bound


def test_decompose_refuses_problem_from_another_beta():
    # the beta = 0 problem on a beta = 0.5 space would be verified against
    # the beta = 0 suff_bound; the matched problem at any p is accepted
    cov = hl.build_covering(hl.profile_demo(), depth_max=4)
    sp = space_from_covering(cov, beta=0.5)
    g = random_mean_zero(sp, np.random.default_rng(0))
    with pytest.raises(DecompositionError, match="beta 0.5"):
        decompose(g, hl.weights_from_beta(cov, 0.0, 2.0))
    for p in (2.0, 3.0):
        assert decompose(g, hl.weights_from_beta(cov, 0.5, p)).q == p / (p - 1.0)


def test_predicted_constant_components(demo_cov6):
    sp = space_from_covering(demo_cov6, beta=0.0)
    c, parts = predicted_constant(sp, q=2.0, hardy_constant=2.0)
    assert parts["overlap"] == 2
    assert parts["ub_ratio"] == pytest.approx(3.0)
    assert c > 0


def test_ratio_growth_across_depths_bounded():
    # above the threshold the measured estimate ratio stays of one size as
    # the covering deepens (coarse factor, not a sharp constant)
    worst = {}
    for depth in (4, 8):
        cov = hl.build_covering(hl.profile_demo(), depth_max=depth)
        pr = hl.weights_from_beta(cov, 0.0, 2.0)
        sp = space_from_covering(cov, beta=0.0)
        rng = np.random.default_rng(30)
        worst[depth] = max(
            decompose(random_mean_zero(sp, rng), pr).ratio for _ in range(8))
    assert worst[8] <= 4.0 * worst[4]


def _random_abstract_space(rng) -> tuple[CellSpace, list]:
    # random trees with connectors placed either inside the parent's core
    # (cube style) or inside the vertex's own core (toy style); the space
    # and its exact volumes
    n = int(rng.integers(2, 11))
    tree = hl.random_tree(n, rng)
    volume, owner, connector = [], list(range(n)), [-1] * n
    for t in range(n):
        volume.append(Fraction(int(rng.integers(1, 9)), 2 ** int(rng.integers(0, 5))))
    for s in tree.gamma_star:
        owner.append(tree.parent[s] if rng.random() < 0.5 else s)
        connector.append(s)
        volume.append(Fraction(int(rng.integers(1, 9)), 2 ** int(rng.integers(0, 5))))
    return CellSpace(tree, volume, owner, connector), volume


def _random_abstract_cases():
    rng = np.random.default_rng(31)
    for _ in range(25):
        sp, volume = _random_abstract_space(rng)
        yield sp, volume, random_mean_zero(sp, rng)


def test_decompose_on_random_abstract_spaces():
    # the engine must satisfy the three identities on any valid covering shape
    for sp, _, g in _random_abstract_cases():
        res = decompose(g, q=2.0)
        total = np.zeros(len(sp.vol))
        gmax = max(abs(v) for v in g.values)
        for t, part in oracles.parts(res).items():
            allowed = set(oracles.u_frags(sp, t))
            assert set(part) <= allowed
            mean = sum(v * sp.vol[i] for i, v in part.items())
            assert abs(mean) <= 1e-10 * float(np.abs(g.values) @ sp.vol)
            for i, v in part.items():
                total[i] += v
        assert np.max(np.abs(total - g.values)) <= 1e-12 * gmax


def test_verify_raises_on_tampered_parts(demo_cov6):
    sp = space_from_covering(demo_cov6, beta=0.0)
    g = random_mean_zero(sp, np.random.default_rng(10))
    res = decompose(g, q=2.0)
    k = int(np.flatnonzero(sp.owner[res.frag] == res.vertex)[0])   # a g-term entry
    res.value[k] += 0.5
    with pytest.raises(DecompositionError, match="sum of parts"):
        verify_decomposition(res, 2.0)
    res = decompose(g, q=2.0)
    res.value = res.value[:-1]
    with pytest.raises(DecompositionError, match="aligned"):
        verify_decomposition(res, 2.0)


# -- input checks ------------------------------------------------------------------

def test_decompose_rejects_non_finite_values():
    sp = toy_two_cell_space()
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DecompositionError, match="not finite on fragment 1"):
            decompose(CellFunction(sp, (1.0, bad, -1.0)), q=2.0)


@pytest.mark.parametrize("q", [float("nan"), 0.5, 1.0, float("inf"), -2.0])
def test_decompose_rejects_q_outside_one_to_infinity(q):
    sp = toy_two_cell_space()
    with pytest.raises(DecompositionError, match="q must lie in"):
        decompose(CellFunction(sp, (1.0, -1.0, -1.0)), q=q)


def _toy_result():
    return decompose(CellFunction(toy_two_cell_space(), (1.0, -1.0, -1.0)), q=2.0)


def test_verify_fails_on_nan():
    res = _toy_result()
    res.ratio = float("nan")
    with pytest.raises(DecompositionError, match="predicted bound"):
        verify_decomposition(res, 1.05)
    with pytest.raises(DecompositionError, match="predicted bound"):
        verify_decomposition(_toy_result(), float("nan"))
    res = _toy_result()
    res.value[0] = float("nan")
    with pytest.raises(DecompositionError, match="sum of parts"):
        verify_decomposition(res, 1.05)
    res = _toy_result()
    res.g_values = np.array([1.0, float("nan"), -1.0])
    with pytest.raises(DecompositionError, match="sum of parts"):
        verify_decomposition(res, 1.05)


def test_estimate_ok_and_the_raise_use_one_comparison():
    res = _toy_result()
    c_pred, _ = predicted_constant(res.space, 2.0, 1.05)
    res.ratio = c_pred * (1.0 + 1e-10)          # inside the round-off slack
    rep = verify_decomposition(res, 1.05)
    assert rep.estimate_ok and rep.to_json()["estimate_ok"] is True
    res.ratio = c_pred * (1.0 + 1e-8)
    with pytest.raises(DecompositionError, match="predicted bound"):
        verify_decomposition(res, 1.05)


_VALID = {"volume": (Fraction(1),) * 3, "owner": (0, 1, 2), "connector": (-1, 1, 2)}


@pytest.mark.parametrize("column, i, value, message", [
    ("owner", 0, 3, r"fragment 0: owner 3 is not a vertex"),
    ("owner", 0, -1, r"fragment 0: owner -1 is not a vertex"),
    ("connector", 0, 0, r"fragment 0: connector 0 is not a non-root vertex"),
    ("connector", 2, 5, r"fragment 2: connector 5 is not a non-root vertex"),
    ("connector", 2, -2, r"fragment 2: connector -2 is not a non-root vertex"),
    ("volume", 0, Fraction(-1, 8), r"fragment 0: negative volume"),
    ("connector", 2, 1, r"duplicate connector fragment \(vertex 1\)"),
    ("connector", 2, -1, r"missing connector fragment \(vertex 2\)"),
    ("volume", 1, Fraction(0), r"connector must have positive volume \(vertex 1\)"),
    ("volume", 0, float("nan"), r"fragment 0: volume is not finite"),
], ids=["owner_high", "owner_negative", "connector_on_root", "connector_high",
        "connector_negative", "negative_volume", "duplicate_connector",
        "missing_connector", "empty_connector", "volume_not_finite"])
def test_cell_space_rejects_invalid_fragments(column, i, value, message):
    columns = {k: list(v) for k, v in _VALID.items()}
    columns[column][i] = value
    with pytest.raises(DecompositionError, match=message):
        CellSpace(RootedTree([-1, 0, 1]), **columns)


@pytest.mark.parametrize("weights, message", [
    ({"omega": [1.0, 0.0, 1.0]}, r"omega must be positive and finite: 0.0 on fragment 1"),
    ({"nu": [1.0, -1.0, 1.0]}, r"nu must be positive and finite: -1.0 on fragment 1"),
    ({"nu": [1.0, 1.0]}, r"nu must hold one value per fragment"),
    ({"nu": [2.0]}, r"nu must hold one value per fragment"),
    ({"ell": [1.0, float("inf"), 1.0]}, r"ell must be positive and finite: inf on fragment 1"),
    ({"omega": [1.0, 1.0, float("nan")]}, r"omega must be positive and finite: nan"),
], ids=["omega_zero", "nu_negative", "nu_short", "nu_scalar_list", "ell_inf", "omega_nan"])
def test_cell_space_rejects_invalid_weights(weights, message):
    sp = toy_two_cell_space()
    with pytest.raises(DecompositionError, match=message):
        CellSpace(sp.tree, sp.vol, sp.owner, sp.connector, **weights)


def test_cell_space_rejects_misaligned_columns():
    with pytest.raises(DecompositionError, match="one owner and one connector per fragment"):
        CellSpace(RootedTree([-1, 0, 1]), _VALID["volume"], (0, 1), _VALID["connector"])
    with pytest.raises(DecompositionError, match="one volume, one owner and one connector"):
        CellSpace(RootedTree([-1, 0, 1]), [[1.0]] * 3, _VALID["owner"], _VALID["connector"])


def test_cell_space_float_volumes_match_exact():
    exact = toy_two_cell_space()
    sp = CellSpace(exact.tree, [1.0, 0.25, 0.75], exact.owner, exact.connector)
    assert np.array_equal(sp.vol, exact.vol) and np.array_equal(sp.pair_key, exact.pair_key)
    g = (1.0, -1.0, -1.0)
    assert CellFunction(sp, g).values @ sp.vol == CellFunction(exact, g).values @ exact.vol == 0.0
    assert decompose(CellFunction(sp, g), q=2.0).ratio == 4.0


@pytest.mark.parametrize("name", ["demo_cov6", "rough_cov8", "rough_cov10", "demo3d3"])
def test_space_from_covering_vol_is_exact_volume_rounded(name, request):
    # space_from_covering rounds each distinct shape volume once; the column
    # must equal rounding every exact volume on its own, bit for bit
    if name == "demo3d3":
        cov = hl.build_covering(hl.profile_demo(n=3), depth_max=3)
    else:
        cov = request.getfixturevalue(name)
    sp = space_from_covering(cov, beta=0.0)
    assert sp.vol.dtype == float and not sp.vol.flags.writeable
    assert np.array_equal(sp.vol, np.array(oracles.covering_fragments(cov)[0], dtype=float))


# -- agreement with the per-vertex oracles ------------------------------------------

def _agreement_cases(name, demo_cov6):
    """(space, exact volumes, g, q): three coverings, or the 25 random
    abstract spaces."""
    if name == "abstract":
        return [(sp, volume, g, 2.0) for sp, volume, g in _random_abstract_cases()]
    cov, beta, q = {
        "demo6": (demo_cov6, 0.0, 2.0),
        "rough6": (hl.build_covering(hl.profile_rough(), depth_max=6), -0.2, 3.0),
        "demo3d3": (hl.build_covering(hl.profile_demo(n=3), depth_max=3), 0.0, 1.5),
    }[name]
    sp = space_from_covering(cov, beta=beta)
    volume, owner, connector = oracles.covering_fragments(cov)
    assert np.array_equal(sp.vol, np.array(volume, dtype=float))
    assert sp.owner.tolist() == owner and sp.connector.tolist() == connector
    return [(sp, volume, random_mean_zero(sp, np.random.default_rng(12)), q)]


@pytest.mark.parametrize("name", ["demo6", "rough6", "demo3d3", "abstract"])
def test_decomposition_matches_per_vertex_oracle(name, demo_cov6):
    for sp, volume, g, q in _agreement_cases(name, demo_cov6):
        gv = g.values
        gmax = float(np.max(np.abs(gv)))
        g1 = float(np.abs(gv) @ sp.vol)
        res = decompose(g, q=q)
        ref = oracles.decompose(g, volume, q)
        parts = oracles.parts(res)
        assert parts.keys() == ref["parts"].keys()
        for t, part in parts.items():
            assert part.keys() == ref["parts"][t].keys()
            for i, v in part.items():
                # h_s = S_s / |B_s| scales the round-off of S by ||g||_1 / |B_s|;
                # the abstract spaces have slabs down to 1/16 of a unit cell
                scale = max(gmax, g1 / sp.vol[i]) if name == "abstract" else gmax
                assert abs(v - ref["parts"][t][i]) <= 1e-15 * scale
        for t in range(sp.tree.n):
            assert abs(res.shadow_integrals[t] - ref["S"][t]) <= 1e-15 * g1
            assert tuple(sp.pair_frag[sp.pair_vertex == t].tolist()) == oracles.u_frags(sp, t)
        assert res.lhs_norm == pytest.approx(ref["lhs"], rel=1e-14)
        assert res.rhs_norm == pytest.approx(ref["rhs"], rel=1e-14)
        assert sp.overlap_bound == oracles.overlap_bound(sp)

        c_pred, comp = predicted_constant(sp, q, 3.0)
        c_ref, comp_ref = oracles.predicted_constant(sp, volume, q, 3.0)
        assert comp["overlap"] == comp_ref["overlap"]
        assert comp["ub_ratio"] == comp_ref["ub_ratio"]
        for key in ("embedding", "admissibility_term", "hardy"):
            assert comp[key] == pytest.approx(comp_ref[key], rel=1e-14)
        assert c_pred == pytest.approx(c_ref, rel=1e-14)

        rep = verify_decomposition(res, 3.0)
        rep_ref = oracles.verify_decomposition(res, volume)
        assert rep.mean_bound == pytest.approx(rep_ref["mean_bound"], rel=1e-14)
        assert rep.sum_error <= 1e-12 and rep_ref["sum_error"] <= 1e-12


def _append_entry(res, t, i, v):
    res.vertex = np.append(res.vertex, t)
    res.frag = np.append(res.frag, i)
    res.value = np.append(res.value, v)


def test_verify_rejects_values_outside_u_t(demo_cov6):
    sp = space_from_covering(demo_cov6, beta=0.0)
    res = decompose(random_mean_zero(sp, np.random.default_rng(11)), q=2.0)
    t = sp.tree.leaves[0]
    outside = next(i for i in range(len(sp.vol)) if i not in oracles.u_frags(sp, t))
    _append_entry(res, t, outside, 1e-3)
    with pytest.raises(DecompositionError, match=f"outside U_t \\(vertex {t}\\)"):
        verify_decomposition(res, 2.0)
    with pytest.raises(AssertionError, match="outside U_t"):
        oracles.verify_decomposition(res, oracles.covering_fragments(demo_cov6)[0])
    # a fragment id past the end must not alias the pair key of the next vertex
    res = decompose(random_mean_zero(sp, np.random.default_rng(11)), q=2.0)
    m = len(sp.vol)
    _append_entry(res, 0, m + oracles.u_frags(sp, 1)[0], 0.0)
    with pytest.raises(DecompositionError, match="outside U_t"):
        verify_decomposition(res, 2.0)


# -- the decomposition report, pinned -----------------------------------------------

DEMO6_DECOMPOSITION_SHA256 = "84ba1f5efe7830dd7c2eaacd718dc3dd7d913c0c2cbed141e1c4ae54d536e9af"


def test_demo_depth6_decomposition_pinned(demo_cov6):
    # the library path of `hardy-lab decompose --phi demo --depth 6 --seed 7`
    problem = hl.weights_from_beta(demo_cov6, 0.0, 2.0)
    space = space_from_covering(demo_cov6, beta=0.0)
    result = decompose(random_mean_zero(space, np.random.default_rng(7)), problem)
    report = verify_decomposition(result, hl.optimize_theta(problem).suff_bound)
    doc = json.dumps({"decomposition": result.to_json(), "verification": report.to_json()},
                     sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(doc.encode()).hexdigest() == DEMO6_DECOMPOSITION_SHA256


ROUGH8_DECOMPOSITION_SHA256 = "e242ce27ab4be8398948a59d279aa4c24f7c6c90dd66bdf84173e349a534c874"


def test_rough_depth8_decomposition_pinned(rough_cov8):
    # the library path of `hardy-lab decompose --phi rough --depth 8 --beta -0.2 --seed 7`
    problem = hl.weights_from_beta(rough_cov8, -0.2, 2.0)
    space = space_from_covering(rough_cov8, beta=-0.2)
    result = decompose(random_mean_zero(space, np.random.default_rng(7)), problem)
    report = verify_decomposition(result, hl.optimize_theta(problem).suff_bound)
    doc = json.dumps({"decomposition": result.to_json(), "verification": report.to_json()},
                     sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(doc.encode()).hexdigest() == ROUGH8_DECOMPOSITION_SHA256

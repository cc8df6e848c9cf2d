import hashlib
import json
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import hardy_lab as hl
from hardy_lab.covering import (
    CoveringError,
    CubeCapExceeded,
    CubeCovering,
    _fit_constants,
    _holder_quotient_max,
    _min_phi_decisions,
    check_disjoint_and_coverage,
)

from oracles import (
    FractionCovering,
    disjoint_and_coverage,
    fit_constants,
    holder_quotient_max,
    level_rows,
    min_phi_decision,
    rough_phi,
    tail_sums,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_flat_root_and_first_level():
    cov = hl.build_covering(hl.profile_flat(2.0), depth_max=2)
    cubes = cov.to_json()["cubes"]
    assert cov.cell[0].tolist() == [0, 0]
    assert cubes[0]["base"] == [[[-1, 2], [1, 2]]]
    assert cubes[0]["vertical"] == [[0, 1], [1, 1]]
    # the level-0 test cube spans heights (0, 3), never inside the domain:
    # two half-size children on the top face
    kids = cov.tree.children[0]
    assert len(kids) == 2
    assert cov.cell[list(kids)].tolist() == [[0, 2], [1, 2]]
    assert [cubes[t]["base"] for t in kids] == [[[[-1, 2], [0, 1]]], [[[0, 1], [1, 2]]]]
    assert all(cubes[t]["vertical"] == [[1, 1], [3, 2]] for t in kids)


def test_flat_always_halves():
    # phi == 2: every test cube tops out at exactly 2 + 2^-m, so each path
    # strictly halves and holds at most one cube per size class
    cov = hl.build_covering(hl.profile_flat(2.0), depth_max=6)
    for t in range(cov.tree.n):
        P, _ = hl.counting_profiles(cov, t)
        assert all(c <= 1 for c in P.values())
    assert cov.level_counts() == {m: 2 ** m for m in range(7)}


def test_b_volume_is_half_cube():
    cov = hl.build_covering(hl.profile_demo(), depth_max=3)
    for t in cov.tree.gamma_star:
        assert cov.b_volume(t) == cov.q_volume(t) / 2
        assert cov.ub_ratio(t) == 3


def test_demo_depth3_golden_file():
    cov = hl.build_covering(hl.profile_demo(), depth_max=3)
    with open(os.path.join(DATA, "demo_depth3_golden.json")) as fh:
        golden = json.load(fh)
    assert cov.to_json() == golden


def test_disjoint_and_coverage_exact(demo_cov6):
    rep = check_disjoint_and_coverage(demo_cov6)
    assert rep["disjoint"]
    assert rep["coverage_exact"]
    assert rep["covered_volume"] == rep["column_volume"]


def test_dyadic_coordinates(demo_cov6):
    assert demo_cov6.cell.dtype == np.int64 and not demo_cov6.cell.flags.writeable
    cubes = demo_cov6.to_json()["cubes"]
    for t in range(0, demo_cov6.tree.n, 17):
        for lo, hi in cubes[t]["base"] + [cubes[t]["vertical"]]:
            for _, d in (lo, hi):
                assert d & (d - 1) == 0        # power of two


def test_counting_profiles_root_child():
    cov = hl.build_covering(hl.profile_flat(2.0), depth_max=3)
    child = cov.tree.children[0][0]
    P, W = hl.counting_profiles(cov, child)
    assert P == {0: 1, 1: 1}
    assert sum(W.values()) == len(cov.tree.shadow(child))


def test_counting_bounds_trivial_w_at_own_class(demo_cov6):
    rep = hl.verify_counting_bounds(demo_cov6)
    assert rep.c2 >= 1.0       # W_k(t) = 1 at i = k forces C2 >= 1
    assert rep.c1 >= 1.0


def test_counting_bounds_stability(demo_cov8):
    rep = hl.verify_counting_bounds(demo_cov8)
    assert all(rep.stable.values())


def test_weights_from_beta_values(demo_cov6):
    # beta = 0, alpha = 1 on the flat profile: u_t = v_t = |B_t|^{1/p}
    flat = hl.build_covering(hl.profile_flat(2.0), depth_max=3)
    pr = hl.weights_from_beta(flat, beta=0.0, p=2.0)
    for t in flat.tree.gamma_star:
        assert pr.u[t] == pytest.approx(float(flat.b_volume(t)) ** 0.5)
        assert pr.u[t] == pytest.approx(pr.v[t])
    # beta = 1 - alpha: nu == 1, omega = l^{1-alpha}
    pr2 = hl.weights_from_beta(demo_cov6, beta=0.5, p=2.0)
    t = demo_cov6.tree.gamma_star[0]
    e = float(demo_cov6.edge(t))
    vol = float(demo_cov6.b_volume(t)) ** 0.5
    assert pr2.u[t] == pytest.approx(vol)                  # gamma = 0
    assert pr2.v[t] == pytest.approx(vol * e ** 0.5)
    assert "beta_ok" in pr2.flags


def test_beta_predicate_flag(demo_cov6):
    assert "beta_ok" in hl.weights_from_beta(demo_cov6, -0.2, 2.0).flags
    assert "beta_violates_cond" in hl.weights_from_beta(demo_cov6, -0.3, 2.0).flags


def test_tail_integrability_finite_sum(demo_cov6):
    rep = hl.tail_integrability(demo_cov6, beta=0.0, p=2.0)
    total = rep.rows[-1]["cumulative"]
    direct = sum(float(demo_cov6.b_volume(t)) for t in demo_cov6.tree.gamma_star)
    assert total == pytest.approx(direct)


def test_tail_decay_matches_counting(demo_cov10):
    # this profile's boundary is smooth away from one kink: 2^k cubes per
    # class, so the v^p level sums decay like 2^{-k(n-1+beta p)} on both
    # sides of the beta p = -alpha threshold, the divergent side more slowly
    conv = hl.tail_integrability(demo_cov10, beta=-0.2, p=2.0)
    edge = hl.tail_integrability(demo_cov10, beta=-0.3, p=2.0)
    assert conv.geometric and conv.decay == pytest.approx(2 ** -0.6, rel=0.1)
    assert edge.decay == pytest.approx(2 ** -0.4, rel=0.1)
    assert edge.decay > conv.decay


def test_threshold_direction_of_level_profiles(demo_cov10):
    # the qualitative threshold invariant: below the threshold the partial
    # sups grow monotonically and uniformly faster than above it
    cls = np.array(demo_cov10.size_class)
    gains = {}
    for beta in (-0.2, -0.3):
        pr = hl.weights_from_beta(demo_cov10, beta, 2.0)
        th = hl.optimize_theta(pr)
        levels = np.array(hl.a_tree(pr, th.theta_star, levels=cls).levels)
        ratios = levels[1:] / levels[:-1]
        assert np.all(ratios > 1.0)
        gains[beta] = ratios[-5:]
    assert np.all(gains[-0.3] > gains[-0.2])


def test_rough_profile_saturates_counting():
    # the lacunary boundary forces ~2^{1.5j} cubes per class, so the induced
    # level sums track the 2^{-j(alpha + beta p)} rates: decaying above the
    # threshold, growing below it
    cov = hl.build_covering(hl.profile_rough(), depth_max=6)
    rep = check_disjoint_and_coverage(cov)
    assert rep["disjoint"] and rep["coverage_exact"]
    counts = cov.class_counts()
    growth = [counts[j + 1] / counts[j] for j in sorted(counts)[1:-1]]
    gm = float(np.exp(np.mean(np.log(growth))))
    assert gm > 2.3                       # well above the flat/demo rate 2.0
    conv = hl.tail_integrability(cov, -0.2, 2.0)
    div = hl.tail_integrability(cov, -0.3, 2.0)
    assert conv.decay < 0.95
    assert div.decay > 0.98
    assert conv.decay < div.decay


def test_rough_profile_trips_diverging_flag():
    cov = hl.build_covering(hl.profile_rough(), depth_max=6)
    pr = hl.weights_from_beta(cov, -0.3, 2.0)
    res = hl.a_tree(pr, 1.3, levels=np.array(cov.size_class))
    assert res.diverging


def test_cube_cap():
    with pytest.raises(CubeCapExceeded):
        hl.build_covering(hl.profile_demo(), depth_max=8, cube_cap=100)


@pytest.mark.parametrize("which,depth", [("demo", 6), ("rough", 8)])
def test_cube_cap_boundary(which, depth, request):
    # the cap bounds the cube count: a covering with exactly cube_cap cubes
    # builds, one cube fewer raises
    count = request.getfixturevalue(f"{which}_cov{depth}").cube_count
    assert hl.build_covering(_profile(which), depth, cube_cap=count).cube_count == count
    with pytest.raises(CubeCapExceeded):
        hl.build_covering(_profile(which), depth, cube_cap=count - 1)


def test_profile_validation_rejects_bad_range():
    bad = hl.HolderProfile(alpha=1.0, k_phi=0.0, ell=Fraction(1),
                           phi=lambda x: np.full(len(x), 5.0), n=2)
    with pytest.raises(CoveringError):
        hl.build_covering(bad, depth_max=1)


@pytest.mark.parametrize("phi", [
    lambda x: np.full(len(x), np.nan),
    lambda x: np.where(np.arange(len(x)) == 7, np.nan, 2.5),      # one grid point
])
def test_profile_validation_rejects_non_finite_phi(phi):
    prof = hl.HolderProfile(alpha=1.0, k_phi=0.0, ell=Fraction(1), phi=phi, n=2)
    with pytest.raises(CoveringError, match="finite"):
        prof.validate()
    with pytest.raises(CoveringError, match="finite"):
        hl.build_covering(prof, depth_max=3)


def test_profile_validation_rejects_wrong_holder_constant():
    prof = hl.HolderProfile(alpha=0.5, k_phi=0.01, ell=Fraction(1),
                            phi=hl.profile_demo().phi, n=2)
    with pytest.raises(CoveringError, match="quotient"):
        prof.validate()


def test_holder_quotient_sweep_matches_all_pairs():
    rng = np.random.default_rng(5)
    cases = []
    for prof in (hl.profile_demo(n=3), hl.profile_rough(), hl.profile_flat(2.0, n=3)):
        d = prof.n - 1
        axes = [np.linspace(-1.5, 1.5, 20)] * d
        pts = np.stack([g.ravel() for g in np.meshgrid(*axes)], axis=-1)
        cases.append((pts, prof.phi(pts), prof.alpha))
    pts = rng.uniform(-1.5, 1.5, (203, 2))
    cases.append((pts, rng.standard_normal(203), 0.5))
    for pts, vals, alpha in cases:
        assert _holder_quotient_max(pts, vals, alpha) == holder_quotient_max(pts, vals, alpha)


def test_profile_validation_memory():
    tracemalloc.start()
    try:
        hl.profile_flat(2.0, n=3).validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_admissibility_interval(demo_cov6):
    lo, hi, ratios = demo_cov6.admissibility_interval()
    assert 0.1 < lo <= hi < 20.0
    assert len(ratios) == demo_cov6.cube_count


def test_locate(demo_cov6):
    rng = np.random.default_rng(2)
    lows, highs = demo_cov6.corners
    for _ in range(50):
        t = int(rng.integers(0, demo_cov6.tree.n))
        lo, hi = lows[t], highs[t]
        x = lo + rng.random(2) * (hi - lo)
        assert demo_cov6.locate(x) == t
    assert demo_cov6.locate(np.array([0.0, 50.0])) == -1
    assert demo_cov6.locate(np.array([0.9, 0.5])) == -1


def _demo3_profile():
    def phi3(x):
        x = np.asarray(x, dtype=float)
        return 2.0 + np.sqrt(np.linalg.norm(x, axis=-1)) / 2.0

    return hl.HolderProfile(alpha=0.5, k_phi=0.5, ell=Fraction(1),
                            phi=phi3, n=3, name="demo3")


@pytest.mark.parametrize("which", ["demo", "rough", "flat3", "demo3"])
def test_locate_matches_tree_walk(which, demo_cov6):
    depth = {"demo": 6, "rough": 6}.get(which, 3)
    if which == "demo":
        cov = demo_cov6
    else:
        cov = hl.build_covering(_profile(which), depth_max=depth)
        assert "_locate_index" not in vars(cov)     # the index is built on first use
    oracle = FractionCovering(_profile(which), depth)
    rng = np.random.default_rng(17)
    n, m = cov.n, 20_000
    # uniform points over a box reaching past the strip, below 0 and above phi
    pts = np.column_stack([rng.uniform(-0.7, 0.7, (m, n - 1)), rng.uniform(-0.2, 3.2, m)])
    # corners, face points and centres of random cubes lie on grid lines
    for k, t in enumerate(rng.integers(0, cov.tree.n, 5000)):
        lo, hi = oracle.box(t)
        pts[k] = np.choose(rng.integers(0, 3, n), [lo, hi, (lo + hi) / 2])
    pts[-3:] = np.array([np.nan, np.inf, -np.inf])[:, None]
    got = cov.locate(pts)
    assert got.dtype == np.int64
    assert got.tolist() == [oracle.locate(x) for x in pts]
    assert 0.2 < np.mean(got >= 0) < 0.8
    assert cov.locate(pts[0]) == got[0] and isinstance(cov.locate(pts[0]), int)
    with pytest.raises(ValueError, match="shape"):
        cov.locate(pts[:, :-1])


def test_covering_json_fractions(demo_cov6):
    doc = demo_cov6.to_json()
    cube = doc["cubes"][1]
    num, den = cube["edge"]
    assert Fraction(num, den) == demo_cov6.edge(1)


def test_three_dimensional_covering():
    cov = hl.build_covering(hl.profile_flat(2.0, n=3), depth_max=3)
    assert cov.level_counts() == {m: 4 ** m for m in range(4)}
    rep = check_disjoint_and_coverage(cov)
    assert rep["disjoint"] and rep["coverage_exact"]
    assert cov.ub_ratio(1) == 3
    pr = hl.weights_from_beta(cov, 0.0, 2.0)
    assert hl.exact_constant(pr).value > 0


def test_three_dimensional_holder_covering():
    cov = hl.build_covering(_demo3_profile(), depth_max=3)
    rep = check_disjoint_and_coverage(cov)
    assert rep["disjoint"] and rep["coverage_exact"]
    assert cov.cube_count > 4 ** 3


def test_dimension_limit():
    with pytest.raises(CoveringError, match="dimensions"):
        hl.build_covering(hl.profile_flat(2.0, n=4), depth_max=1)


def test_child_edges_never_grow(demo_cov6):
    for t in demo_cov6.tree.gamma_star:
        p = demo_cov6.tree.parent[t]
        assert demo_cov6.edge(t) in (demo_cov6.edge(p), demo_cov6.edge(p) / 2)
        # children sit exactly on the parent's top face: k_t h_t = (k_p + 1) h_p
        jt, jp = demo_cov6.size_class[t], demo_cov6.size_class[p]
        assert demo_cov6.cell[t, -1] << jp == (demo_cov6.cell[p, -1] + 1) << jt


# -- batched containment decisions against the per-cube test --------------------

def _profile(which):
    return {"demo": hl.profile_demo, "rough": hl.profile_rough, "demo3": _demo3_profile,
            "flat3": lambda: hl.profile_flat(2.0, n=3)}[which]()


def _per_cube(profile, lo, hi, threshold, max_points=1 << 14):
    return [min_phi_decision(profile, a, b, float(t), max_points)
            for a, b, t in zip(lo, hi, threshold)]


@pytest.mark.parametrize("which", ["demo", "rough", "demo3"])
def test_batched_decision_matches_per_cube_oracle(which):
    profile = _profile(which)
    d = profile.n - 1
    rng = np.random.default_rng(5)
    nb = 400
    c = rng.uniform(-1.5, 1.5, (nb, d))
    half = 2.0 ** rng.uniform(-9, 0, (nb, 1))
    lo, hi = np.maximum(c - half, -1.5), np.minimum(c + half, 1.5)
    # thresholds around the centre value, within a few Holder moduli of the
    # box: some are witnessed, some certified and some left open
    spread = profile.k_phi * (2 * half[:, 0]) ** profile.alpha
    thr = np.asarray(profile.phi(c)) - spread * rng.uniform(-0.5, 2.0, nb)
    got = _min_phi_decisions(profile, lo, hi, thr, max_points=64)
    assert got == _per_cube(profile, lo, hi, thr, max_points=64)
    assert {True, False, None} <= set(got)
    if d == 1:
        # boxes with more grid points than one phi call takes
        got = _min_phi_decisions(profile, lo[:12], hi[:12], thr[:12], max_points=1 << 16)
        assert got == _per_cube(profile, lo[:12], hi[:12], thr[:12], max_points=1 << 16)


def test_batched_decision_ties():
    # phi == 2 and K = 0: a threshold of exactly 2 is certified (no sample
    # lies strictly below it), the next float up is witnessed against
    profile = hl.profile_flat(2.0)
    lo, hi = np.array([[-0.5], [0.0]]), np.array([[0.5], [0.25]])
    thr = [2.0, np.nextafter(2.0, 3.0)]
    assert _min_phi_decisions(profile, lo, hi, thr) == [True, False]
    assert _per_cube(profile, lo, hi, thr) == [True, False]


@pytest.mark.parametrize("which,depth", [("demo", 8), ("rough", 8), ("demo3", 3), ("flat3", 3)])
def test_covering_matches_per_cube_build(which, depth, request):
    if which in ("demo", "rough"):
        batched = request.getfixturevalue(f"{which}_cov{depth}")
    else:
        batched = hl.build_covering(_profile(which), depth_max=depth)
    assert FractionCovering(_profile(which), depth).to_json() == batched.to_json()


@pytest.mark.parametrize("profile,depth", [
    (hl.profile_flat(0.7, ell=Fraction(1, 3)), 4),
    (hl.profile_flat(6.5, ell=3), 4),
    (hl.profile_flat(0.7, ell=Fraction(1, 3), n=3), 3),
    (hl.profile_flat(6.5, ell=3, n=3), 3),
    (_demo3_profile(), 3),
], ids=["flat_third", "flat_three", "flat3_third", "flat3_three", "demo3"])
def test_integer_cells_match_fraction_oracle(profile, depth):
    # the floats of the integer cells against float(Fraction) at l != 1
    cov = hl.build_covering(profile, depth)
    oracle = FractionCovering(profile, depth)
    doc = oracle.to_json()
    assert cov.to_json() == doc
    assert check_disjoint_and_coverage(cov) == disjoint_and_coverage(doc)
    assert cov.centers().tobytes() == oracle.centers().tobytes()
    lows, highs = cov.corners
    for t in range(cov.tree.n):
        lo, hi = oracle.box(t)
        assert lows[t].tobytes() == lo.tobytes() and highs[t].tobytes() == hi.tobytes()
    rng = np.random.default_rng(11)
    L = float(profile.ell)
    pts = np.column_stack([rng.uniform(-0.7 * L, 0.7 * L, (3000, cov.n - 1)),
                           rng.uniform(-0.2 * L, 3.2 * L, 3000)])
    pick = np.where(rng.integers(0, 2, (cov.tree.n, cov.n)) == 1, lows, highs)
    pts = np.concatenate([pts, pick, lows, highs, cov.centers()])
    assert cov.locate(pts).tolist() == [oracle.locate(x) for x in pts]


@pytest.mark.parametrize("ell", [Fraction(2 ** 60 + 1, 2 ** 60), Fraction(1, 2 ** 53 + 1),
                                 Fraction(1, 3 ** 31)])
def test_dyadic_floats_refuse_past_2_53(ell):
    # l = a/b with a huge numerator or denominator: a m or b 2^(j+1) would
    # leave the exact float64 integers, so the coordinates are refused
    profile = hl.profile_flat(2.5 * float(ell), ell=ell)
    with pytest.raises(CoveringError, match="2\\^53"):
        hl.build_covering(profile, 8)


ROUGH8_SHA256 = "e6eef900e467f0e27e172f62a4e7bf6b24eb456090ca0efac312fa05f92a8507"


def test_rough_depth8_covering_pinned(rough_cov8):
    assert rough_cov8.cube_count == 3165
    assert rough_cov8.inconclusive == 114
    doc = json.dumps(rough_cov8.to_json(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(doc.encode()).hexdigest() == ROUGH8_SHA256


def test_rough_phi_matches_term_by_term_form():
    rng = np.random.default_rng(3)
    # random points plus dyadic ones, where 2^m x lands on rounding ties
    x = np.concatenate([rng.uniform(-1.5, 1.5, 1 << 16), np.arange(-3072, 3073) / 2048])
    phi = hl.profile_rough().phi
    assert np.array_equal(phi(x), rough_phi(x))
    assert np.array_equal(phi(x[:, None]), rough_phi(x[:, None]))
    pts = np.column_stack([x, x[::-1]])
    assert np.array_equal(hl.profile_rough(n=3).phi(pts), rough_phi(pts))


# -- per-class sums against the per-vertex loops ---------------------------------

@pytest.mark.parametrize("which", ["demo_cov6", "demo_cov8", "rough_cov8", "flat3", "demo3"])
def test_fit_constants_match_per_vertex_loop(which, request):
    if which.endswith("3"):
        cov = hl.build_covering(_profile(which), depth_max=3)
    else:
        cov = request.getfixturevalue(which)
    for cap in sorted({0, max(cov.depth_max - 2, 0), cov.depth_max}):
        assert _fit_constants(cov, cap) == fit_constants(cov, cap)


def test_tail_and_level_rows_match_per_vertex_sums(demo_cov8, rough_cov8):
    for cov in (demo_cov8, rough_cov8):
        assert cov.level_rows() == level_rows(cov)
        for beta, p in ((-0.2, 2.0), (-0.3, 2.0), (0.7, 3.0)):
            rows = hl.tail_integrability(cov, beta, p).rows
            sums, counts = tail_sums(cov, beta, p)
            assert [r["size_class"] for r in rows] == sorted(sums)
            assert [r["sum"] for r in rows] == [sums[j] for j in sorted(sums)]
            assert [r["count"] for r in rows] == [counts[j] for j in sorted(sums)]


# -- the structural check catches broken coverings ------------------------------

def _covering_of(cov, ids, extra=()):
    """The cubes `ids` of cov, renumbered in order, plus `extra` cubes given
    as (parent id in cov, size class, grid cell)."""
    new = {t: i for i, t in enumerate(ids)}
    parent = [new[cov.tree.parent[t]] if t != cov.tree.root else -1 for t in ids]
    size_class = [cov.size_class[t] for t in ids]
    cells = [cov.cell[t] for t in ids]
    level = [cov.level[t] for t in ids]
    for p, j, cell in extra:
        parent.append(new[p])
        size_class.append(j)
        cells.append(cell)
        level.append(cov.level[p] + 1)
    return CubeCovering(cov.profile, hl.RootedTree(parent), tuple(level), tuple(size_class),
                        np.array(cells), cov.depth_max)


def test_disjoint_and_coverage_catch_broken_coverings():
    cov = hl.build_covering(hl.profile_demo(), depth_max=4)
    tree = cov.tree
    everything = list(range(tree.n))
    rep = check_disjoint_and_coverage(_covering_of(cov, everything))
    assert rep["disjoint"] and rep["coverage_exact"]
    # a leaf whose parent split, so the parent stays an inner cube without it
    leaf = next(t for t in reversed(tree.leaves) if len(tree.children[tree.parent[t]]) > 1)
    p, j = tree.parent[leaf], cov.size_class[leaf]

    duplicated = _covering_of(cov, everything, [(p, j, cov.cell[leaf])])
    assert not check_disjoint_and_coverage(duplicated)["disjoint"]

    # a class j + 1 cell nested in the upper half of the leaf
    nested = _covering_of(cov, everything, [(leaf, j + 1, 2 * cov.cell[leaf] + [1, 1])])
    assert not check_disjoint_and_coverage(nested)["disjoint"]

    dropped = check_disjoint_and_coverage(_covering_of(cov, [t for t in everything if t != leaf]))
    assert dropped["disjoint"]
    assert not dropped["coverage_exact"]
    # the leaf's column (edge x top) leaves the column integral, its cube
    # (edge x edge) the volume total
    e = cov.edge(leaf)
    hi = (int(cov.cell[leaf, -1]) + 1) * e
    assert dropped["covered_volume"] - dropped["column_volume"] == (hi - e) * e


@pytest.mark.parametrize("which,depth", [("demo", 4), ("rough", 6)])
def test_disjointness_matches_pairwise_scan_on_mutations(which, depth):
    cov = hl.build_covering(_profile(which), depth_max=depth)
    tree = cov.tree
    rng = np.random.default_rng(23)
    everything = list(range(tree.n))
    leaves = [t for t in tree.leaves if t != tree.root]
    for trial in range(12):
        picks = rng.choice(tree.n, size=1 + trial % 3, replace=False).tolist()
        if trial % 3 == 0:          # duplicated cubes
            mutated = _covering_of(cov, everything, [
                (t, cov.size_class[t], cov.cell[t]) for t in picks])
        elif trial % 3 == 1:        # smaller cells nested in existing cubes
            extra = []
            for t in picks:
                s = int(rng.integers(1, 4))
                offset = rng.integers(0, 2 ** s, cov.n)
                extra.append((t, cov.size_class[t] + s, (cov.cell[t] << s) + offset))
            mutated = _covering_of(cov, everything, extra)
        else:                       # dropped leaves
            gone = set(rng.choice(leaves, size=1 + trial % 4, replace=False).tolist())
            mutated = _covering_of(cov, [t for t in everything if t not in gone])
        got = check_disjoint_and_coverage(mutated)
        assert got == disjoint_and_coverage(mutated.to_json())
        assert got["disjoint"] == (trial % 3 == 2)


def test_structure_check_on_rough_depth10(rough_cov10):
    # 22751 cubes; the volumes are those the pairwise scan reported
    assert check_disjoint_and_coverage(rough_cov10) == {
        "disjoint": True, "covered_volume": Fraction(641171, 262144),
        "column_volume": Fraction(641171, 262144), "coverage_exact": True}

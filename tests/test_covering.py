import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import hardy_lab as hl
from hardy_lab import covering
from hardy_lab.covering import (
    BLOCK_SIDE,
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
    build_by_levels,
    children_of,
    cube_rows,
    disjoint_and_coverage,
    fit_constants,
    graph_distance,
    holder_quotient_max,
    level_rows,
    min_phi_decision,
    path_prefix_sums,
    rough_phi,
    row_export,
    shadow_sums,
    tail_sums,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_flat_root_and_first_level():
    cov = hl.build_covering(hl.profile_flat(2.0), depth_max=2)
    cubes = cube_rows(cov.to_json())
    assert cov.cell[0].tolist() == [0, 0]
    assert cubes[0]["base"] == [[[-1, 2], [1, 2]]]
    assert cubes[0]["vertical"] == [[0, 1], [1, 1]]
    # the level-0 test cube spans heights (0, 3), never inside the domain:
    # two half-size children on the top face
    kids = children_of(cov.tree)[0]
    assert len(kids) == 2
    assert cov.cell[list(kids)].tolist() == [[0, 2], [1, 2]]
    assert [cubes[t]["base"] for t in kids] == [[[[-1, 2], [0, 1]]], [[[0, 1], [1, 2]]]]
    assert all(cubes[t]["vertical"] == [[1, 1], [3, 2]] for t in kids)


def test_flat_always_halves():
    # phi == 2: every test cube tops out at exactly 2 + 2^-m, so each path
    # strictly halves and holds at most one cube per size class
    cov = hl.build_covering(hl.profile_flat(2.0), depth_max=6)
    K = cov.tree.kernel
    cls = cov.size_class[K.order]
    for j in np.unique(cov.size_class).tolist():
        # cubes of class j on the path to each cube; the root is class 0
        assert K.prefix((cls == j).astype(float)).max() + (j == 0) <= 1
    assert np.array_equal(np.bincount(cov.tree.depth), 2 ** np.arange(7))


def test_demo_depth3_golden_file():
    cov = hl.build_covering(hl.profile_demo(), depth_max=3)
    with open(os.path.join(DATA, "demo_depth3_golden.json")) as fh:
        golden = json.load(fh)
    assert row_export(cov.to_json()) == golden


def test_disjoint_and_coverage_exact(demo_cov6):
    rep = check_disjoint_and_coverage(demo_cov6)
    assert rep["disjoint"]
    assert rep["coverage_exact"]
    assert rep["covered_volume"] == rep["column_volume"]


def test_dyadic_coordinates(demo_cov6):
    assert demo_cov6.cell.dtype == np.int64 and not demo_cov6.cell.flags.writeable
    cubes = cube_rows(demo_cov6.to_json())
    for t in range(0, demo_cov6.tree.n, 17):
        for lo, hi in cubes[t]["base"] + [cubes[t]["vertical"]]:
            for _, d in (lo, hi):
                assert d & (d - 1) == 0        # power of two


def test_covering_columns_validated(demo_cov6):
    # size_class is a read-only int64 column like cell; a short, negative or
    # fractional one is refused before cell is read against it
    cov = demo_cov6
    assert cov.size_class.dtype == np.int64 and not cov.size_class.flags.writeable
    assert type(cov.to_json()["cubes"]["size_class"][0]) is int
    args = (cov.profile, cov.tree)
    for size_class in (cov.size_class[:-1], np.append(cov.size_class, 0),
                       np.where(cov.size_class == 0, -1, cov.size_class),
                       cov.size_class.astype(float), ()):
        with pytest.raises(ValueError, match="size_class must hold one non-negative integer"):
            CubeCovering(*args, size_class, cov.cell, cov.depth_max)
    with pytest.raises(ValueError, match="cell must hold one grid cell"):
        CubeCovering(*args, cov.size_class, cov.cell[:-1], cov.depth_max)
    same = CubeCovering(*args, cov.size_class.tolist(), cov.cell, cov.depth_max)
    assert np.array_equal(same.size_class, cov.size_class)


def test_counting_profiles_root_child():
    # per size class, the cubes on the path to the root's first child (the
    # root included) and in its shadow, from per-vertex oracle sums
    cov = hl.build_covering(hl.profile_flat(2.0), depth_max=3)
    tree = cov.tree
    child = children_of(tree)[0][0]
    cls = cov.size_class
    P = {j: path_prefix_sums(tree, cls == j)[child] + (j == cls[tree.root])
         for j in range(4)}
    W = {j: shadow_sums(tree, cls == j)[child] for j in range(4)}
    assert P == {0: 1, 1: 1, 2: 0, 3: 0}
    assert W == {0: 0, 1: 1, 2: 2, 3: 4}


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
        assert pr.u[t] == pytest.approx((flat.volume_array[t] / 2) ** 0.5)
        assert pr.u[t] == pytest.approx(pr.v[t])
    # beta = 1 - alpha: nu == 1, omega = l^{1-alpha}
    pr2 = hl.weights_from_beta(demo_cov6, beta=0.5, p=2.0)
    t = demo_cov6.tree.gamma_star[0]
    e = demo_cov6.edge_array[t]
    vol = (demo_cov6.volume_array[t] / 2) ** 0.5
    assert pr2.u[t] == pytest.approx(vol)                  # gamma = 0
    assert pr2.v[t] == pytest.approx(vol * e ** 0.5)
    assert "beta_ok" in pr2.flags


def test_beta_predicate_flag(demo_cov6):
    assert "beta_ok" in hl.weights_from_beta(demo_cov6, -0.2, 2.0).flags
    assert "beta_violates_cond" in hl.weights_from_beta(demo_cov6, -0.3, 2.0).flags


def test_tail_integrability_finite_sum(demo_cov6):
    rep = hl.tail_integrability(demo_cov6, beta=0.0, p=2.0)
    total = rep.rows[-1]["cumulative"]
    direct = float(np.sum(demo_cov6.volume_array[demo_cov6.tree.gamma_star])) / 2
    assert total == pytest.approx(direct)


@pytest.mark.parametrize("beta,p", [(math.nan, 2.0), (math.inf, 2.0), (0.0, math.nan),
                                    (0.0, math.inf), (0.0, 0.5)])
def test_tail_integrability_rejects_bad_beta_p(demo_cov6, beta, p):
    # the samplers' rule: beta finite, p finite with p >= 1; a NaN once came
    # out as bare NaN tokens in the report
    with pytest.raises(ValueError):
        hl.tail_integrability(demo_cov6, beta, p)


def test_build_covering_rejects_negative_depth():
    # depth -1 once built the single root cube of depth 0
    with pytest.raises(ValueError, match="depth_max"):
        hl.build_covering(hl.profile_demo(), depth_max=-1)


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
    cls = demo_cov10.size_class
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
    counts = np.bincount(cov.size_class)
    assert np.all(counts > 0)
    growth = counts[2:] / counts[1:-1]
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
    res = hl.a_tree(pr, 1.3, levels=cov.size_class)
    assert res.diverging


def test_cube_cap():
    with pytest.raises(CubeCapExceeded):
        hl.build_covering(hl.profile_demo(), depth_max=8, cube_cap=100)


@pytest.mark.parametrize("which,depth", [("demo", 6), ("rough", 8)])
def test_cube_cap_boundary(which, depth, request):
    # the cap bounds the cube count: a covering with exactly cube_cap cubes
    # builds, one cube fewer raises
    count = request.getfixturevalue(f"{which}_cov{depth}").tree.n
    assert hl.build_covering(_profile(which), depth, cube_cap=count).tree.n == count
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
    # d(x) ~ l(Q_t): the distance from each cube's center to the graph is
    # comparable to its edge
    lows, highs = demo_cov6.corners
    ratios = graph_distance(demo_cov6.profile, (lows + highs) / 2) / demo_cov6.edge_array
    assert len(ratios) == demo_cov6.tree.n
    assert 0.1 < ratios.min() <= ratios.max() < 20.0


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
    oracle = _oracle(which, depth)
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


@pytest.mark.parametrize("which,depth", [("rough", 6), ("demo3", 3)])
def test_locate_on_faces_and_corners_across_classes(which, depth):
    # every corner, face centre and centre of a few cubes of each size class:
    # these points lie on the grid lines of several classes at once
    cov = hl.build_covering(_profile(which), depth_max=depth)
    oracle = _oracle(which, depth)
    rng = np.random.default_rng(29)
    cls = cov.size_class
    picks = np.array(list(itertools.product(range(3), repeat=cov.n)))
    pts = []
    for j in np.unique(cls).tolist():
        ids = np.flatnonzero(cls == j)
        for t in rng.choice(ids, size=min(4, len(ids)), replace=False).tolist():
            lo, hi = oracle.box(t)
            pts.append(np.stack([lo, (lo + hi) / 2, hi])[picks, np.arange(cov.n)])
    pts = np.concatenate(pts)
    got = cov.locate(pts)
    assert got.tolist() == [oracle.locate(x) for x in pts]
    assert len(np.unique(cls[got[got >= 0]])) == len(np.unique(cls))


def test_covering_json_fractions(demo_cov6):
    cube = cube_rows(demo_cov6.to_json())[1]
    num, den = cube["edge"]
    assert Fraction(num, den) == demo_cov6.class_edge[demo_cov6.size_class[1]]


def test_three_dimensional_covering():
    cov = hl.build_covering(hl.profile_flat(2.0, n=3), depth_max=3)
    assert np.array_equal(np.bincount(cov.tree.depth), 4 ** np.arange(4))
    rep = check_disjoint_and_coverage(cov)
    assert rep["disjoint"] and rep["coverage_exact"]
    pr = hl.weights_from_beta(cov, 0.0, 2.0)
    assert hl.exact_constant(pr).value > 0


def test_three_dimensional_holder_covering():
    cov = hl.build_covering(_demo3_profile(), depth_max=3)
    rep = check_disjoint_and_coverage(cov)
    assert rep["disjoint"] and rep["coverage_exact"]
    assert cov.tree.n > 4 ** 3


def test_dimension_limit():
    with pytest.raises(CoveringError, match="dimensions"):
        hl.build_covering(hl.profile_flat(2.0, n=4), depth_max=1)


def test_child_edges_never_grow(demo_cov6):
    edge = demo_cov6.class_edge
    for t in demo_cov6.tree.gamma_star:
        p = demo_cov6.tree.parent[t]
        jt, jp = demo_cov6.size_class[t], demo_cov6.size_class[p]
        assert edge[jt] in (edge[jp], edge[jp] / 2)
        # children sit exactly on the parent's top face: k_t h_t = (k_p + 1) h_p
        assert demo_cov6.cell[t, -1] << jp == (demo_cov6.cell[p, -1] + 1) << jt


# -- batched containment decisions against the per-cube test --------------------

def _profile(which):
    return {"demo": hl.profile_demo, "rough": hl.profile_rough, "demo3": _demo3_profile,
            "flat3": lambda: hl.profile_flat(2.0, n=3),
            "flat_third": lambda: hl.profile_flat(0.7, ell=Fraction(1, 3))}[which]()


@functools.lru_cache(maxsize=None)
def _oracle(which, depth):
    """The per-cube Fraction build, once per session."""
    return FractionCovering(_profile(which), depth)


def _per_cube(profile, lo, hi, threshold, max_points=1 << 14):
    """The per-cube oracle's True/False/None as (contained, unresolved) arrays."""
    got = [min_phi_decision(profile, a, b, float(t), max_points)
           for a, b, t in zip(lo, hi, threshold)]
    return np.array([x is True for x in got]), np.array([x is None for x in got])


def _same(got, want):
    return all(g.dtype == bool and np.array_equal(g, w)
               for g, w in zip(got, want, strict=True))


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
    contained, unresolved = got = _min_phi_decisions(profile, lo, hi, thr, max_points=64)
    assert _same(got, _per_cube(profile, lo, hi, thr, max_points=64))
    # some certified, some left open, some witnessed against
    assert contained.any() and unresolved.any() and (~contained & ~unresolved).any()
    if d == 1:
        # boxes with more grid points than one phi call takes
        got = _min_phi_decisions(profile, lo[:12], hi[:12], thr[:12], max_points=1 << 16)
        assert _same(got, _per_cube(profile, lo[:12], hi[:12], thr[:12], max_points=1 << 16))


def test_batched_decision_ties():
    # phi == 2 and K = 0: a threshold of exactly 2 is certified (no sample
    # lies strictly below it), the next float up is witnessed against
    profile = hl.profile_flat(2.0)
    lo, hi = np.array([[-0.5], [0.0]]), np.array([[0.5], [0.25]])
    thr = [2.0, np.nextafter(2.0, 3.0)]
    certified = ([True, False], [False, False])      # (contained, unresolved)
    assert _same(_min_phi_decisions(profile, lo, hi, thr), certified)
    assert _same(_per_cube(profile, lo, hi, thr), certified)


def _grid_values(profile, lo, hi, m):
    """phi on the m^d midpoint grid of the box (lo, hi), as the per-box oracle samples it."""
    axes = [lo[k] + (np.arange(m) + 0.5) * (hi[k] - lo[k]) / m for k in range(len(lo))]
    return np.asarray(profile.phi(np.stack([g.ravel() for g in np.meshgrid(*axes)], axis=-1)))


def _grid_modulus(profile, lo, hi, m):
    h = 0.5 * math.sqrt(sum(((hi[k] - lo[k]) / m) ** 2 for k in range(len(lo))))
    return profile.k_phi * h ** profile.alpha


def _counting(profile):
    """profile with phi wrapped to count the points it is called on
    (calls[0]) and the calls (calls[1])."""
    calls = [0, 0]

    def phi(x):
        calls[0] += len(x)
        calls[1] += 1
        return profile.phi(x)

    return dataclasses.replace(profile, phi=phi), calls


def _max_points(profile):
    # the build's budget in 1-D; 64 x 64 grids on a 2-D base keep the oracle quick
    return 1 << 14 if profile.n == 2 else 1 << 12


@pytest.mark.parametrize("which", ["demo", "rough", "demo3"])
def test_pruned_decision_at_grid_value_thresholds(which):
    # thresholds exactly at, one ulp above and one ulp below sampled values
    # of several rounds: the grid minimum (where a witness appears), the
    # minimum less the modulus (where a certificate appears) and a random
    # sample, so pruned blocks sit right beside decisive ones
    profile = _profile(which)
    d = profile.n - 1
    rng = np.random.default_rng(17)
    lo, hi, thr = [], [], []
    for _ in range(4):
        c = rng.uniform(-1.4, 1.4, d)
        half = 2.0 ** rng.uniform(-8, -1)
        a, b = np.maximum(c - half, -1.5), np.minimum(c + half, 1.5)
        for m in ([4, 64, 1024, 8192] if d == 1 else [4, 16, 64]):
            vals = _grid_values(profile, a, b, m)
            for t in (vals.min(), vals.min() - _grid_modulus(profile, a, b, m), rng.choice(vals)):
                for x in (t, np.nextafter(t, np.inf), np.nextafter(t, -np.inf)):
                    lo.append(a)
                    hi.append(b)
                    thr.append(x)
    lo, hi, thr = np.array(lo), np.array(hi), np.array(thr)
    contained, unresolved = got = _min_phi_decisions(profile, lo, hi, thr, _max_points(profile))
    assert _same(got, _per_cube(profile, lo, hi, thr, _max_points(profile)))
    assert contained.any() and (~contained & ~unresolved).any()
    # a budget whose every round runs while each box is still one block
    got = _min_phi_decisions(profile, lo, hi, thr, BLOCK_SIDE[d] ** d)
    assert _same(got, _per_cube(profile, lo, hi, thr, BLOCK_SIDE[d] ** d))


@pytest.mark.parametrize("which", ["demo", "rough", "demo3"])
def test_pruned_decision_on_boxes_clipped_at_the_strip(which):
    profile = _profile(which)
    d = profile.n - 1
    rng = np.random.default_rng(23)
    nb = 60
    # centres within 0.2 of the strip's edge on a random side of each axis
    c = rng.uniform(1.3, 1.5, (nb, d)) * rng.choice([-1.0, 1.0], (nb, d))
    half = 2.0 ** rng.uniform(-7, -2, (nb, 1))
    lo, hi = np.maximum(c - half, -1.5), np.minimum(c + half, 1.5)
    assert (lo == -1.5).any() and (hi == 1.5).any()
    spread = profile.k_phi * (2 * half[:, 0]) ** profile.alpha
    thr = np.asarray(profile.phi(c)) - spread * rng.uniform(-0.5, 2.0, nb)
    contained, unresolved = got = _min_phi_decisions(profile, lo, hi, thr, _max_points(profile))
    assert _same(got, _per_cube(profile, lo, hi, thr, _max_points(profile)))
    assert contained.any() and (~contained & ~unresolved).any()


@pytest.mark.parametrize("profile", [hl.profile_flat(2.0), hl.profile_flat(6.5, ell=3),
                                     hl.profile_flat(2.0, n=3)],
                         ids=["flat", "flat_three", "flat3"])
def test_pruned_decision_flat_profiles(profile):
    # K = 0: the modulus vanishes and the margin alone separates the blocks
    d = profile.n - 1
    level = float(profile.phi(np.zeros((1, d)))[0])
    L = 1.5 * float(profile.ell)
    rng = np.random.default_rng(29)
    thr = np.array([level, np.nextafter(level, np.inf), np.nextafter(level, -np.inf),
                    level * (1 + 1e-9), level * (1 - 1e-9), level - 1.0, level + 1.0] * 3)
    c = rng.uniform(-L, L, (len(thr), d))
    half = 2.0 ** rng.uniform(-9, 0, (len(thr), 1))
    lo, hi = np.maximum(c - half, -L), np.minimum(c + half, L)
    got = _min_phi_decisions(profile, lo, hi, thr, _max_points(profile))
    assert _same(got, _per_cube(profile, lo, hi, thr, _max_points(profile)))
    assert np.array_equal(got[0], thr <= level) and not got[1].any()


def test_pruned_decision_certifies_from_few_points():
    # a rough box certified only at the last round, m = 16384: the full grids
    # take 32764 points, the pruned search a small share of them
    profile = hl.profile_rough()
    lo, hi = np.array([-0.3]), np.array([0.3])
    m = 1 << 14
    thr = _grid_values(profile, lo, hi, m).min() - _grid_modulus(profile, lo, hi, m)
    counted, calls = _counting(profile)
    assert min_phi_decision(counted, lo, hi, thr) is True
    full, calls[0] = calls[0], 0
    assert full == sum(2 ** k for k in range(2, 15))
    assert _same(_min_phi_decisions(counted, lo[None], hi[None], [thr]), ([True], [False]))
    assert calls[0] <= full // 20


def test_pruned_decision_on_kinks_at_the_holder_bound():
    # phi = 2.2 + min(|x - a|, |x - b|)^(1/2) / 2 meets its Holder bound at
    # both kinks: a = 1/128 is a grid midpoint at m = 64, b sits 1e-5 left of
    # the grid line 1/2. From m = 128 on, the samples beside b keep every
    # full grid from certifying, so the box stays open. After m = 64 the
    # bound of b's block clears thr but not thr + K h^alpha: pruning it on
    # the bound alone would let a's samples certify the box at m = 128.
    a, b, thr = 1 / 128, 0.5 - 1e-5, 2.2 - 3.4e-5
    profile = hl.HolderProfile(
        alpha=0.5, k_phi=0.5, ell=Fraction(1),
        phi=lambda x: 2.2 + 0.5 * np.sqrt(np.minimum(np.abs(x[:, 0] - a), np.abs(x[:, 0] - b))))
    lo, hi = np.array([[0.0]]), np.array([[1.0]])
    got = _min_phi_decisions(profile, lo, hi, [thr])
    assert _same(got, _per_cube(profile, lo, hi, [thr]))
    assert got[1].tolist() == [True]


def _nan_right_of_one():
    """The demo profile with phi NaN right of x = 1."""
    demo = hl.profile_demo()
    return dataclasses.replace(demo, phi=lambda x: np.where(x[:, 0] > 1.0, np.nan, demo.phi(x)))


def test_pruned_decision_keeps_nan_samples():
    # phi is NaN right of x = 1: the full grid decides no box with a NaN
    # sample, so no block holding one may be pruned away
    profile = _nan_right_of_one()
    lo = np.array([[0.9], [1.2], [-0.2], [0.5]])
    hi = np.array([[1.1], [1.4], [0.2], [1.02]])
    thr = np.array([2.0, 2.0, 2.0, 2.35])
    got = _min_phi_decisions(profile, lo, hi, thr)
    assert _same(got, _per_cube(profile, lo, hi, thr))
    assert got[1].tolist() == [True, True, False, True]
    # a budget whose every round runs while each box is still one block
    got = _min_phi_decisions(profile, lo, hi, thr, BLOCK_SIDE[1])
    assert _same(got, _per_cube(profile, lo, hi, thr, BLOCK_SIDE[1]))


def test_rough_depth8_phi_points(rough_cov8):
    # the full midpoint grids took 8 928 612 phi points for this covering,
    # the pruned grids one containment call per level 475 924 points in 481
    # calls; one call per column batch of a size class takes about 227 000
    # points in about 100 calls
    counted, calls = _counting(hl.profile_rough())
    cov = hl.build_covering(counted, depth_max=8)
    assert np.array_equal(cov.cell, rough_cov8.cell) and tuple(cov.tree.parent) == tuple(rough_cov8.tree.parent)
    assert calls[0] <= 300_000 and calls[1] <= 150


def _same_covering(got, want):
    # want: the level oracle's covering and the breadth-first step of each
    # cube, which is the tree depth
    cov = want.covering
    return (np.array_equal(got.tree.parent, cov.tree.parent)
            and np.array_equal(got.tree.depth, want.level)
            and np.array_equal(got.size_class, cov.size_class)
            and np.array_equal(got.cell, cov.cell) and got.inconclusive == cov.inconclusive)


def _column_profile(which):
    return {"flat": hl.profile_flat,
            "rough3": lambda: hl.profile_rough(n=3),
            "rough_other": lambda: hl.profile_rough(scales=9, amplitude=0.3)}.get(
                which, lambda: _profile(which))()


@pytest.mark.parametrize("which,depth", [
    *[("rough", d) for d in range(9)], ("rough_other", 7),
    *[("demo", d) for d in range(9)], ("flat", 4), ("flat_third", 4),
    ("demo3", 3), ("flat3", 3), ("rough3", 3)])
def test_column_build_matches_level_oracle(which, depth):
    # containment decided per column of stacked cubes, replayed level by
    # level, against one containment call per breadth-first level
    profile = _column_profile(which)
    assert _same_covering(hl.build_covering(profile, depth), build_by_levels(profile, depth))


@pytest.mark.parametrize("batch", [1, 2, 16])
@pytest.mark.parametrize("which,depth", [("rough", 8), ("demo", 6), ("demo3", 3)])
def test_column_build_across_batches(monkeypatch, batch, which, depth):
    # narrow batches make every column span several containment calls
    profile = _column_profile(which)
    want = build_by_levels(profile, depth)
    monkeypatch.setattr(covering, "COLUMN_BATCH", batch)
    assert _same_covering(hl.build_covering(profile, depth), want)


@pytest.mark.parametrize("which", ["demo", "rough", "demo3"])
def test_shared_box_decisions_match_per_test_oracle(which):
    # the thresholds of test_pruned_decision_at_grid_value_thresholds, all
    # of a box's on that one box and in scrambled test order: a block kept
    # for one threshold sits right beside another's decisive samples, and
    # each test still gets its own box's full-grid decision
    profile = _profile(which)
    d = profile.n - 1
    rng = np.random.default_rng(37)
    lo, hi, thr, box = [], [], [], []
    for b in range(4):
        c = rng.uniform(-1.4, 1.4, d)
        half = 2.0 ** rng.uniform(-8, -1)
        lo.append(np.maximum(c - half, -1.5))
        hi.append(np.minimum(c + half, 1.5))
        for m in ([4, 64, 1024, 8192] if d == 1 else [4, 16, 64]):
            vals = _grid_values(profile, lo[b], hi[b], m)
            mod = _grid_modulus(profile, lo[b], hi[b], m)
            for t in (vals.min(), vals.min() - mod, rng.choice(vals)):
                thr += [t, np.nextafter(t, np.inf), np.nextafter(t, -np.inf)]
                box += [b] * 3
    lo, hi = np.array(lo), np.array(hi)
    order = rng.permutation(len(box))
    box, thr = np.array(box)[order], np.array(thr)[order]
    got = _min_phi_decisions(profile, lo, hi, thr, _max_points(profile), box=box)
    assert _same(got, _per_cube(profile, lo[box], hi[box], thr, _max_points(profile)))
    contained, unresolved = got
    assert contained.any() and (~contained & ~unresolved).any()


def test_shared_box_decisions_keep_nan_samples():
    # the boxes of test_pruned_decision_keeps_nan_samples, each with its own
    # threshold and two more
    profile = _nan_right_of_one()
    lo = np.array([[0.9], [1.2], [-0.2], [0.5]])
    hi = np.array([[1.1], [1.4], [0.2], [1.02]])
    thr = np.array([2.0, 2.0, 2.0, 2.35, 1.9, 2.5, 2.1, 2.2, 2.05, 2.3, 2.45, 2.4])
    box = np.array([0, 1, 2, 3, 0, 1, 2, 3, 2, 0, 3, 2])
    got = _min_phi_decisions(profile, lo, hi, thr, box=box)
    assert _same(got, _per_cube(profile, lo[box], hi[box], thr))
    assert got[1][:4].tolist() == [True, True, False, True]


@pytest.mark.parametrize("which,depth", [("demo", 8), ("rough", 8), ("demo3", 3), ("flat3", 3)])
def test_covering_matches_per_cube_build(which, depth, request):
    if which in ("demo", "rough"):
        batched = request.getfixturevalue(f"{which}_cov{depth}")
    else:
        batched = hl.build_covering(_profile(which), depth_max=depth)
    assert _oracle(which, depth).to_json() == row_export(batched.to_json())


@pytest.mark.parametrize("which,depth", [("rough", 8), ("flat3", 3), ("flat_third", 4)])
def test_columnar_export_reads_back(which, depth, request):
    # the export alone rebuilds the tree, the cells and every float box
    if which == "rough":
        cov = request.getfixturevalue("rough_cov8")
    else:
        cov = hl.build_covering(_profile(which), depth_max=depth)
    doc = json.loads(json.dumps(cov.to_json()))
    cubes = doc["cubes"]
    assert sorted(cubes) == ["cell", "level", "parent", "size_class"]
    assert len(cubes["cell"]) == cov.n
    columns = [cubes["level"], cubes["parent"], cubes["size_class"], *cubes["cell"]]
    assert all(len(col) == cov.tree.n for col in columns)
    assert hl.RootedTree(cubes["parent"]) == cov.tree
    assert np.array_equal(np.array(cubes["cell"]).T, cov.cell)
    assert np.array_equal(cubes["level"], cov.tree.depth)
    assert np.array_equal(cubes["size_class"], cov.size_class)
    edges = [Fraction(*e) for e in doc["class_edge"]]
    assert edges == list(cov.class_edge)
    half = Fraction(*doc["ell"]) / 2
    oracle = _oracle(which, depth)
    for t, (c, *cell) in enumerate(zip(cubes["size_class"], *cubes["cell"])):
        h = edges[c]
        *base, k = cell
        lo = [-half + i * h for i in base] + [k * h]
        want_lo, want_hi = oracle.box(t)
        assert [float(x) for x in lo] == want_lo.tolist()
        assert [float(x + h) for x in lo] == want_hi.tolist()


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
    doc = cov.to_json()
    assert row_export(doc) == oracle.to_json()
    assert check_disjoint_and_coverage(cov) == disjoint_and_coverage(doc)
    lows, highs = cov.corners
    for t in range(cov.tree.n):
        lo, hi = oracle.box(t)
        assert lows[t].tobytes() == lo.tobytes() and highs[t].tobytes() == hi.tobytes()
    rng = np.random.default_rng(11)
    L = float(profile.ell)
    pts = np.column_stack([rng.uniform(-0.7 * L, 0.7 * L, (3000, cov.n - 1)),
                           rng.uniform(-0.2 * L, 3.2 * L, 3000)])
    pick = np.where(rng.integers(0, 2, (cov.tree.n, cov.n)) == 1, lows, highs)
    pts = np.concatenate([pts, pick, lows, highs, oracle.centers()])
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
    assert rough_cov8.tree.n == 3165
    assert rough_cov8.inconclusive == 114
    doc = json.dumps(row_export(rough_cov8.to_json()), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(doc.encode()).hexdigest() == ROUGH8_SHA256


# sha256 of the cells, parents, levels and inconclusive count, as the
# full-grid containment test built them
ROUGH10_SHA256 = "6a47c30b98bb128d1b1754aec0b59a70e28dfd8d8485977ad722e21ec9eaad4f"


def test_rough_depth10_covering_pinned(rough_cov10):
    digest = hashlib.sha256(rough_cov10.cell.tobytes())
    digest.update(np.asarray(rough_cov10.tree.parent, dtype=np.int64).tobytes())
    digest.update(rough_cov10.tree.depth.tobytes())      # the level column
    digest.update(str(rough_cov10.inconclusive).encode())
    assert (rough_cov10.tree.n, rough_cov10.inconclusive) == (22751, 1132)
    assert digest.hexdigest() == ROUGH10_SHA256


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
    for p, j, cell in extra:
        parent.append(new[p])
        size_class.append(j)
        cells.append(cell)
    return CubeCovering(cov.profile, hl.RootedTree(parent), np.array(size_class),
                        np.array(cells), cov.depth_max)


def test_disjoint_and_coverage_catch_broken_coverings():
    cov = hl.build_covering(hl.profile_demo(), depth_max=4)
    tree = cov.tree
    everything = list(range(tree.n))
    rep = check_disjoint_and_coverage(_covering_of(cov, everything))
    assert rep["disjoint"] and rep["coverage_exact"]
    # a leaf whose parent split, so the parent stays an inner cube without it
    children = children_of(tree)
    leaf = next(t for t in reversed(tree.leaves) if len(children[tree.parent[t]]) > 1)
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
    e = cov.class_edge[j]
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

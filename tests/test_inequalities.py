import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import hardy_lab as hl
import hardy_lab.inequalities as ineq
from hardy_lab.decomp import CellFunction, DecompositionError, space_from_covering

from oracles import FractionCovering, local_run


# -- test function catalog --------------------------------------------------------

def test_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.uniform(-0.4, 0.4, 60), rng.uniform(0.2, 0.9, 60)])
    d = np.full(60, 0.5)
    for f in (hl.f_linear(), hl.f_bilinear(),
              hl.f_distance_power(hl.profile_demo(), 2.0),
              hl.u_rigid_rotation(), hl.u_shear()):
        assert hl.check_gradient(f, pts, d) < 1e-6


def test_check_gradient_catches_wrong_derivative():
    bad = hl.TestFunction("bad", lambda x: x[:, 0] ** 2,
                          lambda x: np.ones_like(x))
    pts = np.array([[0.3, 0.5]])
    with pytest.raises(ValueError):
        hl.check_gradient(bad, pts, np.array([0.5]))


# -- improved Poincare -------------------------------------------------------------

def test_poincare_constant_function_zero(flat_cov0):
    const = hl.TestFunction("const", lambda x: np.full(len(x), 5.0),
                            lambda x: np.zeros_like(x))
    rep = hl.inequality_ratio("improved_poincare", const, flat_cov0, 0.0, 2.0,
                              samples=5000, seed=1)
    assert rep.ratio == 0.0 and not rep.flags


def test_poincare_unit_square_oracle(flat_cov0):
    rep = hl.inequality_ratio("improved_poincare", hl.f_linear(), flat_cov0,
                              beta=0.0, p=2.0, samples=200_000, seed=0)
    assert rep.ratio == pytest.approx(math.sqrt(1 / 12), rel=0.02)
    assert rep.spread < 0.02


def test_poincare_scaling_invariance(flat_cov0):
    lam = 7.0
    f = hl.f_linear()
    g = hl.TestFunction("scaled", lambda x: lam * f.value(x),
                        lambda x: lam * f.gradient(x))
    r1 = hl.inequality_ratio("improved_poincare", f, flat_cov0, 0.0, 2.0,
                             samples=20_000, seed=3)
    r2 = hl.inequality_ratio("improved_poincare", g, flat_cov0, 0.0, 2.0,
                             samples=20_000, seed=3)
    assert r2.lhs == pytest.approx(lam * r1.lhs, rel=1e-12)
    assert r2.ratio == pytest.approx(r1.ratio, rel=1e-12)


def test_ratio_reproduced_within_recorded_spread(flat_cov0):
    # deterministic seeds: an independent third seed lands within the
    # two-run spread recorded by the report
    f = hl.f_linear()
    rep = hl.inequality_ratio("improved_poincare", f, flat_cov0, 0.0, 2.0,
                              samples=50_000, seed=20)
    other = hl.inequality_ratio("improved_poincare", f, flat_cov0, 0.0, 2.0,
                                samples=50_000, seed=22)
    assert abs(rep.ratio - other.ratio) / rep.ratio <= rep.spread
    assert not rep.low_confidence


# (kind, function, beta, keyword arguments, lhs, rhs) on demo_cov6 at p = 2,
# as computed by the per-cell sampler that located each pair by a tree walk
PINNED = [
    ("fractional_poincare", hl.f_linear, 0.0,
     dict(s=0.5, tau=0.5, samples=10 ** 5, seed=1),
     0.43462343403944315, 1.1049646312020638),
    ("fractional_poincare", hl.f_bilinear, -0.2,
     dict(s=0.4, tau=0.9, samples=20_000, seed=7),
     0.8816948258782631, 0.9779718441434285),
    ("improved_poincare", hl.f_bilinear, 0.0, dict(samples=20_000, seed=4),
     0.58080043989088, 1.2628969719325163),
    ("korn", hl.u_shear, 0.0, dict(samples=20_000, seed=0),
     2.9738841458317324, 9.218376629409157),
]


@pytest.mark.parametrize("kind,make,beta,kw,lhs,rhs", PINNED,
                         ids=[f"{c[0]}-{c[1].__name__}" for c in PINNED])
def test_ratios_bit_identical_to_pinned(demo_cov6, kind, make, beta, kw, lhs, rhs):
    rep = hl.inequality_ratio(kind, make(), demo_cov6, beta, 2.0, **kw)
    assert (rep.lhs, rep.rhs) == (lhs, rhs)


def test_fractional_vectorised_matches_tree_walk(demo_cov6):
    # the same sampler with point location done one pair at a time by the
    # reference tree walk gives the same bits
    walk = dataclasses.replace(demo_cov6)
    oracle = FractionCovering(hl.profile_demo(), 6)
    walk.locate = lambda y: np.array([oracle.locate(x) for x in y])
    f = hl.f_bilinear()
    kw = dict(s=0.5, tau=0.7, samples=20_000, seed=4)
    a = hl.inequality_ratio("fractional_poincare", f, demo_cov6, 0.1, 2.0, **kw)
    b = hl.inequality_ratio("fractional_poincare", f, walk, 0.1, 2.0, **kw)
    assert (a.lhs, a.rhs, a.rejected_frac) == (b.lhs, b.rhs, b.rejected_frac)


# -- the streamed local sampler against the all-cells-kept one -------------------------

@pytest.fixture(scope="module")
def local_coverings(demo_cov6):
    return {"demo6": demo_cov6,
            "rough6": hl.build_covering(hl.profile_rough(), depth_max=6),
            "demo3d3": hl.build_covering(hl.profile_demo(n=3), depth_max=3)}


LOCAL_FUNCTIONS = {"poincare-bilinear": ("improved_poincare", lambda n: hl.f_bilinear()),
                   "korn-shear": ("korn", hl.u_shear),
                   "korn-rotation": ("korn", hl.u_rigid_rotation)}


@pytest.mark.parametrize("beta,p", [(0.0, 2.0), (0.3, 3.0), (-0.2, 1.5)])
@pytest.mark.parametrize("d_mode", ["cell", "graph"])
@pytest.mark.parametrize("function", LOCAL_FUNCTIONS)
@pytest.mark.parametrize("name", ["demo6", "rough6", "demo3d3"])
def test_local_run_matches_all_cells_kept(local_coverings, name, function, d_mode,
                                          beta, p):
    cov = local_coverings[name]
    if d_mode == "graph":
        # the exact graph distance searches a grid per point, seconds per pass
        # on the 3-D covering; the vertical gap to the graph is a per-point d
        # through the same code path (the exact one is checked below)
        phi = cov.profile.phi
        cov = dataclasses.replace(cov)
        cov.graph_distance = lambda x: phi(x[:, :-1]) - x[:, -1]
    kind, make = LOCAL_FUNCTIONS[function]
    f = make(cov.n)
    rep = hl.inequality_ratio(kind, f, cov, beta, p, samples=3000, seed=3, d_mode=d_mode)
    assert (rep.lhs, rep.rhs) == local_run(kind, f, cov, beta, p, 3000, 3, d_mode)


def test_local_run_matches_all_cells_kept_exact_graph_distance(demo_cov6):
    f = hl.u_shear()
    rep = hl.inequality_ratio("korn", f, demo_cov6, -0.2, 2.0, samples=2000, seed=5,
                              d_mode="graph")
    assert (rep.lhs, rep.rhs) == local_run("korn", f, demo_cov6, -0.2, 2.0, 2000, 5,
                                           "graph")


def test_korn_sampler_memory(demo_cov6):
    # each cell is reduced as it is drawn and keeps only (w, d^{beta p}, J)
    # for the mean projection; keeping every cell's arrays peaked at 27.9 MB
    f = hl.u_shear()
    tracemalloc.start()
    try:
        hl.inequality_ratio("korn", f, demo_cov6, 0.0, 2.0, samples=200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 18 * 2 ** 20


@pytest.mark.parametrize("m", [1, 7, 10 ** 5])
@pytest.mark.parametrize("shape,axis", [((2,), 1), ((3,), 1),
                                        ((2, 2), (1, 2)), ((3, 3), (1, 2))])
def test_sum_squares_matches_numpy_norm(shape, axis, m):
    # magnitudes over e^{+-20} and exact zeros make the sum order show in the
    # bits; a numpy whose add.reduce orders a short run differently fails here
    rng = np.random.default_rng(7)
    x = rng.standard_normal((m, *shape)) * np.exp(rng.uniform(-20.0, 20.0, (m, *shape)))
    x[rng.random(x.shape) < 0.1] = 0.0
    cols = x.reshape(m, -1).T
    got = np.sqrt(ineq._sum_squares(cols, len(cols)))
    np.testing.assert_array_equal(got, np.linalg.norm(x, axis=axis))


# -- input validation ------------------------------------------------------------------

BAD_INPUTS = {
    "p-zero": ("improved_poincare", dict(p=0.0)),
    "p-negative": ("improved_poincare", dict(p=-1.0)),
    "p-below-one": ("korn", dict(p=0.5)),
    "p-nan": ("improved_poincare", dict(p=math.nan)),
    "p-inf": ("korn", dict(p=math.inf)),
    "beta-nan": ("improved_poincare", dict(beta=math.nan)),
    "beta-inf-fractional": ("fractional_poincare", dict(beta=math.inf)),
    "samples-negative": ("improved_poincare", dict(samples=-5)),
    "samples-zero": ("korn", dict(samples=0)),
    "d_mode-unknown": ("improved_poincare", dict(d_mode="bogus")),
    "d_mode-unknown-fractional": ("fractional_poincare", dict(d_mode="bogus")),
}


@pytest.fixture
def no_drawing(monkeypatch):
    def refuse(seed, cell):
        raise AssertionError("a sample stream was opened")
    monkeypatch.setattr(ineq, "_cell_rng", refuse)


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_inputs_raise_before_drawing(demo_cov6, no_drawing, case):
    kind, bad = BAD_INPUTS[case]
    f = hl.u_shear() if kind == "korn" else hl.f_linear()
    args = dict(beta=0.0, p=2.0, samples=1000, seed=0)
    if kind == "fractional_poincare":
        args.update(s=0.5, tau=0.5)
    args.update(bad)
    with pytest.raises(ValueError):
        hl.inequality_ratio(kind, f, demo_cov6, **args)


@pytest.mark.parametrize("case", ["p-zero", "beta-nan", "samples-zero"])
def test_sweep_bad_inputs_raise_before_drawing(demo_cov6, no_drawing, case):
    _, bad = BAD_INPUTS[case]
    args = dict(p=2.0, samples=1000)
    args.update((k, v) for k, v in bad.items() if k != "beta")
    grid = [bad.get("beta", 0.0)]
    with pytest.raises(ValueError):
        hl.parameter_sweep("improved_poincare", hl.f_linear(), demo_cov6, grid, **args)


def test_p_one_accepted(demo_cov6):
    rep = hl.inequality_ratio("improved_poincare", hl.f_bilinear(), demo_cov6, 0.0, 1.0,
                              samples=2000, seed=2)
    assert math.isfinite(rep.ratio) and rep.ratio > 0


# -- Korn ---------------------------------------------------------------------------

def test_korn_rigid_rotation_in_kernel(flat_cov0):
    rep = hl.inequality_ratio("korn", hl.u_rigid_rotation(), flat_cov0, 0.0, 2.0,
                              samples=5000, seed=0)
    assert rep.ratio == 0.0


def test_korn_shear_finite(demo_cov6):
    rep = hl.inequality_ratio("korn", hl.u_shear(), demo_cov6, 0.0, 2.0,
                              samples=20_000, seed=0)
    assert 0 < rep.ratio < 10
    assert rep.spread < 0.1


def test_korn_requires_vector_field(flat_cov0):
    with pytest.raises(ValueError):
        hl.inequality_ratio("korn", hl.f_linear(), flat_cov0, 0.0, 2.0)
    with pytest.raises(ValueError):
        hl.inequality_ratio("improved_poincare", hl.u_shear(), flat_cov0, 0.0, 2.0)


# -- fractional ----------------------------------------------------------------------

def test_fractional_needs_parameters(demo_cov6):
    with pytest.raises(ValueError):
        hl.inequality_ratio("fractional_poincare", hl.f_linear(), demo_cov6,
                            0.0, 2.0)


def test_fractional_finite_and_reproducible(demo_cov6):
    f = hl.f_linear()
    r1 = hl.inequality_ratio("fractional_poincare", f, demo_cov6, 0.0, 2.0,
                             s=0.5, tau=0.5, samples=20_000, seed=5)
    r2 = hl.inequality_ratio("fractional_poincare", f, demo_cov6, 0.0, 2.0,
                             s=0.5, tau=0.5, samples=20_000, seed=5)
    assert math.isfinite(r1.ratio) and r1.ratio > 0
    assert r1.lhs == r2.lhs and r1.rhs == r2.rhs


def test_fractional_rejected_fraction_unit_square(flat_cov0):
    # d = 1 and tau = 1/2 on the unit square: r is uniform on [0, 1/2] when
    # kappa = p (1 - s) = 1, and a step of length r leaves the square with
    # probability (4 r - r^2) / pi, so on average 11 / (12 pi)
    rep = hl.inequality_ratio("fractional_poincare", hl.f_linear(), flat_cov0,
                              0.0, 2.0, s=0.5, tau=0.5, samples=20_000, seed=13)
    assert rep.rejected_frac == pytest.approx(11 / (12 * math.pi), abs=0.01)
    assert rep.to_json()["rejected_frac"] == rep.rejected_frac
    local = hl.inequality_ratio("improved_poincare", hl.f_linear(), flat_cov0,
                                0.0, 2.0, samples=1000, seed=13)
    assert local.rejected_frac is None


def test_fractional_graph_distance_mode_smoke(demo_cov6):
    # exact graph distance for d(x) and d(y): small, deterministic, and equal
    # to the value the per-cell sampler gave
    rep = hl.inequality_ratio("fractional_poincare", hl.f_linear(), demo_cov6,
                              0.0, 2.0, s=0.5, tau=0.5, samples=300, seed=13,
                              d_mode="graph")
    assert (rep.lhs, rep.rhs) == (0.407637972735449, 1.8826830690203658)
    assert 0.0 < rep.rejected_frac < 1.0


def test_sample_count_reports_points_drawn(demo_cov6):
    # both samplers draw at least one point in each of the 305 cells
    assert demo_cov6.tree.n == 305
    for kind, extra in (("fractional_poincare", {"s": 0.5, "tau": 0.5}),
                        ("improved_poincare", {})):
        rep = hl.inequality_ratio(kind, hl.f_linear(), demo_cov6, 0.0, 2.0,
                                  samples=300, seed=13, **extra)
        assert rep.sample_count == 305
    rep = hl.inequality_ratio("improved_poincare", hl.f_linear(), demo_cov6, 0.0, 2.0,
                              samples=400, seed=13)
    assert rep.sample_count == 400


def test_fractional_tau_restricts_pairs(demo_cov6):
    # shrinking tau shrinks the admissible pair set, hence the seminorm
    f = hl.f_bilinear()
    wide = hl.inequality_ratio("fractional_poincare", f, demo_cov6, 0.0, 2.0,
                               s=0.4, tau=0.9, samples=30_000, seed=6)
    narrow = hl.inequality_ratio("fractional_poincare", f, demo_cov6, 0.0, 2.0,
                                 s=0.4, tau=0.2, samples=30_000, seed=6)
    assert narrow.rhs < wide.rhs


# -- sweeps --------------------------------------------------------------------------

def test_sweep_empty_grid(demo_cov6):
    assert hl.parameter_sweep("improved_poincare", hl.f_linear(), demo_cov6,
                              [], 2.0) == []


def test_sweep_classical_endpoints(demo_cov6):
    # beta = 0 and beta = 1 - alpha, the two classical regime endpoints
    alpha = demo_cov6.profile.alpha
    rows = hl.parameter_sweep("improved_poincare", hl.f_bilinear(), demo_cov6,
                              [0.0, 1.0 - alpha], 2.0, samples=20_000, seed=7)
    assert [r.beta for r in rows] == [0.0, 0.5]
    for r in rows:
        assert math.isfinite(r.report.ratio)
        assert not r.below_threshold


def test_sweep_threshold_marking(demo_cov6):
    rows = hl.parameter_sweep("improved_poincare", hl.f_bilinear(), demo_cov6,
                              [-0.2, -0.3], 2.0, samples=10_000, seed=8)
    assert not rows[0].below_threshold
    assert rows[1].below_threshold


# -- density splitting ----------------------------------------------------------------

def test_density_split_compact_mean_zero(demo_cov6):
    sp = space_from_covering(demo_cov6, beta=-0.2)
    vals = np.zeros(len(sp.vol))
    vols = sp.vol
    vals[0], vals[1] = 1.0, -vols[0] / vols[1]
    rep = hl.density_split(CellFunction(sp, tuple(vals)), -0.2, 2.0, epsilon=1e-9)
    assert rep.psi == 0.0
    assert rep.g.values == pytest.approx(tuple(vals))
    assert rep.estimate_ok


def test_density_split_pure_weight(demo_cov6):
    sp = space_from_covering(demo_cov6, beta=-0.2)
    F = CellFunction(sp, tuple(float(x) for x in sp.ell ** (-0.4)))
    rep = hl.density_split(F, -0.2, 2.0, epsilon=1e-9)
    assert rep.psi == pytest.approx(1.0, abs=1e-14)
    assert max(abs(v) for v in rep.g.values) == 0.0


def test_density_split_zero(demo_cov6):
    sp = space_from_covering(demo_cov6, beta=-0.2)
    rep = hl.density_split(CellFunction(sp, (0.0,) * len(sp.vol)),
                           -0.2, 2.0, epsilon=1e-9)
    assert rep.psi == 0.0 and rep.estimate_ok


def test_density_split_random_estimate(demo_cov6):
    sp = space_from_covering(demo_cov6, beta=-0.2)
    rng = np.random.default_rng(11)
    for _ in range(10):
        F = CellFunction(sp, tuple(rng.standard_normal(len(sp.vol))))
        rep = hl.density_split(F, -0.2, 2.0, epsilon=1e-2)
        assert rep.estimate_ok
        assert abs(rep.g.integral()) <= 1e-10


def test_density_split_epsilon_too_small(demo_cov6):
    sp = space_from_covering(demo_cov6, beta=-0.2)
    rng = np.random.default_rng(12)
    F = CellFunction(sp, tuple(rng.standard_normal(len(sp.vol))))
    with pytest.raises(DecompositionError, match="truncation"):
        hl.density_split(F, -0.2, 2.0, epsilon=0.0)


def test_density_split_noninteger_weight_rejected(demo_cov6):
    sp = space_from_covering(demo_cov6, beta=-0.3)
    F = CellFunction(sp, (1.0,) * len(sp.vol))
    with pytest.raises(DecompositionError, match="integrable"):
        hl.density_split(F, -0.3, 2.0, epsilon=1e-3)


def test_graph_distance_mode_smoke(demo_cov6):
    # the exact-distance diagnostic mode: small sample count, deterministic
    f = hl.f_linear()
    r1 = hl.inequality_ratio("improved_poincare", f, demo_cov6, 0.0, 2.0,
                             samples=300, seed=13, d_mode="graph")
    r2 = hl.inequality_ratio("improved_poincare", f, demo_cov6, 0.0, 2.0,
                             samples=300, seed=13, d_mode="graph")
    assert math.isfinite(r1.ratio) and r1.ratio > 0
    assert r1.lhs == r2.lhs and r1.rhs == r2.rhs


def test_cell_function_mean_zero_flag(demo_cov6):
    from hardy_lab.decomp import random_mean_zero
    sp = space_from_covering(demo_cov6, beta=0.0)
    g = random_mean_zero(sp, np.random.default_rng(14))
    assert g.is_mean_zero()
    assert not CellFunction(sp, (1.0,) * len(sp.vol)).is_mean_zero()


def test_reports_embed_parameters(demo_cov6):
    rep = hl.inequality_ratio("improved_poincare", hl.f_linear(), demo_cov6,
                              0.1, 2.0, samples=5000, seed=9)
    doc = rep.to_json()
    assert doc["params"]["beta"] == 0.1
    assert doc["seed"] == 9
    assert doc["sample_count"] == 5000

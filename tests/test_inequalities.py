import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import hardy_lab as hl
import hardy_lab.inequalities as ineq
from hardy_lab.decomp import CellFunction, DecompositionError, space_from_covering

from oracles import (FractionCovering, check_gradient, fractional_run, local_run,
                     poincare_f_linear_exact)


# -- test function catalog --------------------------------------------------------

def u_rigid_rotation(n: int = 2) -> hl.TestFunction:
    """(x2, -x1, 0, ...): an antisymmetric constant Jacobian, zero strain."""
    def value(x):
        out = np.zeros_like(x)
        out[:, 0] = x[:, 1]
        out[:, 1] = -x[:, 0]
        return out

    def jacobian(x):
        J = np.zeros((len(x), n, n))
        J[:, 0, 1] = 1.0
        J[:, 1, 0] = -1.0
        return J

    return hl.TestFunction("rigid-rotation", value, jacobian=jacobian)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.uniform(-0.4, 0.4, 60), rng.uniform(0.2, 0.9, 60)])
    d = np.full(60, 0.5)
    for f in (hl.f_linear(), hl.f_bilinear(), u_rigid_rotation(), hl.u_shear()):
        assert check_gradient(f, pts, d) < 1e-6


def test_check_gradient_catches_wrong_derivative():
    bad = hl.TestFunction("bad", lambda x: x[:, 0] ** 2,
                          lambda x: np.ones_like(x))
    pts = np.array([[0.3, 0.5]])
    with pytest.raises(ValueError):
        check_gradient(bad, pts, np.array([0.5]))


# -- improved Poincare -------------------------------------------------------------

def test_poincare_constant_function_zero(flat_cov0, demo_cov6):
    const = hl.TestFunction("const", lambda x: np.full(len(x), 5.0),
                            lambda x: np.zeros_like(x))
    rep = hl.inequality_ratio("improved_poincare", const, flat_cov0, 0.0, 2.0,
                              samples=5000, seed=1)
    assert rep.ratio == 0.0 and not rep.flags
    # with unequal weights d^{beta p}, sum 5 d^{beta p} / sum d^{beta p} need
    # not round to 5: the mean is taken of f less its first value, which is
    # exactly 0 here, where lhs came out 9.9e-16 against rhs 0 (ratio inf)
    for kind, extra in (("improved_poincare", {}),
                        ("fractional_poincare", {"s": 0.5, "tau": 0.5})):
        rep = hl.inequality_ratio(kind, const, demo_cov6, 0.3, 3.0,
                                  samples=10 ** 5, seed=3, **extra)
        assert (rep.lhs, rep.ratio, rep.flags) == (0.0, 0.0, ())


def test_poincare_unit_square_oracle(flat_cov0):
    rep = hl.inequality_ratio("improved_poincare", hl.f_linear(), flat_cov0,
                              beta=0.0, p=2.0, samples=200_000, seed=0)
    assert rep.ratio == pytest.approx(math.sqrt(1 / 12), rel=0.02)
    assert rep.spread < 0.02
    lhs, rhs = poincare_f_linear_exact(flat_cov0, 0.0, 2.0)
    assert lhs / rhs == pytest.approx(math.sqrt(1 / 12), rel=1e-14)


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
    # deterministic seeds: the ratio at an independent seed lands within the
    # spread the report records, its one-pass relative standard error
    f = hl.f_linear()
    rep = hl.inequality_ratio("improved_poincare", f, flat_cov0, 0.0, 2.0,
                              samples=50_000, seed=20)
    other = hl.inequality_ratio("improved_poincare", f, flat_cov0, 0.0, 2.0,
                                samples=50_000, seed=22)
    assert abs(rep.ratio - other.ratio) / rep.ratio <= rep.spread
    assert not rep.low_confidence


# (covering, beta, p): at 10^5 samples every depth-6 cell draws at least 10
# points; rough depth 10 runs at 10^6 samples, where many cells draw only
# the one point every cell gets and, near beta = -alpha / p, those small
# cells near the cusp weigh most
EXACT_CASES = ([(name, beta, p) for name in ("demo6", "rough6")
                for beta, p in [(0.0, 2.0), (-0.2, 2.0), (0.3, 2.0),
                                (0.0, 3.0), (-0.2, 3.0), (0.3, 3.0)]]
               + [("rough10", beta, 2.0) for beta in (0.0, -0.2, -0.3)])


@pytest.mark.parametrize("name,beta,p", EXACT_CASES)
def test_poincare_f_linear_matches_exact(local_coverings, name, beta, p):
    # no stratum is left out, so the ratio is off the closed form by
    # sampling error only
    cov = local_coverings[name]
    samples = 10 ** 6 if name == "rough10" else 10 ** 5
    fewest = ineq._allocate(samples, cov.volume_array).min()
    assert fewest == 1 if name == "rough10" else fewest >= 10
    rep = hl.inequality_ratio("improved_poincare", hl.f_linear(), cov, beta, p,
                              samples=samples, seed=0)
    lhs, rhs = poincare_f_linear_exact(cov, beta, p)
    exact = lhs / rhs
    assert rep.spread <= 0.01
    assert abs(rep.ratio - exact) <= 4.0 * rep.spread * exact


# (kind, function, covering, beta, p, keyword arguments)
CALIBRATION = [
    ("improved_poincare", hl.f_linear, "flat0", 0.0, 2.0, {}),
    ("improved_poincare", hl.f_bilinear, "demo6", 0.0, 2.0, {}),
    ("improved_poincare", hl.f_bilinear, "demo6", 0.3, 3.0, {}),
    ("improved_poincare", hl.f_linear, "rough6", -0.2, 1.5, {}),
    ("korn", hl.u_shear, "demo6", 0.0, 2.0, {}),
    ("korn", hl.u_shear, "demo6", 0.0, 3.0, {}),
    ("fractional_poincare", hl.f_linear, "demo6", 0.0, 2.0, dict(s=0.5, tau=0.5)),
    ("fractional_poincare", hl.f_bilinear, "demo6", -0.2, 2.0, dict(s=0.4, tau=0.9)),
]


@pytest.mark.parametrize("kind,make,name,beta,p,kw", CALIBRATION,
                         ids=[f"{c[0]}-{c[1].__name__}-{c[2]}-{c[3]}-{c[4]}" for c in CALIBRATION])
def test_spread_covers_seed_to_seed_scatter(flat_cov0, local_coverings, kind, make, name,
                                            beta, p, kw):
    # spread drops the covariance of the two sides, so it may overstate the
    # scatter (Korn's sides move together), but it must not understate it:
    # the relative sd of the ratio over 40 seeds is at most 1.5 times the
    # median spread
    cov = flat_cov0 if name == "flat0" else local_coverings[name]
    reps = [hl.inequality_ratio(kind, make(), cov, beta, p, samples=5000, seed=seed, **kw)
            for seed in range(40)]
    ratios = np.array([r.ratio for r in reps])
    assert np.std(ratios, ddof=1) / np.mean(ratios) <= 1.5 * np.median([r.spread for r in reps])


# (kind, function, beta, keyword arguments, lhs, rhs) on demo_cov6 at p = 2,
# as computed by the per-stratum sampler that gives every cell a point
PINNED = [
    ("fractional_poincare", hl.f_linear, 0.0,
     dict(s=0.5, tau=0.5, samples=10 ** 5, seed=1),
     0.4350033034356064, 1.103584281154206),
    ("fractional_poincare", hl.f_bilinear, -0.2,
     dict(s=0.4, tau=0.9, samples=20_000, seed=7),
     0.8819033300458036, 0.9740846274948525),
    ("improved_poincare", hl.f_bilinear, 0.0, dict(samples=20_000, seed=4),
     0.5809306275512011, 1.2638153985807496),
    ("korn", hl.u_shear, 0.0, dict(samples=20_000, seed=0),
     2.973960515956374, 9.218109607568035),
]


@pytest.mark.parametrize("kind,make,beta,kw,lhs,rhs", PINNED,
                         ids=[f"{c[0]}-{c[1].__name__}" for c in PINNED])
def test_ratios_bit_identical_to_pinned(demo_cov6, kind, make, beta, kw, lhs, rhs):
    rep = hl.inequality_ratio(kind, make(), demo_cov6, beta, 2.0, **kw)
    assert (rep.lhs, rep.rhs) == (lhs, rhs)


def test_fractional_vectorised_matches_tree_walk(demo_cov6):
    # the same sampler with point location done one pair at a time by the
    # reference tree walk gives the same bits; the walk sees only the pairs
    # that leave their own cube (the rest are checked against it below)
    walk = dataclasses.replace(demo_cov6)
    oracle = FractionCovering(hl.profile_demo(), 6)
    walk.locate = lambda y: np.array([oracle.locate(x) for x in y])
    f = hl.f_bilinear()
    kw = dict(s=0.5, tau=0.7, samples=20_000, seed=4)
    a = hl.inequality_ratio("fractional_poincare", f, demo_cov6, 0.1, 2.0, **kw)
    b = hl.inequality_ratio("fractional_poincare", f, walk, 0.1, 2.0, **kw)
    assert (a.lhs, a.rhs, a.rejected_frac) == (b.lhs, b.rhs, b.rejected_frac)


# -- the block-wise sampler against the all-cells-kept and all-pairs ones -------------

@pytest.fixture(scope="module")
def local_coverings(demo_cov6):
    return {"demo6": demo_cov6,
            "rough6": hl.build_covering(hl.profile_rough(), depth_max=6),
            "rough10": hl.build_covering(hl.profile_rough(), depth_max=10),
            "demo3d3": hl.build_covering(hl.profile_demo(n=3), depth_max=3)}


LOCAL_FUNCTIONS = {"poincare-bilinear": ("improved_poincare", lambda n: hl.f_bilinear()),
                   "korn-shear": ("korn", hl.u_shear),
                   "korn-rotation": ("korn", u_rigid_rotation)}


# both samplers take d(x) = l(Q_t), the edge of x's cell: "cell" in the ids
@pytest.mark.parametrize("beta,p", [(0.0, 2.0), (0.3, 3.0), (-0.2, 1.5)])
@pytest.mark.parametrize("d", ["cell"])
@pytest.mark.parametrize("function", LOCAL_FUNCTIONS)
@pytest.mark.parametrize("name", ["demo6", "rough6", "demo3d3"])
def test_local_run_matches_all_cells_kept(local_coverings, name, function, d, beta, p):
    cov = local_coverings[name]
    kind, make = LOCAL_FUNCTIONS[function]
    f = make(cov.n)
    rep = hl.inequality_ratio(kind, f, cov, beta, p, samples=3000, seed=3)
    lhs, rhs, spread = local_run(kind, f, cov, beta, p, 3000, 3, identity=True)
    assert (rep.lhs, rep.rhs) == (lhs, rhs)
    # the one-pass spread from per-cell sums of x and x^2 is np.var's
    assert rep.spread == pytest.approx(spread, rel=1e-12, abs=0.0)


# the Korn cases of test_local_run_matches_all_cells_kept
@pytest.mark.parametrize("beta,p", [(0.0, 2.0), (0.3, 3.0), (-0.2, 1.5)])
@pytest.mark.parametrize("function", [k for k, (kind, _) in LOCAL_FUNCTIONS.items()
                                      if kind == "korn"])
@pytest.mark.parametrize("name", ["demo6", "rough6", "demo3d3"])
def test_korn_lhs_matches_norm_of_j_minus_mean(local_coverings, name, function, beta, p):
    # the sampler takes |J - A|^2 as |eps|^2 plus half the squared skew
    # differences less 2A; the direct np.linalg.norm(J - A) rounds otherwise
    cov = local_coverings[name]
    f = LOCAL_FUNCTIONS[function][1](cov.n)
    rep = hl.inequality_ratio("korn", f, cov, beta, p, samples=3000, seed=3)
    lhs, rhs, _ = local_run("korn", f, cov, beta, p, 3000, 3)
    assert rep.rhs == rhs
    assert rep.lhs == pytest.approx(lhs, rel=1e-13, abs=0.0)


def _check_units(counts):
    """The sampler's units: runs of whole strata that cover every stratum
    once, in order, with at most BLOCK_POINTS rows each. Returns them with
    the strata's k."""
    _, ks, rows = ineq._strata(counts)
    units = list(ineq._units(rows))
    assert [u.start for u in units] == [0] + [u.stop for u in units[:-1]]
    assert units[-1].stop == len(rows)
    assert all(0 < rows[u].sum() <= ineq.BLOCK_POINTS for u in units)
    return units, ks


def _unit_rows(monkeypatch):
    """Rows of every unit the sampler draws, recorded as it draws them."""
    rows, draw = [], ineq._draw

    def record(cov, cells, ks, m, seed, offsets=False):
        rows.append(int(m.sum()))
        return draw(cov, cells, ks, m, seed, offsets)

    monkeypatch.setattr(ineq, "_draw", record)
    return rows


@pytest.mark.parametrize("d", ["cell"])
@pytest.mark.parametrize("function", LOCAL_FUNCTIONS)
@pytest.mark.parametrize("name", ["demo6", "rough6", "demo3d3"])
def test_local_run_in_small_blocks_matches_all_cells_kept(local_coverings, monkeypatch,
                                                          name, function, d):
    # 3000 samples fit in one block of the default size; blocks of 64 points
    # make runs of many strata, block edges, and cells cut into strata
    monkeypatch.setattr(ineq, "BLOCK_POINTS", 64)
    cov = local_coverings[name]
    counts = ineq._allocate(3000, cov.volume_array)
    units, ks = _check_units(counts)
    assert max(u.stop - u.start for u in units) > 1
    assert ks.max() > 0
    kind, make = LOCAL_FUNCTIONS[function]
    f = make(cov.n)
    rows = _unit_rows(monkeypatch)
    rep = hl.inequality_ratio(kind, f, cov, 0.3, 3.0, samples=3000, seed=3)
    lhs, rhs, spread = local_run(kind, f, cov, 0.3, 3.0, 3000, 3, identity=True)
    assert (rep.lhs, rep.rhs) == (lhs, rhs)
    assert rep.spread == pytest.approx(spread, rel=1e-12, abs=0.0)
    assert 0 < max(rows) <= 64


# (beta, p, s, tau)
FRACTIONAL_CASES = [(0.0, 2.0, 0.5, 0.5), (0.3, 3.0, 0.4, 0.9),
                    (-0.2, 1.5, 0.7, 0.2), (0.1, 1.0, 0.5, 0.7)]


@pytest.mark.parametrize("block_points", [ineq.BLOCK_POINTS, 64])
@pytest.mark.parametrize("samples", [3000, 70_000])
@pytest.mark.parametrize("function", ["f_linear", "f_bilinear"])
@pytest.mark.parametrize("case", FRACTIONAL_CASES, ids=str)
@pytest.mark.parametrize("name", ["demo6", "rough6", "demo3d3"])
def test_fractional_blocks_match_all_pairs(local_coverings, monkeypatch, name, case,
                                           function, samples, block_points):
    # the block-wise pass gives the bits of the pass that draws every pair
    # at once: 3000 samples make blocks of many strata, 70 000 more than
    # one block of the default size, and blocks of 64 points cut cells
    # larger than a block into strata
    monkeypatch.setattr(ineq, "BLOCK_POINTS", block_points)
    cov = local_coverings[name]
    counts = ineq._allocate(samples, cov.volume_array)
    units, ks = _check_units(counts)
    if samples == 3000:
        assert max(u.stop - u.start for u in units) > 1
    else:
        assert len(units) > 1
    if block_points == 64:
        assert ks.max() > 0
    beta, p, s, tau = case
    f = getattr(hl, function)()
    rows = _unit_rows(monkeypatch)
    got = ineq._run("fractional_poincare", f, cov, beta, p, s, tau, samples, 3)
    want = fractional_run(f, cov, beta, p, s, tau, samples, 3)
    assert got[:3] == want[:3]                      # lhs, rhs, rejected_frac
    assert got[3] == pytest.approx(want[3], rel=1e-12, abs=0.0)
    assert 0 < max(rows) <= block_points


def test_scalar_kinds_share_the_lhs(demo_cov6):
    # the fractional pass draws its points first from the same streams and
    # takes the same weighted mean, so its lhs is the improved Poincare one
    for samples in (3000, 10 ** 5):
        args = (hl.f_bilinear(), demo_cov6, -0.2, 1.5)
        frac = hl.inequality_ratio("fractional_poincare", *args, s=0.5, tau=0.5,
                                   samples=samples, seed=4)
        local = hl.inequality_ratio("improved_poincare", *args, samples=samples, seed=4)
        assert frac.lhs == local.lhs


def test_fractional_sampler_memory(demo_cov6):
    # each block of cells is reduced as it is drawn and every per-pair array
    # is dropped once it is used; drawing every pair at once peaked at
    # 9.3 MiB. A first small run builds the covering's cached corners and
    # location index, which are not the sampler's.
    f = hl.f_linear()
    kw = dict(s=0.5, tau=0.5)
    hl.inequality_ratio("fractional_poincare", f, demo_cov6, 0.0, 2.0, samples=1000, **kw)
    tracemalloc.start()
    try:
        hl.inequality_ratio("fractional_poincare", f, demo_cov6, 0.0, 2.0,
                            samples=10 ** 5, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2 ** 20


# -- own-cube-first location of the fractional pairs ----------------------------------

LOCATE_WALKS = {"demo6": lambda: FractionCovering(hl.profile_demo(), 6),
                "rough6": lambda: FractionCovering(hl.profile_rough(), 6),
                "demo3d3": lambda: FractionCovering(hl.profile_demo(n=3), 3)}


def _face_points(cov, t):
    """Points on the boundary of cube t that the half-open rule decides: the
    upper and lower corners, the middle of each upper and each lower face,
    and the upper corner with one coordinate moved to the lower face."""
    lo, hi = cov.corners[0][t], cov.corners[1][t]
    mid = 0.5 * (lo + hi)
    pts = [hi, lo]
    for k in range(cov.n):
        for face in (hi, lo):
            x = mid.copy()
            x[k] = face[k]
            pts.append(x)
        x = hi.copy()
        x[k] = lo[k]
        pts.append(x)
    return pts


@pytest.mark.parametrize("name", LOCATE_WALKS)
def test_locate_own_first_matches_locate_and_tree_walk(local_coverings, monkeypatch, name):
    # the fractional sampler's cell for every pair, found in the pair's own
    # cube first, is the cell locate and the reference tree walk give: for
    # the pairs of a sampler run, and for points on cube faces and corners
    cov = local_coverings[name]
    walk = LOCATE_WALKS[name]()
    locate_own_first = ineq._locate_own_first
    seen = []

    def record(cov_, own, y):
        home = (cov_.corners[0][own] <= y).all(axis=1) & (y < cov_.corners[1][own]).all(axis=1)
        seen.append((home, y.copy(), locate_own_first(cov_, own, y).copy()))
        return own

    monkeypatch.setattr(ineq, "_locate_own_first", record)
    hl.inequality_ratio("fractional_poincare", hl.f_linear(), cov, 0.0, 2.0,
                        s=0.5, tau=0.9, samples=3000, seed=2)
    assert len(seen) == 1                       # one pass of one block at 3000 samples
    home, y, cells = seen[0]
    assert 0.0 < home.mean() < 1.0              # both paths are taken

    rng = np.random.default_rng(5)
    faces = [(t, x) for t in rng.choice(cov.tree.n, size=40, replace=False).tolist()
             for x in _face_points(cov, t)]
    own = np.array([t for t, _ in faces])
    pts = np.array([x for _, x in faces])
    # the same points with a wrong own cube, and a NaN coordinate
    own = np.concatenate([own, rng.permutation(own), [0]])
    pts = np.concatenate([pts, pts, np.full((1, cov.n), np.nan)])
    got = locate_own_first(cov, own.copy(), pts)
    assert np.any(got == own)
    assert np.any((got != own) & (got >= 0))
    assert got[-1] == -1
    for y, cells in ((y, cells), (pts, got)):
        np.testing.assert_array_equal(cells, cov.locate(y))
        assert cells.tolist() == [walk.locate(x) for x in y]


def test_korn_sampler_memory(demo_cov6):
    # each block of cells is reduced as it is drawn and keeps only w and
    # d^{beta p} per cell and |eps|^2 and J - J^T above the diagonal per
    # point for the mean projection; keeping every cell's arrays peaked at
    # 27.9 MB
    f = hl.u_shear()
    tracemalloc.start()
    try:
        hl.inequality_ratio("korn", f, demo_cov6, 0.0, 2.0, samples=200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 18 * 2 ** 20


def test_korn_sampler_keeps_two_numbers_per_point(demo_cov6):
    # in the plane the pass keeps |eps|^2 and J[0, 1] - J[1, 0] of every
    # point, 16 MB at 10^6 samples; it peaked at 17.6 MiB, and at 32.3 MiB
    # when it kept J
    f = hl.u_shear()
    hl.inequality_ratio("korn", f, demo_cov6, 0.0, 2.0, samples=1000)
    tracemalloc.start()
    try:
        hl.inequality_ratio("korn", f, demo_cov6, 0.0, 2.0, samples=10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2 ** 20


def test_poincare_sampler_memory(demo_cov6, flat_cov0):
    # a cell of more than BLOCK_POINTS points is drawn and reduced stratum
    # by stratum, so the peak is the kept f plus one unit's temporaries; drawing
    # each cell whole peaked at 20.9 MiB on demo depth 6 at 10^6 samples
    # and 19.1 MiB on the flat cell at 5 10^5. The bounds are the measured
    # 9.4 and 5.0 MiB plus 2 MiB.
    for cov, f, samples, bound in ((demo_cov6, hl.f_bilinear(), 10 ** 6, 11.5),
                                   (flat_cov0, hl.f_linear(), 5 * 10 ** 5, 7.0)):
        hl.inequality_ratio("improved_poincare", f, cov, 0.0, 2.0, samples=1000)
        tracemalloc.start()
        try:
            hl.inequality_ratio("improved_poincare", f, cov, 0.0, 2.0, samples=samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 2 ** 20


# -- the numpy behaviour the sampler's bits rest on ----------------------------------
# Values over e^{+-20} make the order of every sum show in the bits, so a
# numpy that sums, folds or reduces in another order fails here first.

def _spread(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * np.exp(rng.uniform(-20.0, 20.0, shape))


def test_reduceat_segment_is_first_value_plus_sum_of_rest():
    # each per-stratum sum is one np.add.reduceat segment: the segment's
    # first value plus np.sum of the rest, wherever the segment starts and
    # whatever segments surround it, so grouping strata into units leaves
    # the bits as they are; np.sum of the whole segment adds in another order
    lengths = list(range(1, 301)) + [2 ** 15 - 1, 2 ** 15]
    x = _spread(sum(lengths), 11)
    starts = np.cumsum(lengths) - lengths
    want = [x[a] + np.sum(x[a + 1:a + m]) for a, m in zip(starts.tolist(), lengths)]
    np.testing.assert_array_equal(np.add.reduceat(x, starts), want)
    for shift in (1, 5):                            # the same segments in another unit
        sub = starts[shift:] - starts[shift]
        np.testing.assert_array_equal(np.add.reduceat(x[starts[shift]:], sub), want[shift:])
    whole = [np.sum(x[a:a + m]) for a, m in zip(starts.tolist(), lengths)]
    assert whole != want                            # the order shows


def test_strata_cut_cells_evenly_from_the_cell_stream(monkeypatch):
    # a cell of m points is one stratum up to BLOCK_POINTS, else
    # ceil(m / BLOCK_POINTS) strata k = 0, 1, ... of near-equal rows; stratum
    # 0 draws the stream of (seed, cell), as every cell did before it was cut
    counts = np.array([1, 63, 64, 65, 127, 128, 129, 1000, 2 ** 15 - 1, 2 ** 15,
                       2 ** 15 + 1, 10 ** 5, 455_922])
    for block in (64, 2 ** 15):
        monkeypatch.setattr(ineq, "BLOCK_POINTS", block)
        cells, ks, rows = ineq._strata(counts)
        assert np.all(np.diff(cells) >= 0) and rows.max() <= block
        for t, m in enumerate(counts.tolist()):
            mine = rows[cells == t]
            assert len(mine) == -(-m // block) and mine.sum() == m
            assert mine.max() - mine.min() <= 1
            assert ks[cells == t].tolist() == list(range(len(mine)))
    for seed, t in ((0, 0), (3, 304), (2 ** 40, 22750)):
        ours = ineq._cell_rng(seed, t, 0)
        before = np.random.default_rng(np.random.SeedSequence((seed, t)))
        assert (ours.random(7).tolist(), ours.standard_normal(3).tolist()) == \
            (before.random(7).tolist(), before.standard_normal(3).tolist())
        assert ineq._cell_rng(seed, t, 1).random() != np.random.default_rng(
            np.random.SeedSequence((seed, t))).random()


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
    "s-for-poincare": ("improved_poincare", dict(s=0.5)),
    "tau-for-korn": ("korn", dict(tau=0.5)),
}


@pytest.fixture
def no_drawing(monkeypatch):
    def refuse(seed, cell, k):
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

@pytest.mark.parametrize("samples", [3000, 10 ** 5, 10 ** 6])     # 10^6 cuts cells into strata
@pytest.mark.parametrize("beta,p", [(0.0, 2.0), (0.3, 3.0), (-0.2, 1.5)])
@pytest.mark.parametrize("name", ["flat0", "demo6", "demo3d3"])
def test_korn_rigid_rotation_in_kernel(flat_cov0, local_coverings, name, beta, p, samples):
    # J is the same antisymmetric matrix at every point: the sums of
    # d^{beta p} (J - J^T) are twice those of d^{beta p}, bit for bit, so
    # the mean is J exactly and lhs = rhs = 0 whatever d^{beta p} rounds to
    cov = flat_cov0 if name == "flat0" else local_coverings[name]
    rep = hl.inequality_ratio("korn", u_rigid_rotation(cov.n), cov, beta, p,
                              samples=samples, seed=0)
    assert rep.lhs == 0.0 and rep.ratio == 0.0 and rep.flags == ()


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


def test_sample_count_reports_points_drawn(demo_cov6):
    # both samplers draw max(samples, cells) points, one in every cell and
    # the rest by volume, so with 300 or 3000 samples none of the 305 cells
    # is empty
    assert demo_cov6.tree.n == 305
    for samples, empty in ((300, 0), (3000, 0)):
        counts = ineq._allocate(samples, demo_cov6.volume_array)
        assert (counts.sum(), np.count_nonzero(counts == 0)) == (max(samples, 305), empty)
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
    rep = hl.density_split(CellFunction(sp, vals), -0.2, 2.0, epsilon=1e-9)
    assert rep.psi == 0.0
    assert rep.g.values == pytest.approx(vals)
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
        assert abs(rep.g.values @ sp.vol) <= 1e-10


def test_density_split_epsilon_too_small(demo_cov6):
    sp = space_from_covering(demo_cov6, beta=-0.2)
    rng = np.random.default_rng(12)
    F = CellFunction(sp, tuple(rng.standard_normal(len(sp.vol))))
    with pytest.raises(DecompositionError, match="truncation"):
        hl.density_split(F, -0.2, 2.0, epsilon=0.0)


@pytest.mark.parametrize("beta, p, epsilon, message", [
    (float("nan"), 2.0, 1e-3, "beta must be finite"),
    (float("inf"), 2.0, 1e-3, "beta must be finite"),
    (float("-inf"), 2.0, 1e-3, "beta must be finite"),
    (-0.2, 1.0, 1e-3, "p must be finite"), (-0.2, 0.5, 1e-3, "p must be finite"),
    (-0.2, float("inf"), 1e-3, "p must be finite"), (-0.2, float("nan"), 1e-3, "p must be finite"),
    (-0.2, 2.0, float("nan"), "epsilon must be >= 0"), (-0.2, 2.0, -1e-3, "epsilon must be >= 0"),
    (-0.2, 2.0, float("-inf"), "epsilon must be >= 0"),
], ids=["beta-nan", "beta-inf", "beta-neg-inf", "p-one", "p-half", "p-inf", "p-nan",
        "epsilon-nan", "epsilon-negative", "epsilon-neg-inf"])
def test_density_split_rejects_bad_arguments(demo_cov6, beta, p, epsilon, message):
    sp = space_from_covering(demo_cov6, beta=-0.2)
    F = hl.random_mean_zero(sp, np.random.default_rng(12))
    with pytest.raises(ValueError, match=f"^{message}"):
        hl.density_split(F, beta, p, epsilon=epsilon)


def test_density_split_noninteger_weight_rejected(demo_cov6):
    sp = space_from_covering(demo_cov6, beta=-0.3)
    F = CellFunction(sp, (1.0,) * len(sp.vol))
    with pytest.raises(DecompositionError, match="integrable"):
        hl.density_split(F, -0.3, 2.0, epsilon=1e-3)


def test_random_mean_zero_is_mean_zero(demo_cov6):
    sp = space_from_covering(demo_cov6, beta=0.0)

    def is_mean_zero(values):
        return abs(values @ sp.vol) <= 1e-12 * (np.abs(values) @ sp.vol)

    assert is_mean_zero(hl.random_mean_zero(sp, np.random.default_rng(14)).values)
    assert not is_mean_zero(np.ones(len(sp.vol)))


def test_reports_embed_parameters(demo_cov6):
    rep = hl.inequality_ratio("improved_poincare", hl.f_linear(), demo_cov6,
                              0.1, 2.0, samples=5000, seed=9)
    doc = rep.to_json()
    assert doc["params"]["beta"] == 0.1
    assert doc["seed"] == 9
    assert doc["sample_count"] == 5000

"""Empirical quadrature checkers for the weighted inequalities on the model
domain: improved Poincare, fractional Poincare, and Korn.

These measure lhs/rhs ratios for concrete functions; the inequalities hold
with finite constants, so the checkers report trends, never proofs. Quadrature is
stratified Monte Carlo over the covering cells with per-cell counter-based
seeding: results are deterministic given (seed, sample count), and every
report carries a two-run spread obtained from an independent seed.

Distance to the boundary is the per-cell edge surrogate d = l_t (constant
on each cube), the same essentially-constant equivalence d(x) ~ l(Q_t) the
covering machinery relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .covering import CubeCovering, _check_beta_p
from .decomp import CellFunction, DecompositionError, weighted_q_norm_q


# -- test functions ------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """Closed-form scalar function or vector field with its derivatives."""

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None
    vector: bool = False


def f_linear(axis: int = 0, shift: float = 0.5) -> TestFunction:
    def value(x):
        return x[:, axis] - shift

    def gradient(x):
        g = np.zeros_like(x)
        g[:, axis] = 1.0
        return g

    return TestFunction(f"linear[x{axis}-{shift:g}]", value, gradient)


def f_bilinear() -> TestFunction:
    """x1 * xn + x1^2: a polynomial with a genuinely varying gradient."""
    def value(x):
        return x[:, 0] * x[:, -1] + x[:, 0] ** 2

    def gradient(x):
        g = np.zeros_like(x)
        g[:, 0] = x[:, -1] + 2.0 * x[:, 0]
        g[:, -1] += x[:, 0]
        return g

    return TestFunction("bilinear", value, gradient)


def f_distance_power(profile, gamma: float) -> TestFunction:
    """(phi(x') - xn)^gamma: a distance-power-type function (the vertical gap
    to the graph is comparable to the true distance). Needs profile.dphi."""
    if profile.dphi is None:
        raise ValueError("profile must provide dphi for distance-power functions")

    def value(x):
        return (profile.phi(x[:, :-1]) - x[:, -1]) ** gamma

    def gradient(x):
        gap = profile.phi(x[:, :-1]) - x[:, -1]
        fac = gamma * gap ** (gamma - 1.0)
        g = np.empty_like(x)
        g[:, :-1] = fac[:, None] * profile.dphi(x[:, :-1])
        g[:, -1] = -fac
        return g

    return TestFunction(f"dist^{gamma:g}", value, gradient)


def u_rigid_rotation(n: int = 2) -> TestFunction:
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

    return TestFunction("rigid-rotation", value, jacobian=jacobian, vector=True)


def u_shear(n: int = 2) -> TestFunction:
    """(xn^2, 0, ...): nonzero symmetric gradient, for nontrivial Korn ratios."""
    def value(x):
        out = np.zeros_like(x)
        out[:, 0] = x[:, -1] ** 2
        return out

    def jacobian(x):
        J = np.zeros((len(x), n, n))
        J[:, 0, -1] = 2.0 * x[:, -1]
        return J

    return TestFunction("shear", value, jacobian=jacobian, vector=True)


# -- stratified sampling --------------------------------------------------------

def _allocate(samples: int, vols: np.ndarray) -> np.ndarray:
    """Largest-remainder proportional allocation; the total is exact."""
    raw = samples * vols / vols.sum()
    counts = np.floor(raw).astype(int)
    short = samples - counts.sum()
    if short > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:short]] += 1
    return counts

def _cell_rng(seed: int, cell: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, cell)))

def _sum_squares(cols: Iterable[np.ndarray], count: int) -> np.ndarray:
    """c_0^2 + ... + c_{count-1}^2 over equal-length columns, added in the
    order np.add.reduce uses on a contiguous run of count < 16 values, so
    np.sqrt of it equals np.linalg.norm over those axes bit for bit.

    Below 8 terms numpy adds in sequence; from 8 on it adds the first eight
    as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and the rest in sequence.
    cols is consumed one column at a time and squares go into reused
    buffers, so a generator keeps the transients at a few columns, never
    count of them.
    """
    if not 0 < count < 16:
        raise ValueError(f"need 1 to 15 columns, got {count}")
    it = iter(cols)

    def square(out: np.ndarray | None = None) -> np.ndarray:
        c = next(it)
        return np.multiply(c, c, out=out)

    s = square()
    sq = np.empty_like(s)
    rest = count - 1
    if count >= 8:
        s += square(sq)                             # r0 + r1
        t = square()
        t += square(sq)                             # r2 + r3
        s += t
        t = square(t)
        t += square(sq)                             # r4 + r5
        u = square()
        u += square(sq)                             # r6 + r7
        t += u
        s += t
        rest = count - 8
    for _ in range(rest):
        s += square(sq)
    return s


@dataclass(frozen=True)
class RatioReport:
    kind: str
    lhs: float
    rhs: float
    ratio: float
    sample_count: int                       # points drawn per pass: max(samples, cells),
                                            # by volume; small cells may draw none
    spread: float
    low_confidence: bool
    seed: int
    flags: tuple[str, ...] = ()
    params: dict = field(default_factory=dict)
    rejected_frac: float | None = None      # fractional: pairs with y outside

    def to_json(self) -> dict:
        return {"kind": self.kind, "lhs": self.lhs, "rhs": self.rhs,
                "ratio": self.ratio, "sample_count": self.sample_count,
                "spread": self.spread, "low_confidence": self.low_confidence,
                "seed": self.seed, "flags": list(self.flags),
                "params": self.params, "rejected_frac": self.rejected_frac}


def _ratio_with_flags(lhs: float, rhs: float) -> tuple[float, tuple[str, ...]]:
    if rhs == 0.0:
        if lhs == 0.0:
            return 0.0, ()
        return math.inf, ("inequality_violating_candidate",)
    return lhs / rhs, ()


# The sampler draws and reduces whole cells in blocks of at most this many
# points, for every kind; a cell with more points is a block by itself.
BLOCK_POINTS = 2 ** 15


def _blocks(cells: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
    """cells split into consecutive runs of at most BLOCK_POINTS points
    between them; a cell with more points is a run by itself."""
    runs, start, size = [], 0, 0
    for i, m in enumerate(counts[cells].tolist()):
        if size and size + m > BLOCK_POINTS:
            runs.append(cells[start:i])
            start, size = i, 0
        size += m
    runs.append(cells[start:])
    return runs


def _draw_cells(cov: CubeCovering, cells: np.ndarray, m: np.ndarray, seed: int,
                offsets: bool = False):
    """m[i] uniform points in each cube cells[i], in one (sum m, n) array.

    Each cell draws from its own stream straight into its rows, and the rows
    are mapped to their cubes one column at a time. With offsets, each cell
    also draws u (m[i] uniforms) and g (m[i] x n normals) after its points,
    and (points, u, g) is returned.
    """
    n = cov.n
    ends = np.cumsum(m).tolist()
    pts = np.empty((ends[-1], n))
    if offsets:
        u, g = np.empty(ends[-1]), np.empty((ends[-1], n))
    for t, a, b in zip(cells.tolist(), [0] + ends[:-1], ends):
        rng = _cell_rng(seed, t)
        rng.random(out=pts[a:b])
        if offsets:
            rng.random(out=u[a:b])
            rng.standard_normal(out=g[a:b])
    lows, highs = cov.corners
    for k in range(n):
        col = pts[:, k]
        col *= np.repeat(highs[cells, k] - lows[cells, k], m)
        col += np.repeat(lows[cells, k], m)
    return (pts, u, g) if offsets else pts


def _cell_terms(w: np.ndarray, ends: list[int], v: np.ndarray) -> list[float]:
    """w[i] times np.sum of v over the rows of cell i, where ends are the
    cumulative row counts: one np.sum per cell, since np.add.reduceat adds
    in another order and so gives other bits."""
    return [wt * float(np.sum(v[a:b])) for wt, a, b in zip(w, [0] + ends[:-1], ends)]


def _locate_own_first(cov: CubeCovering, own: np.ndarray, y: np.ndarray) -> np.ndarray:
    """cov.locate(y), testing each point against its cube own[i] first; own
    is overwritten with the result.

    locate returns the cube whose half-open float box [float(lo), float(hi))
    holds the point, and these boxes are pairwise disjoint: two exact cubes
    of the covering are separated along some axis, lo' >= hi there, and
    rounding to float is monotone, so float(lo') >= float(hi) too. A point
    inside its own cube's float box is therefore in no other box, and only
    the rest need the search. A NaN coordinate fails both comparisons and
    is left to locate, which returns -1 for it.
    """
    lows, highs = cov.corners
    home = np.ones(len(y), dtype=bool)
    for k in range(cov.n):
        yk = y[:, k]
        home &= lows[own, k] <= yk
        home &= yk < highs[own, k]
    away = np.flatnonzero(~home)
    own[away] = cov.locate(y[away])
    return own


_SPHERE_AREA = {2: 2.0 * math.pi, 3: 4.0 * math.pi}


def _pair_block(f: TestFunction, cov: CubeCovering, block: np.ndarray,
                m: np.ndarray, seed: int, p: float, s: float, tau: float,
                expo: float) -> tuple[np.ndarray, np.ndarray, int]:
    """f at a block's points x, the rhs integrand of their pairs (x, y) and
    the number of pairs rejected.

    The offset radius is drawn as r = R u^{1/kappa}, kappa = p(1-s), which
    cancels the |x-y| kernel singularity; R = tau d(x) is the tau-ball
    restriction, and a pair leaving the truncated domain gets weight zero.
    Each y is located in the cell of its x first.
    """
    n = cov.n
    kappa = p * (1.0 - s)
    edges = cov.edge_array
    pts, u, g = _draw_cells(cov, block, m, seed, offsets=True)
    c = np.repeat(block, m)                         # the cell of x, then of y
    dx = edges[c]
    R = tau * dx
    r = u
    r **= 1.0 / kappa
    r *= R
    del u
    gn = _sum_squares(g.T, n)
    np.sqrt(gn, out=gn)
    g /= gn[:, None]
    del gn
    g *= r[:, None]
    g += pts
    y = g                                           # x + r * direction
    del g
    c = _locate_own_first(cov, c, y)
    inside = c >= 0
    rejected = len(inside) - int(np.count_nonzero(inside))
    dy = np.zeros(len(y))
    dy[inside] = edges[c[inside]]
    del c
    fv = f.value(pts)
    del pts
    ok = inside & (r > 0)
    del inside
    kern = fv[ok]
    if kern.size:                                   # f is never called on no points
        kern -= f.value(y[ok])
    del y
    np.abs(kern, out=kern)
    kern **= p
    ro = r[ok]
    del r
    kern /= ro ** (n + s * p)
    delta = np.minimum(dx[ok], dy[ok])
    del dx, dy
    delta **= expo
    kern *= delta
    del delta
    dens = ro ** (kappa - 1.0)
    dens *= kappa
    dens /= R[ok] ** kappa
    del R
    kern *= _SPHERE_AREA[n]
    kern *= ro ** (n - 1)
    del ro
    kern /= dens
    del dens
    contrib = np.zeros(len(fv))
    contrib[ok] = kern
    return fv, contrib, rejected


def _run(kind: str, f: TestFunction, cov: CubeCovering, beta: float, p: float,
         s: float | None, tau: float | None, samples: int,
         seed: int) -> tuple[float, float, float | None]:
    """One quadrature pass: lhs, rhs and, for fractional_poincare, the
    fraction of the points drawn whose pair left the domain.

    Cells are drawn and reduced in blocks of whole cells in id order (see
    _blocks); only the rhs integrand and the array kept for the lhs, f or
    J, depend on the kind. The weighted mean (a constant, or Korn's
    antisymmetric part eta) is taken on the same nodes as the norms, so the
    side condition holds exactly on the discrete measure; until it is known
    each block keeps just (w, d^{beta p} once per cell, f or J). math.fsum
    rounds exactly, so the order of the per-cell terms does not matter; each
    per-cell sum is np.sum over the cell's own rows and each Korn mean term
    one einsum over them, as np.add.reduceat or one einsum per block adds
    the same terms in another order, so gives other bits.
    """
    alpha = cov.profile.alpha
    n = cov.n
    vols, edges = cov.volume_array, cov.edge_array
    counts = _allocate(max(samples, cov.tree.n), vols)
    korn, fractional = kind == "korn", kind == "fractional_poincare"
    rhs_expo = (beta + alpha - 1.0 if korn else beta + alpha) * p
    kept, denom_terms, mean_terms, rhs_terms = [], [], [], []
    A = np.zeros((n, n))
    rejected = 0
    # Temporaries are updated in place where that applies the same operation
    # to the same values (so the same bits): fewer large blocks for the
    # allocator to hand back and fault in again. d^{beta p} is made only
    # once the points are dropped, and dropped before the rhs power.
    for block in _blocks(np.flatnonzero(counts), counts):
        m = counts[block]
        ends = np.cumsum(m).tolist()
        w = vols[block] / m
        d = edges[block]
        if fractional:
            v, r, out = _pair_block(f, cov, block, m, seed, p, s, tau,
                                    (s + beta - alpha + 1.0) * p)
            rejected += out
        elif korn:
            v = f.jacobian(_draw_cells(cov, block, m, seed))
        else:
            pts = _draw_cells(cov, block, m, seed)
            v = f.value(pts)
            g = f.gradient(pts)
            del pts
            r = _sum_squares(g.T, n)
            del g
        # d is constant on a cell: one array power per cell, then repeated
        # (never a Python-float pow, whose last bit can differ from numpy's)
        d_beta_p = d ** (beta * p)
        dbp = np.repeat(d_beta_p, m)
        denom_terms += _cell_terms(w, ends, dbp)
        if korn:
            # the weighted-mean antisymmetric part of the Jacobian is removed
            part = v - np.swapaxes(v, 1, 2)
            part *= 0.5                                 # eta
            for wt, a, b in zip(w, [0] + ends[:-1], ends):
                A += wt * np.einsum("i,ijk->jk", dbp[a:b], part[a:b])
            del part, dbp
            eps = ((v[:, j, k] + v[:, k, j]) * 0.5 for j in range(n) for k in range(n))
            r = _sum_squares(eps, n * n)
        else:
            mean_terms += _cell_terms(w, ends, dbp * v)
            del dbp
        if not fractional:                              # r holds |grad f|^2 or |eps|^2
            np.sqrt(r, out=r)
            r **= p
            r *= np.repeat(d ** rhs_expo, m)
        rhs_terms += _cell_terms(w, ends, r)
        del r
        kept.append((w, ends, d_beta_p, m, v))
    denom = math.fsum(denom_terms)
    if korn:
        A /= denom
    else:
        c = math.fsum(mean_terms) / denom
    # last block first, each dropped once its terms are taken, so the largest
    # cell, the root, meets the lhs temporaries alone
    lhs_terms = []
    while kept:
        w, ends, d_beta_p, m, v = kept.pop()
        if korn:
            r = _sum_squares((v[:, j, k] - A[j, k] for j in range(n) for k in range(n)),
                             n * n)
            np.sqrt(r, out=r)
        else:
            r = v - c
            np.abs(r, out=r)
        del v
        r **= p
        r *= np.repeat(d_beta_p, m)
        lhs_terms += _cell_terms(w, ends, r)
    lhs = math.fsum(lhs_terms)
    frac = rejected / int(counts.sum()) if fractional else None
    return lhs ** (1.0 / p), math.fsum(rhs_terms) ** (1.0 / p), frac


KINDS = ("improved_poincare", "fractional_poincare", "korn")


def inequality_ratio(kind: str, f: TestFunction, covering: CubeCovering,
                     beta: float, p: float, s: float | None = None,
                     tau: float | None = None, samples: int = 10 ** 5,
                     seed: int = 0) -> RatioReport:
    """Measured lhs/rhs for one inequality, with a two-seed spread; d is the
    edge l_t of the cell a point lies in.

    ValueError before any drawing unless p is finite with p >= 1, beta is
    finite, samples >= 1, and s, tau are given in (0, 1) for
    fractional_poincare and left unset for the other kinds."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if kind == "fractional_poincare":
        if s is None or tau is None or not (0 < s < 1 and 0 < tau < 1):
            raise ValueError("fractional_poincare needs s, tau in (0, 1)")
    elif s is not None or tau is not None:
        raise ValueError(f"{kind} takes no s or tau")
    if kind == "korn" and not f.vector:
        raise ValueError("korn needs a vector field")
    if kind != "korn" and f.vector:
        raise ValueError(f"{kind} needs a scalar function")
    _check_beta_p(beta, p)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")

    lhs, rhs, rejected = _run(kind, f, covering, beta, p, s, tau, samples, seed)
    lhs2, rhs2, _ = _run(kind, f, covering, beta, p, s, tau, samples, seed + 1)
    ratio, flags = _ratio_with_flags(lhs, rhs)
    ratio2, _ = _ratio_with_flags(lhs2, rhs2)
    if ratio == ratio2 == 0.0 or (math.isinf(ratio) and math.isinf(ratio2)):
        spread = 0.0
    else:
        mid = 0.5 * (ratio + ratio2)
        spread = abs(ratio - ratio2) / mid if mid > 0 and math.isfinite(mid) else math.inf
    params = {"beta": beta, "p": p, "s": s, "tau": tau,
              "alpha": covering.profile.alpha, "function": f.name}
    # every kind shares max(samples, cells) points out by volume (_allocate),
    # which leaves the smallest cells without a point when samples are few
    drawn = max(samples, covering.tree.n)
    return RatioReport(kind, lhs, rhs, ratio, drawn, spread,
                       spread > 0.10, seed, flags, params, rejected)


@dataclass(frozen=True)
class SweepRow:
    beta: float
    below_threshold: bool
    report: RatioReport
    report_small: RatioReport
    growing: bool

    def to_json(self) -> dict:
        return {"beta": self.beta, "below_threshold": self.below_threshold,
                "report": self.report.to_json(),
                "report_small": self.report_small.to_json(),
                "growing": self.growing}


def parameter_sweep(kind: str, f: TestFunction, covering: CubeCovering,
                    beta_grid: Iterable[float], p: float,
                    samples: int = 10 ** 5, seed: int = 0,
                    **kw) -> list[SweepRow]:
    """One RatioReport per beta, run at two sample sizes; growth between the
    sizes near/below beta = -alpha/p is the blow-up diagnostic. The full
    size runs first, so a bad input raises before its row draws a sample."""
    alpha = covering.profile.alpha
    rows = []
    for beta in beta_grid:
        big = inequality_ratio(kind, f, covering, beta, p,
                               samples=samples, seed=seed, **kw)
        small = inequality_ratio(kind, f, covering, beta, p,
                                 samples=max(samples // 4, 1), seed=seed, **kw)
        growing = (math.isfinite(small.ratio) and small.ratio > 0
                   and (not math.isfinite(big.ratio)
                        or big.ratio > 1.25 * small.ratio))
        rows.append(SweepRow(beta, beta * p <= -alpha, big, small, growing))
    return rows


# -- the density splitting -------------------------------------------------------

@dataclass(frozen=True)
class DensityReport:
    g: CellFunction
    psi: float
    epsilon_depth: int          # smallest truncation depth with tail < epsilon
    tail_norm: float
    lhs: float                  # ||g||
    rhs: float                  # ||g + psi d^{beta p}||
    estimate_ok: bool           # lhs <= 2 rhs


def density_split(F: CellFunction, beta: float, p: float,
                  epsilon: float) -> DensityReport:
    """Split F into a compactly supported mean-zero part plus psi d^{beta p}.

    psi = int F / int d^{beta p}; the remainder is cut to the depth-D inner
    region Omega_eps (smallest D whose outside tail is below epsilon) and
    recentered on the root core cell. The estimate
    ||g|| <= 2 ||g + psi d^{beta p}|| in L^q(d^{-beta q}) is evaluated on
    the cells.
    """
    space = F.space
    alpha = space.meta.get("alpha")
    if alpha is None:
        raise DecompositionError("density_split needs a covering-derived space")
    if beta * p <= -alpha:
        raise DecompositionError("d^{beta p} is not integrable: beta p <= -alpha")
    q = p / (p - 1.0)
    tree = space.tree
    dbp = space.ell ** (beta * p)
    omega = space.ell ** beta
    vols = space.vol
    denom = float(dbp @ vols)
    Fv = F.as_array()
    psi = float((Fv * vols).sum()) / denom
    h = Fv - psi * dbp

    depth = tree.depth[np.where(space.connector >= 0, space.connector, space.owner)]
    max_depth = int(depth.max())

    def tail_norm(D):
        out = depth > D
        return float(np.sum(np.abs(h[out]) ** q * omega[out] ** (-q) * vols[out])) ** (1 / q)

    D = next((d for d in range(max_depth + 1) if tail_norm(d) < epsilon), None)
    if D is None:
        raise DecompositionError(
            "epsilon too small: the inner region would exceed the truncation")
    inner = depth <= D
    ball = int(np.flatnonzero(space.owner == tree.root)[0])
    tail_int = float(np.sum(h[~inner] * vols[~inner]))
    g = np.where(inner, h, 0.0)
    g[ball] += dbp[ball] / (dbp[ball] * vols[ball]) * tail_int
    lhs = weighted_q_norm_q(g, omega, vols, q) ** (1 / q)
    rhs = weighted_q_norm_q(g + psi * dbp, omega, vols, q) ** (1 / q)
    gf = CellFunction(space, tuple(g.tolist()))
    return DensityReport(gf, psi, D, tail_norm(D), lhs, rhs,
                         lhs <= 2.0 * rhs * (1 + 1e-12))

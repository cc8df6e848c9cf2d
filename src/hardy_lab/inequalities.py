"""Empirical quadrature checkers for the weighted inequalities on the model
domain: improved Poincare, fractional Poincare, and Korn.

These measure lhs/rhs ratios for concrete functions; the inequalities hold
with finite constants, so the checkers report trends, never proofs. Quadrature is
stratified Monte Carlo over the covering cells with per-cell counter-based
seeding: results are deterministic given (seed, sample count), and every
report carries a two-run spread obtained from an independent seed.

Distance to the boundary defaults to the per-cell edge surrogate d = l_t
(constant on each cube), the same essentially-constant equivalence the
covering machinery relies on; exact graph distance is available as the
"graph" mode for diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .covering import CubeCovering
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


def check_gradient(f: TestFunction, points: np.ndarray, d: np.ndarray,
                   rtol: float = 1e-6) -> float:
    """Max relative deviation of the analytic derivative from central
    differences with step 1e-5 * d(x). Raises when it exceeds rtol."""
    x = np.atleast_2d(points)
    h = 1e-5 * np.asarray(d, dtype=float)
    deriv = f.jacobian(x) if f.vector else f.gradient(x)
    worst = 0.0
    for k in range(x.shape[1]):
        xp = x.copy()
        xm = x.copy()
        xp[:, k] += h
        xm[:, k] -= h
        diff = f.value(xp) - f.value(xm)
        if f.vector:
            fd = diff / (2.0 * h)[:, None]
            exact = deriv[:, :, k]
        else:
            fd = diff / (2.0 * h)
            exact = deriv[:, k]
        scale = np.maximum(np.abs(exact), 1.0)
        worst = max(worst, float(np.max(np.abs(fd - exact) / scale)))
    if worst > rtol:
        raise ValueError(f"gradient of {f.name} deviates from finite differences "
                         f"by {worst:.3e}")
    return worst


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

def _d_values(cov: CubeCovering, edge, pts: np.ndarray, mode: str) -> np.ndarray:
    """d at pts: the cell edge surrogate (one float, or one per point), or the
    distance to the graph."""
    if mode == "cell":
        return np.full(len(pts), edge, dtype=float)
    if mode == "graph":
        return cov.graph_distance(pts)
    raise ValueError(f"unknown distance mode {mode!r}")


@dataclass(frozen=True)
class RatioReport:
    kind: str
    lhs: float
    rhs: float
    ratio: float
    sample_count: int                       # points drawn per pass: max(samples, cells)
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


def _local_run(kind: str, f: TestFunction, cov: CubeCovering, beta: float,
               p: float, samples: int, seed: int, d_mode: str) -> tuple[float, float]:
    """One quadrature pass for the improved Poincare or Korn ratio.

    The weighted-mean projection (scalar constant / antisymmetric matrix)
    is computed on the same nodes as the norms, so the side condition holds
    exactly on the discrete measure.

    Cells are drawn and reduced one at a time in id order. Everything but
    the lhs needs only its own cell, so each cell keeps just the inputs of
    the lhs, (w, d^{beta p}, f) or (w, d^{beta p}, J), until the mean is
    known; math.fsum rounds exactly, so the order of the per-cell terms
    does not matter.
    """
    alpha = cov.profile.alpha
    n = cov.n
    vols = cov.volume_array
    counts = _allocate(max(samples, cov.tree.n), vols)
    lows, highs = cov.corners
    poincare = kind == "improved_poincare"
    kept, denom_terms, num_terms, rhs_terms = [], [], [], []
    A = np.zeros((n, n))
    # Temporaries are updated in place where that applies the same operation
    # to the same values (so the same bits): fewer large blocks for the
    # allocator to hand back and fault in again.
    for t in np.flatnonzero(counts).tolist():
        m = int(counts[t])
        lo, hi = lows[t], highs[t]
        pts = _cell_rng(seed, t).random((m, n))
        pts *= hi - lo
        pts += lo
        w = vols[t] / m
        d = _d_values(cov, cov.edge_array[t], pts, d_mode)
        dbp = d ** (beta * p)
        denom_terms.append(w * float(np.sum(dbp)))
        if poincare:
            fv = f.value(pts)
            g = f.gradient(pts)
            del pts
            r = _sum_squares(g.T, n)
            del g
            np.sqrt(r, out=r)
            num_terms.append(w * float(np.sum(dbp * fv)))
            r **= p
            r *= d ** ((beta + alpha) * p)
            rhs_terms.append(w * float(np.sum(r)))
            kept.append((w, dbp, fv))
            continue
        # korn: the weighted-mean antisymmetric part of the Jacobian is removed
        J = f.jacobian(pts)
        del pts
        part = J - np.swapaxes(J, 1, 2)
        part *= 0.5                                 # eta
        A += w * np.einsum("i,ijk->jk", dbp, part)
        del part
        eps = ((J[:, j, k] + J[:, k, j]) * 0.5 for j in range(n) for k in range(n))
        r = _sum_squares(eps, n * n)
        np.sqrt(r, out=r)
        r **= p
        r *= d ** ((beta + alpha - 1.0) * p)
        rhs_terms.append(w * float(np.sum(r)))
        kept.append((w, dbp, J))
    denom = math.fsum(denom_terms)
    if poincare:
        c = math.fsum(num_terms) / denom
    else:
        A /= denom
    # last cell first, each dropped once its term is taken, so the largest
    # cell, the root, meets the lhs temporaries alone
    lhs_terms = []
    while kept:
        w, dbp, v = kept.pop()
        if poincare:
            r = v - c
            np.abs(r, out=r)
        else:
            r = _sum_squares((v[:, j, k] - A[j, k] for j in range(n) for k in range(n)),
                             n * n)
            np.sqrt(r, out=r)
        r **= p
        r *= dbp
        lhs_terms.append(w * float(np.sum(r)))
    lhs = math.fsum(lhs_terms)
    return lhs ** (1.0 / p), math.fsum(rhs_terms) ** (1.0 / p)


_SPHERE_AREA = {2: 2.0 * math.pi, 3: 4.0 * math.pi}


def _fractional_run(f: TestFunction, cov: CubeCovering, beta: float, p: float,
                    s: float, tau: float, samples: int, seed: int,
                    d_mode: str) -> tuple[float, float, float]:
    """Stratified pair sampling for the fractional seminorm.

    x is stratified by cell; the offset radius is drawn from the power law
    r ~ R u^{1/kappa} with kappa = p(1-s), which cancels the |x-y| kernel
    singularity; the tau-ball restriction enters through R = tau d(x) and
    pairs leaving the truncated domain are rejected with weight zero.

    Each cell draws x, u and the direction from its own stream; the pairs of
    all cells are then located and evaluated in one pass, and the sums are
    taken per cell. Returns lhs, rhs and the fraction of rejected pairs.
    """
    alpha = cov.profile.alpha
    n = cov.n
    kappa = p * (1.0 - s)
    ncell = cov.tree.n
    vols, edges = cov.volume_array, cov.edge_array
    counts = _allocate(max(samples, ncell), vols)
    cells = np.flatnonzero(counts)
    surf = _SPHERE_AREA[n]
    expo = (s + beta - alpha + 1.0) * p
    pts, u, g = [], [], []
    for t in cells.tolist():
        m = int(counts[t])
        rng = _cell_rng(seed, t)
        lo, hi = cov.corners[0][t], cov.corners[1][t]
        pts.append(lo + rng.random((m, n)) * (hi - lo))
        u.append(rng.random(m))
        g.append(rng.standard_normal((m, n)))
    pts, u, g = (np.concatenate(a) for a in (pts, u, g))

    dx = _d_values(cov, np.repeat(edges[cells], counts[cells]), pts, d_mode)
    R = tau * dx
    r = R * u ** (1.0 / kappa)
    gn = _sum_squares(g.T, n)
    np.sqrt(gn, out=gn)
    y = pts + r[:, None] * (g / gn[:, None])
    c = cov.locate(y)
    inside = c >= 0
    dy = np.zeros(len(y))
    dy[inside] = _d_values(cov, edges[c[inside]], y[inside], d_mode)
    fv = f.value(pts)
    contrib = np.zeros(len(y))
    ok = inside & (r > 0)
    if ok.any():
        delta = np.minimum(dx[ok], dy[ok])
        diff = np.abs(fv[ok] - f.value(y[ok])) ** p
        kern = diff / r[ok] ** (n + s * p) * delta ** expo
        dens = kappa * r[ok] ** (kappa - 1.0) / R[ok] ** kappa
        contrib[ok] = kern * surf * r[ok] ** (n - 1) / dens
    dbp = dx ** (beta * p)

    w = vols[cells] / counts[cells]
    splits = np.cumsum(counts[cells])[:-1]

    def cell_fsum(v: np.ndarray) -> float:
        return math.fsum(wt * float(np.sum(part)) for wt, part in zip(w, np.split(v, splits)))

    denom = cell_fsum(dbp)
    mean = cell_fsum(dbp * fv) / denom
    lhs = cell_fsum(np.abs(fv - mean) ** p * dbp)
    rhs = cell_fsum(contrib)
    return lhs ** (1.0 / p), rhs ** (1.0 / p), float(np.mean(~inside))


KINDS = ("improved_poincare", "fractional_poincare", "korn")
D_MODES = ("cell", "graph")


def inequality_ratio(kind: str, f: TestFunction, covering: CubeCovering,
                     beta: float, p: float, s: float | None = None,
                     tau: float | None = None, samples: int = 10 ** 5,
                     seed: int = 0, d_mode: str = "cell") -> RatioReport:
    """Measured lhs/rhs for one inequality, with a two-seed spread.

    ValueError before any drawing unless p is finite with p >= 1, beta is
    finite, samples >= 1 and d_mode is one of D_MODES."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if kind == "fractional_poincare":
        if s is None or tau is None or not (0 < s < 1 and 0 < tau < 1):
            raise ValueError("fractional_poincare needs s, tau in (0, 1)")
    if kind == "korn" and not f.vector:
        raise ValueError("korn needs a vector field")
    if kind != "korn" and f.vector:
        raise ValueError(f"{kind} needs a scalar function")
    if not (math.isfinite(p) and p >= 1):
        raise ValueError(f"p must be finite and >= 1, got {p}")
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if d_mode not in D_MODES:
        raise ValueError(f"d_mode must be one of {D_MODES}, got {d_mode!r}")

    def run(sd: int) -> tuple[float, float, float | None]:
        if kind == "fractional_poincare":
            return _fractional_run(f, covering, beta, p, s, tau, samples, sd, d_mode)
        return (*_local_run(kind, f, covering, beta, p, samples, sd, d_mode), None)

    lhs, rhs, rejected = run(seed)
    lhs2, rhs2, _ = run(seed + 1)
    ratio, flags = _ratio_with_flags(lhs, rhs)
    ratio2, _ = _ratio_with_flags(lhs2, rhs2)
    if ratio == ratio2 == 0.0 or (math.isinf(ratio) and math.isinf(ratio2)):
        spread = 0.0
    else:
        mid = 0.5 * (ratio + ratio2)
        spread = abs(ratio - ratio2) / mid if mid > 0 and math.isfinite(mid) else math.inf
    params = {"beta": beta, "p": p, "s": s, "tau": tau, "d_mode": d_mode,
              "alpha": covering.profile.alpha, "function": f.name}
    drawn = max(samples, covering.tree.n)   # both samplers draw >= 1 point per cell
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

    depth = np.asarray(tree.depth)[np.where(space.connector >= 0, space.connector, space.owner)]
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

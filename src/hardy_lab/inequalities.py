"""Empirical quadrature checkers for the weighted inequalities on the model
domain: improved Poincare, fractional Poincare, and Korn.

These measure lhs/rhs ratios for concrete functions; the inequalities hold
with finite constants, so the checkers report trends, never proofs. Quadrature is
stratified Monte Carlo over the covering cells with per-cell counter-based
seeding: results are deterministic given (seed, sample count), and every
report carries a spread, the relative standard error of its ratio taken in
the same pass from per-cell second moments.

Distance to the boundary is the per-cell edge surrogate d = l_t (constant
on each cube), the same essentially-constant equivalence d(x) ~ l(Q_t) the
covering machinery relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

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
    sample_count: int                       # points drawn: max(samples, cells), by
                                            # volume; small cells may draw none
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


# The sampler draws and reduces cells in units of at most BLOCK_POINTS
# points, or 128 when BLOCK_POINTS is smaller, for every kind: a block of
# whole cells, or one leaf of a larger cell's pairwise split (_leaves).
BLOCK_POINTS = 2 ** 15

# np.add.reduce adds a run of at most this many float64 values in one
# unrolled loop and splits a longer run in two
_PAIRWISE_LEAF = 128


def _split(m: int) -> int | None:
    """Where np.add.reduce splits a run of m values: at m // 2 rounded down
    to a multiple of 8 while m > 128. None where the sampler keeps m rows
    in one unit, at most max(BLOCK_POINTS, 128)."""
    if m <= max(BLOCK_POINTS, _PAIRWISE_LEAF):
        return None
    h = m // 2
    return h - h % 8


def _leaves(m: int) -> list[int]:
    """Row counts of the leaves a cell of m rows is cut into, in order: the
    runs numpy's own pairwise split of m values reaches first at or below
    the unit size, so np.sum of each leaf is a partial sum of the cell's."""
    h = _split(m)
    return [m] if h is None else _leaves(h) + _leaves(m - h)


def _rejoin(m: int, sums: Iterator[float]) -> float:
    """np.sum over a cell of m rows, from the np.sum of each of its _leaves
    in order: the leaf sums added up numpy's split tree, bit for bit."""
    h = _split(m)
    return next(sums) if h is None else _rejoin(h, sums) + _rejoin(m - h, sums)


def _cell_terms(kept, unit_sums) -> list[list[float]]:
    """w times each per-cell sum, one list per quantity, from each unit's
    kept (w, runs, d^{beta p}, a, b, split) and its sums (_cell_sums); the
    leaf sums of a split cell are added up numpy's split tree (_rejoin)."""
    terms = [[] for _ in unit_sums[0]]
    leaves, done = [], 0
    for (w, _, _, a, b, split), sums in zip(kept, unit_sums):
        if not split:
            for t, x in zip(terms, sums):
                t += (w * x).tolist()
            continue
        leaves.append([float(x[0]) for x in sums])
        done += b - a
        if done == split:
            for t, x in zip(terms, zip(*leaves)):
                t.append(w[0] * _rejoin(split, iter(x)))
            leaves, done = [], 0
    return terms


def _relative_sd(total: float, terms: list[float], squares: list[float],
                 vols: np.ndarray, counts: np.ndarray) -> float:
    """The standard error of a stratified estimate total = fsum(terms) over
    the non-empty cells, relative to it; 0 when total is 0.

    A cell of volume vol and n points adds a = w sum x and b = w sum x^2
    (w = vol / n, x the integrand): with n >= 2 the unbiased
    max(0, vol b - a^2) / (n - 1) = vol^2 s^2 / n (Cochran, Sampling
    Techniques, ch. 5), with one point a^2, whose mean is the cell's
    variance plus its squared integral.
    """
    if total == 0.0:
        return 0.0
    a, b = np.array(terms), np.array(squares)
    var = np.where(counts > 1,
                   np.maximum(vols * b - a * a, 0.0) / np.maximum(counts - 1, 1), a * a)
    return math.sqrt(math.fsum(var.tolist())) / total


def _units(counts: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """The sampler's units in cell id order, as (cells, rows per cell, whole
    count of a split cell): runs of whole cells with at most BLOCK_POINTS
    points between them (0), and each of the _leaves of a cell with more
    than max(BLOCK_POINTS, 128) points on its own (that cell's count). With
    BLOCK_POINTS below 128, a whole cell of more than BLOCK_POINTS points is
    a unit by itself."""
    cells = np.flatnonzero(counts)
    m = counts[cells]
    start, size = 0, 0
    for i, mi in enumerate(m.tolist()):
        if size and size + mi > BLOCK_POINTS:
            yield cells[start:i], m[start:i], 0
            start, size = i, 0
        if _split(mi) is None:
            size += mi
            continue
        for rows in _leaves(mi):
            yield cells[i:i + 1], np.array([rows]), mi
        start = i + 1
    if start < len(cells):
        yield cells[start:], m[start:], 0


def _runs(m: np.ndarray) -> list[tuple[int, int, int, int]]:
    """(i, j, a, b) for each maximal run of consecutive cells i..j-1 with
    m[i] == ... == m[j-1] rows each, stacked as rows a..b-1: the run's
    rows reshape to (j - i, m[i])."""
    cuts = (np.flatnonzero(np.diff(m)) + 1).tolist()
    ends = np.cumsum(m).tolist()
    return [(i, j, ends[i - 1] if i else 0, ends[j - 1])
            for i, j in zip([0] + cuts, cuts + [len(m)])]


def _leaf_streams(seed: int, cell: int, m: int, n: int):
    """The (points, u, g) generators of a cell of m points in R^n drawn leaf
    by leaf: each continues where the cell's one stream stands in a whole
    cell draw (_draw_cells). A uniform double takes one PCG64 step, so u
    starts m n steps in and g m n + m steps in."""
    streams = tuple(_cell_rng(seed, cell) for _ in range(3))
    streams[1].bit_generator.advance(m * n)
    streams[2].bit_generator.advance(m * n + m)
    return streams


def _draw_cells(cov: CubeCovering, cells: np.ndarray, m: np.ndarray, seed: int,
                offsets: bool = False, rngs=None):
    """m[i] uniform points in each cube cells[i], in one (sum m, n) array.

    Each cell draws from its own stream straight into its rows, and each run
    of equal cells is mapped to its cubes one column at a time. With
    offsets, each cell also draws u (m[i] uniforms) and g (m[i] x n normals)
    after its points, and (points, u, g) is returned. rngs, if given, holds
    each cell's (points, u, g) generators (see _leaf_streams); by default
    each cell draws all three in turn from a new _cell_rng stream.
    """
    n = cov.n
    ends = np.cumsum(m).tolist()
    pts = np.empty((ends[-1], n))
    if offsets:
        u, g = np.empty(ends[-1]), np.empty((ends[-1], n))
    if rngs is None:
        rngs = [(r, r, r) for r in (_cell_rng(seed, t) for t in cells.tolist())]
    for (rp, ru, rg), a, b in zip(rngs, [0] + ends[:-1], ends):
        rp.random(out=pts[a:b])
        if offsets:
            ru.random(out=u[a:b])
            rg.standard_normal(out=g[a:b])
    lows, highs = cov.corners
    for i, j, a, b in _runs(m):
        lo, hi = lows[cells[i:j]], highs[cells[i:j]]
        for k in range(n):
            col = pts[a:b, k].reshape(j - i, -1)
            col *= (hi[:, k] - lo[:, k])[:, None]
            col += lo[:, k, None]
    return (pts, u, g) if offsets else pts


def _cell_sums(runs, x: np.ndarray | None = None, c: np.ndarray | None = None) -> np.ndarray:
    """For each cell, np.sum over its rows of x times the cell's constant c
    (of x alone without c, of c alone without x).

    Each run of equal cells is one (cells, rows) reshape summed along its
    rows, which numpy adds pairwise row by row: the bits of one np.sum per
    cell, where np.add.reduceat adds in another order.
    """
    sums = []
    for i, j, a, b in runs:
        if x is None:
            X = np.broadcast_to(c[i:j, None], (j - i, (b - a) // (j - i)))
        else:
            X = x[a:b].reshape(j - i, -1)
            if c is not None:
                X = X * c[i:j, None]
        sums.append(np.add.reduce(X, axis=1))
    return np.concatenate(sums)


def _with_squares(runs, x: np.ndarray, c: np.ndarray | None = None) -> list[np.ndarray]:
    """The per-cell sums of x c and of its square, taken as x^2 c^2 (see
    _cell_sums); x is squared in place."""
    first = _cell_sums(runs, x, c)
    np.square(x, out=x)
    return [first, _cell_sums(runs, x, None if c is None else c * c)]


def _symmetric_columns(J: np.ndarray) -> Iterator[np.ndarray]:
    """The columns (J[:, j, k] + J[:, k, j]) / 2 of the symmetric part, in
    (j, k) order; an off-diagonal column is built once for both places."""
    n = J.shape[1]
    half = {(j, k): (J[:, j, k] + J[:, k, j]) * 0.5 for j in range(n) for k in range(j, n)}
    return (half[min(j, k), max(j, k)] for j in range(n) for k in range(n))


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


def _pair_block(f: TestFunction, cov: CubeCovering, cells: np.ndarray,
                m: np.ndarray, seed: int, p: float, s: float, tau: float,
                expo: float, rngs=None) -> tuple[np.ndarray, np.ndarray, int]:
    """f at a unit's points x, the rhs integrand of their pairs (x, y) and
    the number of pairs rejected; rngs as for _draw_cells.

    The offset radius is drawn as r = R u^{1/kappa}, kappa = p(1-s), which
    cancels the |x-y| kernel singularity; R = tau d(x) is the tau-ball
    restriction, and a pair leaving the truncated domain gets weight zero.
    Each y is located in the cell of its x first.
    """
    n = cov.n
    kappa = p * (1.0 - s)
    edges = cov.edge_array
    pts, u, g = _draw_cells(cov, cells, m, seed, offsets=True, rngs=rngs)
    c = np.repeat(cells, m)                         # the cell of x, then of y
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
         seed: int) -> tuple[float, float, float | None, float]:
    """One quadrature pass: lhs, rhs, for fractional_poincare the fraction
    of the points drawn whose pair left the domain (else None), and the
    spread.

    Cells are drawn and reduced in units of at most max(BLOCK_POINTS, 128)
    rows in id order (see _units): blocks of whole cells, and the leaves of
    any larger cell, each leaf drawn from where the cell's streams stand.
    Only the rhs integrand and the rows kept for the lhs depend on the
    kind. The weighted mean (a constant, or Korn's antisymmetric part, one
    entry above the diagonal at a time) is taken on the same nodes as the
    norms, so the side condition holds exactly on the discrete measure;
    until it is known the pass keeps, in one array, f - f0 of every point
    (f0 the pass's first f value, so a constant f has mean 0 exactly), or
    for Korn |eps|^2 and the differences D = J - J^T above the diagonal,
    and w and d^{beta p} once per cell. Korn's lhs integrand comes from
    these through |J - A|^2 = |eps|^2 + sum_{j<k} (D_jk - 2 A_jk)^2 / 2,
    so J itself is dropped once its unit is done. math.fsum rounds
    exactly, so the order of the per-cell terms does not matter. Each
    per-cell sum has the bits of np.sum over the cell's rows: a block sums
    each run of equal cells row-wise (_cell_sums), and a split cell adds
    its leaf sums up numpy's pairwise split tree (_rejoin).

    Each side X (lhs^p or rhs^p) also gets the per-cell sums of its
    integrand squared, the square of the row's term times the square of the
    cell constant, taken one unit at a time. The spread is
    (sigma_L / L + sigma_R / R) / p from their stratified standard errors
    (_relative_sd): to first order an upper bound on the relative standard
    error of (L / R)^{1/p}, which drops the covariance of the sides. Cells
    that draw no point add nothing to it.
    """
    alpha = cov.profile.alpha
    n = cov.n
    vols, edges = cov.volume_array, cov.edge_array
    counts = _allocate(max(samples, cov.tree.n), vols)
    korn, fractional = kind == "korn", kind == "fractional_poincare"
    rhs_expo = (beta + alpha - 1.0 if korn else beta + alpha) * p
    upper = [(j, k) for j in range(n) for k in range(j + 1, n)]
    # per unit: what the lhs pass needs, and the per-cell sums of d^{beta p},
    # of each mean (f - f0, or twice Korn's antisymmetric part above the
    # diagonal), of the rhs integrand and of its square
    kept, unit_sums = [], []
    # what the lhs pass reads of every point, unit after unit, in one array
    # for the whole pass: f, or for Korn a row of |eps|^2 and one row of
    # J[:, j, k] - J[:, k, j] for each pair (j, k) of upper. numpy backs a
    # large array with huge pages where the system allows, where one array
    # per unit would be faulted in a page at a time
    total = int(counts.sum())
    values = np.empty((1 + len(upper), total) if korn else total)
    row = 0
    rejected = 0
    leaf_cell, streams = -1, None               # the split cell being drawn
    # Temporaries are updated in place where that applies the same operation
    # to the same values (so the same bits). d^{beta p} is taken once per
    # cell and broadcast over the cell's rows.
    for cells, m, split in _units(counts):
        runs = _runs(m)
        w = vols[cells] / counts[cells]
        d = edges[cells]
        if split and cells[0] != leaf_cell:        # its first leaf
            leaf_cell = int(cells[0])
            streams = _leaf_streams(seed, leaf_cell, split, n)
        rngs = [streams] if split else None
        if fractional:
            v, r, out = _pair_block(f, cov, cells, m, seed, p, s, tau,
                                    (s + beta - alpha + 1.0) * p, rngs)
            rejected += out
        elif korn:
            J = f.jacobian(_draw_cells(cov, cells, m, seed, rngs=rngs))
        else:
            pts = _draw_cells(cov, cells, m, seed, rngs=rngs)
            v = f.value(pts)
            g = f.gradient(pts)
            del pts
            r = _sum_squares(g.T, n)
            del g
        a, row = row, row + int(m.sum())
        # d is constant on a cell: one array power per cell, then broadcast
        # (never a Python-float pow, whose last bit can differ from numpy's)
        d_beta_p = d ** (beta * p)
        sums = [_cell_sums(runs, c=d_beta_p)]
        if korn:
            eps2, *skew = values[:, a:row]
            for (j, k), D in zip(upper, skew):
                np.subtract(J[:, j, k], J[:, k, j], out=D)
                sums.append(_cell_sums(runs, D, d_beta_p))
            r = _sum_squares(_symmetric_columns(J), n * n)
            del J
            eps2[:] = r
        else:
            if not a:
                f0 = float(v[0])                        # the pass's first f value
            v = np.subtract(v, f0, out=values[a:row])
            sums.append(_cell_sums(runs, v, d_beta_p))
        if fractional:
            sums += _with_squares(runs, r)
        else:                                           # r holds |grad f|^2 or |eps|^2
            np.sqrt(r, out=r)
            r **= p
            sums += _with_squares(runs, r, d ** rhs_expo)
        del r
        kept.append((w, runs, d_beta_p, a, row, split))
        unit_sums.append(sums)
    weights, *means, rhs_terms, rhs_squares = _cell_terms(kept, unit_sums)
    denom = math.fsum(weights)
    if korn:
        # the weighted mean of each D above the diagonal: 2 A_jk for the
        # mean A of the antisymmetric part (J - J^T) / 2, which is removed
        mean = [math.fsum(t) / denom for t in means]
    else:
        # the weighted mean of f less f0, which the kept rows hold: exactly
        # 0 for a constant f, where sum f d^{beta p} / sum d^{beta p} need
        # not round to f
        c = math.fsum(means[0]) / denom
    lhs_sums = []
    # each kept row is read once, so the lhs integrand is built in place
    for w, runs, d_beta_p, a, b, split in kept:
        if korn:
            r, *skew = values[:, a:b]
            for D, twice_a in zip(skew, mean):
                D -= twice_a
                np.square(D, out=D)
                D *= 0.5
                r += D
            np.sqrt(r, out=r)
        else:
            r = values[a:b]
            r -= c
            np.abs(r, out=r)
        r **= p
        lhs_sums.append(_with_squares(runs, r, d_beta_p))
    lhs_terms, lhs_squares = _cell_terms(kept, lhs_sums)
    lhs, rhs = math.fsum(lhs_terms), math.fsum(rhs_terms)
    cells = np.flatnonzero(counts)
    strata = (vols[cells], counts[cells])
    spread = (_relative_sd(lhs, lhs_terms, lhs_squares, *strata)
              + _relative_sd(rhs, rhs_terms, rhs_squares, *strata)) / p
    frac = rejected / total if fractional else None
    return lhs ** (1.0 / p), rhs ** (1.0 / p), frac, spread


KINDS = ("improved_poincare", "fractional_poincare", "korn")


def _check_ratio_args(kind: str, beta: float, p: float, s: float | None,
                      tau: float | None, samples: int) -> None:
    """ValueError unless kind is one of KINDS, p is finite with p >= 1, beta
    is finite, samples >= 1, and s, tau are given in (0, 1) for
    fractional_poincare and left unset for the other kinds."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if kind == "fractional_poincare":
        if s is None or tau is None or not (0 < s < 1 and 0 < tau < 1):
            raise ValueError("fractional_poincare needs s, tau in (0, 1)")
    elif s is not None or tau is not None:
        raise ValueError(f"{kind} takes no s or tau")
    _check_beta_p(beta, p)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")


def inequality_ratio(kind: str, f: TestFunction, covering: CubeCovering,
                     beta: float, p: float, s: float | None = None,
                     tau: float | None = None, samples: int = 10 ** 5,
                     seed: int = 0) -> RatioReport:
    """Measured lhs/rhs for one inequality from one pass, with its spread
    (see _run), 0 when the ratio is 0 or inf; d is the edge l_t of the cell
    a point lies in. low_confidence is spread > 0.10.

    ValueError before any drawing unless the arguments pass
    _check_ratio_args and f is a vector field exactly for korn."""
    _check_ratio_args(kind, beta, p, s, tau, samples)
    if kind == "korn" and not f.vector:
        raise ValueError("korn needs a vector field")
    if kind != "korn" and f.vector:
        raise ValueError(f"{kind} needs a scalar function")

    lhs, rhs, rejected, spread = _run(kind, f, covering, beta, p, s, tau, samples, seed)
    ratio, flags = _ratio_with_flags(lhs, rhs)
    if ratio == 0.0 or math.isinf(ratio):
        spread = 0.0
    elif math.isnan(spread):                        # a NaN side is never confident
        spread = math.inf
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
    the cells. ValueError before any work unless p is finite with p > 1,
    beta is finite and epsilon >= 0; epsilon = 0 admits no depth, so it
    raises DecompositionError.
    """
    if not (math.isfinite(p) and p > 1):
        raise ValueError(f"p must be finite and > 1, got {p}")
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
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
    Fv = F.values
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
    return DensityReport(CellFunction(space, g), psi, D, tail_norm(D), lhs, rhs,
                         lhs <= 2.0 * rhs * (1 + 1e-12))

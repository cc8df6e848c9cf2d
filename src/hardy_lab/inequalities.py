"""Empirical quadrature checkers for the weighted inequalities on the model
domain: improved Poincare, fractional Poincare, and Korn.

These measure lhs/rhs ratios for concrete functions; the inequalities hold
with finite constants, so the checkers report trends, never proofs. Quadrature is
stratified Monte Carlo over the covering cells: every cell draws at least
one point, in strata of at most BLOCK_POINTS points that each draw from a
stream seeded by (seed, cell, stratum), so results are deterministic given
(seed, sample count). Every report carries a spread, the relative standard
error of its ratio taken in the same pass from per-stratum second moments.

Distance to the boundary is the per-cell edge surrogate d = l_t (constant
on each cube), the same essentially-constant equivalence d(x) ~ l(Q_t) the
covering machinery relies on.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .covering import CubeCovering, _check_beta_p, _check_edge_powers
from .decomp import CellFunction, DecompositionError, weighted_q_norm_q


# -- test functions ------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """Closed-form scalar function with its gradient, or vector field with
    its Jacobian: a function is a vector field when it has a Jacobian."""

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None


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

    return TestFunction("shear", value, jacobian=jacobian)


# -- stratified sampling --------------------------------------------------------

def _allocate(samples: int, vols: np.ndarray) -> np.ndarray:
    """One point for every cell, and the other max(samples, cells) - cells
    shared by volume with largest remainders; the total is exact."""
    extra = max(samples, len(vols)) - len(vols)
    raw = extra * vols / vols.sum()
    counts = np.floor(raw).astype(int)
    short = extra - counts.sum()
    counts[np.argsort(counts - raw, kind="stable")[:short]] += 1
    return counts + 1


# The sampler draws and reduces in units of at most BLOCK_POINTS points for
# every kind, and no stratum is larger (_strata).
BLOCK_POINTS = 2 ** 15


def _strata(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cell, k, rows) of every stratum, in cell id order: a cell of m <=
    BLOCK_POINTS points is one stratum (k = 0), a larger one ceil(m /
    BLOCK_POINTS) strata k = 0, 1, ... whose rows differ by at most 1."""
    q = -(-counts // BLOCK_POINTS)
    cell = np.repeat(np.arange(len(counts)), q)
    k = np.arange(len(cell)) - np.repeat(np.cumsum(q) - q, q)
    m, q = counts[cell], q[cell]
    return cell, k, m // q + (k < m % q)


def _cell_rng(seed: int, cell: int, k: int) -> np.random.Generator:
    """The stream of stratum k of a cell. SeedSequence pads its entropy with
    zeros to four words, so k = 0 is the stream of (seed, cell)."""
    return np.random.default_rng(np.random.SeedSequence((seed, cell, k)))


def _units(rows: np.ndarray) -> Iterator[slice]:
    """The sampler's units: runs of whole strata, in order, with at most
    BLOCK_POINTS rows between them."""
    start, size = 0, 0
    for i, m in enumerate(rows.tolist()):
        if size + m > BLOCK_POINTS:
            yield slice(start, i)
            start, size = i, 0
        size += m
    yield slice(start, len(rows))


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
    sample_count: int                       # points drawn: max(samples, cells), one
                                            # in every cell and the rest by volume
    spread: float
    low_confidence: bool
    seed: int
    flags: tuple[str, ...] = ()
    params: dict = field(default_factory=dict)
    rejected_frac: float | None = None      # fractional: pairs with y outside

    def to_json(self) -> dict:
        return {**asdict(self), "flags": list(self.flags)}


def _ratio_with_flags(lhs: float, rhs: float) -> tuple[float, tuple[str, ...]]:
    if rhs == 0.0:
        if lhs == 0.0:
            return 0.0, ()
        return math.inf, ("inequality_violating_candidate",)
    return lhs / rhs, ()


def _relative_sd(total: float, terms: list[float], squares: list[float],
                 vols: np.ndarray, counts: np.ndarray) -> float:
    """The standard error of a stratified estimate total = fsum(terms) over
    the strata, relative to it; 0 when total is 0.

    A stratum of volume vol and n points adds a = w sum x and b = w sum x^2
    (w = vol / n, x the integrand): with n >= 2 the unbiased
    max(0, vol b - a^2) / (n - 1) = vol^2 s^2 / n (Cochran, Sampling
    Techniques, ch. 5), with one point a^2, whose mean is the stratum's
    variance plus its squared integral.
    """
    if total == 0.0:
        return 0.0
    a, b = np.array(terms), np.array(squares)
    var = np.where(counts > 1,
                   np.maximum(vols * b - a * a, 0.0) / np.maximum(counts - 1, 1), a * a)
    return math.sqrt(math.fsum(var.tolist())) / total


def _draw(cov: CubeCovering, cells: np.ndarray, ks: np.ndarray, m: np.ndarray,
          seed: int, offsets: bool = False):
    """m[i] uniform points in cube cells[i] for each stratum (cells[i],
    ks[i]), in one (sum m, n) array; each stratum draws from its own stream
    straight into its rows, which are then mapped into the cubes one column
    at a time. With offsets, each stratum also draws u (m[i] uniforms) and
    g (m[i] x n normals) after its points, and (points, u, g) is returned.
    """
    ends = np.cumsum(m).tolist()
    pts = np.empty((ends[-1], cov.n))
    if offsets:
        u, g = np.empty(ends[-1]), np.empty_like(pts)
    for t, k, a, b in zip(cells.tolist(), ks.tolist(), [0] + ends[:-1], ends):
        rng = _cell_rng(seed, t, k)
        rng.random(out=pts[a:b])
        if offsets:
            rng.random(out=u[a:b])
            rng.standard_normal(out=g[a:b])
    lows, highs = (x[cells] for x in cov.corners)
    # by columns: a row-wise broadcast runs numpy's inner loop n values at a time
    for k in range(cov.n):
        col = pts[:, k]
        col *= np.repeat(highs[:, k] - lows[:, k], m)
        col += np.repeat(lows[:, k], m)
    return (pts, u, g) if offsets else pts


def _with_squares(x: np.ndarray, starts: np.ndarray, c) -> list[np.ndarray]:
    """For each stratum, from its first row starts[i], the sum of x times
    its constant c[i] and the sum of x^2 times c[i]^2; x is squared in
    place. Each sum is one segment of np.add.reduceat, which adds the
    segment's first value to np.sum of the rest, whatever the unit."""
    first = np.add.reduceat(x, starts) * c
    np.square(x, out=x)
    return [first, np.add.reduceat(x, starts) * (c * c)]


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
                ks: np.ndarray, m: np.ndarray, seed: int, p: float, s: float,
                tau: float, expo: float) -> tuple[np.ndarray, np.ndarray, int]:
    """f at a unit's points x, the rhs integrand of their pairs (x, y) and
    the number of pairs rejected; the unit's strata as for _draw.

    The offset radius is drawn as r = R u^{1/kappa}, kappa = p(1-s), which
    cancels the |x-y| kernel singularity; R = tau d(x) is the tau-ball
    restriction, and a pair leaving the truncated domain gets weight zero.
    Each y is located in the cell of its x first.
    """
    n = cov.n
    kappa = p * (1.0 - s)
    edges = cov.edge_array
    pts, u, g = _draw(cov, cells, ks, m, seed, offsets=True)
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


def _terms(w: np.ndarray, unit_sums: list[list[np.ndarray]]) -> list[list[float]]:
    """w times each per-stratum sum, one list per quantity, from the sums of
    every unit in order."""
    return [(w * np.concatenate(col)).tolist() for col in zip(*unit_sums)]


def _run(kind: str, f: TestFunction, cov: CubeCovering, beta: float, p: float,
         s: float | None, tau: float | None, samples: int,
         seed: int) -> tuple[float, float, float | None, float]:
    """One quadrature pass: lhs, rhs, for fractional_poincare the fraction
    of the points drawn whose pair left the domain (else None), and the
    spread.

    Every cell draws at least one point (_allocate), in strata of at most
    BLOCK_POINTS points that each draw from their own stream (_strata,
    _cell_rng); the strata are drawn and reduced in units of at most
    BLOCK_POINTS rows in cell id order (_units). Only the rhs integrand and
    the rows kept for the lhs depend on the kind. The weighted mean (a
    constant, or Korn's antisymmetric part, one entry above the diagonal at
    a time) is taken on the same nodes as the norms, so the side condition
    holds exactly on the discrete measure; until it is known the pass
    keeps, in one array, f - f0 of every point (f0 the pass's first f
    value, so a constant f has mean 0 exactly), or for Korn |eps|^2 and the
    differences D = J - J^T above the diagonal. Korn's lhs integrand comes
    from these through |J - A|^2 = |eps|^2 + sum_{j<k} (D_jk - 2 A_jk)^2 / 2,
    so J itself is dropped once its unit is done.

    A stratum of m rows adds w (S c) to a side: w = vol / count of its
    cell, S the reduceat sum of the integrand over its rows (_with_squares)
    and c its constant, d^{beta p} or the rhs power of d. The weights
    d^{beta p} add w (m c), so a constant J gives skew sums of exactly
    twice theirs and a rigid rotation has lhs 0. math.fsum rounds exactly,
    so the results depend on (seed, samples) and BLOCK_POINTS alone, not on
    how strata are grouped into units.

    Each side X (lhs^p or rhs^p) also gets the per-stratum sums of its
    integrand squared. The spread is (sigma_L / L + sigma_R / R) / p from
    their stratified standard errors over strata of volume w m
    (_relative_sd): to first order an upper bound on the relative standard
    error of (L / R)^{1/p}, which drops the covariance of the sides.
    """
    alpha = cov.profile.alpha
    n = cov.n
    counts = _allocate(samples, cov.volume_array)
    cells, ks, rows = _strata(counts)
    w = cov.volume_array[cells] / counts[cells]
    d = cov.edge_array[cells]
    korn, fractional = kind == "korn", kind == "fractional_poincare"
    # one array power per stratum (never a Python-float pow, whose last bit
    # can differ from numpy's); the fractional rhs integrand holds its own
    d_beta_p = d ** (beta * p)
    rhs_c = (np.ones_like(d) if fractional
             else d ** ((beta + alpha - 1.0 if korn else beta + alpha) * p))
    upper = [(j, k) for j in range(n) for k in range(j + 1, n)]
    # per unit: its slice of the strata, where their rows start and its
    # slice of the kept rows; and its per-stratum sums of each mean (f - f0,
    # or twice Korn's antisymmetric part above the diagonal), of the rhs
    # integrand and of its square
    kept, unit_sums = [], []
    # what the lhs pass reads of every point, unit after unit, in one array
    # for the whole pass: f, or for Korn a row of |eps|^2 and one row of
    # J[:, j, k] - J[:, k, j] for each pair (j, k) of upper. numpy backs a
    # large array with huge pages where the system allows, where one array
    # per unit would be faulted in a page at a time
    total = int(counts.sum())
    values = np.empty((1 + len(upper), total) if korn else total)
    row = rejected = 0
    # Temporaries are updated in place where that applies the same operation
    # to the same values (so the same bits).
    for unit in _units(rows):
        m = rows[unit]
        starts = np.cumsum(m) - m
        if fractional:
            v, r, out = _pair_block(f, cov, cells[unit], ks[unit], m, seed, p, s,
                                    tau, (s + beta - alpha + 1.0) * p)
            rejected += out
        elif korn:
            J = f.jacobian(_draw(cov, cells[unit], ks[unit], m, seed))
        else:
            pts = _draw(cov, cells[unit], ks[unit], m, seed)
            v = f.value(pts)
            g = f.gradient(pts)
            del pts
            r = _sum_squares(g.T, n)
            del g
        a, row = row, row + int(m.sum())
        dbp = d_beta_p[unit]
        sums = []
        if korn:
            eps2, *skew = values[:, a:row]
            for (j, k), D in zip(upper, skew):
                np.subtract(J[:, j, k], J[:, k, j], out=D)
                sums.append(np.add.reduceat(D, starts) * dbp)
            r = _sum_squares(_symmetric_columns(J), n * n)
            del J
            eps2[:] = r
        else:
            if not a:
                f0 = float(v[0])                        # the pass's first f value
            v = np.subtract(v, f0, out=values[a:row])
            sums.append(np.add.reduceat(v, starts) * dbp)
        if not fractional:                              # r holds |grad f|^2 or |eps|^2
            np.sqrt(r, out=r)
            r **= p
        sums += _with_squares(r, starts, rhs_c[unit])
        del r
        kept.append((unit, starts, a, row))
        unit_sums.append(sums)
    *means, rhs_terms, rhs_squares = _terms(w, unit_sums)
    denom = math.fsum((w * (rows * d_beta_p)).tolist())
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
    for unit, starts, a, b in kept:
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
        lhs_sums.append(_with_squares(r, starts, d_beta_p[unit]))
    lhs_terms, lhs_squares = _terms(w, lhs_sums)
    lhs, rhs = math.fsum(lhs_terms), math.fsum(rhs_terms)
    spread = (_relative_sd(lhs, lhs_terms, lhs_squares, w * rows, rows)
              + _relative_sd(rhs, rhs_terms, rhs_squares, w * rows, rows)) / p
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
    _check_ratio_args and _check_edge_powers and f is a vector field (has a
    Jacobian) exactly for korn."""
    _check_ratio_args(kind, beta, p, s, tau, samples)
    _check_edge_powers(covering, beta, p)
    if (kind == "korn") != (f.jacobian is not None):
        raise ValueError("korn needs a vector field" if kind == "korn"
                         else f"{kind} needs a scalar function")

    lhs, rhs, rejected, spread = _run(kind, f, covering, beta, p, s, tau, samples, seed)
    ratio, flags = _ratio_with_flags(lhs, rhs)
    if ratio == 0.0 or math.isinf(ratio):
        spread = 0.0
    elif math.isnan(spread):                        # a NaN side is never confident
        spread = math.inf
    params = {"beta": beta, "p": p, "s": s, "tau": tau,
              "alpha": covering.profile.alpha, "function": f.name}
    # every kind draws max(samples, cells) points: one in every cell, and the
    # rest shared out by volume (_allocate)
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

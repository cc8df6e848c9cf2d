"""Weighted discrete Hardy constants on rooted trees.

For weights u, v > 0 on Gamma* and 1 < p < infinity (1/p + 1/q = 1), the
primal inequality reads

    ( sum_s |v_s sum_{t on path(s)} d_t|^p )^{1/p}
        <= C ( sum_s |d_s u_s|^p )^{1/p},

with an equivalent dual form whose optimal constant is the same. Four
quantities are computed here:

  a_chain   sup_t ( sum_{path(t)} u^-q )^{1/q} ( sum_{shadow(t)} v^p )^{1/p}
            (necessary on every tree, sufficient only on chains)
  a_tree    the theta-parameterized sufficient condition; the resulting
            upper bound is (theta/(theta-1))^{1/q} * a_tree(theta)
  b_ehp     sup over cut antichains A of ||v||_{lp(shadows of A)} / alpha_A,
            where alpha_A is the minimal lp mass of b >= 0 whose u-weighted
            path sums equal 1 at every vertex of A; B <= C <= 4B. Computed
            exactly by an upper-hull DP over the tree, at most
            |Gamma*| + sum of depths hull points, with no enumeration
  c_exact   the lp operator norm of M[s,t] = v_s / u_t on pairs t <= s,
            by power iteration from all ones, as a bracket: ||M x||_p <= C
            <= a Collatz-Wielandt bound certified up to rounding (see
            exact_constant); M x = v prefix(x/u), M'y = shadow(v y)/u

The path-prefix and shadow sums behind all of these run on the tree's
level-vectorised kernel (tree.TreeKernel): one numpy step per depth level,
O(|Gamma*|) per pass, with no dense matrix and no size cap.

Vertex sups break ties to the lowest vertex id. B's antichain is read off
the first hull vertex after the origin at the root. Sibling hulls merge in
child-id order and, at every vertex, points collinear on a hull edge are
dropped, so a tie between antichains on one hull edge goes to its far end
(the larger mass). Reports are reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tree import Antichain, RootedTree, TreeKernel

GROWTH_FACTOR = 1.05   # per-level growth that marks a quantity "diverging"
GROWTH_LEVELS = 5


class NonConvergenceError(RuntimeError):
    def __init__(self, best: float, iterations: int):
        super().__init__(f"power iteration did not converge after {iterations} "
                         f"iterations (best ratio {best!r})")
        self.best = best
        self.iterations = iterations


@dataclass(frozen=True)
class HardyProblem:
    """A tree plus weights u, v on Gamma* and the exponent p.

    u and v are full-length arrays with nan in the root slot; q is always
    derived from p.
    """

    tree: RootedTree
    u: np.ndarray
    v: np.ndarray
    p: float
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if not 1.0 < self.p < math.inf:
            raise ValueError(f"p must lie in (1, inf), got {self.p}")
        for name, w in (("u", self.u), ("v", self.v)):
            if w.shape != (self.tree.n,):
                raise ValueError(f"{name} must have one entry per vertex")
            vals = w[list(self.tree.gamma_star)]
            if not np.all(np.isfinite(vals)) or np.any(vals <= 0):
                raise ValueError(f"{name} must be strictly positive and finite on Gamma*")

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)

    def to_json(self) -> dict:
        gs = list(self.tree.gamma_star)
        return {
            "tree": self.tree.to_json(),
            "u": [float(x) for x in self.u[gs]],
            "v": [float(x) for x in self.v[gs]],
            "p": self.p,
        }

    @staticmethod
    def from_json(obj: dict) -> "HardyProblem":
        tree = RootedTree.from_json(obj["tree"])
        return make_problem(tree, obj["u"], obj["v"], obj["p"])


def make_problem(tree: RootedTree, u_star, v_star, p: float,
                 flags: tuple[str, ...] = ()) -> HardyProblem:
    """Build a HardyProblem from weights listed in sorted Gamma* order."""
    gs = list(tree.gamma_star)
    if len(u_star) != len(gs) or len(v_star) != len(gs):
        raise ValueError(f"need {len(gs)} weights (one per non-root vertex)")
    u = np.full(tree.n, np.nan)
    v = np.full(tree.n, np.nan)
    u[gs] = np.asarray(u_star, dtype=float)
    v[gs] = np.asarray(v_star, dtype=float)
    return HardyProblem(tree, u, v, float(p), flags)


def assemble_uv(tree: RootedTree, volumes, nu, omega, p: float,
                flags: tuple[str, ...] = ()) -> HardyProblem:
    """u_t = |B_t|^{1/p} nu_t,  v_t = |B_t|^{1/p} omega_t (Gamma* order)."""
    vol = np.asarray(volumes, dtype=float)
    nu = np.asarray(nu, dtype=float)
    om = np.asarray(omega, dtype=float)
    if np.any(vol <= 0) or np.any(nu <= 0) or np.any(om <= 0):
        raise ValueError("volumes and weights must be strictly positive")
    scale = vol ** (1.0 / p)
    return make_problem(tree, scale * nu, scale * om, p, flags)


# -- shared accumulators ------------------------------------------------------
#
# All path and shadow sums go through the tree's level-vectorised kernel,
# which works in BFS order over Gamma*; _shadow_sums reads and writes
# full-length arrays in vertex id order.

def _shadow_sums(tree: RootedTree, w: np.ndarray) -> np.ndarray:
    """M[t] = sum of w over the shadow of t (t included); M[root] is the total."""
    K = tree.kernel
    S = K.shadow(w[K.order])
    M = np.zeros(tree.n)
    M[K.order] = S
    M[tree.root] = w[tree.root] + S[:K.top].sum()
    return M


def _bfs_weights(problem: HardyProblem) -> tuple[np.ndarray, np.ndarray]:
    """u and v over Gamma*, in the kernel's BFS order."""
    order = problem.tree.kernel.order
    return problem.u[order], problem.v[order]


def _diverging(levels: list[float]) -> bool:
    """Monotone growth by >= GROWTH_FACTOR over the last GROWTH_LEVELS steps."""
    if len(levels) < GROWTH_LEVELS + 1:
        return False
    tail = levels[-(GROWTH_LEVELS + 1):]
    return all(b >= GROWTH_FACTOR * a > 0 for a, b in zip(tail, tail[1:]))


@dataclass(frozen=True)
class SupResult:
    value: float
    arg: int                    # vertex achieving the sup (lowest id wins)
    diverging: bool
    levels: tuple[float, ...]   # partial sups on the level-<=k truncations


def _sup_over_gamma_star(tree: RootedTree, vals: np.ndarray) -> tuple[float, int]:
    """Max of vals (BFS order over Gamma*) and the lowest id attaining it."""
    by_id = np.empty(tree.kernel.m)
    by_id[tree.kernel.rank] = vals
    i = int(np.argmax(by_id))         # argmax returns the first (lowest id)
    return float(by_id[i]), tree.gamma_star[i]


def _level_array(tree: RootedTree, levels) -> np.ndarray:
    if levels is None:
        return np.array(tree.depth)
    lv = np.asarray(levels, dtype=int)
    if lv.shape != (tree.n,):
        raise ValueError("levels must assign one integer per vertex")
    return lv


_PROFILE_BLOCK = 1 << 22     # array entries per block of truncation levels


def _level_profile(tree: RootedTree, levels, front: np.ndarray, base: np.ndarray,
                   p: float) -> list[float]:
    """P_k = max over Gamma* vertices t of level <= k of
    front_t (shadow sum of base over level <= k)_t^{1/p}, for k = 1..max level.

    front and base are in BFS order; the truncations are the columns of
    one kernel call, taken in blocks to bound the memory.
    """
    lv_all = _level_array(tree, levels)
    lv = lv_all[tree.kernel.order]
    ks = np.arange(1, int(lv_all.max()) + 1)
    step = max(1, _PROFILE_BLOCK // max(len(lv), 1))
    profile: list[float] = []
    for i in range(0, len(ks), step):
        inside = lv[:, None] <= ks[i:i + step]
        S = tree.kernel.shadow(np.where(inside, base[:, None], 0.0))
        vals = np.where(inside, front[:, None] * S ** (1.0 / p), -np.inf)
        profile.extend(float(x) for x in vals.max(axis=0))
    return profile


def a_chain(problem: HardyProblem, with_levels: bool = True,
            levels=None) -> SupResult:
    """The Muckenhoupt-type supremum, plus truncation level profile.

    The profile entry P_k is the same supremum recomputed on the sub-problem
    of vertices with level <= k (level defaults to tree depth; coverings
    pass their dyadic size classes). Five consecutive gains of 5% or more
    raise the diverging flag.
    """
    tree, q, p = problem.tree, problem.q, problem.p
    u, v = _bfs_weights(problem)
    front = tree.kernel.prefix(u ** (-q)) ** (1.0 / q)
    vp = v ** p
    value, arg = _sup_over_gamma_star(tree, front * tree.kernel.shadow(vp) ** (1.0 / p))
    profile = _level_profile(tree, levels, front, vp, p) if with_levels else []
    return SupResult(value, arg, _diverging(profile), tuple(profile))


def a_tree(problem: HardyProblem, theta: float, with_levels: bool = True,
           levels=None) -> SupResult:
    """The theta-parameterized sufficient-condition supremum.

    N is accumulated top-down along paths, the weighted shadow sums
    bottom-up, one kernel pass each. Level profiles as in a_chain.
    """
    if not theta > 1.0:
        raise ValueError(f"theta must exceed 1, got {theta}")
    tree, q, p = problem.tree, problem.q, problem.p
    u, v = _bfs_weights(problem)
    N = tree.kernel.prefix(u ** (-q))
    vals, front, base = _a_tree_terms(tree.kernel, N, v ** p, theta, q, p)
    value, arg = _sup_over_gamma_star(tree, vals)
    profile = _level_profile(tree, levels, front, base, p) if with_levels else []
    return SupResult(value, arg, _diverging(profile), tuple(profile))


def _a_tree_terms(kernel: TreeKernel, N: np.ndarray, vp: np.ndarray, theta: float,
                  q: float, p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """a_tree's per-vertex values N^{1/(theta q)} T^{1/p}, with
    T = shadow(v^p N^{(p/q)(1 - 1/theta)}); returns (values, front, base).

    N = prefix(u^-q) and vp = v^p do not depend on theta, so the theta
    search computes them once and passes them in.
    """
    expo = (p / q) * (1.0 - 1.0 / theta)
    base = vp * N ** expo
    front = N ** (1.0 / (theta * q))
    return front * kernel.shadow(base) ** (1.0 / p), front, base


@dataclass(frozen=True)
class ThetaResult:
    theta_star: float
    suff_bound: float
    a_tree_value: float
    diverging: bool


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def optimize_theta(problem: HardyProblem, theta_max: float = 64.0,
                   grid_points: int = 64, rel_width: float = 1e-4) -> ThetaResult:
    """Minimize g(theta) = (theta/(theta-1))^{1/q} a_tree(theta).

    A log grid over (1, theta_max] guards against local minima; the best
    bracket is then refined by golden section to the requested relative
    width. The bound g(theta*) always dominates the exact constant.
    Each g(theta) costs one kernel shadow pass: the path sums are hoisted.
    """
    q, p = problem.q, problem.p
    kernel = problem.tree.kernel
    u, v = _bfs_weights(problem)
    N = kernel.prefix(u ** (-q))
    vp = v ** p

    def g(theta: float) -> float:
        # equals (theta/(theta-1))^{1/q} a_tree(problem, theta).value exactly
        vals = _a_tree_terms(kernel, N, vp, theta, q, p)[0]
        return (theta / (theta - 1.0)) ** (1.0 / q) * float(np.max(vals))

    thetas = [theta_max ** (i / grid_points) for i in range(1, grid_points + 1)]
    vals = [g(t) for t in thetas]
    i = int(np.argmin(vals))
    lo = thetas[i - 1] if i > 0 else 1.0 + 0.5 * (thetas[0] - 1.0)
    hi = thetas[i + 1] if i + 1 < len(thetas) else thetas[-1]
    # golden section on [lo, hi]
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = g(c), g(d)
    while (b - a) > rel_width * a:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = g(d)
    theta_star = 0.5 * (a + b)
    at = a_tree(problem, theta_star)
    bound = (theta_star / (theta_star - 1.0)) ** (1.0 / q) * at.value
    grid_best = (float(vals[i]), thetas[i])
    if grid_best[0] < bound:            # golden section never loses to its grid seed
        bound, theta_star = grid_best
        at = a_tree(problem, theta_star)
    return ThetaResult(theta_star, bound, at.value, at.diverging)


# -- exact constant via nonlinear power iteration -----------------------------

@dataclass(frozen=True)
class ExactConstant:
    value: float                # c_lower = ||M x||_p at the unit maximizer x
    c_upper: float              # Collatz-Wielandt bound, certified up to rounding
    maximizer: np.ndarray       # Gamma* id order, unit lp norm, nonnegative
    form: str
    iterations: int


class HardyOperator:
    """M[s, t] = v_s / u_t on pairs t <= s, applied without forming M:

        M x = v * prefix(x / u),    M' y = shadow(v * y) / u,

    one kernel pass, O(|Gamma*|), per column. `apply`/`apply_t` index rows
    and columns in the kernel's BFS order, `matvec`/`rmatvec` in Gamma* id
    order. All four take (m,) or (m, k).
    """

    def __init__(self, problem: HardyProblem):
        self.kernel = problem.tree.kernel
        self.size = self.kernel.m
        self._u, self._v = _bfs_weights(problem)

    def _weights(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if X.ndim == 1:
            return self._u, self._v
        return self._u[:, None], self._v[:, None]

    def apply(self, X: np.ndarray) -> np.ndarray:
        u, v = self._weights(X)
        return v * self.kernel.prefix(X / u)

    def apply_t(self, Y: np.ndarray) -> np.ndarray:
        u, v = self._weights(Y)
        return self.kernel.shadow(v * Y) / u

    def matvec(self, X: np.ndarray) -> np.ndarray:
        return self._by_id(self.apply, X)

    def rmatvec(self, Y: np.ndarray) -> np.ndarray:
        return self._by_id(self.apply_t, Y)

    def _by_id(self, bfs_map, X: np.ndarray) -> np.ndarray:
        rank = self.kernel.rank
        out = np.empty(X.shape)
        out[rank] = bfs_map(X[rank])
        return out


def _pnorm_power(apply, apply_t, m: int, p: float, rtol: float,
                 maxiter: int) -> tuple[float, float, np.ndarray, int]:
    """(c_lower, c_upper, x, steps) for the lp -> lp norm of a nonnegative
    m x m operator A (apply: x -> A x, apply_t: y -> A' y), iterated from
    all ones as exact_constant describes. Every iterate is >= 0, so
    Phi_r(z) = z^{r-1}, and np.fmax skips the 0/0 entries of F(x)/x."""
    q = p / (p - 1.0)
    x = np.full(m, float(m) ** (-1.0 / p))
    lower = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(1, maxiter + 1):
            y = apply(x)
            lower = float(np.sum(y ** p) ** (1.0 / p))
            fx = apply_t(y ** (p - 1.0)) ** (q - 1.0)
            upper = float(np.fmax.reduce(fx / x)) ** (1.0 / q)
            if upper - lower <= rtol * lower:
                return lower, upper, x, it
            x = fx / np.sum(fx ** p) ** (1.0 / p)
    raise NonConvergenceError(lower, maxiter)


def exact_constant(problem: HardyProblem, form: str = "primal",
                   rtol: float = 1e-10, maxiter: int = 100_000) -> ExactConstant:
    """Best constant C of the Hardy inequality (primal and dual agree), as a
    bracket value = c_lower <= C <= c_upper with c_upper - c_lower <= rtol c_lower.

    primal: lp -> lp norm of M;  dual: lq -> lq norm of M transposed.
    M is applied matrix-free (HardyOperator) in the kernel's BFS order, so
    there is no size cap; the maximizer is returned in Gamma* id order.

    Lower side: c_lower = ||M x||_p is attained by the unit x returned.
    Upper side (Collatz-Wielandt): F(x) = Phi_q(M' Phi_p(M x)) is
    order-preserving and homogeneous of degree one on x >= 0. A maximizer
    w >= 0 of ||M w||_p / ||w||_p satisfies M' Phi_p(M w) = C^p Phi_p(w) at
    every entry, zeros included (p > 1: raising a zero entry gains to first
    order and costs only to order p), so F(w) = C^q w. If F(x) <= mu x
    with x > 0, then F^k(x) <= mu^k x, and w <= t x gives
    C^{qk} w = F^k(w) <= t mu^k x for all k, so C^q <= mu. Hence
    C <= c_upper = (max_i F(x)_i / x_i)^{1/q} for every positive x.

    Zero entries: F(x)_t > 0 whenever t is comparable to a vertex where
    x > 0, so from all ones every iterate is positive in exact arithmetic.
    But M is block diagonal over the subtrees of the root's children, and
    a maximizer vanishes on blocks of smaller norm; there the iterate
    decays geometrically and can underflow. Entries with x_i = F(x)_i = 0
    are skipped, and x_i = 0 < F(x)_i gives c_upper = inf (the loop goes
    on), so the bound is never nan. An entry is skipped only after the
    iteration has driven it below the least float, and all sums are
    floating point: c_upper is certified up to rounding.
    """
    if form not in ("primal", "dual"):
        raise ValueError(f"form must be primal or dual, got {form!r}")
    M = HardyOperator(problem)
    if form == "primal":
        run = (M.apply, M.apply_t, M.size, problem.p)
    else:
        run = (M.apply_t, M.apply, M.size, problem.q)
    lower, upper, x, it = _pnorm_power(*run, rtol, maxiter)
    by_id = np.empty(M.size)
    by_id[M.kernel.rank] = x
    return ExactConstant(lower, upper, by_id, form, it)


# -- the EHP quantity ---------------------------------------------------------

@dataclass(frozen=True)
class AlphaResult:
    alpha: float
    b: np.ndarray               # full-length, zeros off the support


def alpha_K(problem: HardyProblem, boundary) -> AlphaResult:
    """Minimal lp mass of b >= 0 with unit u-weighted path sums at `boundary`.

    Restricting to b >= 0 supported on the union of the boundary paths is
    lossless because the constraints involve |b_s|; the program then
    decomposes exactly along the path tree, see _alpha_tree_recursion.
    """
    tree = problem.tree
    bnd = Antichain.of(tree, boundary).vertices
    K = tree.kernel
    # the union of the boundary paths: the vertices whose shadow meets bnd
    support = np.sort(K.order[K.shadow(np.isin(K.order, bnd)) > 0]).tolist()
    full = _alpha_tree_recursion(problem, bnd, support)
    alpha = float(np.sum(full[support] ** problem.p) ** (1.0 / problem.p))
    return AlphaResult(alpha, full)


def _parallel(a: float, b: float, p: float) -> float:
    """(a^{-r} + b^{-r})^{-1/r} with r = 1/(p-1), the lp analogue of
    resistors in parallel; written over the smaller argument so no power
    overflows, and 0 when either argument is 0."""
    lo, hi = (a, b) if a <= b else (b, a)
    return lo * (1.0 + (lo / hi) ** (1.0 / (p - 1.0))) ** (1.0 - p)


def _alpha_tree_recursion(problem: HardyProblem, bnd: tuple[int, ...],
                          support: list[int]) -> np.ndarray:
    """Exact minimizer by parallel composition along the path tree.

    With V_s(c) = minimal cost for the subtree below s to deliver the
    remaining budget c to each of its boundary constraints, homogeneity
    gives V_s(c) = kappa_s c^p, a boundary leaf has kappa = u^p, and an
    interior vertex composes with its children's total K by

        kappa_s = ( u_s^{-q} + K^{-1/(p-1)} )^{-(p-1)},

    the parallel sum of u_s^p and K. Unwinding the optimal budget split
    top-down yields b >= 0 satisfying every constraint exactly.
    """
    tree, p = problem.tree, problem.p
    boundary = set(bnd)
    in_k = set(support)
    kappa: dict[int, float] = {}
    total: dict[int, float] = {}        # children's K, reused by the budget split
    for s in reversed(tree.topo):
        if s not in in_k:
            continue
        if s in boundary:
            kappa[s] = problem.u[s] ** p
            continue
        total[s] = sum(kappa[c] for c in tree.children[s] if c in in_k)
        kappa[s] = _parallel(problem.u[s] ** p, total[s], p)

    b = np.zeros(tree.n)
    budget: dict[int, float] = {c: 1.0 for c in tree.children[tree.root]
                                if c in in_k}
    for s in tree.topo:
        if s not in in_k or s == tree.root:
            continue
        c = budget[s]
        if s in boundary:
            b[s] = c * problem.u[s]
            continue
        gamma = (problem.u[s] ** p / total[s]) ** (1.0 / (p - 1.0))
        y = c / (1.0 + gamma)
        b[s] = y * problem.u[s]
        for ch in tree.children[s]:
            if ch in in_k:
                budget[ch] = c - y
    return b


class HullCapExceeded(RuntimeError):
    """ehp_B evaluated more hull points than the configured cap."""

    def __init__(self, cap: int, count: int):
        super().__init__(f"EHP hull points exceed cap={cap} ({count} evaluated)")
        self.cap = cap
        self.count = count


@dataclass(frozen=True)
class EhpResult:
    value: float
    arg: tuple[int, ...]        # cut antichain attaining the sup
    count: int                  # hull points evaluated


def _upper_hull(ks: list[float], ns: list[float]) -> list[int]:
    """Indices of the strict upper convex hull of points sorted by ks.

    Points collinear with their hull neighbours are dropped, so of several
    points on one hull edge only its two ends survive.
    """
    hull: list[int] = []
    for j in range(len(ks)):
        kj, nj = ks[j], ns[j]
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            if (ks[a] - ks[o]) * (nj - ns[o]) < (ns[a] - ns[o]) * (kj - ks[o]):
                break
            hull.pop()
        hull.append(j)
    return hull


def ehp_B(problem: HardyProblem, cap: int | None = None) -> EhpResult:
    """B = sup over cut antichains A of ||v||_{lp(union of shadows)} / alpha_A,
    computed exactly by an upper-hull dynamic program over the tree.

    An antichain A below a vertex s carries the pair (kappa, N): N is the
    sum of shadow(v^p) over A, and kappa the minimal lp mass (alpha^p) of
    its cut seen from s. The options at s are the empty antichain (0, 0),
    A = {s} with (u_s^p, shadow(v^p)_s), and unions of the children's
    options, with kappa_s = parallel(u_s^p, K) for K the sum of the
    children's kappa (see _alpha_tree_recursion). That map is concave and
    increasing, so every objective seen from above s is convex in
    (kappa, N) and increasing in N, and its maximum sits on the upper
    convex hull of the options. The hull at s is therefore the upper hull
    of the children's hulls' slope-merged Minkowski sum, mapped by
    parallel(u_s^p, .), plus the point of {s}; it has at most
    |subtree(s)| + 1 points. At the root, B^p = max N/K over the Minkowski
    sum of the root children's hulls: the first edge of its hull.

    Ties: sibling hull edges merge in child-id order, and points collinear
    on a hull edge are dropped, so a tie on one edge goes to its far end
    (the larger mass). `count` is the number of hull points evaluated;
    HullCapExceeded is raised once it passes `cap`.
    """
    tree, p = problem.tree, problem.p
    gs = list(tree.gamma_star)
    w = np.zeros(tree.n)
    w[gs] = problem.v[gs] ** p
    shadow = _shadow_sums(tree, w).tolist()
    up = np.zeros(tree.n)
    up[gs] = problem.u[gs] ** p
    up = up.tolist()

    hull_k: list = [None] * tree.n      # hull points of each vertex
    hull_n: list = [None] * tree.n
    source: list = [None] * tree.n      # candidate index of each hull point
    merged: list = [None] * tree.n      # child id of each merged edge, in order
    count = 0
    for s in reversed(tree.topo):
        edges = []
        for c in tree.children[s]:
            kc, nc = hull_k[c], hull_n[c]
            for i in range(1, len(kc)):
                dk, dn = kc[i] - kc[i - 1], nc[i] - nc[i - 1]
                edges.append((dn / dk, dk, dn, c))
            hull_k[c] = hull_n[c] = None
        edges.sort(key=lambda e: e[0], reverse=True)     # stable
        ks, ns = [0.0], [0.0]
        for _, dk, dn, _ in edges:
            ks.append(ks[-1] + dk)
            ns.append(ns[-1] + dn)
        if s != tree.root:
            ks = [_parallel(up[s], k, p) for k in ks]
            ks.append(up[s])
            ns.append(shadow[s])
        count += len(ks) - 1
        if cap is not None and count > cap:
            raise HullCapExceeded(cap, count)
        hull = _upper_hull(ks, ns)
        hull_k[s] = [ks[j] for j in hull]
        hull_n[s] = [ns[j] for j in hull]
        source[s] = hull
        merged[s] = [e[3] for e in edges]

    # the hull from the origin is concave, so N/K peaks at its first edge
    best_k, best_n = hull_k[tree.root][1], hull_n[tree.root][1]
    arg = []
    stack = [(tree.root, source[tree.root][1])]
    while stack:
        s, j = stack.pop()
        if j > len(merged[s]):                  # the singleton {s}
            arg.append(s)
            continue
        taken: dict[int, int] = {}
        for c in merged[s][:j]:
            taken[c] = taken.get(c, 0) + 1
        stack.extend((c, source[c][i]) for c, i in taken.items())
    return EhpResult(float((best_n / best_k) ** (1.0 / p)), tuple(sorted(arg)), count)


# -- chain equivalence --------------------------------------------------------

@dataclass(frozen=True)
class ChainEquivalence:
    cond2_ok: bool
    atree_bound_ok: bool
    worst_margin: float         # min over t of rhs/lhs in the cond2 check


def chain_equivalence_check(problem: HardyProblem, theta: float,
                            slack: float = 1e-9) -> ChainEquivalence:
    """On chains: the substitution condition and a_tree <= theta^{1/p} a_chain."""
    tree, p = problem.tree, problem.p
    if not tree.is_chain:
        raise ValueError("chain_equivalence_check requires a chain")
    if not theta > 1.0:
        raise ValueError("theta must exceed 1")
    gs = list(tree.gamma_star)
    w_v = np.zeros(tree.n)
    w_v[gs] = problem.v[gs] ** p
    M = _shadow_sums(tree, w_v)
    # chain order: root's child first
    order = [t for t in tree.topo if t != tree.root]
    lhs = 0.0
    cond2_ok = True
    worst = math.inf
    for t in reversed(order):
        lhs += w_v[t] * M[t] ** (1.0 / theta - 1.0)
        rhs = theta * M[t] ** (1.0 / theta)
        cond2_ok &= lhs <= rhs * (1.0 + slack)
        if lhs > 0:
            worst = min(worst, rhs / lhs)
    ac = a_chain(problem, with_levels=False).value
    at = a_tree(problem, theta, with_levels=False).value
    atree_ok = at <= theta ** (1.0 / p) * ac * (1.0 + slack)
    return ChainEquivalence(bool(cond2_ok), bool(atree_ok), float(worst))


# -- full report --------------------------------------------------------------

@dataclass
class HardyReport:
    problem: HardyProblem
    a_chain: float
    a_chain_arg: int
    a_tree: float
    theta_star: float
    suff_bound: float
    b_ehp: float
    b_arg: tuple[int, ...]
    b_count: int                # hull points ehp_B evaluated
    c_exact: float              # c_lower of the primal bracket
    c_upper: float
    c_dual: float
    maximizer: list[float]
    flags: tuple[str, ...] = ()
    checks: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "problem": self.problem.to_json(),
            "a_chain": self.a_chain,
            "a_chain_arg": self.a_chain_arg,
            "a_tree": self.a_tree,
            "theta_star": self.theta_star,
            "suff_bound": self.suff_bound,
            "b_ehp": self.b_ehp,
            "b_arg": list(self.b_arg),
            "b_count": self.b_count,
            "c_exact": self.c_exact,
            "c_upper": self.c_upper,
            "c_dual": self.c_dual,
            "maximizer": self.maximizer,
            "flags": list(self.flags),
            "checks": self.checks,
        }


def hardy_report(problem: HardyProblem, theta_max: float = 64.0,
                 b_cap: int | None = None) -> HardyReport:
    """Compute all four constants plus the internal consistency checks.

    Each check against C uses the side of the primal bracket that proves
    it: c_upper for upper bounds on C, c_lower for lower bounds.
    b_cap optionally bounds the hull points ehp_B may evaluate
    (HullCapExceeded past it).
    """
    ac = a_chain(problem)
    th = optimize_theta(problem, theta_max=theta_max)
    primal = exact_constant(problem, "primal")
    dual = exact_constant(problem, "dual")
    b = ehp_B(problem, cap=b_cap)
    flags = list(problem.flags)
    if ac.diverging:
        flags.append("diverging")
    if th.diverging:
        # candidate for the open necessity question: finite C with the
        # tree condition growing at the optimized theta
        flags.append("a_tree_diverging_at_theta_star")
    lo, hi = primal.value, primal.c_upper
    checks = {
        "duality": abs(lo - dual.value) <= 1e-6 * max(lo, 1e-300),
        "sufficiency": hi <= th.suff_bound * (1.0 + 1e-9),
        "a_chain_le_c": ac.value <= lo * (1.0 + 1e-9),
        "a_chain_le_b": ac.value <= b.value * (1.0 + 1e-9),
        "sandwich": (b.value <= lo * (1.0 + 1e-6)
                     and hi <= 4.0 * b.value * (1.0 + 1e-6)),
    }
    return HardyReport(
        problem=problem,
        a_chain=ac.value, a_chain_arg=ac.arg,
        a_tree=th.a_tree_value, theta_star=th.theta_star, suff_bound=th.suff_bound,
        b_ehp=b.value, b_arg=b.arg, b_count=b.count,
        c_exact=lo, c_upper=hi, c_dual=dual.value,
        maximizer=[float(x) for x in primal.maximizer],
        flags=tuple(flags), checks=checks,
    )

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
            exact_constant); M x = v prefix(x/u), M'y = shadow(v y)/u. The
            primal run is made once per problem and cached on it; the dual
            bracket starts from Phi_p(M x) at its maximizer x

The path-prefix and shadow sums behind all of these run on the tree's
level-vectorised kernel (tree.TreeKernel): one numpy step per depth level,
O(|Gamma*|) per pass, with no dense matrix and no size cap.

Fixed values: theta* from 64 log-spaced thetas on (1, theta_max], which
share kernel passes in blocks of at most 2^16 array entries (512 KB per
float array, two per block, so a block stays within a 2 MB L2 cache),
refined by golden section to relative width 1e-4; C to a relative bracket
gap of 1e-10 within 100 000 iterations.

Vertex sups break ties to the lowest vertex id. B's antichain is read off
the first hull vertex after the origin at the root. Sibling hulls merge in
child-id order and, at every vertex, points collinear on a hull edge are
dropped, so a tie between antichains on one hull edge goes to its far end
(the larger mass). Reports are reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .tree import RootedTree, TreeKernel

GROWTH_FACTOR = 1.05   # per-level growth that marks a quantity "diverging"
GROWTH_LEVELS = 5
THETA_GRID = 64        # log-spaced thetas on (1, theta_max] seeding golden section
THETA_BLOCK = 1 << 16  # array entries per block of thetas in one kernel pass
MAX_ITERATIONS = 100_000


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
    derived from p. Gamma* must not be empty. make_problem hands them over
    read-only, so the primal bracket cached on the problem cannot go stale.
    """

    tree: RootedTree
    u: np.ndarray
    v: np.ndarray
    p: float
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if not 1.0 < self.p < math.inf:
            raise ValueError(f"p must lie in (1, inf), got {self.p}")
        if self.tree.n < 2:
            raise ValueError("Gamma* is empty: the tree has no vertex besides the root")
        for name, w in (("u", self.u), ("v", self.v)):
            if w.shape != (self.tree.n,):
                raise ValueError(f"{name} must have one entry per vertex")
            vals = w[self.tree.gamma_star]
            if not np.all(np.isfinite(vals)) or np.any(vals <= 0):
                raise ValueError(f"{name} must be strictly positive and finite on Gamma*")

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)

    @cached_property
    def _primal(self) -> "ExactConstant":
        """exact_constant(self, "primal"): the run from all ones, made once;
        the dual starts from its maximizer."""
        m = self.tree.kernel.m
        x = np.full(m, float(m) ** (-1.0 / self.p))
        return _bracket(self, "primal", *_pnorm_power(*_operators(self), x, self.p))

    def to_json(self) -> dict:
        gs = self.tree.gamma_star
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
    gs = tree.gamma_star
    if len(u_star) != len(gs) or len(v_star) != len(gs):
        raise ValueError(f"need {len(gs)} weights (one per non-root vertex)")
    u = np.full(tree.n, np.nan)
    v = np.full(tree.n, np.nan)
    u[gs] = np.asarray(u_star, dtype=float)
    v[gs] = np.asarray(v_star, dtype=float)
    u.flags.writeable = v.flags.writeable = False
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


def _diverging(levels: tuple[float, ...]) -> bool:
    """Monotone growth by >= GROWTH_FACTOR over the last GROWTH_LEVELS steps."""
    if len(levels) < GROWTH_LEVELS + 1:
        return False
    tail = levels[-(GROWTH_LEVELS + 1):]
    return all(b >= GROWTH_FACTOR * a > 0 for a, b in zip(tail, tail[1:]))


@dataclass(frozen=True)
class SupResult:
    value: float
    arg: int                    # vertex achieving the sup (lowest id wins)
    diverging: bool             # False when no profile was asked for
    levels: tuple[float, ...]   # partial sups on the level-<=k truncations, or ()


def _sup_over_gamma_star(tree: RootedTree, vals: np.ndarray) -> tuple[float, int]:
    """Max of vals (BFS order over Gamma*) and the lowest id attaining it."""
    by_id = np.empty(tree.kernel.m)
    by_id[tree.kernel.rank] = vals
    i = int(np.argmax(by_id))         # argmax returns the first (lowest id)
    return float(by_id[i]), i + (i >= tree.root)


_PROFILE_BLOCK = 1 << 22     # array entries per block of truncation levels


def _level_profile(tree: RootedTree, levels, front: np.ndarray, base: np.ndarray,
                   p: float) -> tuple[float, ...]:
    """P_k = max over Gamma* vertices t of level <= k of
    front_t (shadow sum of base over level <= k)_t^{1/p}, for k = 1..max level;
    () when levels is None.

    front and base are in BFS order; the truncations are the columns of
    one kernel call, taken in blocks to bound the memory.
    """
    if levels is None:
        return ()
    lv_all = np.asarray(levels, dtype=int)
    if lv_all.shape != (tree.n,):
        raise ValueError("levels must assign one integer per vertex")
    lv = lv_all[tree.kernel.order]
    ks = np.arange(1, int(lv_all.max()) + 1)
    step = max(1, _PROFILE_BLOCK // max(len(lv), 1))
    profile: list[float] = []
    for i in range(0, len(ks), step):
        inside = lv[:, None] <= ks[i:i + step]
        S = tree.kernel.shadow(np.where(inside, base[:, None], 0.0))
        vals = np.where(inside, front[:, None] * S ** (1.0 / p), -np.inf)
        profile.extend(float(x) for x in vals.max(axis=0))
    return tuple(profile)


def a_chain(problem: HardyProblem, levels=None) -> SupResult:
    """The Muckenhoupt-type supremum, plus a truncation level profile only
    when `levels` (one integer per vertex) is given.

    The profile entry P_k is the same supremum recomputed on the sub-problem
    of vertices with level <= k (hardy_report passes the tree depth;
    coverings pass their dyadic size classes). Five consecutive gains of 5%
    or more raise the diverging flag. With levels=None, levels is ().
    """
    tree, q, p = problem.tree, problem.q, problem.p
    u, v = _bfs_weights(problem)
    front = tree.kernel.prefix(u ** (-q)) ** (1.0 / q)
    vp = v ** p
    value, arg = _sup_over_gamma_star(tree, front * tree.kernel.shadow(vp.copy()) ** (1.0 / p))
    profile = _level_profile(tree, levels, front, vp, p)
    return SupResult(value, arg, _diverging(profile), profile)


def a_tree(problem: HardyProblem, theta: float, levels=None) -> SupResult:
    """The theta-parameterized sufficient-condition supremum.

    N is accumulated top-down along paths, the weighted shadow sums
    bottom-up, one kernel pass each. A level profile is computed only when
    `levels` is given, as in a_chain.
    """
    if not theta > 1.0:
        raise ValueError(f"theta must exceed 1, got {theta}")
    tree, q, p = problem.tree, problem.q, problem.p
    u, v = _bfs_weights(problem)
    N = tree.kernel.prefix(u ** (-q))
    vals, front, base = _a_tree_terms(tree.kernel, N, v ** p, (theta,), q, p,
                                      keep_base=True)
    value, arg = _sup_over_gamma_star(tree, vals[:, 0])
    profile = _level_profile(tree, levels, front[:, 0], base[:, 0], p)
    return SupResult(value, arg, _diverging(profile), profile)


def _a_tree_terms(kernel: TreeKernel, N: np.ndarray, vp: np.ndarray, thetas,
                  q: float, p: float, keep_base: bool = False):
    """a_tree's per-vertex values N^{1/(theta q)} T^{1/p}, with
    T = shadow(base), base = v^p N^{(p/q)(1 - 1/theta)}, one column per
    theta in `thetas`; returns (values, front, base) as (m, len(thetas))
    arrays, base None unless keep_base.

    N = prefix(u^-q) and vp = v^p do not depend on theta, so the theta
    search computes them once and passes them in. Each column is built on
    contiguous 1-D arrays and stays contiguous: the arrays are column-major,
    which also keeps each column's max a contiguous reduction. All columns
    share one kernel shadow pass, in place on base unless keep_base asks
    for a copy; its output is raised and multiplied in place.
    """
    front = np.empty((len(N), len(thetas)), order="F")
    base = np.empty_like(front)
    for j, theta in enumerate(thetas):
        base[:, j] = vp * N ** ((p / q) * (1.0 - 1.0 / theta))
        front[:, j] = N ** (1.0 / (theta * q))
    vals = kernel.shadow(base.copy(order="F") if keep_base else base)
    vals **= 1.0 / p
    vals *= front
    return vals, front, base if keep_base else None


@dataclass(frozen=True)
class ThetaResult:
    theta_star: float
    suff_bound: float
    a_tree_value: float


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _check_theta_max(theta_max: float) -> None:
    """ValueError unless 1 < theta_max < inf."""
    if not 1.0 < theta_max < math.inf:
        raise ValueError(f"theta_max must be finite and > 1, got {theta_max}")


def optimize_theta(problem: HardyProblem, theta_max: float = 64.0) -> ThetaResult:
    """Minimize g(theta) = (theta/(theta-1))^{1/q} a_tree(theta).

    A log grid of THETA_GRID thetas over (1, theta_max] guards against local
    minima; the best bracket is then refined by golden section to relative
    width 1e-4. The bound g(theta*) always dominates the exact constant.
    The path sums are hoisted; the grid shares kernel shadow passes, one
    per block of at most THETA_BLOCK array entries, and each golden-section
    step is one pass. a_tree at theta* is the sup the last guard pass or
    the grid already computed. ValueError unless 1 < theta_max < inf.
    """
    _check_theta_max(theta_max)
    q, p = problem.q, problem.p
    kernel = problem.tree.kernel
    u, v = _bfs_weights(problem)
    N = kernel.prefix(u ** (-q))
    vp = v ** p

    def sups(thetas) -> list[float]:   # a_tree(problem, theta).value exactly
        step = max(1, THETA_BLOCK // len(N))
        out: list[float] = []
        for i in range(0, len(thetas), step):
            vals = _a_tree_terms(kernel, N, vp, thetas[i:i + step], q, p)[0]
            out.extend(float(x) for x in vals.max(axis=0))
        return out

    def bound(theta: float, sup: float) -> float:
        return (theta / (theta - 1.0)) ** (1.0 / q) * sup

    def g(theta: float) -> float:
        return bound(theta, *sups((theta,)))

    thetas = [theta_max ** (i / THETA_GRID) for i in range(1, THETA_GRID + 1)]
    grid = sups(thetas)
    vals = [bound(t, s) for t, s in zip(thetas, grid)]
    i = int(np.argmin(vals))
    lo = thetas[i - 1] if i > 0 else 1.0 + 0.5 * (thetas[0] - 1.0)
    hi = thetas[i + 1] if i + 1 < len(thetas) else thetas[-1]
    # golden section on [lo, hi]
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = g(c), g(d)
    while (b - a) > 1e-4 * a:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = g(d)
    theta_star = 0.5 * (a + b)
    sup, = sups((theta_star,))
    if vals[i] < bound(theta_star, sup):    # golden section never loses to its grid seed
        theta_star, sup = thetas[i], grid[i]
    return ThetaResult(theta_star, bound(theta_star, sup), sup)


# -- exact constant via nonlinear power iteration -----------------------------

@dataclass(frozen=True)
class ExactConstant:
    value: float                # c_lower = ||M x||_p at the unit maximizer x
    c_upper: float              # Collatz-Wielandt bound, certified up to rounding
    maximizer: np.ndarray       # Gamma* id order, unit lp norm, nonnegative, read-only
    form: str
    iterations: int


def _pnorm_power(apply, apply_t, x: np.ndarray, p: float) -> tuple[float, float, np.ndarray, int]:
    """(c_lower, c_upper, x, steps) for the lp -> lp norm of a nonnegative
    m x m operator A (apply: x -> A x, apply_t: y -> A' y), iterated from
    the unit start x >= 0 as exact_constant describes. Every iterate is >= 0,
    so Phi_r(z) = z^{r-1}, and np.fmax skips the 0/0 entries of F(x)/x."""
    q = p / (p - 1.0)
    lower = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(1, MAX_ITERATIONS + 1):
            y = apply(x)
            lower = float(np.add.reduce(y ** p) ** (1.0 / p))
            fx = apply_t(y ** (p - 1.0)) ** (q - 1.0)
            upper = float(np.fmax.reduce(fx / x)) ** (1.0 / q)
            if upper - lower <= 1e-10 * lower:
                return lower, upper, x, it
            x = fx / np.add.reduce(fx ** p) ** (1.0 / p)
    raise NonConvergenceError(lower, MAX_ITERATIONS)


def _operators(problem: HardyProblem):
    """M x = v prefix(x/u) and M' y = shadow(v y)/u in the kernel's BFS order."""
    kernel = problem.tree.kernel
    u, v = _bfs_weights(problem)

    def apply(x: np.ndarray) -> np.ndarray:       # M x
        return v * kernel.prefix(x / u)            # the kernel overwrites x / u

    def apply_t(y: np.ndarray) -> np.ndarray:     # M' y
        return kernel.shadow(v * y) / u

    return apply, apply_t


def _bracket(problem: HardyProblem, form: str, lower: float, upper: float,
             x: np.ndarray, it: int) -> ExactConstant:
    """_pnorm_power's result, with the iterate x moved to id order."""
    kernel = problem.tree.kernel
    by_id = np.empty(kernel.m)
    by_id[kernel.rank] = x
    by_id.flags.writeable = False
    return ExactConstant(lower, upper, by_id, form, it)


def exact_constant(problem: HardyProblem, form: str = "primal") -> ExactConstant:
    """Best constant C of the Hardy inequality (primal and dual agree), as a
    bracket value = c_lower <= C <= c_upper with c_upper - c_lower <= 1e-10 c_lower.

    primal: lp -> lp norm of M;  dual: lq -> lq norm of M transposed.
    M is applied matrix-free in the kernel's BFS order, M x = v prefix(x/u)
    and M' y = shadow(v y)/u, one kernel pass, O(|Gamma*|), each; so there
    is no size cap, and the maximizer is returned in Gamma* id order.

    The primal iterates from all ones. It runs once per problem: the result
    is cached on the problem and every primal call returns it, with a
    read-only maximizer. The dual iterates M' at q from
    y0 = Phi_p(M x)/||Phi_p(M x)||_q, x the primal maximizer. At an exact
    maximizer that is the dual maximizer, so the dual bracket mostly closes
    in one step. It is still certified on its own: the bound below holds
    from any start, and c_lower is attained by the unit y returned. A dual
    call gives the same bits whether or not the primal was asked for first.

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
    decays geometrically and can underflow. The dual start is zero only
    where Phi_p(M x) underflows, on such decayed blocks. Entries with
    x_i = F(x)_i = 0 are skipped, and x_i = 0 < F(x)_i gives c_upper = inf
    (the loop goes on), so the bound is never nan. An entry is skipped only
    after an iteration (the primal's, for a zero of the dual start) has
    driven it below the least float, and all sums are floating point:
    c_upper is certified up to rounding.
    """
    if form not in ("primal", "dual"):
        raise ValueError(f"form must be primal or dual, got {form!r}")
    if form == "primal":
        return problem._primal
    apply, apply_t = _operators(problem)
    p, q = problem.p, problem.q
    z = apply(problem._primal.maximizer[problem.tree.kernel.rank]) ** (p - 1.0)
    y = z / np.add.reduce(z ** q) ** (1.0 / q)
    return _bracket(problem, "dual", *_pnorm_power(apply_t, apply, y, q))


# -- the EHP quantity ---------------------------------------------------------

def _parallel(a: float, b: float, p: float) -> float:
    """(a^{-r} + b^{-r})^{-1/r} with r = 1/(p-1), the lp analogue of
    resistors in parallel; written over the smaller argument so no power
    overflows, and 0 when either argument is 0."""
    lo, hi = (a, b) if a <= b else (b, a)
    return lo * (1.0 + (lo / hi) ** (1.0 / (p - 1.0))) ** (1.0 - p)


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
    children's kappa: the cheapest split of a unit budget between b_s and
    the subtrees below s. That map is concave and increasing, so every
    objective seen from above s is convex in (kappa, N) and increasing in
    N, and its maximum sits on the upper convex hull of the options. The
    hull at s is therefore the upper hull of the children's hulls'
    slope-merged Minkowski sum, mapped by parallel(u_s^p, .), plus the
    point of {s}; it has at most |subtree(s)| + 1 points. At the root,
    B^p = max N/K over the Minkowski sum of the root children's hulls: the
    first edge of its hull.

    Ties: sibling hull edges merge in child-id order, and points collinear
    on a hull edge are dropped, so a tie on one edge goes to its far end
    (the larger mass). `count` is the number of hull points evaluated;
    HullCapExceeded is raised once it passes `cap`.
    """
    tree, p = problem.tree, problem.p
    gs = tree.gamma_star
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
    child_ids, child_offsets = tree.child_ids.tolist(), tree.child_offsets.tolist()
    count = 0
    for s in reversed(tree.topo.tolist()):
        edges = []
        for c in child_ids[child_offsets[s]:child_offsets[s + 1]]:
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
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**doc, "problem": self.problem.to_json(),
                "b_arg": list(self.b_arg), "flags": list(self.flags)}


def hardy_report(problem: HardyProblem, theta_max: float = 64.0,
                 b_cap: int | None = None) -> HardyReport:
    """Compute all four constants plus the internal consistency checks.

    Each check against C uses the side of the primal bracket that proves
    it: c_upper for upper bounds on C, c_lower for lower bounds. The
    primal bracket is the one cached on the problem, and c_dual comes from
    the dual bracket started at the primal maximizer (see exact_constant),
    so the duality check compares two brackets each certified on its own,
    not two runs from all ones; a second report on the same problem reuses
    the primal and gives the same bytes.
    b_cap optionally bounds the hull points ehp_B may evaluate
    (HullCapExceeded past it).

    The flags `diverging` (a_chain) and `a_tree_diverging_at_theta_star`
    come from a finite-depth growth heuristic on the depth-level profiles
    (five consecutive per-level gains of 5 % or more), not a proof. The same
    test has a known false positive: on the size-class profile, a_tree at
    theta* flags the rough depth-10 problem at beta = -0.2, p = 2, which
    weights_from_beta tags beta_ok (the depth-level profile here does not).
    """
    depth = problem.tree.depth
    ac = a_chain(problem, levels=depth)
    th = optimize_theta(problem, theta_max=theta_max)
    primal = exact_constant(problem, "primal")
    dual = exact_constant(problem, "dual")
    b = ehp_B(problem, cap=b_cap)
    flags = list(problem.flags)
    if ac.diverging:
        flags.append("diverging")
    if a_tree(problem, th.theta_star, levels=depth).diverging:
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

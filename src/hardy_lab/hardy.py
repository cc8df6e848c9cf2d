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
            path sums equal 1 at every vertex of A; B <= C <= 4B
  c_exact   the lp operator norm of M[s,t] = v_s / u_t on pairs t <= s,
            via nonlinear power iteration with multistarts; M is applied
            matrix-free, M x = v prefix(x/u) and M'y = shadow(v y)/u

The path-prefix and shadow sums behind all of these run on the tree's
level-vectorised kernel (tree.TreeKernel): one numpy step per depth level,
O(|Gamma*|) per pass, with no dense matrix and no size cap.

All sups break ties to the lowest vertex id / lexicographically first
antichain, so reports are reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tree import (
    Antichain,
    AntichainCapExceeded,
    RootedTree,
    TreeKernel,
    enumerate_antichains,
)

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
# which works in BFS order over Gamma*; these wrappers read and write
# full-length arrays in vertex id order.

def _path_prefix_sums(tree: RootedTree, w: np.ndarray) -> np.ndarray:
    """N[t] = sum of w over path(t); N[root] = 0."""
    K = tree.kernel
    N = np.zeros(tree.n)
    N[K.order] = K.prefix(w[K.order])
    return N


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

def _phi(x: np.ndarray, r: float) -> np.ndarray:
    """|x|^{r-1} sign(x)."""
    return np.sign(x) * np.abs(x) ** (r - 1.0)


def _lp_norm(x: np.ndarray, p: float, axis=0) -> np.ndarray:
    return np.sum(np.abs(x) ** p, axis=axis) ** (1.0 / p)


@dataclass(frozen=True)
class ExactConstant:
    value: float
    maximizer: np.ndarray       # Gamma* id order, unit lp norm, nonnegative
    form: str
    iterations: int
    residual: float             # p=2 certificate ||M'Mx - c^2 x|| / c^2; nan otherwise


class HardyOperator:
    """M[s, t] = v_s / u_t on pairs t <= s, rows and columns in Gamma* id
    order, applied without forming M:

        M x = v * prefix(x / u),    M' y = shadow(v * y) / u,

    one kernel pass, O(|Gamma*|), per column. Both take (m,) or (m, k).
    """

    def __init__(self, problem: HardyProblem):
        self.kernel = problem.tree.kernel
        self.size = self.kernel.m
        self._u, self._v = _bfs_weights(problem)

    def _weights(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if X.ndim == 1:
            return self._u, self._v
        return self._u[:, None], self._v[:, None]

    def matvec(self, X: np.ndarray) -> np.ndarray:
        K = self.kernel
        u, v = self._weights(X)
        out = np.empty(X.shape)
        out[K.rank] = v * K.prefix(X[K.rank] / u)
        return out

    def rmatvec(self, Y: np.ndarray) -> np.ndarray:
        K = self.kernel
        u, v = self._weights(Y)
        out = np.empty(Y.shape)
        out[K.rank] = K.shadow(v * Y[K.rank]) / u
        return out


def _pnorm_power(matvec, rmatvec, m: int, p: float, rtol: float, maxiter: int,
                 n_random_starts: int, seed: int) -> tuple[float, np.ndarray, int, float]:
    """lp -> lp operator norm of a nonnegative m x m operator A, given as
    matvec (X -> A X) and rmatvec (Y -> A' Y) on (m, k) blocks.

    Iterates F <- Phi_q(A' Phi_p(A F)) column-wise over a deterministic
    all-ones start plus random nonnegative multistarts. For p = 2 the
    top singular pair is certified by the eigen-residual; for general p
    the stop rule is the relative change of the Rayleigh-type ratio.
    """
    q = p / (p - 1.0)
    rng = np.random.default_rng(seed)
    X = np.concatenate([np.ones((m, 1)),
                        np.abs(rng.standard_normal((m, n_random_starts)))], axis=1)
    X /= _lp_norm(X, p, axis=0)
    ratios = np.zeros(X.shape[1])
    it = 0
    active = np.ones(X.shape[1], dtype=bool)
    while it < maxiter and active.any():
        it += 1
        Y = matvec(X[:, active])
        r = _lp_norm(Y, p, axis=0)
        Z = rmatvec(_phi(Y, p))
        Xn = _phi(Z, q)
        norms = _lp_norm(Xn, p, axis=0)
        norms[norms == 0] = 1.0
        Xn /= norms
        prev = ratios[active]
        done = np.abs(r - prev) <= rtol * np.maximum(r, 1e-300)
        if p == 2.0:
            resid = _lp_norm(Z - (r ** 2) * X[:, active], 2.0, axis=0)
            done &= resid <= 10.0 * rtol * np.maximum(r ** 2, 1e-300)
        idx = np.flatnonzero(active)
        ratios[idx] = r
        X[:, idx] = Xn
        active[idx[done]] = False
    if active.any():
        raise NonConvergenceError(float(ratios.max()), it)
    k = int(np.argmax(ratios))
    x = np.abs(X[:, k])
    x /= _lp_norm(x, p)
    resid = float("nan")
    if p == 2.0:
        z = rmatvec(matvec(x))
        c2 = float(ratios[k]) ** 2
        resid = float(np.linalg.norm(z - c2 * x) / c2)
    return float(ratios[k]), x, it, resid


def exact_constant(problem: HardyProblem, form: str = "primal",
                   rtol: float = 1e-10, maxiter: int = 100_000,
                   n_random_starts: int = 8, seed: int = 0) -> ExactConstant:
    """Best constant C of the Hardy inequality (primal and dual agree).

    primal: lp -> lp norm of M;  dual: lq -> lq norm of M transposed.
    M is applied matrix-free (HardyOperator), so there is no size cap.
    """
    if form not in ("primal", "dual"):
        raise ValueError(f"form must be primal or dual, got {form!r}")
    M = HardyOperator(problem)
    if form == "primal":
        value, x, it, resid = _pnorm_power(M.matvec, M.rmatvec, M.size, problem.p,
                                           rtol, maxiter, n_random_starts, seed)
    else:
        value, x, it, resid = _pnorm_power(M.rmatvec, M.matvec, M.size, problem.q,
                                           rtol, maxiter, n_random_starts, seed)
    return ExactConstant(value, x, form, it, resid)


# -- the EHP quantity ---------------------------------------------------------

@dataclass(frozen=True)
class AlphaResult:
    alpha: float
    b: np.ndarray               # full-length, zeros off the support
    method: str                 # "closed-form" or "tree-recursion"


def alpha_K(problem: HardyProblem, boundary, kkt_tol: float = 1e-8) -> AlphaResult:
    """Minimal lp mass of b >= 0 with unit u-weighted path sums at `boundary`.

    Restricting to b >= 0 supported on the union of the boundary paths is
    lossless because the constraints involve |b_s|. For p = 2 the
    equality-constrained closed form b = G'(GG')^{-1} 1 is used when
    componentwise >= -1e-12 (which the hierarchical Gram structure makes
    automatic in practice); in general the program decomposes exactly
    along the path tree, see _alpha_tree_recursion.
    """
    tree = problem.tree
    bnd = Antichain.of(tree, boundary).vertices
    support = sorted({s for t in bnd for s in tree.paths[t]})

    if problem.p == 2.0:
        col = {s: j for j, s in enumerate(support)}
        G = np.zeros((len(bnd), len(support)))
        for i, t in enumerate(bnd):
            for s in tree.paths[t]:
                G[i, col[s]] = 1.0 / problem.u[s]
        gram = G @ G.T
        x = np.linalg.solve(gram, np.ones(len(bnd)))
        b = G.T @ x
        if b.min() >= -1e-12:
            b = np.maximum(b, 0.0)
            full = np.zeros(tree.n)
            full[support] = b
            return AlphaResult(float(np.linalg.norm(b)), full, "closed-form")

    full = _alpha_tree_recursion(problem, bnd, support)
    alpha = float(np.sum(full[support] ** problem.p) ** (1.0 / problem.p))
    return AlphaResult(alpha, full, "tree-recursion")


def _alpha_tree_recursion(problem: HardyProblem, bnd: tuple[int, ...],
                          support: list[int]) -> np.ndarray:
    """Exact minimizer by parallel composition along the path tree.

    With V_s(c) = minimal cost for the subtree below s to deliver the
    remaining budget c to each of its boundary constraints, homogeneity
    gives V_s(c) = kappa_s c^p, a boundary leaf has kappa = u^p, and an
    interior vertex composes with its children's total K by

        kappa_s = ( u_s^{-q} + K^{-1/(p-1)} )^{-(p-1)},

    the lp analogue of resistors in parallel. Unwinding the optimal budget
    split top-down yields b >= 0 satisfying every constraint exactly.
    """
    tree, p, q = problem.tree, problem.p, problem.q
    boundary = set(bnd)
    in_k = set(support)
    kappa: dict[int, float] = {}
    for s in reversed(tree.topo):
        if s not in in_k:
            continue
        if s in boundary:
            kappa[s] = problem.u[s] ** p
            continue
        total = sum(kappa[c] for c in tree.children[s] if c in in_k)
        kappa[s] = (problem.u[s] ** -q + total ** (-1.0 / (p - 1.0))) ** (1.0 - p)

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
        total = sum(kappa[ch] for ch in tree.children[s] if ch in in_k)
        gamma = (problem.u[s] ** p / total) ** (1.0 / (p - 1.0))
        y = c / (1.0 + gamma)
        b[s] = y * problem.u[s]
        for ch in tree.children[s]:
            if ch in in_k:
                budget[ch] = c - y
    return b


@dataclass(frozen=True)
class EhpResult:
    value: float
    arg: tuple[int, ...]        # cut antichain achieving the sup
    partial: bool               # True when the enumeration hit the cap
    count: int                  # antichains actually evaluated


def ehp_B(problem: HardyProblem, cap: int = 10 ** 6) -> EhpResult:
    """sup over cut antichains A of ||v||_{lp(union of shadows)} / alpha_A.

    Shadows of distinct antichain vertices are disjoint, so the numerator
    accumulates incrementally along the enumeration. When the enumeration
    exceeds `cap` the best value so far is returned flagged partial (a
    certified lower bound).
    """
    tree, p = problem.tree, problem.p
    w_v = np.zeros(tree.n)
    gs = list(tree.gamma_star)
    w_v[gs] = problem.v[gs] ** p
    Svp = _shadow_sums(tree, w_v)

    best = -math.inf
    arg: tuple[int, ...] = ()
    count = 0
    partial = False
    try:
        for A in enumerate_antichains(tree, cap=cap):
            count += 1
            num = sum(Svp[t] for t in A) ** (1.0 / p)
            alpha = alpha_K(problem, A).alpha
            ratio = num / alpha
            if ratio > best:
                best, arg = ratio, A
    except AntichainCapExceeded:
        partial = True
    return EhpResult(float(best), arg, partial, count)


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
    b_ehp: float | None
    b_arg: tuple[int, ...]
    b_count: int
    c_exact: float
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
            "c_dual": self.c_dual,
            "maximizer": self.maximizer,
            "flags": list(self.flags),
            "checks": self.checks,
        }


def hardy_report(problem: HardyProblem, theta_max: float = 64.0,
                 b_cap: int = 10 ** 6, seed: int = 0) -> HardyReport:
    """Compute all four constants plus the internal consistency checks."""
    ac = a_chain(problem)
    th = optimize_theta(problem, theta_max=theta_max)
    primal = exact_constant(problem, "primal", seed=seed)
    dual = exact_constant(problem, "dual", seed=seed)
    b = ehp_B(problem, cap=b_cap)
    flags = list(problem.flags)
    if ac.diverging:
        flags.append("diverging")
    if th.diverging:
        # candidate for the open necessity question: finite C with the
        # tree condition growing at the optimized theta
        flags.append("a_tree_diverging_at_theta_star")
    if b.partial:
        flags.append("partial_B")
    c = primal.value
    checks = {
        "duality": abs(primal.value - dual.value) <= 1e-6 * max(primal.value, 1e-300),
        "sufficiency": c <= th.suff_bound * (1.0 + 1e-9),
        "a_chain_le_c": ac.value <= c * (1.0 + 1e-9),
    }
    b_val: float | None = b.value
    if not b.partial:
        checks["a_chain_le_b"] = ac.value <= b.value * (1.0 + 1e-9)
        checks["sandwich"] = (b.value <= c * (1.0 + 1e-6)
                              and c <= 4.0 * b.value * (1.0 + 1e-6))
    return HardyReport(
        problem=problem,
        a_chain=ac.value, a_chain_arg=ac.arg,
        a_tree=th.a_tree_value, theta_star=th.theta_star, suff_bound=th.suff_bound,
        b_ehp=b_val, b_arg=b.arg, b_count=b.count,
        c_exact=c, c_dual=dual.value,
        maximizer=[float(x) for x in primal.maximizer],
        flags=tuple(flags), checks=checks,
    )

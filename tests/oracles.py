"""Per-vertex reference implementations that the library replaced.

The library computes path-prefix and shadow sums with a level-vectorised
kernel, applies the Hardy operator matrix-free, brackets its norm C from
all ones and starts the dual bracket from the primal maximizer, computes
the EHP constant B with an upper-hull tree DP, decides cube containment
once per column of stacked cubes, fits the counting constants per size
class, sweeps the sampled Holder quotient in row blocks, stores cubes as
integer dyadic cells and checks their disjointness by cell-key lookups,
runs the decomposition on one (vertex, fragment) pair index of the U_t
sets, and reduces each Monte Carlo cell, fractional pairs included, block
by block as it is drawn; the loops, the dense matrices, the antichain
enumeration, the Gram solve, the per-cube test, the Fraction covering
build, the covering build with one containment call per breadth-first
level, the pairwise box scan, the per-vertex decomposition, the
all-cells-kept sampler and the all-pairs fractional sampler below are the
straightforward forms they are checked against, as are the multistart power
iteration with its ratio-change stop rule, the bracket from all ones for
either form, and the theta search that ran one kernel pass per theta where
the library shares one pass among a block of thetas.

`tree_by_loops` is the rooted-tree constructor that checked and indexed
the parent list in per-vertex Python loops, before the tree was built from
int arrays by one argsort and one numpy step per level. The library keeps
its children only as CSR arrays; the per-vertex loops here take theirs from
`children_of`, which rebuilds them with `tree_by_loops`, independently of
the library's CSR. `check_gradient` compares a test function's analytic
derivative with central differences.

`alpha_K` solves the minimal-mass program behind B on one antichain by the
tree recursion; only tests call it. It is exact at every p, where the Gram
solve `alpha_gram` holds at p = 2 only, so the enumeration oracle for B
uses it.

`split_pair` splits a function that is mean zero on two overlapping sets
into a mean-zero part on each, exactly on Fraction lists: the pairwise
step that the tree decomposition chains. `chain_equivalence_check` checks,
on chains, the substitution condition behind a_tree and the bound
a_tree <= theta^{1/p} a_chain. The per-vertex decomposition oracles take
exact fragment volumes from their own source (`covering_fragments`, or
the Fractions a test drew), not from the space's float column.

The library keeps no per-vertex root paths: `tree_paths` builds them here
for the dense oracles (`hardy_matrix`, `induced_subtree`, `alpha_gram`).
`graph_distance` is the grid search for the distance to the graph that the
samplers' former "graph" mode used; it now only checks that the cube edge
is comparable to that distance. `poincare_f_linear_exact` is no replaced
code but the value the improved Poincare sampler estimates for `f_linear`,
in closed form.
"""

import dataclasses
import itertools
import math
import types
from fractions import Fraction

import numpy as np

import hardy_lab as hl
from hardy_lab.covering import (
    CoveringError,
    CubeCapExceeded,
    CubeCovering,
    _cube_points,
    _dyadic_floats,
    _min_phi_decisions,
)
from hardy_lab.hardy import NonConvergenceError, _bfs_weights, _parallel
from hardy_lab.inequalities import (
    _SPHERE_AREA,
    _allocate,
    _cell_rng,
    _locate_own_first,
    _strata,
)


def tree_by_loops(parent):
    """The former RootedTree constructor: the parent list checked and
    indexed in per-vertex Python loops. Returns the tree's fields as tuples
    (children sorted by id, topo in BFS order) and raises TreeError with
    the texts the library uses."""
    parent = tuple(int(p) for p in parent)
    n = len(parent)
    if n == 0:
        raise hl.TreeError("empty tree")
    roots = [t for t, p in enumerate(parent) if p == -1]
    if len(roots) != 1:
        raise hl.TreeError(f"expected exactly one root, found {len(roots)}")
    for t, p in enumerate(parent):
        if p != -1 and not 0 <= p < n:
            raise hl.TreeError(f"parent id {p} of vertex {t} out of range")
    root = roots[0]
    children = [[] for _ in range(n)]
    for t, p in enumerate(parent):
        if p != -1:
            children[p].append(t)
    # reachability from the root; with one parent per vertex an
    # unreachable vertex necessarily sits on a parent cycle
    seen = [False] * n
    stack = [root]
    seen[root] = True
    while stack:
        for c in children[stack.pop()]:
            seen[c] = True
            stack.append(c)
    if not all(seen):
        raise hl.TreeError(f"cycle detected through vertex {seen.index(False)}")
    children = tuple(tuple(sorted(c)) for c in children)
    topo = [root]
    i = 0
    while i < len(topo):
        topo.extend(children[topo[i]])
        i += 1
    depth = [0] * n
    for t in topo[1:]:
        depth[t] = depth[parent[t]] + 1
    return types.SimpleNamespace(
        n=n, root=root, parent=parent, children=children, topo=tuple(topo),
        depth=tuple(depth), gamma_star=tuple(t for t in range(n) if t != root),
        leaves=tuple(t for t in range(n) if not children[t]),
        is_chain=all(len(c) <= 1 for c in children))


def children_of(tree) -> tuple:
    """Per-vertex tuples of child ids in id order, from the parent array
    alone (`tree_by_loops`)."""
    return tree_by_loops(tree.parent).children


def tree_paths(tree) -> list:
    """paths[t] = the path from the root's child down to t, inclusive, as a
    tuple; () at the root. Built top-down in BFS order."""
    paths = [()] * tree.n
    for t in tree.topo:
        if t != tree.root:
            paths[t] = paths[tree.parent[t]] + (t,)
    return paths


def hardy_matrix(problem) -> np.ndarray:
    """M[s, t] = v_s / u_t on pairs t <= s, rows/cols in Gamma* order."""
    tree = problem.tree
    paths = tree_paths(tree)
    gs = list(tree.gamma_star)
    m = len(gs)
    M = np.zeros((m, m))
    col = {t: j for j, t in enumerate(gs)}
    for i, s in enumerate(gs):
        for t in paths[s]:
            M[i, col[t]] = problem.v[s] / problem.u[t]
    return M


def _phi(x, r):
    """|x|^{r-1} sign(x)."""
    return np.sign(x) * np.abs(x) ** (r - 1.0)


def _lp_norm(x, p, axis=0):
    return np.sum(np.abs(x) ** p, axis=axis) ** (1.0 / p)


def multistart_pnorm(problem, form="primal", rtol=1e-10, maxiter=100_000,
                     n_random_starts=8, seed=0) -> float:
    """C by the nonlinear power iteration F <- Phi_q(A' Phi_p(A F)) run
    column-wise on the all-ones start plus n_random_starts random
    nonnegative ones (A = M, or M' for the dual form at the exponent q).
    A column stops once its ratio ||A x||_p changes by at most rtol
    relative (and, at p = 2, its eigen-residual is below 10 rtol); the
    best ratio over the columns is returned."""
    kernel = problem.tree.kernel
    rank = kernel.rank                          # BFS position -> Gamma* index
    u, v = (w[:, None] for w in _bfs_weights(problem))

    def by_id(bfs_map):
        def apply(X):
            out = np.empty(X.shape)
            out[rank] = bfs_map(X[rank])
            return out
        return apply

    # M X = v prefix(X / u) and M' Y = shadow(v Y) / u, column by column
    matvec = by_id(lambda X: v * kernel.prefix(X / u))
    rmatvec = by_id(lambda Y: kernel.shadow(v * Y) / u)
    p = problem.p
    if form == "dual":
        matvec, rmatvec, p = rmatvec, matvec, problem.q
    q = p / (p - 1.0)
    m = kernel.m
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
    return float(ratios.max())


def cold_bracket(problem, form="primal") -> tuple[float, float, np.ndarray, int]:
    """(c_lower, c_upper, maximizer in Gamma* id order, iterations) of
    exact_constant's power iteration started from all ones, for either
    form: the dual bracket as it was computed before it started from the
    primal maximizer, and the primal as it still is."""
    kernel = problem.tree.kernel
    u, v = _bfs_weights(problem)

    def apply(x):                   # M x
        return v * kernel.prefix(x / u)

    def apply_t(y):                 # M' y
        return kernel.shadow(v * y) / u

    p = problem.p
    if form == "dual":
        apply, apply_t, p = apply_t, apply, problem.q
    q = p / (p - 1.0)
    m = kernel.m
    x = np.full(m, float(m) ** (-1.0 / p))
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(1, 100_001):
            y = apply(x)
            lower = float(np.add.reduce(y ** p) ** (1.0 / p))
            fx = apply_t(y ** (p - 1.0)) ** (q - 1.0)
            upper = float(np.fmax.reduce(fx / x)) ** (1.0 / q)
            if upper - lower <= 1e-10 * lower:
                by_id = np.empty(m)
                by_id[kernel.rank] = x
                return lower, upper, by_id, it
            x = fx / np.add.reduce(fx ** p) ** (1.0 / p)
    raise NonConvergenceError(lower, it)


class AntichainCapExceeded(RuntimeError):
    """Antichain enumeration passed the configured cap."""

    def __init__(self, cap: int, count: int):
        super().__init__(f"antichain count exceeds cap={cap} ({count} yielded so far)")
        self.cap = cap
        self.count = count


def order_masks(tree) -> tuple[list, list]:
    """(above, below): above[t] has bit s set iff s <= t (the root
    included), below[t] iff s >= t; so s <= t iff above[t] >> s & 1."""
    n, root = tree.n, tree.root
    children = children_of(tree)
    below = [1 << t for t in range(n)]
    for t in reversed(tree.topo):
        for c in children[t]:
            below[t] |= below[c]
    above = [0] * n
    for t in tree.topo:
        above[t] = (above[tree.parent[t]] if t != root else 0) | (1 << t)
    return above, below


def enumerate_antichains(tree, cap=None):
    """Yield every nonempty antichain of Gamma* as a sorted tuple, in
    lexicographic order. Raises AntichainCapExceeded as soon as more than
    `cap` antichains have been produced; the count so far is attached."""
    n, root = tree.n, tree.root
    above, below = order_masks(tree)
    incomp = [(above[t] | below[t]) & ~(1 << root) for t in range(n)]
    count = 0

    def rec(start, mask, chosen):
        nonlocal count
        for t in range(start, n):
            if t == root or (1 << t) & mask:
                continue
            count += 1
            if cap is not None and count > cap:
                raise AntichainCapExceeded(cap, count - 1)
            nxt = chosen + (t,)
            yield nxt
            yield from rec(t + 1, mask | incomp[t], nxt)

    yield from rec(0, 0, ())


def induced_subtree(tree, antichain):
    """(K, boundary) induced by an antichain: K is the root plus the union
    of the paths to the antichain vertices, whose <=-maximal vertices are
    exactly the antichain."""
    paths = tree_paths(tree)
    children = children_of(tree)
    K = {tree.root}
    for t in set(antichain):
        K.update(paths[t])
    boundary = {t for t in K if not any(c in K for c in children[t])}
    return K, boundary


def ehp_enumerated(problem, cap=None):
    """B by enumeration: the max of (sum of shadow(v^p) over A)^{1/p} / alpha_A
    over every antichain A, first maximum in lexicographic order.
    Returns (value, arg)."""
    tree, p = problem.tree, problem.p
    w = np.zeros(tree.n)
    gs = list(tree.gamma_star)
    w[gs] = problem.v[gs] ** p
    svp = shadow_sums(tree, w)
    best, arg = -math.inf, ()
    for A in enumerate_antichains(tree, cap=cap):
        ratio = sum(svp[t] for t in A) ** (1.0 / p) / alpha_K(problem, A).alpha
        if ratio > best:
            best, arg = ratio, A
    return best, arg


@dataclasses.dataclass(frozen=True)
class AlphaResult:
    alpha: float
    b: np.ndarray               # full-length, zeros off the support


def alpha_K(problem, boundary) -> AlphaResult:
    """Minimal lp mass of b >= 0 with unit u-weighted path sums at `boundary`.

    Restricting to b >= 0 supported on the union of the boundary paths is
    lossless because the constraints involve |b_s|; the program then
    decomposes exactly along the path tree, see alpha_tree_recursion.

    TreeError unless the boundary is a nonempty antichain of Gamma*
    (repeats are ignored). Its vertices are pairwise incomparable exactly
    when the path sum of their indicator is 1 at each of them: one kernel
    prefix pass.
    """
    tree = problem.tree
    bnd = tuple(sorted({int(t) for t in boundary}))
    if not bnd:
        raise hl.TreeError("the boundary must be nonempty")
    if bnd[0] < 0 or bnd[-1] >= tree.n:
        raise hl.TreeError(f"boundary vertices must lie in [0, {tree.n}), got {list(bnd)}")
    if tree.root in bnd:
        raise hl.TreeError("the root cannot belong to the boundary")
    K = tree.kernel
    mine = np.isin(K.order, bnd)
    below = mine & (K.prefix(mine.astype(float)) > 1)
    if below.any():
        raise hl.TreeError(f"boundary vertex {int(K.order[below].min())} lies below "
                           "another boundary vertex")
    # the union of the boundary paths: the vertices whose shadow meets bnd
    support = np.sort(K.order[K.shadow(mine.astype(float)) > 0]).tolist()
    full = alpha_tree_recursion(problem, bnd, support)
    alpha = float(np.sum(full[support] ** problem.p) ** (1.0 / problem.p))
    return AlphaResult(alpha=alpha, b=full)


def alpha_tree_recursion(problem, bnd: tuple, support: list) -> np.ndarray:
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
    children = children_of(tree)
    topo = tree.topo.tolist()
    boundary = set(bnd)
    in_k = set(support)
    kappa: dict = {}
    total: dict = {}        # children's K, reused by the budget split
    for s in reversed(topo):
        if s not in in_k:
            continue
        if s in boundary:
            kappa[s] = problem.u[s] ** p
            continue
        total[s] = sum(kappa[c] for c in children[s] if c in in_k)
        kappa[s] = _parallel(problem.u[s] ** p, total[s], p)

    b = np.zeros(tree.n)
    budget = {c: 1.0 for c in children[tree.root] if c in in_k}
    for s in topo:
        if s not in in_k or s == tree.root:
            continue
        c = budget[s]
        if s in boundary:
            b[s] = c * problem.u[s]
            continue
        gamma = (problem.u[s] ** p / total[s]) ** (1.0 / (p - 1.0))
        y = c / (1.0 + gamma)
        b[s] = y * problem.u[s]
        for ch in children[s]:
            if ch in in_k:
                budget[ch] = c - y
    return b


def alpha_gram(problem, boundary):
    """The p = 2 closed form b = G'(GG')^{-1} 1 of the alpha_K program, with
    G[i, s] = 1/u_s on the path of the i-th boundary vertex. It is the
    minimiser when b >= 0, which the hierarchical Gram structure makes
    automatic. Returns (alpha, b) with b full-length."""
    tree = problem.tree
    paths = tree_paths(tree)
    bnd = sorted(boundary)
    support = sorted({s for t in bnd for s in paths[t]})
    col = {s: j for j, s in enumerate(support)}
    G = np.zeros((len(bnd), len(support)))
    for i, t in enumerate(bnd):
        for s in paths[t]:
            G[i, col[s]] = 1.0 / problem.u[s]
    b = G.T @ np.linalg.solve(G @ G.T, np.ones(len(bnd)))
    full = np.zeros(tree.n)
    full[support] = b
    return float(np.linalg.norm(b)), full


def check_gradient(f, points: np.ndarray, d: np.ndarray, rtol: float = 1e-6) -> float:
    """Max relative deviation of the analytic derivative from central
    differences with step 1e-5 * d(x). Raises when it exceeds rtol."""
    x = np.atleast_2d(points)
    h = 1e-5 * np.asarray(d, dtype=float)
    vector = f.jacobian is not None
    deriv = f.jacobian(x) if vector else f.gradient(x)
    worst = 0.0
    for k in range(x.shape[1]):
        xp = x.copy()
        xm = x.copy()
        xp[:, k] += h
        xm[:, k] -= h
        diff = f.value(xp) - f.value(xm)
        if vector:
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


def holder_quotient_max(pts, vals, alpha):
    """max over pairs i != j of |vals_i - vals_j| / |pts_i - pts_j|^alpha,
    from all-pairs matrices."""
    diff = np.abs(vals[:, None] - vals[None, :])
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    np.fill_diagonal(dist, 1.0)
    np.fill_diagonal(diff, 0.0)
    return float((diff / dist ** alpha).max())


def path_prefix_sums(tree, w: np.ndarray) -> np.ndarray:
    """N[t] = sum of w over path(t); N[root] = 0. Top-down single pass."""
    N = np.zeros(tree.n)
    for t in tree.topo:
        if t != tree.root:
            N[t] = N[tree.parent[t]] + w[t]
    return N


def shadow_sums(tree, w: np.ndarray) -> np.ndarray:
    """M[t] = sum of w over the shadow of t (t included), bottom-up."""
    M = np.zeros(tree.n)
    children = children_of(tree)
    for t in reversed(tree.topo):
        acc = w[t]
        for c in children[t]:
            acc += M[c]
        M[t] = acc
    return M


def chain_cond2(problem, theta: float, slack: float = 1e-9) -> tuple[bool, float]:
    """The former per-vertex chain check: (cond2_ok, worst_margin), with the
    running sum of v^p M^{1/theta - 1} taken from the leaf up."""
    tree, p = problem.tree, problem.p
    gs = list(tree.gamma_star)
    w_v = np.zeros(tree.n)
    w_v[gs] = problem.v[gs] ** p
    M = shadow_sums(tree, w_v)
    lhs = 0.0
    cond2_ok = True
    worst = math.inf
    for t in reversed([t for t in tree.topo if t != tree.root]):
        lhs += w_v[t] * M[t] ** (1.0 / theta - 1.0)
        rhs = theta * M[t] ** (1.0 / theta)
        cond2_ok &= lhs <= rhs * (1.0 + slack)
        if lhs > 0:
            worst = min(worst, rhs / lhs)
    return bool(cond2_ok), float(worst)


CHAIN_SLACK = 1e-9     # relative round-off allowed by chain_equivalence_check


@dataclasses.dataclass(frozen=True)
class ChainEquivalence:
    cond2_ok: bool
    atree_bound_ok: bool
    worst_margin: float         # min over t of rhs/lhs in the cond2 check


def chain_equivalence_check(problem, theta: float) -> ChainEquivalence:
    """On chains: the substitution condition
    shadow(v^p M^{1/theta - 1}) <= theta M^{1/theta} with M = shadow(v^p),
    and a_tree <= theta^{1/p} a_chain, each up to CHAIN_SLACK relative."""
    tree, p = problem.tree, problem.p
    if not tree.is_chain:
        raise ValueError("chain_equivalence_check requires a chain")
    if not theta > 1.0:
        raise ValueError("theta must exceed 1")
    w_v = _bfs_weights(problem)[1] ** p
    M = tree.kernel.shadow(w_v.copy()).tolist()
    # the powers as Python floats (libm pow): numpy's vectorised power can
    # round differently in the last bit
    lhs = tree.kernel.shadow(w_v * np.array([m ** (1.0 / theta - 1.0) for m in M]))
    rhs = theta * np.array([m ** (1.0 / theta) for m in M])
    cond2_ok = np.all(lhs <= rhs * (1.0 + CHAIN_SLACK))
    worst = np.min(rhs[lhs > 0] / lhs[lhs > 0], initial=math.inf)
    ac = hl.a_chain(problem).value
    at = hl.a_tree(problem, theta).value
    atree_ok = at <= theta ** (1.0 / p) * ac * (1.0 + CHAIN_SLACK)
    return ChainEquivalence(bool(cond2_ok), bool(atree_ok), float(worst))


def optimize_theta_per_theta(problem, theta_max: float = 64.0) -> tuple[float, float, float]:
    """The former theta search, one kernel shadow pass per theta on 1-D
    arrays: (theta_star, suff_bound, a_tree_value)."""
    from hardy_lab.hardy import _INV_GOLDEN, THETA_GRID
    q, p = problem.q, problem.p
    kernel = problem.tree.kernel
    N = kernel.prefix(problem.u[kernel.order] ** (-q))
    vp = problem.v[kernel.order] ** p

    def sup(theta):
        base = vp * N ** ((p / q) * (1.0 - 1.0 / theta))
        front = N ** (1.0 / (theta * q))
        return float(np.max(front * kernel.shadow(base) ** (1.0 / p)))

    def g(theta):
        return (theta / (theta - 1.0)) ** (1.0 / q) * sup(theta)

    thetas = [theta_max ** (i / THETA_GRID) for i in range(1, THETA_GRID + 1)]
    vals = [g(t) for t in thetas]
    i = int(np.argmin(vals))
    a = thetas[i - 1] if i > 0 else 1.0 + 0.5 * (thetas[0] - 1.0)
    b = thetas[i + 1] if i + 1 < len(thetas) else thetas[-1]
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
    if vals[i] < g(theta_star):
        theta_star = thetas[i]
    return theta_star, g(theta_star), sup(theta_star)


def min_phi_decision(profile, lo, hi, threshold: float, max_points: int = 1 << 14):
    """The per-cube containment test: phi >= threshold on the open box (lo, hi)?

    Adaptive midpoint grids: a sample strictly below the threshold is a
    witness against containment; otherwise the Holder modulus of the grid
    spacing turns the sampled minimum into a certificate. Returns True,
    False, or None when the budget runs out with the margin unresolved.
    """
    d = len(lo)
    m = 4
    while m ** d <= max_points:
        axes = [lo[k] + (np.arange(m) + 0.5) * (hi[k] - lo[k]) / m for k in range(d)]
        pts = np.stack([g.ravel() for g in np.meshgrid(*axes)], axis=-1)
        vals = np.asarray(profile.phi(pts), dtype=float)
        vmin = float(vals.min())
        if vmin < threshold:
            return False
        h = 0.5 * math.sqrt(sum(((hi[k] - lo[k]) / m) ** 2 for k in range(d)))
        if vmin - profile.k_phi * h ** profile.alpha >= threshold:
            return True
        m *= 2
    return None


def build_by_levels(profile, depth_max: int, cube_cap: int = 10 ** 6):
    """The former `build_covering`: one `_min_phi_decisions` call per
    breadth-first level, on one test box per frontier cube. Returns the
    `covering` and the `level` of each cube, the breadth-first step that
    made it, which the former covering kept as a column."""
    if depth_max < 0:
        raise ValueError(f"depth_max must be >= 0, got {depth_max}")
    if profile.n not in (2, 3):
        raise CoveringError("only dimensions 2 and 3 are supported")
    profile.validate()
    L = profile.ell
    d = profile.n - 1
    strip = 1.5 * float(L)
    bits = (np.arange(2 ** d)[:, None] >> np.arange(d - 1, -1, -1)) & 1

    ids = np.zeros(1, dtype=np.int64)           # the frontier: vertex ids,
    cell = np.zeros((1, d + 1), dtype=np.int64)  # grid cells
    cls = np.zeros(1, dtype=np.int64)           # and size classes
    parent, level, size_class, cells = [np.array([-1])], [np.array([0])], [cls], [cell]
    count = 1
    inconclusive = 0
    lv = 0
    while len(ids):
        lv += 1
        # the test boxes of the whole level, decided together
        lo, hi = (_cube_points(L, cell, cls, h)[:, :-1] for h in (0, 2))
        c = (lo + hi) / 2.0
        he = 1.5 * _dyadic_floats(L, 2, cls)[:, None]
        stacked, unresolved = _min_phi_decisions(       # unresolved subdivides
            profile,
            np.maximum(c - he, -strip),
            np.minimum(c + he, strip),
            _dyadic_floats(L, 2 * (cell[:, -1] + 3), cls))
        inconclusive += int(np.count_nonzero(unresolved))
        split = ~stacked & (cls < depth_max)    # else: truncated at the class cap
        kids = np.where(stacked, 1, np.where(split, 2 ** d, 0))
        total = int(kids.sum())
        if total and count + total > cube_cap:
            raise CubeCapExceeded(cube_cap)
        up = np.repeat(np.arange(len(ids)), kids)
        slot = np.arange(total) - np.repeat(np.cumsum(kids) - kids, kids)
        s = split[up].astype(np.int64)
        cell = np.column_stack([(cell[up, :-1] << s[:, None]) + bits[slot],
                                (cell[up, -1] + 1) << s])
        cls = cls[up] + s
        parent.append(ids[up])
        level.append(np.full(total, lv))
        size_class.append(cls)
        cells.append(cell)
        ids = count + np.arange(total)
        count += total

    tree = hl.RootedTree(np.concatenate(parent).tolist())
    cov = CubeCovering(profile, tree, tuple(np.concatenate(size_class).tolist()),
                       np.concatenate(cells), depth_max, inconclusive)
    return types.SimpleNamespace(covering=cov, level=np.concatenate(level))


def graph_distance(profile, points) -> np.ndarray:
    """Distance from each point to the graph of phi by projected search: a
    2049-point grid per axis (257 on a 2-D base) over the widened strip,
    then 3 refinements by 33 points per axis around the nearest sample.
    The Holder modulus bounds the error by the final grid spacing."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    L = float(profile.ell)
    d = profile.n - 1
    base_grid = 257 if d == 2 else 2049
    axes = [np.linspace(-1.5 * L, 1.5 * L, base_grid)] * d
    grid = np.stack([g.ravel() for g in np.meshgrid(*axes)], axis=-1)
    base = np.asarray(profile.phi(grid), dtype=float)     # shared by every point
    out = np.empty(len(pts))
    for i, x in enumerate(pts):
        g, gv = grid, base
        h = 3.0 * L / (base_grid - 1)           # current sample spacing
        for r in range(4):                      # the base grid, then 3 refinements
            if r:
                local = [np.clip(np.linspace(b - h, b + h, 33), -1.5 * L, 1.5 * L)
                         for b in g[k]]
                g = np.stack([a.ravel() for a in np.meshgrid(*local)], axis=-1)
                gv = np.asarray(profile.phi(g), dtype=float)
                h /= 16.0
            d2 = np.sum((g - x[:-1]) ** 2, axis=1) + (gv - x[-1]) ** 2
            k = int(np.argmin(d2))
        out[i] = math.sqrt(float(d2[k]))
    return out


def rough_phi(x, scales: int = 14, amplitude: float = 0.5):
    """phi of profile_rough() written with temporaries, term by term."""
    x = np.asarray(x, dtype=float)
    r = x[..., 0] if x.ndim > 1 else x
    acc = np.zeros_like(r)
    for m in range(scales + 1):
        y = 2.0 ** m * r
        acc += 2.0 ** (-m / 2) * np.abs(y - np.round(y))
    return 2.05 + amplitude * acc


def fit_constants(cov, class_cap: int) -> dict:
    """Smallest C1, C2, C3 over cubes of size class <= class_cap, one vertex
    at a time, with exact Fraction shadow volumes."""
    alpha = cov.profile.alpha
    nn = cov.n
    K = cov.profile.k_phi
    tree = cov.tree
    children = children_of(tree)
    size_class = cov.size_class.tolist()
    nclass = max(size_class) + 1
    Lf = float(cov.profile.ell)

    c1 = 0.0
    pcounts = [None] * tree.n
    for t in tree.topo:
        if size_class[t] > class_cap:
            continue
        base = (pcounts[tree.parent[t]].copy() if t != tree.root
                else np.zeros(nclass, dtype=np.int64))
        base[size_class[t]] += 1
        pcounts[t] = base
        for i in range(nclass):
            if base[i]:
                c1 = max(c1, base[i] / 2.0 ** (i * (1.0 - alpha)))

    c2 = 0.0
    c3 = 0.0
    wcounts = [None] * tree.n
    wvol = [Fraction(0)] * tree.n
    for t in reversed(tree.topo):
        if size_class[t] > class_cap:
            continue
        acc = np.zeros(nclass, dtype=np.int64)
        k = size_class[t]
        vol = cov.class_edge[k] ** nn
        for c in children[t]:
            if size_class[c] <= class_cap:
                acc += wcounts[c]
                vol += wvol[c]
        acc[k] += 1
        wcounts[t] = acc
        wvol[t] = vol
        for i in range(nclass):
            if acc[i]:
                c2 = max(c2, acc[i] * 2.0 ** (k * (nn - 1) + i * (alpha - nn)))
        shadow_vol = float(vol + (cov.class_edge[k] ** nn / 2 if t != tree.root else 0))
        et = Lf * 2.0 ** (-k)
        c3 = max(c3, shadow_vol / (et ** (nn - 1 + alpha) * (K + et ** (1 - alpha))))
    return {"c1": float(c1), "c2": float(c2), "c3": float(c3)}


def tail_sums(cov, beta: float, p: float) -> tuple[dict, dict]:
    """Per-size-class sums and counts of v^p = |B_t| edge^{beta p}, vertex by vertex."""
    sums, counts = {}, {}
    size_class = cov.size_class.tolist()
    for t in cov.tree.gamma_star.tolist():
        j = size_class[t]
        edge = cov.class_edge[j]
        s = float(edge ** cov.n / 2) * float(edge) ** (beta * p)
        sums[j] = sums.get(j, 0.0) + s
        counts[j] = counts.get(j, 0) + 1
    return sums, counts


def level_rows(cov) -> list:
    """Per-size-class rows with the class volume summed cube by cube."""
    rows = []
    size_class = cov.size_class.tolist()
    for j in sorted(set(size_class)):
        ids = [t for t in range(cov.tree.n) if size_class[t] == j]
        rows.append({
            "size_class": j,
            "edge": float(cov.profile.ell) * 2.0 ** (-j),
            "count": len(ids),
            "volume": float(sum(cov.class_edge[size_class[t]] ** cov.n for t in ids)),
        })
    return rows


class FractionCovering:
    """The former covering build: one per-cube containment test and one child
    at a time, every coordinate an exact Fraction, with the former export,
    centers and root-to-leaf point location."""

    def __init__(self, profile, depth_max: int):
        L = profile.ell
        half = L / 2
        self.profile, self.depth_max = profile, depth_max
        self.parent, self.level, self.size_class = [-1], [0], [0]
        self.base = [tuple((-half, half) for _ in range(profile.n - 1))]
        self.vert = [(Fraction(0), L)]
        self.inconclusive = 0
        edges = [L / 2 ** j for j in range(depth_max + 1)]
        strip = 1.5 * float(L)
        frontier = [0]
        lv = 0
        while frontier:
            lv += 1
            nxt = []
            for t in frontier:
                j = self.size_class[t]
                e = edges[j]
                lo, hi = self.box(t)
                c = (lo[:-1] + hi[:-1]) / 2.0
                he = 1.5 * float(e)
                decision = min_phi_decision(profile, np.maximum(c - he, -strip),
                                            np.minimum(c + he, strip),
                                            float(self.vert[t][1] + 2 * e))
                x2 = self.vert[t][1]
                if decision is None:
                    self.inconclusive += 1
                    decision = False
                if decision:
                    children = [(self.base[t], (x2, x2 + e), j)]
                elif j < depth_max:
                    h = e / 2
                    splits = [((a, a + h), (a + h, b)) for (a, b) in self.base[t]]
                    children = [(tuple(combo), (x2, x2 + h), j + 1)
                                for combo in itertools.product(*splits)]
                else:
                    children = []
                for b, v, k in children:
                    self.parent.append(t)
                    self.level.append(lv)
                    self.size_class.append(k)
                    self.base.append(b)
                    self.vert.append(v)
                    nxt.append(len(self.parent) - 1)
            frontier = nxt
        self.children = [[] for _ in self.parent]
        for t, p in enumerate(self.parent[1:], 1):
            self.children[p].append(t)

    def box(self, t):
        """Float lower and upper corners of cube t."""
        lo = [float(a) for a, _ in self.base[t]] + [float(self.vert[t][0])]
        hi = [float(b) for _, b in self.base[t]] + [float(self.vert[t][1])]
        return np.array(lo), np.array(hi)

    def to_json(self) -> dict:
        def fr(x):
            return [x.numerator, x.denominator]
        L, n = self.profile.ell, self.profile.n
        cubes = []
        for t in range(len(self.parent)):
            edge = L * Fraction(1, 2 ** self.size_class[t])
            cubes.append({
                "id": t,
                "parent": self.parent[t],
                "level": self.level[t],
                "size_class": self.size_class[t],
                "edge": fr(edge),
                "base": [[fr(lo), fr(hi)] for lo, hi in self.base[t]],
                "vertical": [fr(self.vert[t][0]), fr(self.vert[t][1])],
                "volume_b": fr(edge ** n / 2) if t else None,
            })
        return {"n": n, "alpha": self.profile.alpha, "k_phi": self.profile.k_phi,
                "ell": fr(L), "profile": self.profile.name,
                "depth_max": self.depth_max, "inconclusive": self.inconclusive,
                "cubes": cubes}

    def centers(self) -> np.ndarray:
        c = np.empty((len(self.parent), self.profile.n))
        for t in range(len(self.parent)):
            for k, (lo, hi) in enumerate(self.base[t]):
                c[t, k] = float(lo + hi) / 2.0
            c[t, -1] = float(self.vert[t][0] + self.vert[t][1]) / 2.0
        return c

    def locate(self, x) -> int:
        """Walk down from the root into the child whose half-open float base
        holds x'; -1 outside the truncated region."""
        def in_base(t):
            return all(float(lo) <= v < float(hi) for (lo, hi), v in zip(self.base[t], x[:-1]))

        t = 0
        if not in_base(t) or x[-1] < float(self.vert[t][0]):
            return -1
        while x[-1] >= float(self.vert[t][1]):
            t = next((c for c in self.children[t] if in_base(c)), -1)
            if t < 0:
                return -1
        return t


def cube_rows(doc: dict) -> list[dict]:
    """The former per-cube rows of an exported covering (`to_json()`),
    rebuilt from its columns and class edges: every coordinate, edge and
    slab volume as a gcd-reduced [num, den]."""
    def fr(x):
        return [x.numerator, x.denominator]

    cols = doc["cubes"]
    n = doc["n"]
    half = Fraction(*doc["ell"]) / 2
    edges = [Fraction(*e) for e in doc["class_edge"]]
    rows = []
    for t, (parent, level, c, *cell) in enumerate(
            zip(cols["parent"], cols["level"], cols["size_class"], *cols["cell"])):
        h = edges[c]
        *base, k = cell
        rows.append({
            "id": t,
            "parent": parent,
            "level": level,
            "size_class": c,
            "edge": fr(h),
            "base": [[fr(-half + i * h), fr(-half + (i + 1) * h)] for i in base],
            "vertical": [fr(k * h), fr((k + 1) * h)],
            "volume_b": fr(h ** n / 2) if parent != -1 else None,
        })
    return rows


def row_export(doc: dict) -> dict:
    """An exported covering in the former layout: the scalar keys and the
    per-cube rows of `cube_rows`."""
    out = {k: v for k, v in doc.items() if k not in ("class_edge", "cubes")}
    out["cubes"] = cube_rows(doc)
    return out


def disjoint_and_coverage(doc: dict) -> dict:
    """The former structure check on an exported covering (`to_json()`):
    pairwise open-box intersection on integer-scaled exact coordinates in
    row blocks, O(n^2), and per-cube exact Fraction volume sums."""
    cubes = cube_rows(doc)
    n = len(cubes)
    nn = doc["n"]
    ell = Fraction(*doc["ell"])
    unit = ell / 2 ** (max(c["size_class"] for c in cubes) + 1)
    boxes = np.array([[int(Fraction(*x) / unit) for lo, hi in c["base"] + [c["vertical"]]
                       for x in (lo, hi)] for c in cubes], dtype=np.int64)
    disjoint = True
    block = 1024
    for a in range(0, n, block):
        sl = slice(a, min(a + block, n))
        overlap = np.ones((sl.stop - sl.start, n), dtype=bool)
        for k in range(nn):
            lo = boxes[:, 2 * k]
            hi = boxes[:, 2 * k + 1]
            overlap &= (lo[sl, None] < hi[None, :]) & (lo[None, :] < hi[sl, None])
        overlap[np.arange(sl.stop - sl.start), np.arange(sl.start, sl.stop)] = False
        if overlap.any():
            disjoint = False
            break

    inner = {c["parent"] for c in cubes}
    total = sum((ell * Fraction(1, 2 ** c["size_class"])) ** nn for c in cubes)
    columns = Fraction(0)
    for c in cubes:
        if c["id"] in inner:
            continue
        area = Fraction(1)
        for lo, hi in c["base"]:
            area *= Fraction(*hi) - Fraction(*lo)
        columns += area * Fraction(*c["vertical"][1])
    return {
        "disjoint": bool(disjoint),
        "covered_volume": total,
        "column_volume": columns,
        "coverage_exact": total == columns,
    }


# -- the decomposition, per vertex ---------------------------------------------------

def covering_fragments(cov) -> tuple[list, list, list]:
    """(volume, owner, connector) columns: core cells by per-vertex exact
    Fraction volumes, then the slabs; connector -1 for none."""
    tree = cov.tree
    children = children_of(tree)
    cube = [cov.class_edge[j] ** cov.n for j in cov.size_class.tolist()]
    volume = [cube[t] - sum((cube[c] / 2 for c in children[t]), Fraction(0))
              for t in range(tree.n)]
    volume += [cube[s] / 2 for s in tree.gamma_star]
    owner = list(range(tree.n)) + [tree.parent[s] for s in tree.gamma_star]
    connector = [-1] * tree.n + list(tree.gamma_star)
    return volume, owner, connector


def integral(values, volume):
    """sum value * volume over the fragments; exact on Fractions."""
    return sum(v * w for v, w in zip(values, volume))


@dataclasses.dataclass(frozen=True)
class SplitReport:
    overlap_volume: Fraction
    mean_a: Fraction
    mean_b: Fraction


def split_pair(values: list, volume: list, A, B) -> tuple[list, list, SplitReport]:
    """Split f (mean zero on A u B; `values` and `volume` per fragment, as
    Fractions) into parts supported on A and on B.

    f_A = chi_A f - (chi_{AnB} / |AnB|) int_A f and f_B = f - f_A; the
    overlap correction uses int_A f in both parts, which is what makes
    f_A + f_B = f and both means vanish identically. Exact on Fractions.
    """
    A = frozenset(A)
    B = frozenset(B)
    both = A & B
    vol_overlap = sum((volume[i] for i in both), Fraction(0))
    if vol_overlap <= 0:
        raise hl.DecompositionError("the overlap A n B must have positive measure")
    outside = [i for i, v in enumerate(values) if v and i not in A and i not in B]
    if outside:
        raise hl.DecompositionError(f"f has mass outside A u B (fragment {outside[0]})")
    total = integral(values, volume)
    scale = integral(map(abs, values), volume)
    if scale and abs(total) > 1e-12 * scale:
        raise hl.DecompositionError("f must have vanishing mean on A u B")
    corr = sum(values[i] * volume[i] for i in A) / vol_overlap

    va = [v - corr if i in both else v if i in A else 0 for i, v in enumerate(values)]
    vb = [corr if i in both else v if i in B else 0 for i, v in enumerate(values)]
    return va, vb, SplitReport(vol_overlap, integral(va, volume), integral(vb, volume))


def fragment_maps(space) -> tuple[dict, dict]:
    """owner -> its fragments, and connector vertex -> its slab."""
    owner_frags = {t: [] for t in range(space.tree.n)}
    bfrag = {}
    for i, (t, s) in enumerate(zip(space.owner.tolist(), space.connector.tolist())):
        owner_frags[t].append(i)
        if s != -1:
            bfrag[s] = i
    return owner_frags, bfrag


def u_frags(space, t: int) -> tuple:
    owner_frags, bfrag = fragment_maps(space)
    ids = set(owner_frags[t])
    if t != space.tree.root:
        ids.add(bfrag[t])
    for c in np.flatnonzero(space.tree.parent == t).tolist():   # the children of t
        ids.add(bfrag[c])
    return tuple(sorted(ids))


def overlap_bound(space) -> int:
    count = np.zeros(len(space.vol), dtype=int)
    for t in range(space.tree.n):
        for i in u_frags(space, t):
            count[i] += 1
    return int(count.max())


def decompose(g, volume: list, q: float) -> dict:
    """The bottom-up fsum recursion for S and the per-vertex assembly of
    each part g_t = f_t + sum_children h_s - h_t, with sequential norms;
    `volume` holds the exact fragment volumes, rounded here one by one."""
    space = g.space
    tree = space.tree
    vol = [float(v) for v in volume]
    values = g.values.tolist()
    owner_frags, bfrag = fragment_maps(space)
    fint = {t: math.fsum(values[i] * vol[i] for i in owner_frags[t])
            for t in range(tree.n)}
    children = children_of(tree)
    S = {}
    for t in reversed(tree.topo):
        S[t] = fint[t] + math.fsum(S[c] for c in children[t])
    parts = {}
    for t in range(tree.n):
        vals = {}
        for i in owner_frags[t]:
            if values[i]:
                vals[i] = values[i]
        for c in children[t]:
            i = bfrag[c]
            h = S[c] / vol[i]
            if h:
                vals[i] = vals.get(i, 0.0) + h
        if t != tree.root:
            i = bfrag[t]
            h = S[t] / vol[i]
            if h:
                vals[i] = vals.get(i, 0.0) - h
        parts[t] = vals
    lhs = 0.0
    for t in range(tree.n):
        for i, v in parts[t].items():
            lhs += abs(v) ** q * float(space.nu[i]) ** (-q) * vol[i]
    rhs = 0.0
    for v, w, vi in zip(values, space.omega.tolist(), vol):
        if v:
            rhs += abs(v) ** q * w ** (-q) * vi
    return {"parts": parts, "S": S, "lhs": lhs, "rhs": rhs}


def predicted_constant(space, volume: list, q: float,
                       hardy_constant: float) -> tuple[float, dict]:
    """Per-vertex sup of omega over U_t and exact |U_t| / |B_t| from the
    exact fragment volumes `volume`."""
    _, bfrag = fragment_maps(space)
    p = q / (q - 1.0)
    emb = float(np.max(space.omega / space.nu))
    worst = 0.0
    ratio_ub = 0.0
    for t in space.tree.gamma_star:
        ufr = u_frags(space, t)
        sup_omega = max(float(space.omega[i]) for i in ufr)
        omega_t = float(space.omega[bfrag[t]])
        uvol = sum((volume[i] for i in ufr), Fraction(0))
        r = float(uvol / volume[bfrag[t]])
        ratio_ub = max(ratio_ub, r)
        worst = max(worst, (sup_omega / omega_t) ** q * r ** (q / p))
    N = overlap_bound(space)
    c_pred = 2.0 ** (q - 1.0) * emb ** q + 2.0 ** q * hardy_constant ** q * worst * N
    return c_pred, {"embedding": emb, "admissibility_term": worst,
                    "overlap": N, "ub_ratio": ratio_ub, "hardy": hardy_constant}


def parts(result) -> dict:
    """vertex -> {fragment: value} for every vertex, from the result arrays."""
    out = {t: {} for t in range(result.space.tree.n)}
    for t, i, v in zip(result.vertex.tolist(), result.frag.tolist(), result.value.tolist()):
        out[t][i] = out[t].get(i, 0.0) + v
    return out


def verify_decomposition(result, volume: list, sum_tol: float = 1e-12,
                         mean_tol: float = 1e-10) -> dict:
    """The support, sum and mean checks as per-vertex loops, with the exact
    fragment volumes `volume` rounded one by one; raises AssertionError
    where the library raises DecompositionError."""
    space = result.space
    vol = [float(v) for v in volume]
    g = np.array([float(v) for v in result.g_values])
    gmax = float(np.max(np.abs(g)))
    total = np.zeros(len(vol))
    for t, part in parts(result).items():
        allowed = set(u_frags(space, t))
        for i, v in part.items():
            assert i in allowed, f"part supported outside U_t (vertex {t})"
            total[i] += v
    err = float(np.max(np.abs(total - g)))
    assert err <= sum_tol * max(gmax, 1e-300), "sum of parts deviates from g"
    g1 = math.fsum(abs(v) * vi for v, vi in zip(g.tolist(), vol))
    bound = mean_tol * max(g1, 1e-300)
    means = [math.fsum(v * vol[i] for i, v in part.items())
             for part in parts(result).values()]
    assert max(map(abs, means)) <= bound, "part mean exceeds budget"
    return {"sum_error": err / max(gmax, 1e-300), "max_part_mean": max(map(abs, means)),
            "mean_bound": bound}


def stratified_spread(p, sides):
    """The sum over sides (total, vols, per-stratum integrands) of the
    stratified standard error over total, divided by p; a side whose total
    is 0 adds 0. A stratum of n >= 2 points adds vol^2 np.var(x, ddof=1) / n
    to the variance, a one-point stratum (vol x)^2."""
    out = 0.0
    for total, vols, xs in sides:
        if total == 0.0:
            continue
        var = [v * v * float(np.var(x, ddof=1)) / len(x) if len(x) > 1
               else (v * float(x[0])) ** 2 for v, x in zip(vols, xs)]
        out += math.sqrt(math.fsum(var)) / total
    return out / p


def _segment_sum(x):
    """The sum np.add.reduceat takes over one segment x: its first value
    plus np.sum of the rest."""
    return float(x[0] + np.sum(x[1:]))


class _Strata:
    """The strata of a pass (hardy_lab.inequalities._strata) with what each
    adds to a side: w = vol / count of its cell, its rows m, and its
    constants as array powers of the cell edge d over all strata."""

    def __init__(self, cov, samples):
        counts = _allocate(samples, cov.volume_array)
        self.cells, self.ks, rows = _strata(counts)
        self.w = (cov.volume_array[self.cells] / counts[self.cells]).tolist()
        self.m = rows.tolist()
        self.vols = [w * m for w, m in zip(self.w, self.m)]
        self.d = cov.edge_array[self.cells]

    def power(self, e):
        return (self.d ** e).tolist()

    def total(self, xs, c):
        """fsum of w (S c) over the strata, S the segment sum of x."""
        return math.fsum(w * (_segment_sum(x) * ci) for w, x, ci in zip(self.w, xs, c))

    def weight(self, c):
        """fsum of w (m c), the strata's sums of the constant c."""
        return math.fsum(w * (m * ci) for w, m, ci in zip(self.w, self.m, c))

    def spread(self, p, sides):
        """stratified_spread of (total, per-stratum integrands, constants)."""
        return stratified_spread(p, [(total, self.vols, [x * ci for x, ci in zip(xs, c)])
                                     for total, xs, c in sides])


def local_run(kind, f, cov, beta, p, samples, seed, identity=False):
    """The improved Poincare / Korn quadrature pass with every stratum's
    arrays kept until the end: draw all strata, each from its own stream,
    then take each sum over the kept data (_Strata). Returns lhs, rhs and
    the spread (stratified_spread).

    Korn's lhs integrand is |J - A| as np.linalg.norm takes it, or with
    identity the root of |eps|^2 + sum_{j<k} (D_jk - 2 A_jk)^2 / 2 for
    D = J - J^T, added in that order: the same number in another rounding,
    the one the sampler uses."""
    alpha = cov.profile.alpha
    n = cov.n
    st = _Strata(cov, samples)

    def draw(t, k, m):
        lo, hi = cov.corners[0][t], cov.corners[1][t]
        return lo + _cell_rng(seed, t, k).random((m, n)) * (hi - lo)

    pts = [draw(*s) for s in zip(st.cells.tolist(), st.ks.tolist(), st.m)]
    dbp = st.power(beta * p)
    denom = st.weight(dbp)

    def sides(lhs_x, rhs_x, rhs_c):
        lhs, rhs = st.total(lhs_x, dbp), st.total(rhs_x, rhs_c)
        spread = st.spread(p, [(lhs, lhs_x, dbp), (rhs, rhs_x, rhs_c)])
        return lhs ** (1.0 / p), rhs ** (1.0 / p), spread

    if kind == "improved_poincare":
        # the mean is taken of f less its first value f0, as the sampler does
        fv = [f.value(x) for x in pts]
        f0 = float(fv[0][0])
        fv = [v - f0 for v in fv]
        c = st.total(fv, dbp) / denom
        return sides([np.abs(v - c) ** p for v in fv],
                     [np.linalg.norm(f.gradient(x), axis=1) ** p for x in pts],
                     st.power((beta + alpha) * p))
    # the weighted mean of the antisymmetric part (J - J^T) / 2
    Js = [f.jacobian(x) for x in pts]
    A = np.zeros((n, n))
    for j in range(n):
        for k in range(j + 1, n):
            A[j, k] = 0.5 * st.total([J[:, j, k] - J[:, k, j] for J in Js], dbp) / denom
            A[k, j] = -A[j, k]

    def norm(J, eps):
        if not identity:
            return np.linalg.norm(J - A, axis=(1, 2))
        r = np.add.reduce(eps * eps, axis=(1, 2))
        for j in range(n):
            for k in range(j + 1, n):
                r += 0.5 * (J[:, j, k] - J[:, k, j] - 2.0 * A[j, k]) ** 2
        return np.sqrt(r)

    eps = [0.5 * (J + np.swapaxes(J, 1, 2)) for J in Js]
    return sides([norm(J, e) ** p for J, e in zip(Js, eps)],
                 [np.linalg.norm(e, axis=(1, 2)) ** p for e in eps],
                 st.power((beta + alpha - 1.0) * p))


def poincare_f_linear_exact(cov, beta, p):
    """The exact lhs and rhs the improved Poincare sampler estimates for
    f = x0 - 1/2 with d = l(Q) on each cube Q.

    |grad f| = 1, so rhs^p = sum_Q l^{(beta + alpha) p} |Q|. With c the
    weighted mean sum_Q l^{beta p} |Q| (mid0 - 1/2) / sum_Q l^{beta p} |Q|,
    lhs^p = sum_Q l^{beta p} |Q| / h0 * int_{lo0}^{hi0} |t - 1/2 - c|^p dt,
    h0 = hi0 - lo0, and int_a^b |t|^p dt = F(b) - F(a) for
    F(t) = sign(t) |t|^{p+1} / (p + 1).
    """
    lo, hi = (c[:, 0] for c in cov.corners)
    vols, edges = cov.volume_array, cov.edge_array
    weight = edges ** (beta * p) * vols
    c = math.fsum((weight * (0.5 * (lo + hi) - 0.5)).tolist()) / math.fsum(weight.tolist())

    def F(t):
        return np.sign(t) * np.abs(t) ** (p + 1.0) / (p + 1.0)

    lhs = math.fsum((weight / (hi - lo) * (F(hi - 0.5 - c) - F(lo - 0.5 - c))).tolist())
    rhs = math.fsum((edges ** ((beta + cov.profile.alpha) * p) * vols).tolist())
    return lhs ** (1.0 / p), rhs ** (1.0 / p)


def fractional_run(f, cov, beta, p, s, tau, samples, seed):
    """The fractional Poincare quadrature pass with every pair drawn at
    once: stratified pair sampling for the fractional seminorm.

    x is stratified by cell; the offset radius is drawn from the power law
    r ~ R u^{1/kappa} with kappa = p(1-s), which cancels the |x-y| kernel
    singularity; the tau-ball restriction enters through R = tau d(x) and
    pairs leaving the truncated domain are rejected with weight zero.

    Each stratum draws x, u and the direction from its own stream; the
    pairs of all strata are then located, each in its own cell first, and
    evaluated in one pass, and the sums are taken per stratum (_Strata).
    Each per-pair array is dropped once used. Returns lhs, rhs, the
    fraction of rejected pairs and the spread (stratified_spread).
    """
    alpha = cov.profile.alpha
    n = cov.n
    kappa = p * (1.0 - s)
    edges = cov.edge_array
    st = _Strata(cov, samples)
    surf = _SPHERE_AREA[n]
    expo = (s + beta - alpha + 1.0) * p
    ends = np.cumsum(st.m).tolist()
    per = list(zip([0] + ends[:-1], ends))
    pts, u, g = np.empty((ends[-1], n)), np.empty(ends[-1]), np.empty((ends[-1], n))
    for t, k, (a, b) in zip(st.cells.tolist(), st.ks.tolist(), per):
        rng = _cell_rng(seed, t, k)
        pts[a:b] = rng.random((b - a, n))
        u[a:b] = rng.random(b - a)
        g[a:b] = rng.standard_normal((b - a, n))
    c = np.repeat(st.cells, st.m)                   # the cell of x, then of y
    lo, hi = cov.corners[0][c], cov.corners[1][c]
    pts = lo + pts * (hi - lo)
    del lo, hi

    dx = edges[c]
    R = tau * dx
    r = u
    r **= 1.0 / kappa
    r *= R
    del u
    gn = np.linalg.norm(g, axis=1)
    g /= gn[:, None]
    del gn
    g *= r[:, None]
    g += pts
    y = g                                           # x + r * direction
    del g
    c = _locate_own_first(cov, c, y)
    inside = c >= 0
    rejected = float(np.mean(~inside))
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
    kern *= surf
    kern *= ro ** (n - 1)
    del ro
    kern /= dens
    del dens
    contrib = np.zeros(len(fv))
    contrib[ok] = kern
    del kern, ok

    dbp = st.power(beta * p)
    ones = [1.0] * len(per)
    denom = st.weight(dbp)
    fv -= float(fv[0])                              # the mean of f less its first value
    mean = st.total([fv[a:b] for a, b in per], dbp) / denom
    rhs_x = [contrib[a:b] for a, b in per]
    rhs = st.total(rhs_x, ones)
    fv -= mean
    np.abs(fv, out=fv)
    fv **= p
    lhs_x = [fv[a:b] for a, b in per]
    lhs = st.total(lhs_x, dbp)
    spread = st.spread(p, [(lhs, lhs_x, dbp), (rhs, rhs_x, ones)])
    return lhs ** (1.0 / p), rhs ** (1.0 / p), rejected, spread

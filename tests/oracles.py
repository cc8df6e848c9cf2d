"""Per-vertex reference implementations that the library replaced.

The library computes path-prefix and shadow sums with a level-vectorised
kernel, applies the Hardy operator matrix-free, computes the EHP constant B
with an upper-hull tree DP, solves every alpha_K program by the tree
recursion, decides cube containment for a whole covering level at once,
fits the counting constants per size class and sweeps the sampled Holder
quotient in row blocks; the loops, the dense matrices, the antichain
enumeration, the Gram solve and the per-cube test below are the
straightforward forms they are checked against.
"""

import math
from fractions import Fraction

import numpy as np

import hardy_lab as hl


def hardy_matrix(problem) -> np.ndarray:
    """M[s, t] = v_s / u_t on pairs t <= s, rows/cols in Gamma* order."""
    tree = problem.tree
    gs = list(tree.gamma_star)
    m = len(gs)
    M = np.zeros((m, m))
    col = {t: j for j, t in enumerate(gs)}
    for i, s in enumerate(gs):
        for t in tree.paths[s]:
            M[i, col[t]] = problem.v[s] / problem.u[t]
    return M


class AntichainCapExceeded(RuntimeError):
    """Antichain enumeration passed the configured cap."""

    def __init__(self, cap: int, count: int):
        super().__init__(f"antichain count exceeds cap={cap} ({count} yielded so far)")
        self.cap = cap
        self.count = count


def enumerate_antichains(tree, cap=None):
    """Yield every nonempty antichain of Gamma* as a sorted tuple, in
    lexicographic order. Raises AntichainCapExceeded as soon as more than
    `cap` antichains have been produced; the count so far is attached."""
    n, root = tree.n, tree.root
    below = [1 << t for t in range(n)]          # {s : s >= t}
    for t in reversed(tree.topo):
        for c in tree.children[t]:
            below[t] |= below[c]
    above = [0] * n                             # {s : s <= t}, root included
    for t in tree.topo:
        above[t] = (above[tree.parent[t]] if t != root else 0) | (1 << t)
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
    K = {tree.root}
    for t in set(antichain):
        K.update(tree.paths[t])
    boundary = {t for t in K if not any(c in K for c in tree.children[t])}
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
        ratio = sum(svp[t] for t in A) ** (1.0 / p) / hl.alpha_K(problem, A).alpha
        if ratio > best:
            best, arg = ratio, A
    return best, arg


def alpha_gram(problem, boundary):
    """The p = 2 closed form b = G'(GG')^{-1} 1 of the alpha_K program, with
    G[i, s] = 1/u_s on the path of the i-th boundary vertex. It is the
    minimiser when b >= 0, which the hierarchical Gram structure makes
    automatic. Returns (alpha, b) with b full-length."""
    tree = problem.tree
    bnd = sorted(boundary)
    support = sorted({s for t in bnd for s in tree.paths[t]})
    col = {s: j for j, s in enumerate(support)}
    G = np.zeros((len(bnd), len(support)))
    for i, t in enumerate(bnd):
        for s in tree.paths[t]:
            G[i, col[s]] = 1.0 / problem.u[s]
    b = G.T @ np.linalg.solve(G @ G.T, np.ones(len(bnd)))
    full = np.zeros(tree.n)
    full[support] = b
    return float(np.linalg.norm(b)), full


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
    for t in reversed(tree.topo):
        acc = w[t]
        for c in tree.children[t]:
            acc += M[c]
        M[t] = acc
    return M


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
    nclass = max(cov.size_class) + 1
    Lf = float(cov.profile.ell)

    c1 = 0.0
    pcounts = [None] * tree.n
    for t in tree.topo:
        if cov.size_class[t] > class_cap:
            continue
        base = (pcounts[tree.parent[t]].copy() if t != tree.root
                else np.zeros(nclass, dtype=np.int64))
        base[cov.size_class[t]] += 1
        pcounts[t] = base
        for i in range(nclass):
            if base[i]:
                c1 = max(c1, base[i] / 2.0 ** (i * (1.0 - alpha)))

    c2 = 0.0
    c3 = 0.0
    wcounts = [None] * tree.n
    wvol = [Fraction(0)] * tree.n
    for t in reversed(tree.topo):
        if cov.size_class[t] > class_cap:
            continue
        acc = np.zeros(nclass, dtype=np.int64)
        vol = cov.q_volume(t)
        for c in tree.children[t]:
            if cov.size_class[c] <= class_cap:
                acc += wcounts[c]
                vol += wvol[c]
        acc[cov.size_class[t]] += 1
        wcounts[t] = acc
        wvol[t] = vol
        k = cov.size_class[t]
        for i in range(nclass):
            if acc[i]:
                c2 = max(c2, acc[i] * 2.0 ** (k * (nn - 1) + i * (alpha - nn)))
        shadow_vol = float(vol + (cov.b_volume(t) if t != tree.root else 0))
        et = Lf * 2.0 ** (-k)
        c3 = max(c3, shadow_vol / (et ** (nn - 1 + alpha) * (K + et ** (1 - alpha))))
    return {"c1": float(c1), "c2": float(c2), "c3": float(c3)}


def tail_sums(cov, beta: float, p: float) -> tuple[dict, dict]:
    """Per-size-class sums and counts of v^p = |B_t| edge^{beta p}, vertex by vertex."""
    sums, counts = {}, {}
    for t in cov.tree.gamma_star:
        e = float(cov.edge(t))
        s = float(cov.b_volume(t)) * e ** (beta * p)
        j = cov.size_class[t]
        sums[j] = sums.get(j, 0.0) + s
        counts[j] = counts.get(j, 0) + 1
    return sums, counts


def level_rows(cov) -> list:
    """Per-size-class rows with the class volume summed cube by cube."""
    rows = []
    for j in sorted(cov.class_counts()):
        ids = [t for t in range(cov.tree.n) if cov.size_class[t] == j]
        rows.append({
            "size_class": j,
            "edge": float(cov.profile.ell) * 2.0 ** (-j),
            "count": len(ids),
            "volume": float(sum(cov.q_volume(t) for t in ids)),
        })
    return rows

"""Per-vertex reference implementations that the library replaced.

The library computes path-prefix and shadow sums with a level-vectorised
kernel, applies the Hardy operator matrix-free, decides cube containment for
a whole covering level at once and fits the counting constants per size
class; the loops, the dense matrix and the per-cube test below are the
straightforward forms they are checked against.
"""

import math
from fractions import Fraction

import numpy as np


def hardy_matrix(problem) -> np.ndarray:
    """M[s, t] = v_s / u_t on pairs t <= s, rows/cols in Gamma* order."""
    tree = problem.tree
    gs = list(tree.gamma_star)
    m = len(gs)
    M = np.zeros((m, m))
    for i, s in enumerate(gs):
        anc = tree.ancestor_masks[s]
        for j, t in enumerate(gs):
            if anc >> t & 1:
                M[i, j] = problem.v[s] / problem.u[t]
    return M


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

"""Per-vertex reference implementations that the library replaced.

The library computes path-prefix and shadow sums with a level-vectorised
kernel and applies the Hardy operator matrix-free; the loops and the dense
matrix below are the straightforward forms they are checked against.
"""

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

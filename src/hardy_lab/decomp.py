"""Constructive mean-zero decompositions subordinate to a tree covering.

Functions are piecewise constant on *fragments*: each vertex t owns a core
cell (its cube minus the connector slabs of its children) and each non-root
vertex s has a connector fragment B_s sitting inside the parent's cube, so

    U_t = (fragments owned by t)  U  B_t  U  {B_c : c a child of t}.

A CellSpace is three columns over the fragments (float volume, owner
vertex, connector vertex or -1) plus one sorted array of the (vertex,
fragment) pairs of every U_t; set integrals, overlaps and part values are
bincount and gather steps over it. space_from_covering computes each
distinct core shape's volume exactly, as a Fraction, and rounds it to float
once; volumes, values, integrals and norms are floats, so the decomposition
identities hold to round-off: verify_decomposition allows 1e-12 of max |g|
in the sum of the parts and 1e-10 of the integral of |g| in each part's
mean. A decomposition result is three aligned arrays (vertex, fragment,
value) over the kept U_t pairs.

The construction: f_t = g restricted to the cells owned by t, the shadow
integrals S_t (f-integrals at and below t) come from the tree kernel,
h_s = (S_s / |B_s|) on B_s, and

    g_t = f_t + sum_{children s} h_s - h_t        (no -h term at the root).

The two-sided norm estimate predicted for the result combines the 2^q
triangle-inequality factors, the admissibility and embedding constants of
the weights, sup |U_t|/|B_t|, the overlap bound, and the Hardy constant of
the induced weighted problem.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from .covering import CubeCovering
from .hardy import HardyProblem, _shadow_sums
from .tree import RootedTree

class DecompositionError(RuntimeError):
    def __init__(self, message: str, vertex: int | None = None):
        super().__init__(message if vertex is None else f"{message} (vertex {vertex})")
        self.vertex = vertex


def _first(mask: np.ndarray) -> int | None:
    hit = np.flatnonzero(mask)
    return int(hit[0]) if len(hit) else None


def _weight(name: str, values, m: int) -> np.ndarray:
    """One positive, finite weight per fragment (ones when not given)."""
    if values is None:
        return np.ones(m)
    w = np.asarray(values, dtype=float)
    if w.shape != (m,):
        raise DecompositionError(f"{name} must hold one value per fragment, "
                                 f"got shape {w.shape} for {m} fragments")
    if (i := _first(~(np.isfinite(w) & (w > 0)))) is not None:
        raise DecompositionError(f"{name} must be positive and finite: {w[i]} on fragment {i}")
    return w


class CellSpace:
    """A tree covering flattened to disjoint fragments with weight values.

    Per fragment its volume `vol` (each given volume rounded to float), the
    `owner` vertex whose core cell contains it and the `connector` s when
    it is the slab B_s (-1 for none); per vertex `bfrag`, its slab (-1 at
    the root). The sorted pairs `pair_key` = vertex * m + fragment list each
    fragment with its owner and each slab B_s with s and with parent(s):
    every U_t. The weights ell, nu, omega hold one positive value per
    fragment (all ones by default)."""

    def __init__(self, tree: RootedTree, volume, owner, connector,
                 ell=None, nu=None, omega=None, meta: dict | None = None):
        self.tree = tree
        # copies: vol is kept read-only and the index is built from all three
        vol = np.array(volume, dtype=float)
        owner = np.array(owner, dtype=np.int64)
        conn = np.array(connector, dtype=np.int64)
        if vol.ndim != 1 or owner.shape != vol.shape or conn.shape != vol.shape:
            raise DecompositionError(
                "one volume, one owner and one connector per fragment required")
        n, m = tree.n, len(vol)
        self.ell, self.nu, self.omega = (_weight(name, w, m) for name, w in
                                         (("ell", ell), ("nu", nu), ("omega", omega)))
        self.meta = dict(meta or {})

        has = conn != -1
        if (i := _first((owner < 0) | (owner >= n))) is not None:
            raise DecompositionError(f"fragment {i}: owner {owner[i]} is not a vertex")
        if (i := _first(has & ((conn < 0) | (conn >= n) | (conn == tree.root)))) is not None:
            raise DecompositionError(
                f"fragment {i}: connector {conn[i]} is not a non-root vertex")
        if (i := _first(vol < 0)) is not None:
            raise DecompositionError(f"fragment {i}: negative volume")
        if (i := _first(~np.isfinite(vol))) is not None:
            raise DecompositionError(f"fragment {i}: volume is not finite")
        slab = np.flatnonzero(has)
        s = conn[slab]
        count = np.bincount(s, minlength=n)
        if (t := _first(count > 1)) is not None:
            raise DecompositionError("duplicate connector fragment", t)
        count[tree.root] = 1
        if (t := _first(count == 0)) is not None:
            raise DecompositionError("missing connector fragment", t)
        if (i := _first(has & (vol <= 0))) is not None:
            raise DecompositionError("connector must have positive volume", int(conn[i]))
        bfrag = np.full(n, -1, dtype=np.int64)
        bfrag[s] = slab
        key = np.sort(np.concatenate([owner, s, tree.parent[s]]) * m
                      + np.concatenate([np.arange(m), slab, slab]))
        key = key[np.r_[True, key[1:] != key[:-1]]]
        self.owner, self.connector, self.bfrag, self.vol = owner, conn, bfrag, vol
        self.pair_key = key
        self.pair_vertex, self.pair_frag = np.divmod(key, max(m, 1))
        vol.flags.writeable = False

    @property
    def overlap_bound(self) -> int:
        return int(np.bincount(self.pair_frag, minlength=1).max())


def space_from_covering(cov: CubeCovering, beta: float) -> CellSpace:
    """Fragments of a cube covering: core cells first (index = vertex id),
    then the connector slabs in Gamma* order. Weight values are the edge
    powers nu = l_t^gamma, omega = l_t^beta at the critical shift
    gamma = beta + alpha - 1, tied to the fragment's vertex (the slab B_s
    carries the edge of s, matching the essinf convention)."""
    tree, d = cov.tree, cov.n
    cls = cov.size_class
    gs = tree.gamma_star
    up = tree.parent[gs]
    edge = cov.class_edge

    # a core's volume |Q_t| - sum_c |Q_c| / 2 depends only on its class and
    # on how many children it has at each class offset: one Fraction per shape
    offsets, col = np.unique(cls[gs] - cls[up], return_inverse=True)
    kids = np.zeros((len(offsets), tree.n), dtype=np.int64)
    np.add.at(kids, (col, up), 1)
    dims = (int(cls.max()) + 1, *(kids.max(axis=1) + 1).tolist())
    shapes, kind = np.unique(np.ravel_multi_index((cls, *kids), dims), return_inverse=True)
    core = [edge[j] ** d - sum((k * edge[j + o] ** d for k, o in zip(row, offsets.tolist())
                                if k), Fraction(0)) / 2
            for j, *row in zip(*(a.tolist() for a in np.unravel_index(shapes, dims)))]
    if (t := _first(np.isin(kind, [k for k, v in enumerate(core) if v <= 0]))) is not None:
        raise DecompositionError("core cell has nonpositive volume", t)
    slab = [edge[j] ** d / 2 for j in range(len(edge))]
    vol = np.concatenate([np.array(core, dtype=float)[kind],
                          np.array(slab, dtype=float)[cls[gs]]])
    owner = np.concatenate([np.arange(tree.n), up])
    connector = np.concatenate([np.full(tree.n, -1), gs])
    ell_arr = np.concatenate([cov.edge_array, cov.edge_array[gs]])
    alpha = cov.profile.alpha
    gamma = beta + alpha - 1.0
    return CellSpace(tree, vol, owner, connector, ell=ell_arr, nu=ell_arr ** gamma,
                     omega=ell_arr ** beta, meta={"alpha": alpha, "beta": beta, "gamma": gamma})


@dataclass
class CellFunction:
    """Piecewise-constant values on the fragments of a CellSpace: `values`
    is a read-only float array, one value per fragment."""

    space: CellSpace
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != self.space.vol.shape:
            raise DecompositionError("one value per fragment required")
        values.flags.writeable = False
        self.values = values


def random_mean_zero(space: CellSpace, rng) -> CellFunction:
    vals = rng.standard_normal(len(space.vol))
    vals -= float(vals @ space.vol) / float(space.vol.sum())
    return CellFunction(space, vals)


def weighted_q_norm_q(values: np.ndarray, weights: np.ndarray, vol: np.ndarray,
                      q: float) -> float:
    """sum |f|^q * weights^{-q} * vol over the nonzero values (the q-th
    power of the weighted norm); all three aligned float arrays, e.g. per
    fragment."""
    v = np.abs(values)
    nz = v != 0
    return math.fsum(v[nz] ** q * weights[nz] ** (-q) * vol[nz])


# -- the tree decomposition -----------------------------------------------------

@dataclass
class DecompositionResult:
    space: CellSpace
    q: float
    vertex: np.ndarray                       # the kept U_t pairs in pair_key order:
    frag: np.ndarray                         # g_t is value[k] on fragment frag[k] where
    value: np.ndarray                        # vertex[k] == t, and 0 elsewhere
    shadow_integrals: np.ndarray             # S_t by vertex; the root's is int g
    lhs_norm: float                          # sum_t ||g_t||^q in the nu weight
    rhs_norm: float                          # ||g||^q in the omega weight
    ratio: float
    flags: tuple[str, ...]
    g_values: np.ndarray                     # g's values, one per fragment

    def to_json(self) -> dict:
        # "parts": vertex -> {fragment: value}, every vertex present
        count = np.bincount(self.vertex, minlength=self.space.tree.n).tolist()
        pairs = zip(map(str, self.frag.tolist()), self.value.tolist())
        return {
            "q": self.q,
            "parts": {str(t): dict(islice(pairs, c)) for t, c in enumerate(count)},
            "lhs_norm": self.lhs_norm,
            "rhs_norm": self.rhs_norm,
            "ratio": self.ratio,
            "flags": list(self.flags),
        }


def decompose(g: CellFunction, problem: HardyProblem | None = None,
              q: float | None = None) -> DecompositionResult:
    """Mean-zero decomposition of g over the covering tree.

    S is one tree-kernel pass; on each U_t pair the part's value is the
    g-term if t owns the fragment, +h_s if t is parent(s) of its slab s, or
    -h_t on B_t, kept iff a term is nonzero. The norms use the space's
    nu/omega weights with q taken from `problem` (or given directly). On a
    space from a covering (meta has "beta") the problem's v on Gamma* must
    be the slab weight |B_t|^{1/p} omega_t of weights_from_beta, up to
    1e-12 relative, so that a problem from another beta is refused.
    """
    space = g.space
    tree = space.tree
    if problem is not None:
        if problem.tree != tree:
            raise DecompositionError("problem tree does not match the covering")
        if "beta" in space.meta:
            gs = tree.gamma_star
            b = space.bfrag[gs]
            slab = space.vol[b] ** (1.0 / problem.p) * space.omega[b]
            if not np.all(np.abs(problem.v[gs] - slab) <= 1e-12 * slab):
                raise DecompositionError(
                    "problem weights do not match the space's beta "
                    f"{space.meta['beta']}")
        q = problem.q
    q = 2.0 if q is None else q
    if not 1.0 < q < math.inf:
        raise DecompositionError(f"q must lie in (1, inf), got {q}")
    gv = g.values
    if (i := _first(~np.isfinite(gv))) is not None:
        raise DecompositionError(f"g is not finite on fragment {i}")
    mass = gv * space.vol
    scale = math.fsum(np.abs(mass))
    flags = []
    if scale == 0:
        flags.append("zero_input")
    elif abs(math.fsum(mass)) > 1e-12 * scale:
        raise DecompositionError("g must have vanishing mean value")

    S = _shadow_sums(tree, np.bincount(space.owner, weights=mass, minlength=tree.n))
    has = space.connector >= 0
    h = np.zeros(len(gv))                    # h_s on the slab B_s, 0 off the slabs
    h[has] = S[space.connector[has]] / space.vol[has]

    pv, pf = space.pair_vertex, space.pair_frag
    c, hp = space.connector[pf], h[pf]
    gterm = np.where(space.owner[pf] == pv, gv[pf], 0.0)
    hterm = np.where(c == pv, -hp,
                     np.where(tree.parent[c] == pv, hp, 0.0))
    keep = (gterm != 0) | (hterm != 0)
    vertex, frag, value = pv[keep], pf[keep], (gterm + hterm)[keep]

    lhs = weighted_q_norm_q(value, space.nu[frag], space.vol[frag], q)
    rhs = weighted_q_norm_q(gv, space.omega, space.vol, q)
    if not rhs:
        flags.append("zero_ratio")
    return DecompositionResult(space, q, vertex, frag, value, S, lhs, rhs,
                               lhs / rhs if rhs else 0.0, tuple(flags), g.values)


@dataclass(frozen=True)
class VerifyReport:
    sum_error: float              # max per-fragment |sum_t g_t - g| / max|g|
    max_part_mean: float          # max_t |int g_t|
    mean_bound: float             # the 1e-10 * ||g||_1 budget
    support_ok: bool
    measured_ratio: float
    predicted_bound: float
    components: dict
    lhs_norm: float = 0.0
    rhs_norm: float = 0.0

    @property
    def estimate_ok(self) -> bool:
        """measured <= predicted up to 1e-9 round-off; False if either is NaN."""
        return self.measured_ratio <= self.predicted_bound * (1.0 + 1e-9)

    def to_json(self) -> dict:
        return {**asdict(self), "sum_ok": True, "means_ok": True,
                "estimate_ok": self.estimate_ok}


def predicted_constant(space: CellSpace, q: float, hardy_constant: float) -> tuple[float, dict]:
    """A-priori bound for lhs/rhs: triangle-inequality 2^q factors, the
    omega->nu embedding constant, the per-vertex admissibility and
    |U_t|/|B_t| terms, the overlap bound, and the Hardy constant."""
    n = space.tree.n
    p = q / (q - 1.0)
    emb = float(np.max(space.omega / space.nu))
    pv, pf = space.pair_vertex, space.pair_frag
    sup_omega = np.full(n, -np.inf)
    np.maximum.at(sup_omega, pv, space.omega[pf])
    b = space.bfrag
    s = b >= 0
    r = np.bincount(pv, weights=space.vol[pf], minlength=n)[s] / space.vol[b[s]]
    terms = (sup_omega[s] / space.omega[b[s]]) ** q * r ** (q / p)
    ratio_ub = float(r.max(initial=0.0))
    worst = float(terms.max(initial=0.0))
    N = space.overlap_bound
    c_pred = 2.0 ** (q - 1.0) * emb ** q \
        + 2.0 ** q * hardy_constant ** q * worst * N
    return c_pred, {"embedding": emb, "admissibility_term": worst,
                    "overlap": N, "ub_ratio": ratio_ub, "hardy": hardy_constant}


def verify_decomposition(result: DecompositionResult, hardy: float) -> VerifyReport:
    """Check the three decomposition properties exactly and the norm estimate
    against the bound hardy on the Hardy constant (optimize_theta's suff_bound).

    Violations of the exact properties raise DecompositionError with the
    offending vertex; the estimate comparison is reported, and failing it
    also raises (the predicted bound is rigorous, not a heuristic). Every
    test is written so that a NaN fails it.
    """
    space = result.space
    n, m = space.tree.n, len(space.vol)
    g = np.asarray(result.g_values, dtype=float)
    gmax = max(float(np.max(np.abs(g), initial=0.0)), 1e-300)

    vertex = np.asarray(result.vertex, dtype=np.int64)
    frag = np.asarray(result.frag, dtype=np.int64)
    value = np.asarray(result.value, dtype=float)
    if not vertex.ndim == 1 or not vertex.shape == frag.shape == value.shape:
        raise DecompositionError("vertex, frag and value must be aligned 1-D arrays")
    key = vertex * m + frag                  # pair_key is sorted: one binary search
    found = space.pair_key[np.minimum(np.searchsorted(space.pair_key, key),
                                      len(space.pair_key) - 1)] == key
    inside = (vertex >= 0) & (vertex < n) & (frag >= 0) & (frag < m) & found
    if (k := _first(~inside)) is not None:
        raise DecompositionError("part supported outside U_t", int(vertex[k]))

    dev = np.abs(np.bincount(frag, weights=value, minlength=m) - g)
    err = float(np.max(dev, initial=0.0))
    if not err <= 1e-12 * gmax:
        raise DecompositionError(f"sum of parts deviates from g by {err:.3e}",
                                 int(space.owner[np.argmax(dev)]))

    bound = 1e-10 * max(math.fsum(np.abs(g) * space.vol), 1e-300)
    means = np.bincount(vertex, weights=value * space.vol[frag], minlength=n)
    if (t := _first(~(np.abs(means) <= bound))) is not None:
        raise DecompositionError(f"part mean {means[t]:.3e} exceeds budget", t)
    worst_mean = float(np.max(np.abs(means), initial=0.0))

    c_pred, components = predicted_constant(space, result.q, float(hardy))
    report = VerifyReport(err / gmax, worst_mean, bound, True,
                          result.ratio, c_pred, components,
                          result.lhs_norm, result.rhs_norm)
    if not report.estimate_ok:
        raise DecompositionError(
            f"measured ratio {result.ratio:.6g} exceeds the predicted bound {c_pred:.6g}")
    return report

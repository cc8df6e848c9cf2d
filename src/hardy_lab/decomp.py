"""Constructive mean-zero decompositions subordinate to a tree covering.

Functions are piecewise constant on *fragments*: each vertex t owns a core
cell (its cube minus the connector slabs of its children) and each non-root
vertex s has a connector fragment B_s sitting inside the parent's cube, so

    U_t = (fragments owned by t)  U  B_t  U  {B_c : c a child of t}.

A CellSpace keeps its fragments as arrays and one sorted array of the
(vertex, fragment) pairs of every U_t; set integrals, overlaps and part
values are bincount and gather steps over it. Volumes are exact rationals
(one Fraction per distinct core shape of a covering) rounded to float once;
values, integrals and norms are floats, so the decomposition identities
hold to round-off. split_pair stays exact in Fractions.

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
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable

import numpy as np

from .covering import CubeCovering
from .hardy import HardyProblem, HardyReport, _shadow_sums
from .tree import RootedTree

class DecompositionError(RuntimeError):
    def __init__(self, message: str, vertex: int | None = None):
        super().__init__(message if vertex is None else f"{message} (vertex {vertex})")
        self.vertex = vertex


@dataclass(frozen=True)
class Fragment:
    volume: Fraction
    owner: int                    # vertex whose core cell contains the fragment
    connector: int | None = None  # s when the fragment is the slab B_s


def _first(mask: np.ndarray) -> int | None:
    hit = np.flatnonzero(mask)
    return int(hit[0]) if len(hit) else None


class CellSpace:
    """A tree covering flattened to disjoint fragments with weight values.

    Per fragment `owner`, `connector` (-1 for none) and float `vol`; per
    vertex `bfrag`, its slab (-1 at the root). The sorted pairs `pair_key` =
    vertex * m + fragment list each fragment with its owner and each slab
    B_s with s and with parent(s): every U_t."""

    def __init__(self, tree: RootedTree, fragments: Iterable[Fragment],
                 ell=None, nu=None, omega=None, meta: dict | None = None):
        self.tree = tree
        self.fragments = tuple(fragments)
        n, m = tree.n, len(self.fragments)
        self.ell = np.ones(m) if ell is None else np.asarray(ell, dtype=float)
        self.nu = np.ones(m) if nu is None else np.asarray(nu, dtype=float)
        self.omega = np.ones(m) if omega is None else np.asarray(omega, dtype=float)
        self.meta = dict(meta or {})

        owner = np.array([f.owner for f in self.fragments], dtype=np.int64)
        has = np.array([f.connector is not None for f in self.fragments], dtype=bool)
        conn = np.array([-1 if f.connector is None else f.connector for f in self.fragments],
                        dtype=np.int64)
        vol = np.array([f.volume for f in self.fragments], dtype=float)
        if (i := _first((owner < 0) | (owner >= n))) is not None:
            raise DecompositionError(f"fragment {i}: owner {owner[i]} is not a vertex")
        if (i := _first(has & ((conn < 0) | (conn >= n) | (conn == tree.root)))) is not None:
            raise DecompositionError(
                f"fragment {i}: connector {conn[i]} is not a non-root vertex")
        if (i := _first(vol < 0)) is not None:
            raise DecompositionError(f"fragment {i}: negative volume")
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
        key = np.sort(np.concatenate([owner, s, np.asarray(tree.parent, dtype=np.int64)[s]]) * m
                      + np.concatenate([np.arange(m), slab, slab]))
        key = key[np.r_[True, key[1:] != key[:-1]]]
        self.owner, self.connector, self.bfrag, self.vol = owner, conn, bfrag, vol
        self.pair_key = key
        self.pair_vertex, self.pair_frag = np.divmod(key, max(m, 1))
        vol.flags.writeable = False

    def u_frags(self, t: int) -> tuple[int, ...]:
        a, b = np.searchsorted(self.pair_vertex, [t, t + 1])
        return tuple(self.pair_frag[a:b].tolist())

    @property
    def overlap_bound(self) -> int:
        return int(np.bincount(self.pair_frag, minlength=1).max())

    def volumes(self) -> np.ndarray:
        return self.vol


def space_from_covering(cov: CubeCovering, beta: float | None = None,
                        gamma: float | None = None) -> CellSpace:
    """Fragments of a cube covering: core cells first (index = vertex id),
    then the connector slabs in Gamma* order. Weight values are the edge
    powers nu = l_t^gamma, omega = l_t^beta tied to the fragment's vertex
    (the slab B_s carries the edge of s, matching the essinf convention)."""
    tree, d = cov.tree, cov.n
    cls = np.asarray(cov.size_class, dtype=np.int64)
    gs = np.asarray(tree.gamma_star, dtype=np.int64)
    up = np.asarray(tree.parent, dtype=np.int64)[gs]

    def edge(j):
        return cov.profile.ell * Fraction(1, 2 ** j)

    # a core's volume |Q_t| - sum_c |Q_c| / 2 depends only on its class and
    # on how many children it has at each class offset: one Fraction per shape
    offsets, col = np.unique(cls[gs] - cls[up], return_inverse=True)
    kids = np.zeros((len(offsets), tree.n), dtype=np.int64)
    np.add.at(kids, (col, up), 1)
    dims = (int(cls.max()) + 1, *(kids.max(axis=1) + 1).tolist())
    shapes, kind = np.unique(np.ravel_multi_index((cls, *kids), dims), return_inverse=True)
    core = [edge(j) ** d - sum((k * edge(j + o) ** d for k, o in zip(row, offsets.tolist())),
                               Fraction(0)) / 2
            for j, *row in zip(*(a.tolist() for a in np.unravel_index(shapes, dims)))]
    if (t := _first(np.isin(kind, [k for k, v in enumerate(core) if v <= 0]))) is not None:
        raise DecompositionError("core cell has nonpositive volume", t)
    slab = {j: edge(j) ** d / 2 for j in set(cls[gs].tolist())}
    frags = [*map(Fragment, map(core.__getitem__, kind.tolist()), range(tree.n)),
             *map(Fragment, map(slab.__getitem__, cls[gs].tolist()), up.tolist(), gs.tolist())]
    ell_arr = np.concatenate([cov.edge_array, cov.edge_array[gs]])
    alpha = cov.profile.alpha
    if beta is None:
        nu = omega = None
    else:
        if gamma is None:
            gamma = beta + alpha - 1.0
        nu = ell_arr ** gamma
        omega = ell_arr ** beta
    return CellSpace(tree, frags, ell=ell_arr, nu=nu, omega=omega,
                     meta={"alpha": alpha, "beta": beta, "gamma": gamma})


def toy_two_cell_space() -> CellSpace:
    """The 1-D covering of (0, 2): cores (0,1) and (1,2), connector (1, 5/4)."""
    tree = RootedTree([-1, 0])
    frags = (
        Fragment(Fraction(1), owner=0),
        Fragment(Fraction(1, 4), owner=1, connector=1),
        Fragment(Fraction(3, 4), owner=1),
    )
    return CellSpace(tree, frags)


@dataclass
class CellFunction:
    """Piecewise-constant values on the fragments of a CellSpace.

    Values may be floats or Fractions; integrals stay exact whenever both
    the values and the volumes are rational.
    """

    space: CellSpace
    values: tuple

    def __post_init__(self):
        if len(self.values) != len(self.space.fragments):
            raise DecompositionError("one value per fragment required")
        self.values = tuple(self.values)

    def integral(self):
        return sum(v * f.volume for v, f in zip(self.values, self.space.fragments))

    def abs_integral(self):
        return sum(abs(v) * f.volume for v, f in zip(self.values, self.space.fragments))

    def is_mean_zero(self, rel: float = 1e-12) -> bool:
        scale = self.abs_integral()
        return scale == 0 or abs(self.integral()) <= rel * scale

    def scaled(self, c) -> "CellFunction":
        return CellFunction(self.space, tuple(c * v for v in self.values))

    def as_array(self) -> np.ndarray:
        return np.array(self.values, dtype=float)


def random_mean_zero(space: CellSpace, rng) -> CellFunction:
    vals = rng.standard_normal(len(space.fragments))
    vals -= float(vals @ space.vol) / float(space.vol.sum())
    return CellFunction(space, tuple(vals.tolist()))


def weighted_q_norm_q(values, space: CellSpace, weights: np.ndarray, q: float) -> float:
    """sum |f|^q * weights^{-q} * vol (the q-th power of the weighted norm)."""
    v = np.abs(np.array(values, dtype=float))
    nz = v != 0
    return math.fsum(v[nz] ** q * weights[nz] ** (-q) * space.vol[nz])


# -- pairwise splitting --------------------------------------------------------

@dataclass(frozen=True)
class SplitReport:
    overlap_volume: Fraction
    norm_constant: float          # (||f_A|| + ||f_B||) / ||f|| in the weighted norm
    mean_a: object
    mean_b: object


def split_pair(f: CellFunction, A: Iterable[int], B: Iterable[int],
               q: float = 2.0) -> tuple[CellFunction, CellFunction, SplitReport]:
    """Split f (mean zero on A u B) into parts supported on A and on B.

    f_A = chi_A f - (chi_{AnB} / |AnB|) int_A f and f_B = f - f_A; the
    overlap correction uses int_A f in both parts, which is what makes
    f_A + f_B = f and both means vanish identically. Exact when values and
    volumes are rational.
    """
    space = f.space
    A = frozenset(A)
    B = frozenset(B)
    both = A & B
    vol_overlap = sum((space.fragments[i].volume for i in both), Fraction(0))
    if vol_overlap <= 0:
        raise DecompositionError("the overlap A n B must have positive measure")
    outside = [i for i, v in enumerate(f.values) if v and i not in A and i not in B]
    if outside:
        raise DecompositionError(f"f has mass outside A u B (fragment {outside[0]})")
    total = f.integral()
    scale = f.abs_integral()
    if scale and abs(total) > 1e-12 * scale:
        raise DecompositionError("f must have vanishing mean on A u B")
    int_a = sum(f.values[i] * space.fragments[i].volume for i in A)
    corr = int_a / vol_overlap

    va = [v - corr if i in both else v if i in A else 0 for i, v in enumerate(f.values)]
    vb = [corr if i in both else v if i in B else 0 for i, v in enumerate(f.values)]
    fa = CellFunction(space, tuple(va))
    fb = CellFunction(space, tuple(vb))
    nf = weighted_q_norm_q(f.values, space, space.omega, q) ** (1.0 / q)
    na = weighted_q_norm_q(va, space, space.omega, q) ** (1.0 / q)
    nb = weighted_q_norm_q(vb, space, space.omega, q) ** (1.0 / q)
    c = (na + nb) / nf if nf else 0.0
    return fa, fb, SplitReport(vol_overlap, c, fa.integral(), fb.integral())


# -- the tree decomposition -----------------------------------------------------

@dataclass
class DecompositionResult:
    space: CellSpace
    q: float
    parts: dict[int, dict[int, float]]       # vertex -> {fragment: value}
    shadow_integrals: np.ndarray             # S_t by vertex; the root's is int g
    lhs_norm: float                          # sum_t ||g_t||^q in the nu weight
    rhs_norm: float                          # ||g||^q in the omega weight
    ratio: float
    flags: tuple[str, ...]
    g_values: tuple

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "parts": {str(t): {str(i): v for i, v in sorted(p.items())}
                      for t, p in sorted(self.parts.items())},
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
    nu/omega weights with q taken from `problem` (or given directly).
    """
    space = g.space
    tree = space.tree
    if problem is not None:
        if problem.tree != tree:
            raise DecompositionError("problem tree does not match the covering")
        q = problem.q
    q = 2.0 if q is None else q
    if not 1.0 < q < math.inf:
        raise DecompositionError(f"q must lie in (1, inf), got {q}")
    gv = g.as_array()
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
                     np.where(np.asarray(tree.parent)[c] == pv, hp, 0.0))
    keep = (gterm != 0) | (hterm != 0)
    vertex, frag, value = pv[keep], pf[keep], (gterm + hterm)[keep]
    cut = np.searchsorted(vertex, np.arange(tree.n + 1)).tolist()
    frags, values = frag.tolist(), value.tolist()
    parts = {t: dict(zip(frags[a:b], values[a:b]))
             for t, (a, b) in enumerate(zip(cut, cut[1:]))}

    lhs = math.fsum(np.abs(value) ** q * space.nu[frag] ** (-q) * space.vol[frag])
    rhs = weighted_q_norm_q(gv, space, space.omega, q)
    if not rhs:
        flags.append("zero_ratio")
    return DecompositionResult(space, q, parts, S, lhs, rhs, lhs / rhs if rhs else 0.0,
                               tuple(flags), g.values)


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
        return {
            "sum_ok": True,
            "means_ok": True,
            "support_ok": self.support_ok,
            "estimate_ok": self.estimate_ok,
            "sum_error": self.sum_error,
            "max_part_mean": self.max_part_mean,
            "mean_bound": self.mean_bound,
            "lhs_norm": self.lhs_norm,
            "rhs_norm": self.rhs_norm,
            "measured_ratio": self.measured_ratio,
            "predicted_bound": self.predicted_bound,
            "components": self.components,
        }


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


def verify_decomposition(result: DecompositionResult,
                         hardy: HardyReport | float,
                         sum_tol: float = 1e-12,
                         mean_tol: float = 1e-10) -> VerifyReport:
    """Check the three decomposition properties exactly and the norm estimate.

    Violations of the exact properties raise DecompositionError with the
    offending vertex; the estimate comparison is reported, and failing it
    also raises (the predicted bound is rigorous, not a heuristic). Every
    test is written so that a NaN fails it.
    """
    space = result.space
    n, m = space.tree.n, len(space.fragments)
    g = np.array(result.g_values, dtype=float)
    gmax = max(float(np.max(np.abs(g), initial=0.0)), 1e-300)

    parts = result.parts
    vertex = np.repeat(np.array(list(parts), dtype=np.int64), list(map(len, parts.values())))
    frag = np.fromiter(chain.from_iterable(parts.values()), np.int64, len(vertex))
    value = np.fromiter(chain.from_iterable(map(dict.values, parts.values())),
                        float, len(vertex))
    inside = ((vertex >= 0) & (vertex < n) & (frag >= 0) & (frag < m)
              & np.isin(vertex * m + frag, space.pair_key))
    if (k := _first(~inside)) is not None:
        raise DecompositionError("part supported outside U_t", int(vertex[k]))

    dev = np.abs(np.bincount(frag, weights=value, minlength=m) - g)
    err = float(np.max(dev, initial=0.0))
    if not err <= sum_tol * gmax:
        raise DecompositionError(f"sum of parts deviates from g by {err:.3e}",
                                 int(space.owner[np.argmax(dev)]))

    bound = mean_tol * max(math.fsum(np.abs(g) * space.vol), 1e-300)
    means = np.bincount(vertex, weights=value * space.vol[frag], minlength=n)
    if (t := _first(~(np.abs(means) <= bound))) is not None:
        raise DecompositionError(f"part mean {means[t]:.3e} exceeds budget", t)
    worst_mean = float(np.max(np.abs(means), initial=0.0))

    c_h = hardy.suff_bound if isinstance(hardy, HardyReport) else float(hardy)
    c_pred, components = predicted_constant(space, result.q, c_h)
    report = VerifyReport(err / gmax, worst_mean, bound, True,
                          result.ratio, c_pred, components,
                          result.lhs_norm, result.rhs_norm)
    if not report.estimate_ok:
        raise DecompositionError(
            f"measured ratio {result.ratio:.6g} exceeds the predicted bound {c_pred:.6g}")
    return report

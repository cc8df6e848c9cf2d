"""Whitney-type cube tree-coverings of the model domain under a Holder graph.

The domain is Omega_phi = (-l/2, l/2)^{n-1} x (0, phi(x')) for an alpha-Holder
function phi with 2l <= phi < 3l on the widened strip (-3l/2, 3l/2)^{n-1}.
Cubes are built level by level moving up: the root cube is
(-l/2, l/2)^{n-1} x (0, l); above a cube Q_t of edge e the test cube is the
3-dilation (about its own center) of Q_t translated up by e. If the test cube
fits under the graph, one same-size child is stacked on top; otherwise the
top face carries 2^{n-1} half-size children.

Every cube is a dyadic cell of its size class j (edge h_j = l 2^-j), stored
as integer grid indices (i, k) for the box [-l/2 + i h_j, -l/2 + (i + 1) h_j)
x [k h_j, (k + 1) h_j), so disjointness and coverage checks are exact, the
export is exact Fractions and the construction is bit-for-bit reproducible.

Each cube Q_t = Q_t' x (x1, x2) is extended downward by half of itself to
U_t = Q_t' x (x1 - e/2, x2); the added slab B_t = Q_t' x (x1 - e/2, x1) lies
inside the parent cube, giving the tree covering {U_t} with connectors {B_t}.
Note |U_t| = (3/2)|Q_t| and |B_t| = |Q_t|/2, so |U_t|/|B_t| = 3 for every
non-root t; the covering only needs this ratio bounded.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

from .hardy import HardyProblem, assemble_uv
from .tree import RootedTree


class CoveringError(RuntimeError):
    pass


class CubeCapExceeded(CoveringError):
    def __init__(self, cap: int):
        super().__init__(f"cube count exceeded cap={cap}")
        self.cap = cap


@dataclass(frozen=True)
class HolderProfile:
    """The graph function phi with its Holder data.

    phi maps an (m, n-1) array of physical base coordinates to values;
    dphi (optional, same signature returning (m, n-1)) is only needed by
    the distance-power test functions.
    """

    alpha: float
    k_phi: float
    ell: Fraction
    phi: Callable[[np.ndarray], np.ndarray]
    n: int = 2
    name: str = "user"
    dphi: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if self.k_phi < 0:
            raise ValueError("the Holder constant must be nonnegative")
        if self.ell <= 0:
            raise ValueError("the base scale must be positive")

    def validate(self, grid: int = 48, tol: float = 1e-9) -> None:
        """Check 2l <= phi < 3l and the sampled Holder quotient on a grid."""
        L = float(self.ell)
        d = self.n - 1
        axes = [np.linspace(-1.5 * L * (1 - 1e-9), 1.5 * L * (1 - 1e-9), grid)] * d
        pts = np.stack([g.ravel() for g in np.meshgrid(*axes)], axis=-1)
        vals = np.asarray(self.phi(pts), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise CoveringError("phi must be finite on the strip")
        if np.any(vals < 2 * L - tol) or np.any(vals >= 3 * L):
            raise CoveringError("phi must satisfy 2l <= phi < 3l on the strip")
        worst = _holder_quotient_max(pts, vals, self.alpha)
        if worst > self.k_phi * (1 + 1e-6) + tol:
            raise CoveringError(
                f"sampled Holder quotient {worst:.6g} exceeds K={self.k_phi}")


_QUOTIENT_ROWS = 64     # grid points per row block of the Holder quotient sweep


def _holder_quotient_max(pts: np.ndarray, vals: np.ndarray, alpha: float) -> float:
    """max over pairs i != j of |vals_i - vals_j| / |pts_i - pts_j|^alpha.

    Swept in blocks of _QUOTIENT_ROWS rows against the points from the
    block's first row on, so memory stays O(rows x points). The quotient is
    symmetric bit for bit (negating a difference is exact), so the upper
    triangle gives the all-pairs maximum exactly.
    """
    block_max = []
    for a in range(0, len(vals), _QUOTIENT_ROWS):
        b = min(a + _QUOTIENT_ROWS, len(vals))
        diff = np.abs(vals[a:b, None] - vals[None, a:])
        dist = np.linalg.norm(pts[a:b, None, :] - pts[None, a:, :], axis=-1)
        rows = np.arange(b - a)
        dist[rows, rows] = 1.0
        diff[rows, rows] = 0.0
        block_max.append((diff / dist ** alpha).max())
    return float(np.max(block_max))


def profile_flat(height: float = 2.0, ell=1, n: int = 2) -> HolderProfile:
    """Constant graph (Lipschitz with K = 0); 2l <= height < 3l required."""
    h = float(height)
    return HolderProfile(
        alpha=1.0, k_phi=0.0, ell=Fraction(ell),
        phi=lambda x: np.full(np.asarray(x).shape[0], h),
        dphi=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        n=n, name=f"flat{h:g}")


def profile_demo(n: int = 2) -> HolderProfile:
    """phi(x) = 2 + |x|^{1/2} / 2 with l = 1: a Holder-1/2 kink at x = 0."""
    def phi(x):
        x = np.asarray(x, dtype=float)
        return 2.0 + np.sqrt(np.linalg.norm(x, axis=-1)) / 2.0

    def dphi(x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        r = np.where(r == 0, np.inf, r)
        return x / (4.0 * r ** 1.5)

    return HolderProfile(alpha=0.5, k_phi=0.5, ell=Fraction(1),
                         phi=phi, dphi=dphi, n=n, name="demo")


def profile_rough(scales: int = 14, amplitude: float = 0.5,
                  n: int = 2) -> HolderProfile:
    """A lacunary Holder-1/2 graph rough at every scale (l = 1).

    phi(x) = 2.05 + amplitude * sum_m 2^{-m/2} dist(2^m x_0, Z). Unlike the
    single-kink demo profile, this boundary saturates the per-size-class
    cube counting (~2^{1.5 j} cubes of class j in the plane), which is the
    regime where the beta p = -alpha threshold is sharp: the induced v^p
    level sums decay like 2^{-j(alpha + beta p)} on the integrable side and
    grow on the other.

    The Holder constant: splitting the sum at 2^{m*} ~ 1/h gives
    |phi(x)-phi(y)| <= amplitude * 4.7 * h^{1/2}.
    """
    base = 2.05
    factors = [(2.0 ** m, 2.0 ** (-m / 2)) for m in range(scales + 1)]

    def phi(x):
        x = np.asarray(x, dtype=float)
        r = x[..., 0] if x.ndim > 1 else x
        acc = np.zeros_like(r)
        y = np.empty_like(r)
        dist = np.empty_like(r)
        for scale, weight in factors:
            np.multiply(r, scale, out=y)
            np.subtract(y, np.rint(y, out=dist), out=dist)
            np.abs(dist, out=dist)
            dist *= weight
            acc += dist
        acc *= amplitude
        acc += base
        return acc

    top = base + amplitude * 0.5 / (1.0 - 2.0 ** -0.5)
    if not top < 3.0:
        raise ValueError("amplitude too large for the 2l <= phi < 3l window")
    return HolderProfile(alpha=0.5, k_phi=4.7 * amplitude, ell=Fraction(1),
                         phi=phi, n=n, name="rough")


PROFILES = {"demo": profile_demo, "flat": profile_flat, "rough": profile_rough}


# -- containment test ---------------------------------------------------------

PHI_CHUNK = 1 << 14         # grid points per profile.phi call


def _min_phi_decisions(profile: HolderProfile, lo: np.ndarray, hi: np.ndarray,
                       threshold: np.ndarray, max_points: int = 1 << 14) -> list:
    """Decide whether phi >= threshold[b] on each open box (lo[b], hi[b]).

    Adaptive midpoint grids, m = 4, 8, ... points per axis while m^d <=
    max_points, each round on the boxes still undecided: a sample strictly
    below the threshold is a witness against containment; otherwise the
    Holder modulus of the grid spacing turns the sampled minimum into a
    certificate. Returns, per box, True, False, or None when the budget runs
    out with the margin unresolved. Every box gets exactly the grid points,
    minimum and certificate of a test run on that box alone.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    threshold = np.asarray(threshold, dtype=float)
    d = lo.shape[1]
    decision = [None] * len(lo)
    todo = np.arange(len(lo))
    m = 4
    while len(todo) and m ** d <= max_points:
        blo, bhi, thr = lo[todo], hi[todo], threshold[todo]
        vmin = _grid_min(profile, blo, bhi, m)
        below = vmin < thr
        sq = 0
        for k in range(d):
            sq = sq + ((bhi[:, k] - blo[:, k]) / m) ** 2
        h = 0.5 * np.sqrt(sq)
        # the modulus K h^alpha with h^alpha as a Python float power
        modulus = np.array([profile.k_phi * x ** profile.alpha for x in h.tolist()])
        sure = ~below & (vmin - modulus >= thr)
        for b in todo[below].tolist():
            decision[b] = False
        for b in todo[sure].tolist():
            decision[b] = True
        todo = todo[~below & ~sure]
        m *= 2
    return decision


def _grid_min(profile: HolderProfile, lo: np.ndarray, hi: np.ndarray, m: int) -> np.ndarray:
    """Minimum of phi over the m^d midpoint grid of each box (lo[b], hi[b])."""
    nb, d = lo.shape
    per = m ** d
    offsets = np.arange(m) + 0.5
    out = np.empty(nb)
    step = max(1, PHI_CHUNK // per)
    for a in range(0, nb, step):
        blo, bhi = lo[a:a + step], hi[a:a + step]
        pts = np.empty((len(blo),) + (m,) * d + (d,))
        for k in range(d):
            shape = [len(blo)] + [1] * d
            shape[k + 1] = m
            axis = blo[:, k, None] + offsets * (bhi[:, k] - blo[:, k])[:, None] / m
            pts[..., k] = axis.reshape(shape)
        pts = pts.reshape(-1, d)
        vals = np.concatenate([
            np.asarray(profile.phi(pts[s:s + PHI_CHUNK]), dtype=float).ravel()
            for s in range(0, len(pts), PHI_CHUNK)])
        out[a:a + len(blo)] = vals.reshape(len(blo), per).min(axis=1)
    return out


# -- the covering -------------------------------------------------------------

def _dyadic_floats(ell, m, j) -> np.ndarray:
    """float(l m / 2^(j+1)) elementwise for integers m and size classes j.

    With l = a/b this is the float64 quotient (a m) / (b 2^(j+1)): both
    products are exact below 2^53 and IEEE division rounds correctly, so it
    equals float(Fraction) bit for bit. Past 2^53 CoveringError is raised.
    """
    m = np.asarray(m, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    top = int(j.max(initial=0)) + 1
    if ell.numerator * int(np.abs(m).max(initial=1)) >= 2 ** 53 \
            or ell.denominator << top >= 2 ** 53:
        raise CoveringError(f"l = {ell} at size class {top - 1}: dyadic coordinates "
                            "need integers past 2^53 and would round")
    return (m * ell.numerator).astype(float) / np.ldexp(float(ell.denominator), j + 1)


def _cube_points(ell, cell: np.ndarray, j, halves) -> np.ndarray:
    """Float coordinates of the point lo + halves * h_j / 2 of each cube,
    for rows of grid cells `cell` of size classes `j` (halves = 0: lower
    corner, 1: center, 2: upper corner)."""
    j = np.asarray(j, dtype=np.int64)[:, None]
    m = 2 * cell + halves
    m[:, :-1] -= 1 << j             # the horizontal origin -l/2 is 2^j half-edges
    return _dyadic_floats(ell, m, j)


def _cell_key(vertical, horizontal, N: int):
    """k N^d + sum_r i_r N^r: one integer per grid cell of a size class
    with N cells across (ints or int64 arrays alike)."""
    key = vertical
    for i in reversed(horizontal):
        key = key * N + i
    return key


@dataclass(eq=False)
class CubeCovering:
    profile: HolderProfile
    tree: RootedTree
    level: tuple[int, ...]
    size_class: tuple[int, ...]             # edge h_j = l * 2^-j
    cell: np.ndarray                        # (cubes, n) int64 grid indices in units of h_j
    depth_max: int
    inconclusive: int = 0                   # containment tests resolved conservatively

    def __post_init__(self):
        self.cell = np.array(self.cell, dtype=np.int64)
        width = 1 << np.asarray(self.size_class, dtype=np.int64)[:, None]
        if self.cell.shape != (self.tree.n, self.n) or np.any(self.cell < 0) \
                or np.any(self.cell[:, :-1] >= width):
            raise ValueError("cell must hold one grid cell of its class per cube, inside the strip")
        self.cell.flags.writeable = False

    @property
    def n(self) -> int:
        return self.profile.n

    def edge(self, t: int) -> Fraction:
        return self.profile.ell * Fraction(1, 2 ** self.size_class[t])

    def q_volume(self, t: int) -> Fraction:
        return self.edge(t) ** self.n

    def b_volume(self, t: int) -> Fraction:
        if t == self.tree.root:
            raise ValueError("the root has no connector slab")
        return self.q_volume(t) / 2

    @cached_property
    def edge_array(self) -> np.ndarray:
        """float(edge(t)) for every vertex t; read-only, built on first use."""
        return self._class_floats(lambda e: e)

    @cached_property
    def volume_array(self) -> np.ndarray:
        """float(q_volume(t)) for every vertex t; read-only, built on first use."""
        return self._class_floats(lambda e: e ** self.n)

    def _class_floats(self, of_edge: Callable[[Fraction], Fraction]) -> np.ndarray:
        # one exact value per size class, rounded to float once
        table = {j: float(of_edge(self.profile.ell * Fraction(1, 2 ** j)))
                 for j in set(self.size_class)}
        out = np.array([table[j] for j in self.size_class])
        out.flags.writeable = False
        return out

    @cached_property
    def corners(self) -> tuple[np.ndarray, np.ndarray]:
        """Float lower and upper corners of every cube, (cubes, n) each; read-only."""
        lo_hi = np.stack([_cube_points(self.profile.ell, self.cell, self.size_class, h)
                          for h in (0, 2)])
        lo_hi.flags.writeable = False
        return lo_hi[0], lo_hi[1]

    def u_volume(self, t: int) -> Fraction:
        if t == self.tree.root:
            return self.q_volume(t)
        return self.q_volume(t) * Fraction(3, 2)

    def ub_ratio(self, t: int) -> Fraction:
        """|U_t| / |B_t|; identical (= 3) for every non-root vertex."""
        return self.u_volume(t) / self.b_volume(t)

    @property
    def cube_count(self) -> int:
        return self.tree.n

    def level_counts(self) -> dict[int, int]:
        return dict(Counter(self.level))

    def class_counts(self) -> dict[int, int]:
        return dict(Counter(self.size_class))

    # -- point location (half-open boxes [lo, hi) for determinism) ----------

    @cached_property
    def _locate_index(self) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Per size class j: j, the horizontal and vertical grid lines, the
        sorted cell keys and the vertex id of each key; built on first use.

        The grid lines are the floats of the exact lines, so
        searchsorted(side="right") - 1 reproduces the half-open test
        float(lo) <= x < float(hi) of every cube bit for bit.
        """
        cls = np.asarray(self.size_class)
        index = []
        for j in np.unique(cls).tolist():
            ids = np.flatnonzero(cls == j)
            cell = self.cell[ids]
            N = 2 ** j
            kmax = int(cell[:, -1].max())
            if (kmax + 1) * N ** (self.n - 1) > np.iinfo(np.int64).max:
                raise CoveringError(f"cell keys of size class {j} overflow int64")
            keys = _cell_key(cell[:, -1], list(cell[:, :-1].T), N)
            order = np.argsort(keys, kind="stable")
            hgrid = _dyadic_floats(self.profile.ell, 2 * np.arange(N + 1) - N, j)
            vgrid = _dyadic_floats(self.profile.ell, 2 * np.arange(kmax + 2), j)
            index.append((j, hgrid, vgrid, keys[order], ids[order]))
        return index

    def locate(self, x):
        """Vertex whose cube contains x, or -1 outside the truncated region.

        A point of shape (n,) gives an int; points of shape (m, n) give an
        int64 array. Cubes are the half-open float boxes [float(lo), float(hi)).
        """
        pts = np.asarray(x, dtype=float)
        if pts.ndim == 1:
            return int(self.locate(pts[None, :])[0])
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise ValueError(f"points must have shape (m, {self.n})")
        out = np.full(len(pts), -1, dtype=np.int64)
        for _, hgrid, vgrid, keys, ids in self._locate_index:
            N = len(hgrid) - 1
            k = np.searchsorted(vgrid, pts[:, -1], side="right") - 1
            ok = (k >= 0) & (k < len(vgrid) - 1)
            horizontal = []
            for r in range(self.n - 1):
                i = np.searchsorted(hgrid, pts[:, r], side="right") - 1
                ok &= (i >= 0) & (i < N)
                horizontal.append(i)
            key = np.where(ok, _cell_key(k, horizontal, N), -1)
            pos = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
            hit = ok & (keys[pos] == key)
            out[hit] = ids[pos[hit]]
        return out

    # -- exports -------------------------------------------------------------

    def to_json(self) -> dict:
        a, b = self.profile.ell.numerator, self.profile.ell.denominator

        def fr(x: Fraction):
            return [x.numerator, x.denominator]

        def at(m: int, j: int):         # the coordinate l m / 2^(j+1)
            return fr(Fraction(a * m, b << (j + 1)))

        edges = {j: self.profile.ell * Fraction(1, 2 ** j) for j in set(self.size_class)}
        cubes = []
        for t, (j, cell) in enumerate(zip(self.size_class, self.cell.tolist())):
            *horizontal, k = cell
            N = 2 ** j
            cubes.append({
                "id": t,
                "parent": self.tree.parent[t],
                "level": self.level[t],
                "size_class": j,
                "edge": fr(edges[j]),
                "base": [[at(2 * i - N, j), at(2 * i + 2 - N, j)] for i in horizontal],
                "vertical": [at(2 * k, j), at(2 * k + 2, j)],
                "volume_b": fr(edges[j] ** self.n / 2) if t != self.tree.root else None,
            })
        return {
            "n": self.n,
            "alpha": self.profile.alpha,
            "k_phi": self.profile.k_phi,
            "ell": fr(self.profile.ell),
            "profile": self.profile.name,
            "depth_max": self.depth_max,
            "inconclusive": self.inconclusive,
            "cubes": cubes,
        }

    def level_rows(self) -> list[dict]:
        """Per-size-class profile rows (plot-ready)."""
        rows = []
        for j, count in sorted(self.class_counts().items()):
            edge = self.profile.ell * Fraction(1, 2 ** j)
            rows.append({
                "size_class": j,
                "edge": float(self.profile.ell) * 2.0 ** (-j),
                "count": count,
                "volume": float(count * edge ** self.n),
            })
        return rows

    # -- distance diagnostics -------------------------------------------------

    def graph_distance(self, points: np.ndarray, base_grid: int = 2049,
                       refine: int = 3) -> np.ndarray:
        """Distance to the graph of phi by projected search on refining grids.

        The Holder modulus bounds the error by the final grid spacing, which
        is plenty for the admissibility diagnostics this feeds.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        L = float(self.profile.ell)
        d = self.n - 1
        if d == 2:
            base_grid = min(base_grid, 257)
        axes = [np.linspace(-1.5 * L, 1.5 * L, base_grid)] * d
        grid = np.stack([g.ravel() for g in np.meshgrid(*axes)], axis=-1)
        out = np.empty(len(pts))
        for i, x in enumerate(pts):
            g = grid
            h = 3.0 * L / (base_grid - 1)      # current sample spacing
            for _ in range(refine + 1):
                gv = np.asarray(self.profile.phi(g), dtype=float)
                d2 = np.sum((g - x[:-1]) ** 2, axis=1) + (gv - x[-1]) ** 2
                k = int(np.argmin(d2))
                best = g[k]
                local = [np.clip(np.linspace(b - h, b + h, 33),
                                 -1.5 * L, 1.5 * L) for b in best]
                g = np.stack([a.ravel() for a in np.meshgrid(*local)], axis=-1)
                h /= 16.0
            out[i] = math.sqrt(float(d2[k]))
        return out

    def centers(self) -> np.ndarray:
        return _cube_points(self.profile.ell, self.cell, self.size_class, 1)

    @cached_property
    def _graph_distances(self) -> np.ndarray:
        return self.graph_distance(self.centers())

    def admissibility_interval(self) -> tuple[float, float, np.ndarray]:
        """Fitted range of d_G(center of Q_t) / edge over all cubes."""
        ratios = self._graph_distances / self.edge_array
        return float(ratios.min()), float(ratios.max()), ratios


def build_covering(profile: HolderProfile, depth_max: int,
                   cube_cap: int = 10 ** 6, validate: bool = True) -> CubeCovering:
    """Breadth-first cube construction, truncated at dyadic depth `depth_max`.

    The truncation is by size class (edge = l * 2^-j, j <= depth_max): a
    branch ends when a cube of the smallest admitted class fails its
    containment test and would have to subdivide. Chains of same-size cubes
    keep extending, so the tree depth typically exceeds depth_max.

    The containment tests of a whole BFS level are decided together
    (`_min_phi_decisions`): the midpoint grids of the level's undecided test
    boxes go through phi in batches of at most PHI_CHUNK points, and each
    box gets the decision a test on that box alone would give. An
    inconclusive containment test subdivides (it can only refine the
    covering, never coarsen it) and is counted in the report.

    Children come from integer cells: the stacked child of (i, k) is
    (i, k + 1), the split children (2i + bits, 2(k + 1)) one class down, in
    the order itertools.product takes the halves of each axis.
    """
    if profile.n not in (2, 3):
        raise CoveringError("only dimensions 2 and 3 are supported")
    if validate:
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
        decisions = _min_phi_decisions(
            profile,
            np.maximum(c - he, -strip),
            np.minimum(c + he, strip),
            _dyadic_floats(L, 2 * (cell[:, -1] + 3), cls))
        inconclusive += decisions.count(None)
        stacked = np.array([x is True for x in decisions])     # None subdivides
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

    tree = RootedTree(np.concatenate(parent).tolist())
    return CubeCovering(profile, tree, tuple(np.concatenate(level).tolist()),
                        tuple(np.concatenate(size_class).tolist()),
                        np.concatenate(cells), depth_max, inconclusive)


# -- structural verification ---------------------------------------------------

def check_disjoint_and_coverage(cov: CubeCovering) -> dict:
    """Exact disjointness and coverage of the truncated staircase region.

    Disjointness: dyadic cells are disjoint or nested, so a cube overlaps
    another exactly when its key repeats in its class or its ancestor cell
    (cell >> (j - j')) at a coarser class j' is a cube, found by searchsorted
    in the locate index. Coverage: the per-cube volume total must equal the
    column integral of the stack heights read off the truncation leaves;
    both are exact sums over per-class integer counts.
    """
    index = cov._locate_index
    disjoint = True
    for j, _, _, keys, ids in index:
        disjoint &= not np.any(keys[1:] == keys[:-1])
        for coarse, _, _, ckeys, _ in index:
            if coarse >= j or not disjoint:
                break
            up = cov.cell[ids] >> (j - coarse)
            key = _cell_key(up[:, -1], list(up[:, :-1].T), 2 ** coarse)
            pos = np.minimum(np.searchsorted(ckeys, key), len(ckeys) - 1)
            disjoint &= not np.any(ckeys[pos] == key)

    cls = np.asarray(cov.size_class)
    leaves = np.asarray(cov.tree.leaves)
    counts = np.bincount(cls)
    heights = np.zeros(len(counts), dtype=np.int64)   # sum of k + 1 over leaves
    np.add.at(heights, cls[leaves], cov.cell[leaves, -1] + 1)
    total = columns = Fraction(0)
    for j in np.flatnonzero(counts).tolist():
        volume = (cov.profile.ell * Fraction(1, 2 ** j)) ** cov.n
        total += int(counts[j]) * volume
        columns += int(heights[j]) * volume     # a leaf column is (k + 1) cubes high
    return {
        "disjoint": bool(disjoint),
        "covered_volume": total,
        "column_volume": columns,
        "coverage_exact": total == columns,
    }


# -- counting profiles and the fitted bounds ------------------------------------

def counting_profiles(cov: CubeCovering, t: int) -> tuple[dict[int, int], dict[int, int]]:
    """(P, W): counts of cubes per size class on the path to t / in its shadow.

    Both counts include t itself (and P includes the root cube).
    """
    cov.tree._check_vertex(t)
    P: dict[int, int] = {}
    s = t
    while True:
        P[cov.size_class[s]] = P.get(cov.size_class[s], 0) + 1
        if s == cov.tree.root:
            break
        s = cov.tree.parent[s]
    W: dict[int, int] = {}
    stack = [t]
    while stack:
        s = stack.pop()
        W[cov.size_class[s]] = W.get(cov.size_class[s], 0) + 1
        stack.extend(cov.tree.children[s])
    return P, W


def _fit_constants(cov: CubeCovering, class_cap: int) -> dict[str, float]:
    """Smallest C1, C2, C3 over cubes of size class <= class_cap.

    Child edges never grow, so the cubes of class <= class_cap form a rooted
    subtree: per size class, path counts are one kernel prefix and shadow
    counts one kernel shadow of that class's indicator over the subtree, and
    shadow volumes one more shadow. A correctly rounded product or quotient
    with a positive factor is monotone, so each constant is the largest
    count (or volume) among the cubes of a class, scaled by its factor,
    maximised over the classes.
    """
    alpha = cov.profile.alpha
    nn = cov.n
    K = cov.profile.k_phi
    tree = cov.tree
    kern = tree.kernel
    nclass = max(cov.size_class) + 1
    Lf = float(cov.profile.ell)
    r0 = cov.size_class[tree.root]

    cls = np.asarray(cov.size_class)[kern.order]          # BFS positions of Gamma*
    keep = cls <= class_cap
    # the kept cubes followed by the root, grouped by class for per-class maxima
    kcls = np.append(cls[keep], r0)
    classes = np.flatnonzero(np.bincount(kcls)).tolist()
    groups = [(k, kcls == k) for k in classes]

    def class_max(kept, at_root):
        values = np.append(kept, at_root)
        return [(k, float(values[mask].max())) for k, mask in groups]

    c1 = 0.0
    c2 = 0.0
    for i in classes:
        mine = (cls == i) & keep
        own = float(i == r0)                    # the root's own count in class i
        most = max(kern.prefix(mine)[keep].max(initial=0.0) + own, own)
        c1 = max(c1, most / 2.0 ** (i * (1.0 - alpha)))
        for k, top in class_max(kern.shadow(mine)[keep], np.count_nonzero(mine) + own):
            if top:
                c2 = max(c2, top * 2.0 ** (k * (nn - 1) + i * (alpha - nn)))

    # shadow volumes in units of the least half-cube volume w: |Q_t| is
    # 2^{(J - j) n + 1} units, an exact power of two in a float
    J = nclass - 1
    w = cov.profile.ell ** nn / 2 ** (J * nn + 1)
    unit = [2.0 ** ((J - j) * nn + 1) for j in range(nclass)]
    units = np.array(unit)[cls] * keep
    total = units.sum() + unit[r0]
    if total >= 2.0 ** 53:
        raise CoveringError("shadow volumes exceed 2^53 units: float sums would round")
    # |B_t| = |Q_t| / 2 joins the shadow of every non-root t
    c3 = 0.0
    for k, vol in class_max((kern.shadow(units) + units / 2)[keep], total):
        shadow_vol = float(int(vol) * w)
        et = Lf * 2.0 ** (-k)
        c3 = max(c3, shadow_vol / (et ** (nn - 1 + alpha) * (K + et ** (1 - alpha))))
    return {"c1": float(c1), "c2": float(c2), "c3": float(c3)}


@dataclass(frozen=True)
class BoundsReport:
    c1: float
    c2: float
    c3: float
    shallow: dict[str, float]       # fits at depth_max - 2
    stable: dict[str, bool]         # |deep/shallow - 1| <= 0.1

    def to_json(self) -> dict:
        return {"c1": self.c1, "c2": self.c2, "c3": self.c3,
                "shallow": self.shallow, "stable": self.stable}


def verify_counting_bounds(cov: CubeCovering, stability_tol: float = 0.10) -> BoundsReport:
    """Fit the smallest constants in the path/shadow/volume bounds.

    Instability between depth_max and depth_max - 2 is reported, not fatal.
    """
    deep = _fit_constants(cov, cov.depth_max)
    shallow = _fit_constants(cov, max(cov.depth_max - 2, 0))
    stable = {k: bool(shallow[k] > 0
                      and abs(deep[k] / shallow[k] - 1.0) <= stability_tol)
              for k in deep}
    return BoundsReport(deep["c1"], deep["c2"], deep["c3"], shallow, stable)


# -- induced Hardy problems -----------------------------------------------------

def weights_from_beta(cov: CubeCovering, beta: float, p: float,
                      gamma: float | None = None) -> HardyProblem:
    """Distance-power weights nu = d^gamma, omega = d^beta with the edge
    length as the distance surrogate; gamma defaults to the critical shift
    beta + alpha - 1. The problem is tagged with the beta*p > -alpha
    predicate.
    """
    alpha = cov.profile.alpha
    if gamma is None:
        gamma = beta + alpha - 1.0
    gs = list(cov.tree.gamma_star)
    edges = cov.edge_array[gs]
    vols = cov.volume_array[gs] / 2         # |B_t| = |Q_t| / 2
    flag = "beta_ok" if beta * p > -alpha else "beta_violates_cond"
    return assemble_uv(cov.tree, vols, edges ** gamma, edges ** beta, p,
                       flags=(flag,))


@dataclass(frozen=True)
class TailReport:
    rows: tuple[dict, ...]          # per size class: count, sum, cumulative, ratio
    geometric: bool                 # level sums decay by a stable factor
    decay: float                    # geometric-mean ratio of the last level sums

    def to_json(self) -> dict:
        return {"rows": list(self.rows), "geometric": self.geometric,
                "decay": self.decay}


def tail_integrability(cov: CubeCovering, beta: float, p: float,
                       window: int = 5) -> TailReport:
    """Per-size-class partial sums of v^p = |B_t| edge^{beta p}."""
    count = np.bincount(np.asarray(cov.size_class)[list(cov.tree.gamma_star)])
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for j in np.flatnonzero(count).tolist():
        e = cov.profile.ell * Fraction(1, 2 ** j)
        # every vertex of class j adds the same term; cumsum adds them one by
        # one, in the order of a per-vertex loop
        term = float(e ** cov.n / 2) * float(e) ** (beta * p)
        sums[j] = float(np.cumsum(np.full(count[j], term))[-1])
        counts[j] = int(count[j])
    rows = []
    cum = 0.0
    prev = None
    for j in sorted(sums):
        cum += sums[j]
        ratio = sums[j] / prev if prev else None
        rows.append({"size_class": j, "count": counts[j], "sum": sums[j],
                     "cumulative": cum, "ratio": ratio})
        prev = sums[j]
    ratios = [r["ratio"] for r in rows[-window:] if r["ratio"] is not None]
    geometric = (len(ratios) >= 3 and all(r < 1.0 for r in ratios)
                 and max(ratios) <= 1.2 * min(ratios))
    decay = float(np.exp(np.mean(np.log(ratios)))) if ratios else float("nan")
    return TailReport(tuple(rows), geometric, decay)

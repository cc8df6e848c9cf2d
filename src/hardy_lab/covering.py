"""Whitney-type cube tree-coverings of the model domain under a Holder graph.

The domain is Omega_phi = (-l/2, l/2)^{n-1} x (0, phi(x')) for an alpha-Holder
function phi with 2l <= phi < 3l on the widened strip (-3l/2, 3l/2)^{n-1}.
Cubes are built level by level moving up: the root cube is
(-l/2, l/2)^{n-1} x (0, l); above a cube Q_t of edge e the test cube is the
3-dilation (about its own center) of Q_t translated up by e. If the test cube
fits under the graph, one same-size child is stacked on top; otherwise the
top face carries 2^{n-1} half-size children.

Every coordinate is an exact dyadic rational multiple of l (stored as a
Fraction), so disjointness and coverage checks are exact, and the whole
construction is reproducible bit-for-bit across platforms.

Each cube Q_t = Q_t' x (x1, x2) is extended downward by half of itself to
U_t = Q_t' x (x1 - e/2, x2); the added slab B_t = Q_t' x (x1 - e/2, x1) lies
inside the parent cube, giving the tree covering {U_t} with connectors {B_t}.
Note |U_t| = (3/2)|Q_t| and |B_t| = |Q_t|/2, so |U_t|/|B_t| = 3 for every
non-root t; the covering only needs this ratio bounded.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
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
        if np.any(vals < 2 * L - tol) or np.any(vals >= 3 * L):
            raise CoveringError("phi must satisfy 2l <= phi < 3l on the strip")
        diff = np.abs(vals[:, None] - vals[None, :])
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        np.fill_diagonal(dist, 1.0)
        np.fill_diagonal(diff, 0.0)
        quot = diff / dist ** self.alpha
        worst = float(quot.max())
        if worst > self.k_phi * (1 + 1e-6) + tol:
            raise CoveringError(
                f"sampled Holder quotient {worst:.6g} exceeds K={self.k_phi}")


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

    def phi(x):
        x = np.asarray(x, dtype=float)
        r = x[..., 0] if x.ndim > 1 else x
        acc = np.zeros_like(r)
        for m in range(scales + 1):
            y = 2.0 ** m * r
            acc += 2.0 ** (-m / 2) * np.abs(y - np.round(y))
        return base + amplitude * acc

    top = base + amplitude * 0.5 / (1.0 - 2.0 ** -0.5)
    if not top < 3.0:
        raise ValueError("amplitude too large for the 2l <= phi < 3l window")
    return HolderProfile(alpha=0.5, k_phi=4.7 * amplitude, ell=Fraction(1),
                         phi=phi, n=n, name="rough")


PROFILES = {"demo": profile_demo, "flat": profile_flat, "rough": profile_rough}


# -- containment test ---------------------------------------------------------

def _min_phi_decision(profile: HolderProfile, lo: np.ndarray, hi: np.ndarray,
                      threshold: float, max_points: int = 1 << 14):
    """Decide whether phi >= threshold on the open box (lo, hi).

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


# -- the covering -------------------------------------------------------------

def _cell_key(vertical, horizontal, N: int):
    """k N^d + sum_r i_r N^r: one integer per grid cell of a size class
    with N cells across (ints or int64 arrays alike)."""
    key = vertical
    for i in reversed(horizontal):
        key = key * N + i
    return key


@dataclass
class CubeCovering:
    profile: HolderProfile
    tree: RootedTree
    level: tuple[int, ...]
    size_class: tuple[int, ...]             # edge = l * 2^-j
    base: tuple[tuple[tuple[Fraction, Fraction], ...], ...]
    vert: tuple[tuple[Fraction, Fraction], ...]
    depth_max: int
    inconclusive: int = 0                   # containment tests resolved conservatively
    _dg: np.ndarray | None = field(default=None, repr=False)
    _index: list | None = field(default=None, repr=False, compare=False)

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
        out: dict[int, int] = {}
        for lv in self.level:
            out[lv] = out.get(lv, 0) + 1
        return out

    def class_counts(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for j in self.size_class:
            out[j] = out.get(j, 0) + 1
        return out

    # -- point location (half-open boxes [lo, hi) for determinism) ----------

    def _locate_index(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Per size class: horizontal and vertical grid lines, sorted cell keys
        and the vertex id of each key; built on first use and cached.

        A cube of class j (edge h = l 2^-j) occupies the grid cell with
        horizontal indices (lo_r + l/2)/h and vertical index lo_n/h, all exact
        integers. The grid lines are the floats of the exact lines, so
        searchsorted(side="right") - 1 reproduces the half-open test
        float(lo) <= x < float(hi) of every cube bit for bit.
        """
        if self._index is None:
            L = self.profile.ell
            by_class: dict[int, list[int]] = {}
            for t, j in enumerate(self.size_class):
                by_class.setdefault(j, []).append(t)
            index = []
            for j, ids in sorted(by_class.items()):
                h = L / 2 ** j
                N = 2 ** j
                keys = []
                kmax = 0
                for t in ids:
                    cell = [(lo + L / 2) / h for lo, _ in self.base[t]] + [self.vert[t][0] / h]
                    assert all(x.denominator == 1 and x >= 0 for x in cell) \
                        and all(x < N for x in cell[:-1]), f"cube {t} is off its class grid"
                    *horizontal, k = map(int, cell)
                    kmax = max(kmax, k)
                    keys.append(_cell_key(k, horizontal, N))
                assert (kmax + 1) * N ** (self.n - 1) <= np.iinfo(np.int64).max, \
                    "cell keys overflow int64"
                keys = np.array(keys, dtype=np.int64)
                order = np.argsort(keys)
                hgrid = np.array([float(-L / 2 + i * h) for i in range(N + 1)])
                vgrid = np.array([float(k * h) for k in range(kmax + 2)])
                index.append((hgrid, vgrid, keys[order],
                              np.array(ids, dtype=np.int64)[order]))
            self._index = index
        return self._index

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
        for hgrid, vgrid, keys, ids in self._locate_index():
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
        def fr(x: Fraction):
            return [x.numerator, x.denominator]
        cubes = []
        for t in range(self.tree.n):
            cubes.append({
                "id": t,
                "parent": self.tree.parent[t],
                "level": self.level[t],
                "size_class": self.size_class[t],
                "edge": fr(self.edge(t)),
                "base": [[fr(lo), fr(hi)] for lo, hi in self.base[t]],
                "vertical": [fr(self.vert[t][0]), fr(self.vert[t][1])],
                "volume_b": fr(self.b_volume(t)) if t != self.tree.root else None,
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
        for j in sorted(self.class_counts()):
            ids = [t for t in range(self.tree.n) if self.size_class[t] == j]
            rows.append({
                "size_class": j,
                "edge": float(self.profile.ell) * 2.0 ** (-j),
                "count": len(ids),
                "volume": float(sum(self.q_volume(t) for t in ids)),
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
        c = np.empty((self.tree.n, self.n))
        for t in range(self.tree.n):
            for k, (lo, hi) in enumerate(self.base[t]):
                c[t, k] = float(lo + hi) / 2.0
            c[t, -1] = float(self.vert[t][0] + self.vert[t][1]) / 2.0
        return c

    def admissibility_interval(self) -> tuple[float, float, np.ndarray]:
        """Fitted range of d_G(center of Q_t) / edge over all cubes."""
        if self._dg is None:
            self._dg = self.graph_distance(self.centers())
        ratios = self._dg / self.edge_array
        return float(ratios.min()), float(ratios.max()), ratios


def build_covering(profile: HolderProfile, depth_max: int,
                   cube_cap: int = 10 ** 6, validate: bool = True) -> CubeCovering:
    """Breadth-first cube construction, truncated at dyadic depth `depth_max`.

    The truncation is by size class (edge = l * 2^-j, j <= depth_max): a
    branch ends when a cube of the smallest admitted class fails its
    containment test and would have to subdivide. Chains of same-size cubes
    keep extending, so the tree depth typically exceeds depth_max.

    An inconclusive containment test subdivides (it can only refine the
    covering, never coarsen it) and is counted in the report.
    """
    if profile.n not in (2, 3):
        raise CoveringError("only dimensions 2 and 3 are supported")
    if validate:
        profile.validate()
    L = profile.ell
    d = profile.n - 1
    half = L / 2
    base0 = tuple((-half, half) for _ in range(d))
    vert0 = (Fraction(0), L)

    parent = [-1]
    level = [0]
    size_class = [0]
    base = [base0]
    vert = [vert0]
    inconclusive = 0

    frontier = [0]
    lv = 0
    while frontier:
        lv += 1
        nxt: list[int] = []
        for t in frontier:
            e = L / 2 ** size_class[t]
            x2 = vert[t][1]
            lo = np.array([float(a) for a, _ in base[t]])
            hi = np.array([float(b) for _, b in base[t]])
            c = (lo + hi) / 2.0
            he = 1.5 * float(e)
            decision = _min_phi_decision(
                profile,
                np.maximum(c - he, -1.5 * float(L)),
                np.minimum(c + he, 1.5 * float(L)),
                float(x2 + 2 * e))
            if decision is None:
                inconclusive += 1
                decision = False
            if decision:
                children_spec = [(base[t], (x2, x2 + e), size_class[t])]
            elif size_class[t] < depth_max:
                h = e / 2
                splits = [((a, a + h), (a + h, b)) for (a, b) in base[t]]
                children_spec = [
                    (tuple(combo), (x2, x2 + h), size_class[t] + 1)
                    for combo in itertools.product(*splits)
                ]
            else:
                children_spec = []      # branch truncated at the class cap
            for b, ve, j in children_spec:
                if len(parent) >= cube_cap:
                    raise CubeCapExceeded(cube_cap)
                parent.append(t)
                level.append(lv)
                size_class.append(j)
                base.append(b)
                vert.append(ve)
                nxt.append(len(parent) - 1)
        frontier = nxt

    tree = RootedTree(parent)
    return CubeCovering(profile, tree, tuple(level), tuple(size_class),
                        tuple(base), tuple(vert), depth_max, inconclusive)


# -- structural verification ---------------------------------------------------

def check_disjoint_and_coverage(cov: CubeCovering) -> dict:
    """Exact disjointness and coverage of the truncated staircase region.

    Disjointness: pairwise open-box intersection on integer-scaled dyadic
    coordinates. Coverage: the per-cube volume total must equal the column
    integral of the stack heights read off the truncation leaves; both are
    exact Fraction sums, so equality is required exactly.
    """
    n = cov.tree.n
    scale = 2 ** (max(cov.size_class) + 1)
    unit = cov.profile.ell / scale

    def ints(t):
        out = []
        for lo, hi in cov.base[t]:
            out.append((int(lo / unit), int(hi / unit)))
        lo, hi = cov.vert[t]
        out.append((int(lo / unit), int(hi / unit)))
        return out

    boxes = np.array([sum((list(iv) for iv in ints(t)), []) for t in range(n)],
                     dtype=np.int64)
    disjoint = True
    block = 1024
    for a in range(0, n, block):
        sl = slice(a, min(a + block, n))
        overlap = np.ones((sl.stop - sl.start, n), dtype=bool)
        for k in range(cov.n):
            lo = boxes[:, 2 * k]
            hi = boxes[:, 2 * k + 1]
            overlap &= (lo[sl, None] < hi[None, :]) & (lo[None, :] < hi[sl, None])
        overlap[np.arange(sl.stop - sl.start), np.arange(sl.start, sl.stop)] = False
        if overlap.any():
            disjoint = False
            break

    total = sum(cov.q_volume(t) for t in range(n))
    columns = Fraction(0)
    for t in cov.tree.leaves:
        area = Fraction(1)
        for lo, hi in cov.base[t]:
            area *= hi - lo
        columns += area * cov.vert[t][1]
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
    """Smallest C1, C2, C3 over cubes of size class <= class_cap."""
    alpha = cov.profile.alpha
    nn = cov.n
    K = cov.profile.k_phi
    tree = cov.tree
    nclass = max(cov.size_class) + 1
    Lf = float(cov.profile.ell)

    c1 = 0.0
    pcounts: list[np.ndarray | None] = [None] * tree.n
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
    pcounts = None

    c2 = 0.0
    wcounts: list[np.ndarray | None] = [None] * tree.n
    wvol: list[Fraction] = [Fraction(0)] * tree.n
    c3 = 0.0
    for t in reversed(tree.topo):
        if cov.size_class[t] > class_cap:
            continue
        acc = np.zeros(nclass, dtype=np.int64)
        vol = cov.q_volume(t)
        for c in tree.children[t]:
            if cov.size_class[c] <= class_cap:
                acc += wcounts[c]
                vol += wvol[c]
                wcounts[c] = None
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
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for t in cov.tree.gamma_star:
        e = float(cov.edge(t))
        s = float(cov.b_volume(t)) * e ** (beta * p)
        j = cov.size_class[t]
        sums[j] = sums.get(j, 0.0) + s
        counts[j] = counts.get(j, 0) + 1
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

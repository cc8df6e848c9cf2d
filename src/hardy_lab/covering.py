"""Whitney-type cube tree-coverings of the model domain under a Holder graph.

The domain is Omega_phi = (-l/2, l/2)^{n-1} x (0, phi(x')) for an alpha-Holder
function phi with 2l <= phi < 3l on the widened strip (-3l/2, 3l/2)^{n-1}.
Cubes grow upward from the root cube (-l/2, l/2)^{n-1} x (0, l); above a
cube Q_t of edge e the test cube is the 3-dilation (about its own center) of
Q_t translated up by e. If the test cube fits under the graph, one same-size
child is stacked on top; otherwise the top face carries 2^{n-1} half-size
children. The stacked cubes on one base cell form a column whose test cubes
share one base, so containment is decided column by column, one size class
at a time, and the tree is then laid out level by level from the column tops.

Every cube is a dyadic cell of its size class j (edge h_j = l 2^-j), stored
as integer grid indices (i, k) for the box [-l/2 + i h_j, -l/2 + (i + 1) h_j)
x [k h_j, (k + 1) h_j), so disjointness and coverage checks are exact and
the construction is bit-for-bit reproducible. The export is these integer
columns plus the exact edge of each size class, so every face is exact.

Each cube Q_t = Q_t' x (x1, x2) is extended downward by half of itself to
U_t = Q_t' x (x1 - e/2, x2); the added slab B_t = Q_t' x (x1 - e/2, x1) lies
inside the parent cube, giving the tree covering {U_t} with connectors {B_t}.
Note |U_t| = (3/2)|Q_t| and |B_t| = |Q_t|/2, so |U_t|/|B_t| = 3 for every
non-root t; the covering only needs this ratio bounded.

Containment tests sample phi on midpoint grids of m = 4, 8, ... points per
axis over a test box's base, which depends only on the column; only the
threshold, the top of the test cube, moves up the column. Every point of a
grid cell lies within the cell's half-diagonal h_m of its midpoint, so phi
>= (sampled minimum) - K h_m^alpha on a set of cells. The grids are searched
branch and bound, one search per base for all of its thresholds: a block of
cells whose bound clears thr + K h_2m^alpha for the largest open threshold,
with a relative margin for rounding, is not refined, as none of its later
samples could be a witness or break a certificate. Each test gets the
decision its box's full grid would give, from far fewer phi calls.

Fixed values: profiles are validated on a 48-point grid per axis to 1e-9;
containment grids are pruned in blocks of 16 cells (4 x 4 on a 2-D base)
with a 1e-9 relative margin on the threshold; each containment call tests
the next 16 cubes of every open column of a size class;
counting-bound fits at depth_max and depth_max - 2 are stable within 10 %;
tail sums read the ratios of the last 5 size classes.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
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

    phi maps an (m, n-1) array of physical base coordinates to values.
    """

    alpha: float
    k_phi: float
    ell: Fraction
    phi: Callable[[np.ndarray], np.ndarray]
    n: int = 2
    name: str = "user"

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if self.k_phi < 0:
            raise ValueError("the Holder constant must be nonnegative")
        if self.ell <= 0:
            raise ValueError("the base scale must be positive")

    def validate(self) -> None:
        """Check 2l <= phi < 3l and the sampled Holder quotient on a grid."""
        L = float(self.ell)
        d = self.n - 1
        axes = [np.linspace(-1.5 * L * (1 - 1e-9), 1.5 * L * (1 - 1e-9), 48)] * d
        pts = np.stack([g.ravel() for g in np.meshgrid(*axes)], axis=-1)
        vals = np.asarray(self.phi(pts), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise CoveringError("phi must be finite on the strip")
        if np.any(vals < 2 * L - 1e-9) or np.any(vals >= 3 * L):
            raise CoveringError("phi must satisfy 2l <= phi < 3l on the strip")
        worst = _holder_quotient_max(pts, vals, self.alpha)
        if worst > self.k_phi * (1 + 1e-6) + 1e-9:
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
        n=n, name=f"flat{h:g}")


def profile_demo(n: int = 2) -> HolderProfile:
    """phi(x) = 2 + |x|^{1/2} / 2 with l = 1: a Holder-1/2 kink at x = 0."""
    def phi(x):
        x = np.asarray(x, dtype=float)
        return 2.0 + np.sqrt(np.linalg.norm(x, axis=-1)) / 2.0

    return HolderProfile(alpha=0.5, k_phi=0.5, ell=Fraction(1),
                         phi=phi, n=n, name="demo")


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

def _split_bits(d: int) -> np.ndarray:
    """The 2^d half-cell offsets of the split children, one row each, in the
    order itertools.product takes the halves of each axis."""
    return (np.arange(2 ** d)[:, None] >> np.arange(d - 1, -1, -1)) & 1


PHI_CHUNK = 1 << 14         # grid points per profile.phi call
BLOCK_SIDE = {1: 16, 2: 4}  # grid cells per axis of a block: 16 points in 1-D, 4 x 4 in 2-D
# first cells of a block's 2^d halves, relative to twice its own first cell
_HALVES = {d: side * _split_bits(d) for d, side in BLOCK_SIDE.items()}
PRUNE_MARGIN = 1e-9         # relative slack on the threshold before a block is pruned


def _min_phi_decisions(profile: HolderProfile, lo: np.ndarray, hi: np.ndarray,
                       threshold: np.ndarray, max_points: int = 1 << 14,
                       box: np.ndarray | None = None) -> tuple:
    """Decide whether phi >= threshold[t] on the open box (lo[b], hi[b]) of
    each test t, b = box[t] (by default box t: one box per test).

    Adaptive midpoint grids, m = 4, 8, ... points per axis while m^d <=
    max_points, each round on the boxes of the tests still undecided: a
    sample strictly below a threshold is a witness against containment;
    otherwise the Holder modulus K h_m^alpha of the cells' half-diagonal h_m
    turns the sampled minimum into a certificate. Returns boolean arrays
    (contained, unresolved: the budget ran out with the margin open), one
    entry per test; a test in neither was witnessed against.

    The grids are searched branch and bound over blocks of BLOCK_SIDE^d
    cells (while m <= BLOCK_SIDE a box is one block). Every point of a cell
    lies within h_m of the cell's midpoint, so after round m phi >= bound =
    (the block's sampled minimum) - K h_m^alpha on the block's region. At
    round 2m a block is split and sampled only if bound < thr + K h_2m^alpha
    + PRUNE_MARGIN |thr| for the largest open threshold thr of its box. The
    samples of a pruned block, at round 2m and every later round, all lie
    above thr + K h_2m^alpha for every open threshold of the box; the margin
    covers the rounding of the grid points and of phi. So none of them is a
    witness and none breaks a certificate, while the blocks kept only for a
    larger threshold are points of the full grid above a smaller one's
    limit: each test gets exactly the decision of its box's full grid (the
    per-box test in the tests' oracles). The block holding a box's sampled
    minimum is never pruned while a test of the box is open, its bound being
    below that test's thr. The certificates have always relied on k_phi
    being a true Holder constant of phi; the pruning makes the witnesses
    rely on it too.
    """
    lo = np.asarray(lo, dtype=float)
    width = np.asarray(hi, dtype=float) - lo
    threshold = np.asarray(threshold, dtype=float)
    nb, d = lo.shape
    of = np.arange(nb) if box is None else np.asarray(box, dtype=np.int64)
    side = BLOCK_SIDE[d]
    contained = np.zeros(len(threshold), dtype=bool)
    todo = np.arange(len(threshold))
    live = np.unique(of)                # the live blocks: their box
    start = np.zeros((len(live), d))    # and first grid cell per axis (exact floats)
    m = 4
    modulus = _holder_modulus(profile, width, m)
    while len(todo) and m ** d <= max_points:
        vals = _block_min(profile, lo, width, live, start, m, min(m, side))
        # live is sorted by box: each box's blocks are one run of it, and
        # NaN samples propagate through the run's minimum, as in min()
        first = np.flatnonzero(np.r_[True, live[1:] != live[:-1]])
        vmin = np.full(nb, np.inf)
        vmin[live[first]] = np.minimum.reduceat(vals, first)
        thr = threshold[todo]
        v = vmin[of[todo]]
        below = v < thr
        sure = ~below & (v - modulus[of[todo]] >= thr)
        contained[todo[sure]] = True
        todo = todo[~below & ~sure]
        m *= 2
        if not len(todo) or m ** d > max_points:
            break
        open_box = np.unique(of[todo])
        next_modulus = np.zeros(nb)
        next_modulus[open_box] = _holder_modulus(profile, width[open_box], m)
        limit = np.full(nb, -np.inf)        # decided boxes keep no block
        thr = threshold[todo]
        np.maximum.at(limit, of[todo],
                      thr + next_modulus[of[todo]] + PRUNE_MARGIN * np.abs(thr))
        bound = vals - modulus[live]
        keep = ~(bound >= limit[live])      # NaN samples keep their block, as the full grid would
        live, start = live[keep], start[keep]
        modulus[open_box] = next_modulus[open_box]
        if m > side:                    # each block splits into 2^d
            live = np.repeat(live, 2 ** d)
            start = (2 * start[:, None, :] + _HALVES[d]).reshape(-1, d)
    unresolved = np.zeros(len(threshold), dtype=bool)
    unresolved[todo] = True
    return contained, unresolved


def _holder_modulus(profile: HolderProfile, width: np.ndarray, m: int) -> np.ndarray:
    """K h^alpha for the half-diagonal h of the cells of each box's m^d grid,
    with h^alpha as a Python float power."""
    sq = 0
    for k in range(width.shape[1]):
        sq = sq + (width[:, k] / m) ** 2
    h = 0.5 * np.sqrt(sq)
    return np.array([profile.k_phi * x ** profile.alpha for x in h.tolist()])


def _block_min(profile: HolderProfile, lo: np.ndarray, width: np.ndarray, box: np.ndarray,
               start: np.ndarray, m: int, side: int) -> np.ndarray:
    """Minimum of phi over each block's side^d points of the m^d midpoint grid
    of its box: lo + ((i + 0.5) w) / m for the cells i = start .. start +
    side - 1 along each axis, as floats."""
    d = lo.shape[1]
    per = side ** d
    offsets = np.arange(side) + 0.5
    out = np.empty(len(box))
    step = PHI_CHUNK // per
    for a in range(0, len(box), step):
        b, i = box[a:a + step], start[a:a + step]
        pts = np.empty((len(b),) + (side,) * d + (d,))
        for k in range(d):
            shape = [len(b)] + [1] * d
            shape[k + 1] = side
            axis = lo[b, k, None] + (i[:, k, None] + offsets) * width[b, k, None] / m
            pts[..., k] = axis.reshape(shape)
        vals = np.asarray(profile.phi(pts.reshape(-1, d)), dtype=float)
        out[a:a + len(b)] = vals.reshape(len(b), per).min(axis=1)
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
    """Float coordinates of the point lo + halves * h_j / 2 of each cube, for
    rows of grid cells `cell` of size classes `j` (halves = 0: lower corner,
    1: center, 2: upper corner), as l m / 2^(j+1) for integers m."""
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
    size_class: np.ndarray                  # (cubes,) int64, edge h_j = l * 2^-j
    cell: np.ndarray                        # (cubes, n) int64 grid indices in units of h_j
    depth_max: int
    inconclusive: int = 0                   # containment tests resolved conservatively

    def __post_init__(self):
        cls = np.array(self.size_class)
        if cls.dtype.kind not in "iu" or cls.shape != (self.tree.n,) or np.any(cls < 0):
            raise ValueError("size_class must hold one non-negative integer per cube")
        self.size_class = cls.astype(np.int64, copy=False)
        self.cell = np.array(self.cell, dtype=np.int64)
        width = 1 << self.size_class[:, None]
        if self.cell.shape != (self.tree.n, self.n) or np.any(self.cell < 0) \
                or np.any(self.cell[:, :-1] >= width):
            raise ValueError("cell must hold one grid cell of its class per cube, inside the strip")
        for a in (self.size_class, self.cell):
            a.flags.writeable = False

    @property
    def n(self) -> int:
        return self.profile.n

    @cached_property
    def class_edge(self) -> tuple[Fraction, ...]:
        """The exact edge l * 2^-j of size class j, for j = 0 .. max class."""
        ell = self.profile.ell
        return tuple(ell * Fraction(1, 2 ** j) for j in range(int(self.size_class.max()) + 1))

    @cached_property
    def edge_array(self) -> np.ndarray:
        """float(class_edge[size_class[t]]) for every vertex t; read-only,
        built on first use."""
        return self._class_floats(lambda e: e)

    @cached_property
    def volume_array(self) -> np.ndarray:
        """float(class_edge[size_class[t]] ** n), the cube volume, for every
        vertex t; read-only, built on first use."""
        return self._class_floats(lambda e: e ** self.n)

    def _class_floats(self, of_edge: Callable[[Fraction], Fraction]) -> np.ndarray:
        # one exact value per size class, rounded to float once
        table = np.array([float(of_edge(e)) for e in self.class_edge])
        out = table[self.size_class]
        out.flags.writeable = False
        return out

    @cached_property
    def corners(self) -> tuple[np.ndarray, np.ndarray]:
        """Float lower and upper corners of every cube, (cubes, n) each; read-only."""
        lo_hi = np.stack([_cube_points(self.profile.ell, self.cell, self.size_class, h)
                          for h in (0, 2)])
        lo_hi.flags.writeable = False
        return lo_hi[0], lo_hi[1]

    # -- point location (half-open boxes [lo, hi) for determinism) ----------

    @cached_property
    def _locate_index(self) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Per size class j: j, the horizontal and vertical grid lines, the
        sorted cell keys and the vertex id of each key; built on first use.

        The grid lines are the floats of the exact lines, so
        searchsorted(side="right") - 1 reproduces the half-open test
        float(lo) <= x < float(hi) of every cube bit for bit.
        """
        cls = self.size_class
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
        # the boxes are pairwise disjoint, so a point one class places is in
        # no other cube: each class searches only the points still unplaced
        todo = np.arange(len(pts))
        for _, hgrid, vgrid, keys, ids in self._locate_index:
            if not len(todo):
                break
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
            out[todo[hit]] = ids[pos[hit]]
            todo, pts = todo[~hit], pts[~hit]
        return out

    # -- exports -------------------------------------------------------------

    def to_json(self) -> dict:
        """The covering as plain int columns, cube t at position t of each.

        `class_edge[j]` is the exact edge h_j = l 2^-j as [num, den];
        `cubes` holds the columns `parent`, `level` (the tree depth),
        `size_class` and `cell`, the grid indices axis-major (`cell[r][t]`).
        Cube t is the box
        prod_{r<n-1} [-l/2 + i_r h, -l/2 + (i_r + 1) h) x [k h, (k + 1) h)
        with h = class_edge[size_class[t]]; its connector slab has volume
        h^n / 2 (the root has none).
        """
        def fr(x: Fraction):
            return [x.numerator, x.denominator]

        return {
            "n": self.n,
            "alpha": self.profile.alpha,
            "k_phi": self.profile.k_phi,
            "ell": fr(self.profile.ell),
            "profile": self.profile.name,
            "depth_max": self.depth_max,
            "inconclusive": self.inconclusive,
            "class_edge": [fr(e) for e in self.class_edge],
            "cubes": {
                "cell": self.cell.T.tolist(),
                "level": self.tree.depth.tolist(),
                "parent": self.tree.parent.tolist(),
                "size_class": self.size_class.tolist(),
            },
        }

    def level_rows(self) -> list[dict]:
        """Per-size-class profile rows (plot-ready)."""
        rows = []
        counts = np.bincount(self.size_class)
        for j in np.flatnonzero(counts).tolist():
            count = int(counts[j])
            edge = self.class_edge[j]
            rows.append({
                "size_class": j,
                "edge": float(self.profile.ell) * 2.0 ** (-j),
                "count": count,
                "volume": float(count * edge ** self.n),
            })
        return rows


COLUMN_BATCH = 16           # thresholds per open column in one containment call


def _test_boxes(L: Fraction, cell: np.ndarray, j) -> tuple[np.ndarray, np.ndarray]:
    """The base of each test box: the 3-dilation of the cube's base about its
    center, clipped to the strip; it depends on the horizontal cells only."""
    lo, hi = (_cube_points(L, cell, j, h)[:, :-1] for h in (0, 2))
    c = (lo + hi) / 2.0
    he = 1.5 * _dyadic_floats(L, 2, j)[:, None]
    strip = 1.5 * float(L)
    return np.maximum(c - he, -strip), np.minimum(c + he, strip)


def _columns(profile: HolderProfile, depth_max: int, cube_cap: int) -> tuple:
    """The column of stacked cubes on every horizontal cell of every size class.

    The cubes on one horizontal cell i of class j form one column, stacked
    from k0 up to its top: the first k whose test fails (witnessed or
    unresolved). The root column is class 0 from k0 = 0; a top below the
    class cap splits into the 2^d columns of class j + 1 on the cells 2i +
    bits, from k0 = 2(top + 1). So class j holds a column on each of its
    2^{dj} cells, and numbering the columns class by class puts the children
    of column c at 2^d c + 1 + b, b indexing the bits.

    The test box depends on (j, i) alone and the threshold (k + 3) h_j on k,
    so each call of `_min_phi_decisions` takes one box per open column of a
    class and its next COLUMN_BATCH thresholds; decisions above a column's
    top are thrown away. Returns per column, in that order, the top and
    whether the top's test was unresolved. CubeCapExceeded is raised once the cubes known to exist pass cube_cap.
    """
    L = profile.ell
    d = profile.n - 1
    bits = _split_bits(d)
    horizontal = np.zeros((1, d), dtype=np.int64)   # the columns of class j: cells
    k0 = np.zeros(1, dtype=np.int64)                # and first k
    tops, unresolved_tops = [], []
    placed = 0                                      # cubes of the finished classes
    for j in range(depth_max + 1):
        ncol = len(k0)
        lo, hi = _test_boxes(L, np.column_stack([horizontal, k0]), np.full(ncol, j))
        top = np.full(ncol, -1, dtype=np.int64)
        top_unresolved = np.zeros(ncol, dtype=bool)
        nxt = k0.copy()                             # the first k not yet decided
        todo = np.arange(ncol)
        while len(todo):
            k = nxt[todo, None] + np.arange(COLUMN_BATCH)
            stacked, unresolved = _min_phi_decisions(
                profile, lo[todo], hi[todo], _dyadic_floats(L, 2 * (k.ravel() + 3), j),
                box=np.repeat(np.arange(len(todo)), COLUMN_BATCH))
            failed = ~stacked.reshape(k.shape)
            first = failed.argmax(axis=1)
            done = failed[np.arange(len(todo)), first]
            top[todo[done]] = k[done, first[done]]
            top_unresolved[todo[done]] = unresolved.reshape(k.shape)[done, first[done]]
            nxt[todo] += COLUMN_BATCH
            todo = todo[~done]
            # every column stands at least up to its top or its first open k
            if placed + int((np.where(top < 0, nxt, top) - k0 + 1).sum()) > cube_cap:
                raise CubeCapExceeded(cube_cap)
        placed += int((top - k0 + 1).sum())
        tops.append(top)
        unresolved_tops.append(top_unresolved)
        horizontal = ((horizontal[:, None, :] << 1) + bits).reshape(-1, d)
        k0 = np.repeat(2 * (top + 1), 2 ** d)
    return np.concatenate(tops), np.concatenate(unresolved_tops)


def build_covering(profile: HolderProfile, depth_max: int,
                   cube_cap: int = 10 ** 6) -> CubeCovering:
    """Breadth-first cube construction, truncated at dyadic depth `depth_max`.

    The truncation is by size class (edge = l * 2^-j, j <= depth_max): a
    branch ends when a cube of the smallest admitted class fails its
    containment test and would have to subdivide. Chains of same-size cubes
    keep extending, so the tree depth typically exceeds depth_max.

    The containment tests are decided column by column first (`_columns`):
    one test box per column of stacked cubes, with all open columns of a
    size class in one `_min_phi_decisions` call, and each test gets the
    decision a full-grid test on its box alone would give. The breadth-first
    pass then replays the tests from the column tops: cube k of a column is
    stacked on while k < top, and the top's test is unresolved as the column
    step found it. An inconclusive containment test subdivides (it can only
    refine the covering, never coarsen it) and is counted in the report.

    Children come from integer cells: the stacked child of (i, k) is
    (i, k + 1), the split children (2i + bits, 2(k + 1)) one class down, in
    the order itertools.product takes the halves of each axis.
    """
    if depth_max < 0:
        raise ValueError(f"depth_max must be >= 0, got {depth_max}")
    if profile.n not in (2, 3):
        raise CoveringError("only dimensions 2 and 3 are supported")
    profile.validate()
    d = profile.n - 1
    bits = _split_bits(d)
    col_top, col_unresolved = _columns(profile, depth_max, cube_cap)

    ids = np.zeros(1, dtype=np.int64)           # the frontier: vertex ids,
    cell = np.zeros((1, d + 1), dtype=np.int64)  # grid cells,
    cls = np.zeros(1, dtype=np.int64)           # size classes
    col = np.zeros(1, dtype=np.int64)           # and columns
    parent, size_class, cells = [np.array([-1])], [cls], [cell]
    count = 1
    inconclusive = 0
    while len(ids):
        top = col_top[col]
        stacked = cell[:, -1] < top
        unresolved = (cell[:, -1] == top) & col_unresolved[col]     # unresolved subdivides
        inconclusive += int(np.count_nonzero(unresolved))
        split = ~stacked & (cls < depth_max)    # else: truncated at the class cap
        kids = np.where(stacked, 1, np.where(split, 2 ** d, 0))
        total = int(kids.sum())
        up = np.repeat(np.arange(len(ids)), kids)
        slot = np.arange(total) - np.repeat(np.cumsum(kids) - kids, kids)
        s = split[up].astype(np.int64)
        cell = np.column_stack([(cell[up, :-1] << s[:, None]) + bits[slot],
                                (cell[up, -1] + 1) << s])
        cls = cls[up] + s
        col = np.where(s == 1, (col[up] << d) + 1 + slot, col[up])
        parent.append(ids[up])
        size_class.append(cls)
        cells.append(cell)
        ids = count + np.arange(total)
        count += total

    tree = RootedTree(np.concatenate(parent))
    return CubeCovering(profile, tree, np.concatenate(size_class),
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

    cls = cov.size_class
    leaves = cov.tree.leaves
    counts = np.bincount(cls)
    heights = np.zeros(len(counts), dtype=np.int64)   # sum of k + 1 over leaves
    np.add.at(heights, cls[leaves], cov.cell[leaves, -1] + 1)
    total = columns = Fraction(0)
    for j in np.flatnonzero(counts).tolist():
        volume = cov.class_edge[j] ** cov.n
        total += int(counts[j]) * volume
        columns += int(heights[j]) * volume     # a leaf column is (k + 1) cubes high
    return {
        "disjoint": bool(disjoint),
        "covered_volume": total,
        "column_volume": columns,
        "coverage_exact": total == columns,
    }


# -- the fitted counting bounds ------------------------------------------------

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
    nclass = int(cov.size_class.max()) + 1
    Lf = float(cov.profile.ell)
    r0 = int(cov.size_class[tree.root])

    cls = cov.size_class[kern.order]          # BFS positions of Gamma*
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
        most = max(kern.prefix(mine.astype(float))[keep].max(initial=0.0) + own, own)
        c1 = max(c1, most / 2.0 ** (i * (1.0 - alpha)))
        for k, top in class_max(kern.shadow(mine.astype(float))[keep],
                                np.count_nonzero(mine) + own):
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
    for k, vol in class_max((kern.shadow(units.copy()) + units / 2)[keep], total):
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
        return asdict(self)


def verify_counting_bounds(cov: CubeCovering) -> BoundsReport:
    """Fit the smallest constants in the path/shadow/volume bounds.

    Instability between depth_max and depth_max - 2 is reported, not fatal.
    """
    deep = _fit_constants(cov, cov.depth_max)
    shallow = _fit_constants(cov, max(cov.depth_max - 2, 0))
    stable = {k: bool(shallow[k] > 0
                      and abs(deep[k] / shallow[k] - 1.0) <= 0.10)
              for k in deep}
    return BoundsReport(deep["c1"], deep["c2"], deep["c3"], shallow, stable)


# -- induced Hardy problems -----------------------------------------------------

def _check_beta_p(beta: float, p: float) -> None:
    """ValueError unless p is finite with p >= 1 and beta is finite."""
    if not (math.isfinite(p) and p >= 1):
        raise ValueError(f"p must be finite and >= 1, got {p}")
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")


def _check_edge_powers(cov: CubeCovering, beta: float, p: float) -> None:
    """ValueError naming beta and p when the weight d^{beta p} overflows a
    float on an edge d of the covering; an underflow to 0 is allowed. d^x
    is monotone in d, so the largest and the smallest edge decide, and a
    Python float power raises OverflowError where numpy's would warn."""
    try:
        for e in (cov.class_edge[0], cov.class_edge[-1]):
            float(e) ** (beta * p)
    except OverflowError:
        raise ValueError(f"beta = {beta:g} and p = {p:g}: the weight d^(beta p) "
                         "overflows a float on the covering's edges") from None


def weights_from_beta(cov: CubeCovering, beta: float, p: float) -> HardyProblem:
    """Distance-power weights nu = d^gamma, omega = d^beta with the edge
    length as the distance surrogate, at the critical shift
    gamma = beta + alpha - 1. The problem is tagged with the beta*p > -alpha
    predicate. ValueError when d^{beta p} overflows (_check_edge_powers).
    """
    _check_edge_powers(cov, beta, p)
    alpha = cov.profile.alpha
    gamma = beta + alpha - 1.0
    gs = cov.tree.gamma_star
    edges = cov.edge_array[gs]
    vols = cov.volume_array[gs] / 2         # |B_t| = |Q_t| / 2
    flag = "beta_ok" if beta * p > -alpha else "beta_violates_cond"
    return assemble_uv(cov.tree, vols, edges ** gamma, edges ** beta, p,
                       flags=(flag,))


@dataclass(frozen=True)
class TailReport:
    rows: tuple[dict, ...]          # per size class: count, sum, cumulative, ratio
    geometric: bool                 # level sums decay by a stable factor
    decay: float | None             # geometric-mean ratio of the last level sums;
                                    # None with fewer than two size classes in Gamma*

    def to_json(self) -> dict:
        return {**asdict(self), "rows": list(self.rows)}


def tail_integrability(cov: CubeCovering, beta: float, p: float) -> TailReport:
    """Per-size-class partial sums of v^p = |B_t| edge^{beta p}; ValueError
    unless beta is finite, p is finite with p >= 1 and the weight does not
    overflow (_check_edge_powers)."""
    _check_beta_p(beta, p)
    _check_edge_powers(cov, beta, p)
    count = np.bincount(cov.size_class[cov.tree.gamma_star])
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for j in np.flatnonzero(count).tolist():
        e = cov.class_edge[j]
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
    ratios = [r["ratio"] for r in rows[-5:] if r["ratio"] is not None]
    geometric = (len(ratios) >= 3 and all(r < 1.0 for r in ratios)
                 and max(ratios) <= 1.2 * min(ratios))
    with np.errstate(divide="ignore"):     # an underflowed tail has ratio 0: decay 0
        decay = float(np.exp(np.mean(np.log(ratios)))) if ratios else None
    return TailReport(tuple(rows), geometric, decay)

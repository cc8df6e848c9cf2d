"""Rooted trees on dense integer ids, with a level-vectorised kernel for
path and shadow sums.

Conventions used throughout the package:

  * vertices are 0..n-1, exactly one root; ``parent[root] == -1``
  * Gamma* = all non-root vertices (weight data is indexed over Gamma*)
  * partial order: s <= t iff s lies on the unique root-to-t path
  * path(t)   = vertices strictly below the root down to t (t included)
  * shadow(t) = {s in Gamma* : s >= t} (t included)

A tree is stored as read-only int64 arrays: the parent array, the
children in CSR form (offsets plus ids, each run sorted by id, from one
stable argsort of the parent array), the BFS order with children in id
order, and the depths. It is checked and indexed by vectorised steps, one
numpy step per depth level, with no per-vertex Python loop; sorted
children keep every traversal and arg-sup tie-break reproducible
bit-for-bit.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

import numpy as np


class TreeError(ValueError):
    """Malformed tree input: cycles, duplicate parents, id gaps, ids that
    are not integers."""


class RootedTree:
    """Immutable rooted tree. Construct from a parent array of integers
    (TreeError names the first vertex whose parent is not one) or
    `build_tree`.

    The children of t are child_ids[child_offsets[t]:child_offsets[t + 1]],
    sorted by id; `topo` lists the vertices in BFS order and depth level d
    is topo[level_starts[d]:level_starts[d + 1]].
    """

    def __init__(self, parent: Iterable[int]):
        if not (isinstance(parent, np.ndarray) and parent.dtype.kind == "i"):
            parent = parent.tolist() if isinstance(parent, np.ndarray) else list(parent)
            for t, x in enumerate(parent):
                if not _is_id(x):
                    raise TreeError(f"parent id {x!r} of vertex {t} is not an integer")
        try:
            parent = np.array(parent, dtype=np.int64)
        except OverflowError:
            # an id beyond int64 is out of range: the errors of the checks
            # below, in their order
            roots = parent.count(-1)
            if roots != 1:
                raise TreeError(f"expected exactly one root, found {roots}") from None
            t = next(t for t, x in enumerate(parent) if not -1 <= x < len(parent))
            raise TreeError(f"parent id {parent[t]} of vertex {t} out of range") from None
        n = len(parent)
        if n == 0:
            raise TreeError("empty tree")
        roots = np.flatnonzero(parent == -1)
        if len(roots) != 1:
            raise TreeError(f"expected exactly one root, found {len(roots)}")
        bad = np.flatnonzero((parent < -1) | (parent >= n))
        if len(bad):
            t = int(bad[0])
            raise TreeError(f"parent id {int(parent[t])} of vertex {t} out of range")
        root = int(roots[0])
        # children: the non-root vertices grouped by parent, each run in id order
        child_ids = np.argsort(parent, kind="stable")[1:]
        child_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(parent[child_ids], minlength=n), out=child_offsets[1:])
        # BFS, one level at a time: the next frontier is the children of the
        # current one, in order. With one parent per vertex an unreachable
        # vertex necessarily sits on a parent cycle.
        frontier = np.array([root])
        levels = [frontier]
        while True:
            start = child_offsets[frontier]
            count = child_offsets[frontier + 1] - start
            total = int(count.sum())
            if not total:
                break
            shift = np.repeat(start - (np.cumsum(count) - count), count)
            frontier = child_ids[shift + np.arange(total)]
            levels.append(frontier)
        topo = np.concatenate(levels)
        if len(topo) < n:
            seen = np.zeros(n, dtype=bool)
            seen[topo] = True
            raise TreeError(f"cycle detected through vertex {int(np.argmin(seen))}")
        sizes = [len(f) for f in levels]
        depth = np.empty(n, dtype=np.int64)
        depth[topo] = np.repeat(np.arange(len(levels)), sizes)
        level_starts = np.zeros(len(levels) + 1, dtype=np.int64)
        np.cumsum(sizes, out=level_starts[1:])
        self.n = n
        self.root = root
        self.parent = parent
        self.child_offsets = child_offsets
        self.child_ids = child_ids
        self.topo = topo                    # parents precede children
        self.depth = depth
        self.level_starts = level_starts
        for a in (parent, child_offsets, child_ids, topo, depth, level_starts):
            a.flags.writeable = False

    # -- derived structure (all cached, tree is immutable) ------------------

    @cached_property
    def kernel(self) -> "TreeKernel":
        """Level-vectorised path-prefix and shadow sums over Gamma*."""
        return TreeKernel(self)

    @cached_property
    def gamma_star(self) -> np.ndarray:
        return _frozen(np.flatnonzero(self.parent != -1))

    @cached_property
    def leaves(self) -> np.ndarray:
        return _frozen(np.flatnonzero(np.diff(self.child_offsets) == 0))

    @property
    def is_chain(self) -> bool:
        return bool(np.all(np.diff(self.child_offsets) <= 1))

    @property
    def max_depth(self) -> int:
        return len(self.level_starts) - 2

    def __eq__(self, other):
        return isinstance(other, RootedTree) and np.array_equal(self.parent, other.parent)

    def __hash__(self):
        return hash(self.parent.tobytes())

    def __repr__(self):
        return f"RootedTree(n={self.n}, root={self.root})"

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        gs = self.gamma_star
        pairs = [list(e) for e in zip(gs.tolist(), self.parent[gs].tolist())]
        return {"root": self.root, "parents": pairs}

    @staticmethod
    def from_json(obj: dict) -> "RootedTree":
        """The tree of a to_json object; TreeError if its "root" is not the
        root of its (child, parent) pairs."""
        tree = build_tree([(c, p) for c, p in obj["parents"]])
        root = obj.get("root", tree.root)
        if not _is_id(root) or root != tree.root:
            raise TreeError(f"root {root!r} does not match the root {tree.root} "
                            "of the parent pairs")
        return tree


def _is_id(x) -> bool:
    """A Python or numpy integer; bool is refused."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class TreeKernel:
    """Path-prefix and shadow sums over Gamma*, one numpy step per depth level.

    Arrays are indexed by BFS position: position i holds vertex order[i],
    which is entry rank[i] of the sorted Gamma*. The root is left out. Each
    depth level is a contiguous slice in which the children of one parent
    are contiguous too. Both sums take a float64 array of shape (m,) or
    (m, k), m = |Gamma*|, act on every column, and work in place: the
    array passed in is overwritten and returned, so a caller that still
    needs it passes a copy.
    """

    def __init__(self, tree: RootedTree):
        order = tree.topo[1:]
        m = len(order)
        position = np.full(tree.n, -1, dtype=np.int64)
        position[order] = np.arange(m)
        parent = position[tree.parent[order]]
        # depth level d >= 1 is the slice [bounds[d-1], bounds[d])
        bounds = tree.level_starts[1:] - 1
        # per level below the first: slice, parent of each vertex, and the
        # first-child offsets and parents of its runs of siblings
        levels = []
        for a, b in zip(bounds[1:-1].tolist(), bounds[2:].tolist()):
            par = parent[a:b]
            first = np.flatnonzero(np.r_[True, par[1:] != par[:-1]])
            levels.append((a, b, par, first, par[first]))
        self.order = order
        self.rank = order - (order > tree.root)   # index in sorted Gamma*
        self.m = m
        # the root's children are [0, top)
        self.top = int(tree.child_offsets[tree.root + 1] - tree.child_offsets[tree.root])
        self.levels = tuple(levels)

    def prefix(self, W: np.ndarray) -> np.ndarray:
        """W[i] becomes the sum of W over the path from the root's child to
        vertex i; returns W."""
        _check_float(W)
        for a, b, par, _, _ in self.levels:
            W[a:b] += W[par]
        return W

    def shadow(self, W: np.ndarray) -> np.ndarray:
        """W[i] becomes the sum of W over the shadow of vertex i (i
        included); returns W."""
        _check_float(W)
        for a, b, _, first, up in reversed(self.levels):
            W[up] += np.add.reduceat(W[a:b], first, axis=0)
        return W


def _check_float(W: np.ndarray) -> None:
    if W.dtype != np.float64:
        raise TypeError(f"kernel passes work in place on float64 arrays, got {W.dtype}")


def build_tree(parent_list: Iterable[tuple[int, int]]) -> RootedTree:
    """Build a tree from (child, parent) pairs.

    Ids must be integers, dense in [0, n); the single id absent from the
    child column is the root.
    """
    pairs = [(c, p) for c, p in parent_list]
    for c, p in pairs:
        if not _is_id(c):
            raise TreeError(f"vertex id {c!r} is not an integer")
        if not _is_id(p):
            raise TreeError(f"parent id {p!r} of vertex {c} is not an integer")
    n = len(pairs) + 1
    parent = [-2] * n
    for c, p in pairs:
        if not 0 <= c < n or not 0 <= p < n:
            raise TreeError(f"ids must be dense in [0, {n}); got edge ({c}, {p})")
        if parent[c] != -2:
            raise TreeError(f"duplicate parent for child {c}")
        parent[c] = p
    missing = [t for t in range(n) if parent[t] == -2]
    if len(missing) != 1:
        raise TreeError("exactly one id must be absent from the child column")
    parent[missing[0]] = -1
    return RootedTree(parent)


# -- generators used by the CLI and the test corpus -------------------------

def chain_tree(length: int) -> RootedTree:
    """Chain 0 -> 1 -> ... -> length (length edges)."""
    if length < 1:
        raise TreeError("chain needs at least one edge")
    return RootedTree([-1] + list(range(length)))


def star_tree(leaves: int) -> RootedTree:
    if leaves < 1:
        raise TreeError("star needs at least one leaf")
    return RootedTree([-1] + [0] * leaves)


def random_tree(n_vertices: int, rng) -> RootedTree:
    """Attach each new vertex to a uniformly chosen existing vertex."""
    if n_vertices < 2:
        raise TreeError("need at least two vertices (a nonempty Gamma*)")
    parent = [-1] + [int(rng.integers(0, i)) for i in range(1, n_vertices)]
    return RootedTree(parent)

"""Rooted trees on dense integer ids, with the path/shadow order machinery.

Conventions used throughout the package:

  * vertices are 0..n-1, exactly one root; ``parent[root] == -1``
  * Gamma* = all non-root vertices (weight data is indexed over Gamma*)
  * partial order: s <= t iff s lies on the unique root-to-t path
  * path(t)   = vertices strictly below the root down to t (t included)
  * shadow(t) = {s in Gamma* : s >= t} (t included)

Children lists are kept sorted by id so every traversal, enumeration and
arg-sup tie-break is reproducible bit-for-bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np


class TreeError(ValueError):
    """Malformed tree input: cycles, duplicate parents, id gaps."""


class AntichainCapExceeded(RuntimeError):
    """Antichain enumeration passed the configured cap."""

    def __init__(self, cap: int, count: int):
        super().__init__(f"antichain count exceeds cap={cap} ({count} yielded so far)")
        self.cap = cap
        self.count = count


class RootedTree:
    """Immutable rooted tree. Construct from a parent array or `build_tree`."""

    def __init__(self, parent: Iterable[int]):
        parent = tuple(int(p) for p in parent)
        n = len(parent)
        if n == 0:
            raise TreeError("empty tree")
        roots = [t for t, p in enumerate(parent) if p == -1]
        if len(roots) != 1:
            raise TreeError(f"expected exactly one root, found {len(roots)}")
        for t, p in enumerate(parent):
            if p != -1 and not 0 <= p < n:
                raise TreeError(f"parent id {p} of vertex {t} out of range")
        root = roots[0]
        children: list[list[int]] = [[] for _ in range(n)]
        for t, p in enumerate(parent):
            if p != -1:
                children[p].append(t)
        # reachability from the root; with one parent per vertex an
        # unreachable vertex necessarily sits on a parent cycle
        seen = [False] * n
        stack = [root]
        seen[root] = True
        order = []
        while stack:
            t = stack.pop()
            order.append(t)
            for c in reversed(children[t]):
                if seen[c]:
                    raise TreeError("cycle detected")
                seen[c] = True
                stack.append(c)
        if not all(seen):
            bad = seen.index(False)
            raise TreeError(f"cycle detected through vertex {bad}")
        self.n = n
        self.root = root
        self.parent = parent
        self.children = tuple(tuple(sorted(c)) for c in children)

    # -- derived structure (all cached, tree is immutable) ------------------

    @cached_property
    def topo(self) -> tuple[int, ...]:
        """Vertices in BFS order; parents always precede children."""
        out = [self.root]
        i = 0
        while i < len(out):
            out.extend(self.children[out[i]])
            i += 1
        return tuple(out)

    @cached_property
    def depth(self) -> tuple[int, ...]:
        d = [0] * self.n
        for t in self.topo:
            if t != self.root:
                d[t] = d[self.parent[t]] + 1
        return tuple(d)

    @cached_property
    def paths(self) -> tuple[tuple[int, ...], ...]:
        """paths[t] = path from the child of the root down to t, inclusive."""
        p: list[tuple[int, ...]] = [()] * self.n
        for t in self.topo:
            if t != self.root:
                p[t] = p[self.parent[t]] + (t,)
        return tuple(p)

    @cached_property
    def ancestor_masks(self) -> tuple[int, ...]:
        """Bitmask of {s : s <= t} including t itself (root included)."""
        m = [0] * self.n
        for t in self.topo:
            m[t] = (m[self.parent[t]] if t != self.root else 0) | (1 << t)
        return tuple(m)

    @cached_property
    def descendant_masks(self) -> tuple[int, ...]:
        """Bitmask of {s : s >= t} including t itself."""
        m = [0] * self.n
        for t in reversed(self.topo):
            acc = 1 << t
            for c in self.children[t]:
                acc |= m[c]
            m[t] = acc
        return tuple(m)

    @cached_property
    def kernel(self) -> "TreeKernel":
        """Level-vectorised path-prefix and shadow sums over Gamma*."""
        return TreeKernel(self)

    @cached_property
    def gamma_star(self) -> tuple[int, ...]:
        return tuple(t for t in range(self.n) if t != self.root)

    @cached_property
    def leaves(self) -> tuple[int, ...]:
        return tuple(t for t in range(self.n) if not self.children[t])

    @property
    def is_chain(self) -> bool:
        return all(len(c) <= 1 for c in self.children)

    @property
    def max_depth(self) -> int:
        return max(self.depth)

    # -- queries -------------------------------------------------------------

    def path(self, t: int) -> list[int]:
        """Ordered path from the root's child down to t; excludes the root."""
        self._check_vertex(t)
        if t == self.root:
            warnings.warn("path(root) is empty", stacklevel=2)
            return []
        return list(self.paths[t])

    def shadow(self, t: int) -> list[int]:
        """All vertices at or below t, in increasing id order."""
        self._check_vertex(t)
        if t == self.root:
            return sorted(self.gamma_star)
        mask = self.descendant_masks[t]
        return [s for s in range(self.n) if mask >> s & 1]

    def lca(self, s: int, t: int) -> int:
        common = self.ancestor_masks[s] & self.ancestor_masks[t]
        best = self.root
        for v in range(self.n):
            if common >> v & 1 and self.depth[v] > self.depth[best]:
                best = v
        return best

    def precedes(self, s: int, t: int) -> bool:
        """s <= t in the tree order."""
        return bool(self.ancestor_masks[t] >> s & 1)

    def _check_vertex(self, t: int) -> None:
        if not 0 <= t < self.n:
            raise TreeError(f"vertex id {t} out of range [0, {self.n})")

    def __eq__(self, other):
        return isinstance(other, RootedTree) and self.parent == other.parent

    def __hash__(self):
        return hash(self.parent)

    def __repr__(self):
        return f"RootedTree(n={self.n}, root={self.root})"

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        pairs = [[t, self.parent[t]] for t in range(self.n) if t != self.root]
        return {"root": self.root, "parents": pairs}

    @staticmethod
    def from_json(obj: dict) -> "RootedTree":
        return build_tree([(c, p) for c, p in obj["parents"]])


class TreeKernel:
    """Path-prefix and shadow sums over Gamma*, one numpy step per depth level.

    Arrays are indexed by BFS position: position i holds vertex order[i],
    which is entry rank[i] of the sorted Gamma*. The root is left out. Each
    depth level is a contiguous slice in which the children of one parent
    are contiguous too. Both sums take an array of shape (m,) or (m, k),
    m = |Gamma*|, and act on every column.
    """

    def __init__(self, tree: RootedTree):
        order = np.array(tree.topo[1:], dtype=np.int64)
        m = len(order)
        position = np.full(tree.n, -1, dtype=np.int64)
        position[order] = np.arange(m)
        parent = position[np.array(tree.parent, dtype=np.int64)[order]]
        depth = np.array(tree.depth, dtype=np.int64)[order]
        # depth level d >= 1 is the slice [bounds[d-1], bounds[d])
        bounds = np.searchsorted(depth, np.arange(1, int(depth.max(initial=1)) + 2))
        # per level below the first: slice, parent of each vertex, and the
        # first-child offsets and parents of its runs of siblings
        levels = []
        for a, b in zip(bounds[1:-1], bounds[2:]):
            par = parent[a:b]
            first = np.flatnonzero(np.r_[True, par[1:] != par[:-1]])
            levels.append((int(a), int(b), par, first, par[first]))
        self.order = order
        self.rank = order - (order > tree.root)   # index in sorted Gamma*
        self.m = m
        self.top = int(bounds[1])                 # the root's children are [0, top)
        self.levels = tuple(levels)

    def prefix(self, W: np.ndarray) -> np.ndarray:
        """N[i] = sum of W over the path from the root's child to vertex i."""
        N = np.array(W, dtype=float)
        for a, b, par, _, _ in self.levels:
            N[a:b] += N[par]
        return N

    def shadow(self, W: np.ndarray) -> np.ndarray:
        """S[i] = sum of W over the shadow of vertex i (i included)."""
        S = np.array(W, dtype=float)
        for a, b, _, first, up in reversed(self.levels):
            S[up] += np.add.reduceat(S[a:b], first, axis=0)
        return S


def build_tree(parent_list: Iterable[tuple[int, int]]) -> RootedTree:
    """Build a tree from (child, parent) pairs.

    Ids must be dense in [0, n); the single id absent from the child column
    is the root.
    """
    pairs = [(int(c), int(p)) for c, p in parent_list]
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


@dataclass(frozen=True)
class Antichain:
    """A validated nonempty antichain of Gamma*, stored sorted."""

    vertices: tuple[int, ...]

    @staticmethod
    def of(tree: RootedTree, vertices: Iterable[int]) -> "Antichain":
        vs = sorted(set(int(v) for v in vertices))
        if not vs:
            raise TreeError("antichain must be nonempty")
        for v in vs:
            tree._check_vertex(v)
            if v == tree.root:
                raise TreeError("the root cannot belong to an antichain")
        for i, s in enumerate(vs):
            for t in vs[i + 1:]:
                if tree.precedes(s, t) or tree.precedes(t, s):
                    raise TreeError(f"vertices {s} and {t} are comparable")
        return Antichain(tuple(vs))

    def __iter__(self):
        return iter(self.vertices)

    def __len__(self):
        return len(self.vertices)


def enumerate_antichains(tree: RootedTree, cap: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield every nonempty antichain of Gamma* as a sorted tuple.

    Deterministic lexicographic order (so the first yield of any value ties
    the arg-sup downstream). Raises AntichainCapExceeded as soon as more
    than `cap` antichains have been produced; the count so far is attached.
    """
    n = tree.n
    root = tree.root
    incomp = [(tree.ancestor_masks[t] | tree.descendant_masks[t]) & ~(1 << root)
              for t in range(n)]
    count = 0

    def rec(start: int, mask: int, chosen: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        nonlocal count
        for t in range(start, n):
            if t == root or incomp[t] & mask:
                continue
            count += 1
            if cap is not None and count > cap:
                raise AntichainCapExceeded(cap, count - 1)
            nxt = chosen + (t,)
            yield nxt
            yield from rec(t + 1, mask | incomp[t], nxt)

    yield from rec(0, 0, ())


def induced_subtree(tree: RootedTree, antichain: Iterable[int]) -> tuple[set[int], set[int]]:
    """(K, boundary) induced by an antichain: K is the root plus the union
    of the paths to the antichain vertices, whose <=-maximal vertices are
    exactly the antichain."""
    vs = sorted(set(antichain))
    K = {tree.root}
    for t in vs:
        K.update(tree.paths[t])
    boundary = {t for t in K if not any(c in K for c in tree.children[t])}
    return K, boundary


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

"""Compatibility multigraphs over queries, and sparse-orientation machinery.

The pairwise term of the joint objective is driven by a multigraph on query
indices.  Solver guarantees are stated in terms of an orientation that maps
every edge instance to one endpoint with small max out-degree; the minimum
achievable value over all orientations is the pseudoarboricity.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components


def _as_int(v, what: str) -> int:
    """An integer-valued number as int; booleans and fractions are refused,
    not truncated."""
    if type(v) is int or isinstance(v, np.integer):   # bool is not int here
        return int(v)
    if isinstance(v, (float, np.floating)) and float(v).is_integer():
        return int(v)
    raise ValueError(f"{what} must be an integer, got {v!r}")


@dataclass(eq=False)
class CompatGraph:
    """Undirected multigraph on vertices 0..n-1.

    edges: int array of shape (m, 3), rows (i, j, mult) with i < j, mult >= 1.
    Rows are kept in insertion order and never merged, so per-edge weights
    supplied alongside stay aligned.
    """
    n: int
    edges: np.ndarray

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 3)
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(self.edges):
            i, j, mult = self.edges[:, 0], self.edges[:, 1], self.edges[:, 2]
            if np.any(i < 0) or np.any(j >= self.n):
                raise ValueError("edge endpoint out of range")
            if np.any(i == j):
                raise ValueError("self-loops are not allowed")
            if np.any(i > j):
                raise ValueError("edges must be canonical (i < j)")
            if np.any(mult < 1):
                raise ValueError("edge multiplicity must be >= 1")

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "CompatGraph":
        """Build from (i, j) or (i, j, mult) tuples; endpoints get sorted."""
        rows = []
        for p in pairs:
            if len(p) == 2:
                i, j, m = p[0], p[1], 1
            else:
                i, j, m = p
            i, j = _as_int(i, "edge endpoint"), _as_int(j, "edge endpoint")
            m = _as_int(m, "edge multiplicity")
            rows.append((i, j, m) if i <= j else (j, i, m))
        arr = np.array(rows, dtype=np.int64).reshape(-1, 3)
        return cls(n=n, edges=arr)

    @property
    def num_entries(self) -> int:
        return len(self.edges)

    @property
    def num_instances(self) -> int:
        return int(self.edges[:, 2].sum()) if len(self.edges) else 0

    def degrees(self) -> np.ndarray:
        """Vertex degrees counting multiplicity."""
        e = self.edges
        ends = np.concatenate([e[:, 0], e[:, 1]])
        mult = np.concatenate([e[:, 2], e[:, 2]])
        return np.bincount(ends, weights=mult, minlength=self.n).astype(np.int64)

    def expanded(self) -> np.ndarray:
        """One row (i, j) per edge instance, multiplicity unrolled."""
        if not len(self.edges):
            return np.zeros((0, 2), dtype=np.int64)
        return np.repeat(self.edges[:, :2], self.edges[:, 2], axis=0)

    def neighbor_sets(self) -> list[np.ndarray]:
        """Sorted distinct neighbors per vertex (multiplicity ignored)."""
        n = self.n
        if n == 0:
            return []
        i, j = self.edges[:, 0], self.edges[:, 1]
        key = np.unique(np.concatenate([i * n + j, j * n + i]))
        return np.split(key % n, np.searchsorted(key // n, np.arange(1, n)))

    def two_coloring(self) -> np.ndarray | None:
        """2-coloring from the bipartite double cover; None on an odd cycle.

        The cover has vertices v and n+v for every v, and edges (i, n+j)
        and (n+i, j) for every edge (i, j).  The graph is bipartite exactly
        when no v shares a cover component with n+v; then each component's
        vertices split between two cover components, and those sharing one
        with the component's smallest vertex get color 0, the rest color 1.
        """
        n = self.n
        i, j = self.edges[:, 0], self.edges[:, 1]
        src = np.concatenate([i, n + i])
        dst = np.concatenate([n + j, j])
        cover = coo_array((np.ones(len(src)), (src, dst)), shape=(2 * n, 2 * n))
        _, side = connected_components(cover, directed=False)
        here, there = side[:n], side[n:]
        if np.any(here == there):
            return None
        # smallest vertex v < n of each cover component, n where there is none
        first = np.full(2 * n, n, dtype=np.int64)
        np.minimum.at(first, here, np.arange(n))
        return (first[here] > first[there]).astype(np.int8)


@dataclass(eq=False)
class Orientation:
    """Assignment of every edge instance to one endpoint (its owner)."""
    edges: np.ndarray  # (M, 2) expanded instances
    owner: np.ndarray  # (M,) owning vertex per instance
    r: int             # max out-degree achieved

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        self.owner = np.asarray(self.owner, dtype=np.int64).reshape(-1)
        if len(self.owner) != len(self.edges):
            raise ValueError("owner array must match expanded edges")
        ok = (self.owner == self.edges[:, 0]) | (self.owner == self.edges[:, 1])
        if not np.all(ok):
            raise ValueError("each instance must be owned by one of its endpoints")


def orient_edges(g: CompatGraph) -> Orientation:
    """Greedy minimum-degree peeling orientation.

    Vertices are peeled in nondecreasing remaining-degree order (ties by
    smallest index); every edge instance is owned by its earlier-peeled
    endpoint, i.e. oriented toward the later-peeled one.  The resulting max
    out-degree r is at most the degeneracy, hence at most twice the optimum.
    """
    n = g.n
    deg = g.degrees().copy()
    adj: list[dict[int, int]] = [dict() for _ in range(n)]
    for i, j, m in g.edges:
        i, j, m = int(i), int(j), int(m)
        adj[i][j] = adj[i].get(j, 0) + m
        adj[j][i] = adj[j].get(i, 0) + m

    heap = [(int(deg[v]), v) for v in range(n)]
    heapq.heapify(heap)
    removed = np.zeros(n, dtype=bool)
    pos = np.full(n, -1, dtype=np.int64)
    order = 0
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue  # stale heap entry
        removed[v] = True
        pos[v] = order
        order += 1
        for u, m in adj[v].items():
            if not removed[u]:
                deg[u] -= m
                heapq.heappush(heap, (int(deg[u]), u))

    exp = g.expanded()
    if len(exp):
        first_peeled = pos[exp[:, 0]] < pos[exp[:, 1]]
        owner = np.where(first_peeled, exp[:, 0], exp[:, 1])
        r = int(np.bincount(owner, minlength=n).max())
    else:
        owner = np.zeros(0, dtype=np.int64)
        r = 0
    return Orientation(edges=exp, owner=owner, r=r)


def grid_graph(width: int, height: int) -> CompatGraph:
    """4-connected grid over row-major pixel indices (row * width + col)."""
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be positive")
    v = np.arange(width * height, dtype=np.int64)
    # each pixel's right edge, then its down edge, pixels row-major
    src = np.repeat(v, 2)
    dst = src + np.tile([1, width], len(v))
    ok = np.column_stack([v % width + 1 < width, v // width + 1 < height]).reshape(-1)
    edges = np.column_stack([src[ok], dst[ok], np.ones(int(ok.sum()), dtype=np.int64)])
    return CompatGraph(n=width * height, edges=edges)

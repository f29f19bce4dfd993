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
            i, j = (int(i), int(j)) if i <= j else (int(j), int(i))
            rows.append((i, j, int(m)))
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
        deg = np.zeros(self.n, dtype=np.int64)
        if len(self.edges):
            np.add.at(deg, self.edges[:, 0], self.edges[:, 2])
            np.add.at(deg, self.edges[:, 1], self.edges[:, 2])
        return deg

    def expanded(self) -> np.ndarray:
        """One row (i, j) per edge instance, multiplicity unrolled."""
        if not len(self.edges):
            return np.zeros((0, 2), dtype=np.int64)
        return np.repeat(self.edges[:, :2], self.edges[:, 2], axis=0)

    def neighbor_sets(self) -> list[np.ndarray]:
        """Sorted distinct neighbors per vertex (multiplicity ignored)."""
        nbrs: list[set] = [set() for _ in range(self.n)]
        for i, j, _ in self.edges:
            nbrs[i].add(int(j))
            nbrs[j].add(int(i))
        return [np.array(sorted(s), dtype=np.int64) for s in nbrs]

    def two_coloring(self) -> np.ndarray | None:
        """BFS 2-coloring; None when the graph has an odd cycle."""
        color = np.full(self.n, -1, dtype=np.int8)
        nbrs = self.neighbor_sets()
        for s in range(self.n):
            if color[s] >= 0:
                continue
            color[s] = 0
            queue = [s]
            while queue:
                v = queue.pop()
                for u in nbrs[v]:
                    if color[u] < 0:
                        color[u] = 1 - color[v]
                        queue.append(int(u))
                    elif color[u] == color[v]:
                        return None
        return color


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
    rows = []
    for r in range(height):
        for c in range(width):
            v = r * width + c
            if c + 1 < width:
                rows.append((v, v + 1, 1))
            if r + 1 < height:
                rows.append((v, v + width, 1))
    edges = np.array(rows, dtype=np.int64).reshape(-1, 3)
    return CompatGraph(n=width * height, edges=edges)

"""Metric spaces shared by every solver in the package.

Two concrete space kinds: Euclidean R^d, and finite spaces backed by an
explicit distance matrix.  Graph metrics are materialized into the matrix
form via all-pairs shortest paths, so downstream code only ever sees the
two representations.

Points in a Euclidean space are coordinate arrays of shape (d,); points in
a matrix space are integer ids indexing the matrix.  Distances come in
batches only: `between` pairs two stacks row by row, `cross` takes all pairs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import shortest_path
from scipy.spatial.distance import cdist

_ATOL = 1e-9


class EuclideanSpace:
    kind = "euclidean"

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        self.dim = int(dim)

    def _coords(self, x) -> np.ndarray:
        a = np.asarray(x, dtype=float)
        if a.shape[-1] != self.dim:
            raise ValueError(f"expected points of dimension {self.dim}, got shape {a.shape}")
        return a

    def between(self, A, B) -> np.ndarray:
        """Row-wise distances between two equal-length stacks of points."""
        a, b = np.atleast_2d(self._coords(A)), np.atleast_2d(self._coords(B))
        return np.linalg.norm(a - b, axis=-1)

    def cross(self, A, B) -> np.ndarray:
        """Full (len(A), len(B)) distance matrix."""
        a, b = np.atleast_2d(self._coords(A)), np.atleast_2d(self._coords(B))
        return cdist(a, b)

    def __repr__(self):
        return f"EuclideanSpace(dim={self.dim})"


class MatrixSpace:
    """Finite metric space given by an explicit symmetric distance matrix."""

    def __init__(self, matrix, kind: str = "explicit-matrix"):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {m.shape}")
        if m.shape[0] == 0:
            raise ValueError("empty distance matrix")
        if not np.isfinite(m).all():
            raise ValueError("distances must be finite")
        if np.any(m < 0):
            raise ValueError("distances must be nonnegative")
        if np.any(np.abs(np.diag(m)) > _ATOL):
            raise ValueError("diagonal of a distance matrix must be zero")
        if np.any(np.abs(m - m.T) > _ATOL):
            raise ValueError("distance matrix must be symmetric")
        # canonicalize so later equality comparisons are exact
        m = (m + m.T) / 2.0
        np.fill_diagonal(m, 0.0)
        self.matrix = m
        self.kind = kind

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def _ids(self, x) -> np.ndarray:
        a = np.asarray(x)
        if not np.issubdtype(a.dtype, np.integer):
            if not np.all(a == np.floor(a)):
                raise ValueError("matrix-space points are integer ids")
            a = a.astype(np.int64)
        if a.size and (a.min() < 0 or a.max() >= self.n):
            raise ValueError(f"point id out of range [0, {self.n})")
        return a

    def between(self, A, B) -> np.ndarray:
        return self.matrix[self._ids(A), self._ids(B)]

    def cross(self, A, B) -> np.ndarray:
        return self.matrix[np.ix_(np.atleast_1d(self._ids(A)), np.atleast_1d(self._ids(B)))]

    def __repr__(self):
        return f"MatrixSpace(n={self.n}, kind={self.kind!r})"


def build_graph_metric(n: int, edges) -> MatrixSpace:
    """Shortest-path closure of a weighted undirected graph.

    edges: iterable of (u, v, w) with nonnegative w.  Parallel edges keep the
    minimum weight.  Raises ValueError if the graph is disconnected (the
    closure would not be a finite metric).
    """
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    w = np.full((n, n), np.inf)
    for u, v, wt in edges:
        u, v, wt = int(u), int(v), float(wt)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge endpoint out of range: ({u}, {v})")
        if u == v:
            raise ValueError("self-loops are not allowed")
        if wt < 0:
            raise ValueError("edge weights must be nonnegative")
        if wt < w[u, v]:
            w[u, v] = w[v, u] = wt
    # masked entries mark absent edges so that zero-weight edges survive
    graph = np.ma.masked_invalid(w)
    d = shortest_path(graph, method="auto", directed=False)
    if np.any(np.isinf(d)):
        raise ValueError("graph is disconnected; shortest-path metric undefined")
    return MatrixSpace(d, kind="graph-shortest-path")


def triangle_violations(matrix, tol: float = _ATOL) -> int:
    """Count (a, b, c) triples with d(a,c) > d(a,b) + d(b,c) + tol."""
    m = np.asarray(matrix, dtype=float)
    bad = 0
    for k in range(m.shape[0]):
        via = m[:, k, None] + m[None, k, :]
        bad += int(np.sum(m > via + tol))
    return bad


@dataclass(frozen=True)
class LatticeBox:
    """Axis-aligned integer lattice {lo..hi}^dim inside Euclidean space.

    Stands in for label sets that are declared but never materialized, e.g.
    the full 256^3 color cube.  Points are integer coordinate arrays; the
    id of a point is its row-major rank, which fixes tie-breaking order.
    """
    lo: int = 0
    hi: int = 255
    dim: int = 3

    def __post_init__(self):
        if self.hi < self.lo:
            raise ValueError("lattice box needs hi >= lo")
        if self.dim < 1:
            raise ValueError("lattice box needs dim >= 1")

    @property
    def side(self) -> int:
        return self.hi - self.lo + 1

    @property
    def size(self) -> int:
        return self.side ** self.dim

    def contains(self, pts) -> bool:
        a = np.asarray(pts)
        if a.shape[-1] != self.dim:
            return False
        return bool(np.all(a >= self.lo) and np.all(a <= self.hi) and np.all(a == np.floor(a)))

    def all_points(self) -> np.ndarray:
        """Materialize every lattice point in id order. Guard before calling."""
        axes = [np.arange(self.lo, self.hi + 1)] * self.dim
        grid = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grid], axis=1)

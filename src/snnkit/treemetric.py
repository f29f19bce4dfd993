"""Randomized kd-split tree metrics that dominate the Euclidean distance.

A tree metric is built by recursively splitting an axis-aligned box at a
uniformly random position inside the middle band of the split axis (between
40% and 60% of its extent), cycling through the axes.  Every tree node keeps
a *cover box*; the two children of a node partition the parent's cover box
along the split axis exactly.  The distance between two points is the sum of
cover-box diameters of every node strictly below their lowest common
ancestor's level on the two descent paths (the arm cells, leaves included).
Because child cover widths add up to the parent's along the split axis, this
sum always dominates the Euclidean distance between the points.

Two backends:

* integer lattices {lo..hi}^dim are handled lazily; a cell's split is a pure
  function of the seed and the cell's descent path, so the (possibly 256^3
  sized) tree is never materialized.  The cell [a, b] on an axis is treated
  as covering the continuous interval [a, b+1], which keeps child widths
  summing exactly to the parent width.

* explicit point sets are built eagerly; splits are drawn from the members'
  bounding interval along the axis, which keeps both children nonempty.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .metric import LatticeBox

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(x: int) -> int:
    """splitmix64 finalizer: cheap, well-distributed 64-bit hash."""
    x = (x + _GOLDEN) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def _unit(x: int) -> float:
    return _mix(x) / 2.0 ** 64


def _split(ilo, ihi, key: int, depth: int, dim: int) -> tuple[int, float, int]:
    """(axis, split_value, cut) of a non-unit lattice cell.

    The axis cycles with depth, skipping axes of unit width.  The split
    value is drawn from the middle band [40%, 60%] of [lo, hi] on that axis;
    cut is the last coordinate that goes left, clamped so both sides are
    nonempty.
    """
    axis = depth % dim
    for _ in range(dim):
        if ihi[axis] > ilo[axis]:
            break
        axis = (axis + 1) % dim
    a, b = ilo[axis], ihi[axis]
    s = 0.6 * a + 0.4 * b + 0.2 * (b - a) * _unit(key ^ 3)
    cut = math.floor(s)
    if cut < a:
        cut = a
    elif cut > b - 1:
        cut = b - 1
    return axis, s, cut


@dataclass(eq=False)
class TreeNode:
    """Node of an eagerly built point-set tree."""
    cover_lo: np.ndarray
    cover_hi: np.ndarray
    member_lo: np.ndarray
    member_hi: np.ndarray
    members: np.ndarray              # indices into the deduplicated point array
    depth: int
    axis: int = -1
    split_value: float = np.nan
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def diam(self) -> float:
        return float(np.linalg.norm(self.cover_hi - self.cover_lo))


class LatticeCell(tuple):
    """Hashable handle (ilo, ihi, key, depth) of a lazy lattice-tree cell."""
    __slots__ = ()

    @property
    def ilo(self):
        return self[0]

    @property
    def ihi(self):
        return self[1]

    @property
    def key(self) -> int:
        return self[2]

    @property
    def depth(self) -> int:
        return self[3]


def _cell(ilo, ihi, key, depth) -> LatticeCell:
    return LatticeCell((tuple(ilo), tuple(ihi), key, depth))


class TreeMetric:
    """Random-split tree metric over a lattice box or an explicit point set.

    Construction is deterministic given the seed.  Use tree_dist for
    distances between points of the embedded set; the solver-facing node
    accessors expose cover boxes, achievable-label boxes and leaf points.
    """

    def __init__(self, *, kind: str, dim: int, seed: int, box: LatticeBox | None = None,
                 points: np.ndarray | None = None, root: object = None):
        self.kind = kind
        self.dim = dim
        self.seed = seed
        self.box = box
        self.points = points
        self.root = root
        self._member_keys = (None if points is None
                             else {p.tobytes() for p in np.ascontiguousarray(points)})

    # ---------- construction ----------

    @classmethod
    def for_box(cls, box: LatticeBox, seed: int) -> "TreeMetric":
        root = _cell([box.lo] * box.dim, [box.hi] * box.dim,
                     _mix((seed & _M64) ^ 0x5EED), 0)
        return cls(kind="lattice", dim=box.dim, seed=seed, box=box, root=root)

    @classmethod
    def for_points(cls, points, seed: int) -> "TreeMetric":
        pts = np.unique(np.asarray(points, dtype=float), axis=0)
        if pts.ndim != 2 or len(pts) == 0:
            raise ValueError("need a nonempty 2-d array of points")
        dim = pts.shape[1]
        rng = np.random.default_rng(seed)
        mlo, mhi = pts.min(axis=0), pts.max(axis=0)
        root = TreeNode(cover_lo=mlo.copy(), cover_hi=mhi.copy(),
                        member_lo=mlo, member_hi=mhi,
                        members=np.arange(len(pts)), depth=0)
        # preorder, left child first, so the split draws are reproducible
        stack = [root]
        while stack:
            node = stack.pop()
            if len(node.members) == 1:
                continue
            ext = node.member_hi - node.member_lo
            axis = node.depth % dim
            for _ in range(dim):
                if ext[axis] > 0:
                    break
                axis = (axis + 1) % dim
            a, b = node.member_lo[axis], node.member_hi[axis]
            s = float(rng.uniform(0.6 * a + 0.4 * b, 0.4 * a + 0.6 * b))
            node.axis = axis
            node.split_value = s
            mpts = pts[node.members]
            go_left = mpts[:, axis] <= s
            for side, mask in ((0, go_left), (1, ~go_left)):
                mem = node.members[mask]
                side_pts = pts[mem]
                clo, chi = node.cover_lo.copy(), node.cover_hi.copy()
                if side == 0:
                    chi[axis] = s
                else:
                    clo[axis] = s
                child = TreeNode(cover_lo=clo, cover_hi=chi,
                                 member_lo=side_pts.min(axis=0),
                                 member_hi=side_pts.max(axis=0),
                                 members=mem, depth=node.depth + 1)
                if side == 0:
                    node.left = child
                else:
                    node.right = child
            stack.append(node.right)
            stack.append(node.left)
        return cls(kind="points", dim=dim, seed=seed, points=pts, root=root)

    # ---------- lazy lattice splits ----------

    def _lattice_split(self, cell: LatticeCell):
        """(axis, split_value, cut, left_cell, right_cell) of a non-unit cell."""
        ilo, ihi, key, depth = cell.ilo, cell.ihi, cell.key, cell.depth
        axis, s, cut = _split(ilo, ihi, key, depth, self.dim)
        llo, lhi = list(ilo), list(ihi)
        rlo, rhi = list(ilo), list(ihi)
        lhi[axis] = cut
        rlo[axis] = cut + 1
        left = _cell(llo, lhi, _mix(key ^ 1), depth + 1)
        right = _cell(rlo, rhi, _mix(key ^ 2), depth + 1)
        return axis, s, cut, left, right

    @staticmethod
    def _lattice_is_leaf(cell: LatticeCell) -> bool:
        return all(h == l for l, h in zip(cell.ilo, cell.ihi))

    @staticmethod
    def _lattice_diam(cell: LatticeCell) -> float:
        w = np.array(cell.ihi, dtype=float) - np.array(cell.ilo, dtype=float) + 1.0
        return float(np.linalg.norm(w))

    # ---------- solver-facing node interface ----------

    def node_is_leaf(self, h) -> bool:
        if self.kind == "lattice":
            return self._lattice_is_leaf(h)
        return h.is_leaf

    def node_children(self, h):
        """(left, right, axis, cut) for an internal node."""
        if self.kind == "lattice":
            axis, _, cut, left, right = self._lattice_split(h)
            return left, right, axis, float(cut)
        return h.left, h.right, h.axis, h.split_value

    def node_diam(self, h) -> float:
        if self.kind == "lattice":
            return self._lattice_diam(h)
        return h.diam

    def node_label_box(self, h) -> tuple[np.ndarray, np.ndarray]:
        """Tight box around the labels actually reachable below this node."""
        if self.kind == "lattice":
            return np.array(h.ilo, dtype=float), np.array(h.ihi, dtype=float)
        return h.member_lo, h.member_hi

    def node_leaf_point(self, h) -> np.ndarray:
        if self.kind == "lattice":
            return np.array(h.ilo, dtype=float)
        return self.points[h.members[0]]

    # ---------- distances ----------

    def _check_point(self, p) -> np.ndarray:
        a = np.asarray(p, dtype=float).reshape(-1)
        if len(a) != self.dim:
            raise ValueError(f"point dimension {len(a)} != {self.dim}")
        if self.kind == "lattice":
            if not self.box.contains(a.astype(np.int64)) or np.any(a != np.floor(a)):
                raise ValueError("point outside the lattice box")
        else:
            if np.ascontiguousarray(a).tobytes() not in self._member_keys:
                raise ValueError("point is not part of the embedded set")
        return a

    def tree_dist(self, p, q) -> float:
        """Tree distance between two points of the embedded set."""
        if self.kind == "lattice":
            return self._lattice_tree_dist(p, q)
        a, b = self._check_point(p), self._check_point(q)
        node = self.root
        while not self.node_is_leaf(node):
            left, right, axis, cut = self.node_children(node)
            sa, sb = a[axis] <= cut, b[axis] <= cut
            if sa != sb:
                arm_a = left if sa else right
                arm_b = right if sa else left
                return self._arm_sum(arm_a, a) + self._arm_sum(arm_b, b)
            node = left if sa else right
        return 0.0

    def _lattice_tree_dist(self, p, q) -> float:
        """Plain-int descent; avoids array overhead on the hot path."""
        dim, box = self.dim, self.box
        a = [int(x) for x in np.asarray(p).reshape(-1)]
        b = [int(x) for x in np.asarray(q).reshape(-1)]
        pf, qf = np.asarray(p, dtype=float).reshape(-1), np.asarray(q, dtype=float).reshape(-1)
        if len(a) != dim or len(b) != dim:
            raise ValueError(f"point dimension != {dim}")
        for v, vf in zip(a + b, np.concatenate([pf, qf])):
            if v != vf or v < box.lo or v > box.hi:
                raise ValueError("point outside the lattice box")
        ilo = [box.lo] * dim
        ihi = [box.hi] * dim
        key = self.root.key
        depth = 0
        while True:
            if ilo == ihi:
                return 0.0  # unit cell reached together: identical points
            axis, _, cut = _split(ilo, ihi, key, depth, dim)
            sa, sb = a[axis] <= cut, b[axis] <= cut
            if sa == sb:
                if sa:
                    ihi[axis] = cut
                    key = _mix(key ^ 1)
                else:
                    ilo[axis] = cut + 1
                    key = _mix(key ^ 2)
                depth += 1
                continue
            lkey, rkey = _mix(key ^ 1), _mix(key ^ 2)
            total = 0.0
            for pt, side_lo, seed2, d2 in (
                    (a if sa else b, True, lkey, depth + 1),
                    (b if sa else a, False, rkey, depth + 1)):
                clo, chi = list(ilo), list(ihi)
                if side_lo:
                    chi[axis] = cut
                else:
                    clo[axis] = cut + 1
                total += self._arm_sum_fast(pt, clo, chi, seed2, d2)
            return total

    def _arm_sum_fast(self, pt, ilo, ihi, key, depth) -> float:
        dim = self.dim
        acc = 0.0
        while True:
            ssq = 0.0
            unit = True
            for i in range(dim):
                w = ihi[i] - ilo[i] + 1
                ssq += w * w
                if w > 1:
                    unit = False
            acc += math.sqrt(ssq)
            if unit:
                return acc
            axis, _, cut = _split(ilo, ihi, key, depth, dim)
            if pt[axis] <= cut:
                ihi[axis] = cut
                key = _mix(key ^ 1)
            else:
                ilo[axis] = cut + 1
                key = _mix(key ^ 2)
            depth += 1

    def _arm_sum(self, node, point) -> float:
        acc = 0.0
        while True:
            acc += self.node_diam(node)
            if self.node_is_leaf(node):
                return acc
            left, right, axis, cut = self.node_children(node)
            node = left if point[axis] <= cut else right

    def root_split_value(self) -> float:
        """Split position drawn at the root (handy for calibration checks)."""
        if self.kind == "lattice":
            return self._lattice_split(self.root)[1]
        return self.root.split_value


def build_tree_metric(labels, seed: int) -> TreeMetric:
    """Tree metric over a LatticeBox or an explicit array of points."""
    if isinstance(labels, LatticeBox):
        return TreeMetric.for_box(labels, seed)
    return TreeMetric.for_points(np.asarray(labels, dtype=float), seed)

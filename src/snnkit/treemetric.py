"""Randomized kd-split tree metrics over an integer lattice that dominate the
Euclidean distance.

A tree metric is built by recursively splitting an axis-aligned box at a
uniformly random position inside the middle band of the split axis (between
40% and 60% of its extent), cycling through the axes.  Every tree node keeps
a *cover box*; the two children of a node partition the parent's cover box
along the split axis exactly.  The distance between two points is the sum of
cover-box diameters of every node strictly below their lowest common
ancestor's level on the two descent paths (the arm cells, leaves included).
Because child cover widths add up to the parent's along the split axis, this
sum always dominates the Euclidean distance between the points.

The lattice {lo..hi}^dim is handled lazily: a cell's split is a pure
function of the seed and the cell's descent path, so the (possibly 256^3
sized) tree is never materialized.  The cell [a, b] on an axis is treated as
covering the continuous interval [a, b+1], which keeps child widths summing
exactly to the parent width.  Cells are only ever walked inside tree_dist;
the tree exposes distances, not nodes.
"""
from __future__ import annotations

import math

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


def _split(ilo, ihi, key: int, depth: int, dim: int) -> tuple[int, int]:
    """(axis, cut) of a non-unit lattice cell.

    The axis cycles with depth, skipping axes of unit width.  A split value
    is drawn from the middle band [40%, 60%] of [lo, hi] on that axis; cut,
    its floor, is the last coordinate that goes left, clamped so both sides
    are nonempty.
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
    return axis, cut


class TreeMetric:
    """Random-split tree metric over a lattice box.

    Construction is deterministic given the seed; root is the root cell's
    hash key.  Use tree_dist for distances between lattice points.
    """

    def __init__(self, box: LatticeBox, seed: int):
        self.box = box
        self.dim = box.dim
        self.root = _mix((seed & _M64) ^ 0x5EED)

    def tree_dist(self, p, q) -> float:
        """Tree distance between two lattice points; plain-int descent."""
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
        key = self.root
        depth = 0
        while True:
            if ilo == ihi:
                return 0.0  # unit cell reached together: identical points
            axis, cut = _split(ilo, ihi, key, depth, dim)
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
                total += self._arm_length(pt, clo, chi, seed2, d2)
            return total

    def _arm_length(self, pt, ilo, ihi, key, depth) -> float:
        """Sum of cell diameters from the cell (ilo, ihi) down to pt's leaf."""
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
            axis, cut = _split(ilo, ihi, key, depth, dim)
            if pt[axis] <= cut:
                ihi[axis] = cut
                key = _mix(key ^ 1)
            else:
                ilo[axis] = cut + 1
                key = _mix(key ^ 2)
            depth += 1


def build_tree_metric(labels, seed: int) -> TreeMetric:
    """Tree metric over a LatticeBox of labels."""
    if not isinstance(labels, LatticeBox):
        raise ValueError("tree metrics are built over a LatticeBox label set")
    return TreeMetric(labels, seed)

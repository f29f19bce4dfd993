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

import numpy as np

from .metric import LatticeBox

_GOLDEN = 0x9E3779B97F4A7C15


def _mix(x) -> np.ndarray:
    """splitmix64 finalizer on uint64 arrays (arithmetic wraps mod 2^64):
    cheap, well-distributed 64-bit hash."""
    x = np.array(x, dtype=np.uint64, ndmin=1) + _GOLDEN
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB
    return x ^ (x >> 31)


def _split(ilo, ihi, key, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """(axis, cut) of a batch of non-unit lattice cells, rows of (n, dim)
    bounds with their (n,) keys, all at one depth.

    The axis cycles with depth, skipping axes of unit width.  A split value
    is drawn from the middle band [40%, 60%] of [lo, hi] on that axis; cut,
    its floor, is the last coordinate that goes left, clamped so both sides
    are nonempty.
    """
    dim = ilo.shape[1]
    turn = (depth + np.arange(dim)) % dim
    axis = turn[np.argmax((ihi > ilo)[:, turn], axis=1)]
    rows = np.arange(len(axis))
    a, b = ilo[rows, axis], ihi[rows, axis]
    u = _mix(key ^ np.uint64(3)).astype(float) / 2.0 ** 64
    cut = np.floor(0.6 * a + 0.4 * b + 0.2 * (b - a) * u).astype(np.int64)
    return axis, np.clip(cut, a, b - 1)


class TreeMetric:
    """Random-split tree metric over a lattice box.

    Construction is deterministic given the seed; root is the root cell's
    hash key.  Use tree_dist for distances between lattice points.
    """

    def __init__(self, box: LatticeBox, seed: int):
        self.box = box
        self.dim = box.dim
        self.root = _mix((seed % 2 ** 64) ^ 0x5EED)[0]

    def tree_dist(self, p, q):
        """Tree distances between lattice points p[i] and q[i], rows of
        (n, dim) arrays; a float for a single pair of (dim,) points.

        Both points of every pair walk down from the root in lockstep.
        Once their cells part, each arm sums the diameters of its cells,
        top down, leaf included.
        """
        pf, qf = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
        single = pf.ndim == qf.ndim == 1
        pf, qf = np.atleast_2d(pf), np.atleast_2d(qf)
        if pf.shape != qf.shape or pf.ndim != 2 or pf.shape[1] != self.dim:
            raise ValueError(f"need two matching (n, {self.dim}) point arrays")
        pts = np.concatenate([pf, qf])
        if not self.box.contains(pts):
            raise ValueError("point outside the lattice box")
        n = len(pf)
        pts = pts.astype(np.int64)
        ilo = np.full_like(pts, self.box.lo)
        ihi = np.full_like(pts, self.box.hi)
        key = np.full(2 * n, self.root, dtype=np.uint64)
        arm = np.zeros(2 * n)
        parted = np.zeros(n, dtype=bool)
        walk = np.flatnonzero((ilo != ihi).any(axis=1))   # walkers not at a leaf
        depth = 0
        while len(walk):
            axis, cut = _split(ilo[walk], ihi[walk], key[walk], depth)
            left = pts[walk, axis] <= cut
            ihi[walk[left], axis[left]] = cut[left]
            ilo[walk[~left], axis[~left]] = cut[~left] + 1
            key[walk] = _mix(key[walk] ^ np.where(left, np.uint64(1), np.uint64(2)))
            # until parting both points of a pair share a cell, so walk together
            side = np.zeros(2 * n, dtype=bool)
            side[walk] = left
            parted |= side[:n] != side[n:]
            on = walk[parted[walk % n]]
            w = (ihi[on] - ilo[on] + 1).astype(float)
            arm[on] += np.sqrt((w * w).sum(axis=1))
            walk = walk[(ilo[walk] != ihi[walk]).any(axis=1)]
            depth += 1
        d = arm[:n] + arm[n:]
        return float(d[0]) if single else d


def build_tree_metric(labels, seed: int) -> TreeMetric:
    """Tree metric over a LatticeBox of labels."""
    if not isinstance(labels, LatticeBox):
        raise ValueError("tree metrics are built over a LatticeBox label set")
    return TreeMetric(labels, seed)

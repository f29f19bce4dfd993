"""Exact nearest-neighbor maps over explicit point sets and lattice boxes.

All answers agree with the brute-force linear scan, including ties, which go
to the smallest point id.
"""
from __future__ import annotations

import numpy as np

from .metric import LatticeBox

_CHUNK = 1 << 20


class NnIndex:
    """Nearest-neighbor index over an explicit list of labels.

    Point ids are positions in the given array.
    """

    def __init__(self, space, points):
        self.space = space
        self.points = np.asarray(points)
        if self.points.size == 0:
            raise ValueError("cannot index an empty point set")

    def nn_map(self, queries) -> np.ndarray:
        """Id of the closest label for every query; ties go to the smallest id."""
        qs = np.asarray(queries)
        k = len(qs)
        out = np.empty(k, dtype=np.int64)
        step = max(1, _CHUNK // max(1, len(self.points)))
        for s in range(0, k, step):
            d = self.space.cross(qs[s:s + step], self.points)
            out[s:s + step] = np.argmin(d, axis=1)
        return out


def lattice_nn_map(box: LatticeBox, queries) -> np.ndarray:
    """Closest lattice points for a batch of queries, shape (k, dim).

    Coordinate-wise rounding; halfway cases round down, matching the
    smallest-id tie rule of explicit indexes.
    """
    a = np.atleast_2d(np.asarray(queries, dtype=float))
    if a.shape[1] != box.dim:
        raise ValueError(f"queries must have dimension {box.dim}")
    r = np.ceil(a - 0.5)
    return np.clip(r, box.lo, box.hi).astype(np.int64)

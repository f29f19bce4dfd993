from __future__ import annotations

import numpy as np

from conftest import space_dist
from oracles import lattice_nearest_point
from snnkit.metric import EuclideanSpace, LatticeBox, MatrixSpace
from snnkit.nn import NnIndex, lattice_nn_map


def brute_nearest(space, points, q):
    d = [space_dist(space)(q, p) for p in points]
    best = min(range(len(d)), key=lambda i: (d[i], i))
    return best


def test_linear_scan_matches_brute():
    rng = np.random.default_rng(0)
    sp = EuclideanSpace(2)
    pts = rng.uniform(0, 10, (40, 2))
    Q = rng.uniform(0, 10, (30, 2))
    assert NnIndex(sp, pts).nn_map(Q).tolist() == [brute_nearest(sp, pts, q) for q in Q]


def test_nearest_tie_takes_smallest_id():
    sp = EuclideanSpace(1)
    pts = np.array([[0.0], [2.0], [0.0]])
    idx = NnIndex(sp, pts)
    # 0 and 1 tie at distance 1; 0 and 2 tie at distance 0
    assert idx.nn_map(np.array([[1.0], [0.0]])).tolist() == [0, 0]


def test_tie_break_survives_acceleration():
    # duplicate points force exact ties in a large index
    base = np.random.default_rng(5).uniform(0, 1, (300, 2))
    pts = np.vstack([base, base[:10]])
    idx = NnIndex(EuclideanSpace(2), pts)
    assert idx.nn_map(base[:10]).tolist() == list(range(10))


def test_matrix_space_queries_are_ids():
    m = np.array([[0.0, 2.0, 5.0], [2.0, 0.0, 4.0], [5.0, 4.0, 0.0]])
    sp = MatrixSpace(m)
    idx = NnIndex(sp, np.array([0, 2]))
    # d(1,0)=2 beats d(1,2)=4
    assert idx.nn_map(np.array([0, 1, 2])).tolist() == [0, 0, 1]


def test_lattice_nn_map_matches_nearest_point():
    box = LatticeBox(0, 255, 3)
    rng = np.random.default_rng(3)
    Q = rng.uniform(-10, 266, (100, 3))
    got = lattice_nn_map(box, Q)
    want = [lattice_nearest_point(box.lo, box.hi, q) for q in Q]
    assert got.tolist() == want

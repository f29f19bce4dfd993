from __future__ import annotations

import math

import numpy as np
import pytest

from snnkit.metric import LatticeBox
from snnkit.treemetric import build_tree_metric


def walk_cells(tm):
    stack = [tm.root]
    while stack:
        c = stack.pop()
        yield c
        if not tm.node_is_leaf(c):
            left, right, _, _ = tm.node_children(c)
            stack.append(left)
            stack.append(right)


def test_lattice_root_split_in_band():
    for seed in range(12):
        tm = build_tree_metric(LatticeBox(0, 255, 3), seed)
        _, _, _, cut = tm.node_children(tm.root)
        # cut is the floor of a split value drawn from [40%, 60%] of 0..255
        assert math.floor(0.4 * 255) <= cut <= 0.6 * 255


def test_same_seed_same_tree():
    box = LatticeBox(0, 255, 3)
    a, b = build_tree_metric(box, 7), build_tree_metric(box, 7)
    c = build_tree_metric(box, 8)
    p, q = np.array([3, 200, 90]), np.array([250, 10, 90])
    assert a.tree_dist(p, q) == b.tree_dist(p, q)
    assert a.tree_dist(p, q) != c.tree_dist(p, q)


def test_tree_dist_identity_and_symmetry():
    box = LatticeBox(0, 255, 3)
    tm = build_tree_metric(box, 42)
    rng = np.random.default_rng(0)
    for _ in range(50):
        p, q = rng.integers(0, 256, 3), rng.integers(0, 256, 3)
        assert tm.tree_dist(p, p) == 0.0
        assert tm.tree_dist(p, q) == pytest.approx(tm.tree_dist(q, p), abs=1e-12)
        if not (p == q).all():
            assert tm.tree_dist(p, q) > 0


def test_tree_dist_triangle_inequality_sampled():
    tm = build_tree_metric(LatticeBox(0, 255, 3), 42)
    rng = np.random.default_rng(1)
    pts = rng.integers(0, 256, (10, 3))
    D = np.array([[tm.tree_dist(p, q) for q in pts] for p in pts])
    for a in range(10):
        for b in range(10):
            for c in range(10):
                assert D[a, c] <= D[a, b] + D[b, c] + 1e-9


def generic_descent_dist(tm, p, q):
    """Reference walk over the node interface; shares nothing with the
    lattice fast path."""
    a = np.asarray(p, float)
    b = np.asarray(q, float)
    node = tm.root
    while not tm.node_is_leaf(node):
        left, right, axis, cut = tm.node_children(node)
        sa, sb = a[axis] <= cut, b[axis] <= cut
        if sa != sb:
            def arm(n, x):
                acc = 0.0
                while True:
                    acc += tm.node_diam(n)
                    if tm.node_is_leaf(n):
                        return acc
                    l, r, ax, ct = tm.node_children(n)
                    n = l if x[ax] <= ct else r
            return arm(left if sa else right, a) + arm(right if sa else left, b)
        node = left if sa else right
    return 0.0


def test_lattice_fast_path_matches_generic_descent():
    tm = build_tree_metric(LatticeBox(0, 255, 3), 42)
    rng = np.random.default_rng(6)
    for _ in range(250):
        p, q = rng.integers(0, 256, 3), rng.integers(0, 256, 3)
        assert tm.tree_dist(p, q) == pytest.approx(
            generic_descent_dist(tm, p, q), abs=1e-9)


def test_lattice_tree_dominates_euclidean():
    tm = build_tree_metric(LatticeBox(0, 255, 3), 42)
    rng = np.random.default_rng(2)
    A = rng.integers(0, 256, (5000, 3))
    B = rng.integers(0, 256, (5000, 3))
    eu = np.linalg.norm((A - B).astype(float), axis=1)
    for i in range(len(A)):
        assert tm.tree_dist(A[i], B[i]) + 1e-9 >= eu[i]


def test_axis_cycle_skips_zero_extent():
    # cells of a 9x9 box narrow to one value on an axis before they are
    # leaves; every split must then fall on an axis that still has extent
    tm = build_tree_metric(LatticeBox(0, 8, 2), 0)
    skipped = 0
    for c in walk_cells(tm):
        if not tm.node_is_leaf(c):
            _, _, axis, _ = tm.node_children(c)
            assert c.ihi[axis] > c.ilo[axis]
            skipped += axis != c.depth % 2
    assert skipped > 0


def test_lattice_rejects_out_of_box():
    tm = build_tree_metric(LatticeBox(0, 255, 3), 42)
    with pytest.raises(ValueError):
        tm.tree_dist(np.array([0, 0, 256]), np.array([0, 0, 0]))
    with pytest.raises(ValueError):
        tm.tree_dist(np.array([0.5, 0, 1]), np.array([0, 0, 0]))

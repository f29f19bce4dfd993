from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import generic_descent_dist
from snnkit.metric import LatticeBox
from snnkit.treemetric import _mix, _split, build_tree_metric


def walk_cells(tm):
    """Every cell (ilo, ihi, key, depth) of a lattice tree, with its split."""
    stack = [([tm.box.lo] * tm.dim, [tm.box.hi] * tm.dim, tm.root, 0)]
    while stack:
        ilo, ihi, key, depth = stack.pop()
        if ilo == ihi:
            yield ilo, ihi, key, depth, None
            continue
        axis, cut = (int(v[0]) for v in _split(np.array([ilo]), np.array([ihi]),
                                               np.array([key]), depth))
        yield ilo, ihi, key, depth, axis
        lhi, rlo = list(ihi), list(ilo)
        lhi[axis], rlo[axis] = cut, cut + 1
        stack.append((ilo, lhi, _mix(key ^ 1)[0], depth + 1))
        stack.append((rlo, ihi, _mix(key ^ 2)[0], depth + 1))


def test_lattice_root_split_in_band():
    for seed in range(12):
        tm = build_tree_metric(LatticeBox(0, 255, 3), seed)
        _, (cut,) = _split(np.zeros((1, 3), int), np.full((1, 3), 255), np.array([tm.root]), 0)
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


def test_lattice_fast_path_matches_generic_descent():
    # one batched descent, bit for bit the pure-Python walk of each pair
    for (lo, hi, dim, seed), n in [((0, 255, 3, 42), 3000), ((0, 8, 2, 0), 300),
                                   ((-3, 5, 1, 2 ** 63 + 5), 300), ((2, 40, 4, -7), 300)]:
        tm = build_tree_metric(LatticeBox(lo, hi, dim), seed)
        rng = np.random.default_rng(6)
        A, B = rng.integers(lo, hi + 1, (n, dim)), rng.integers(lo, hi + 1, (n, dim))
        B[:10] = A[:10]
        want = [generic_descent_dist(lo, hi, dim, seed, p, q) for p, q in zip(A, B)]
        assert tm.tree_dist(A, B).tolist() == want


def test_lattice_tree_dominates_euclidean():
    tm = build_tree_metric(LatticeBox(0, 255, 3), 42)
    rng = np.random.default_rng(2)
    A = rng.integers(0, 256, (5000, 3))
    B = rng.integers(0, 256, (5000, 3))
    eu = np.linalg.norm((A - B).astype(float), axis=1)
    assert (tm.tree_dist(A, B) + 1e-9 >= eu).all()


def test_axis_cycle_skips_zero_extent():
    # cells of a 9x9 box narrow to one value on an axis before they are
    # leaves; every split must then fall on an axis that still has extent
    tm = build_tree_metric(LatticeBox(0, 8, 2), 0)
    skipped = 0
    for ilo, ihi, _, depth, axis in walk_cells(tm):
        if axis is not None:
            assert ihi[axis] > ilo[axis]
            skipped += axis != depth % 2
    assert skipped > 0


def test_lattice_rejects_out_of_box():
    tm = build_tree_metric(LatticeBox(0, 255, 3), 42)
    with pytest.raises(ValueError):
        tm.tree_dist(np.array([0, 0, 256]), np.array([0, 0, 0]))
    with pytest.raises(ValueError):
        tm.tree_dist(np.array([0.5, 0, 1]), np.array([0, 0, 0]))
    with pytest.raises(ValueError):
        tm.tree_dist(np.zeros((3, 3)), np.zeros((2, 3)))

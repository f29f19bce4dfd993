from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import floyd_warshall, triangle_ok
from snnkit.metric import (EuclideanSpace, LatticeBox, MatrixSpace,
                           build_graph_metric, triangle_violations)
from snnkit.nn import lattice_nn_map


def test_euclidean_dist_matches_norm():
    sp = EuclideanSpace(3)
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([4.0, 6.0, 3.0])
    assert sp.between(a, b).tolist() == pytest.approx([5.0])
    assert sp.between([a, b], [a, b]).tolist() == [0.0, 0.0]


def test_euclidean_cross_shape_and_values():
    sp = EuclideanSpace(2)
    A = np.array([[0.0, 0.0], [3.0, 4.0]])
    B = np.array([[0.0, 0.0], [0.0, 1.0], [3.0, 0.0]])
    D = sp.cross(A, B)
    assert D.shape == (2, 3)
    assert D[1, 0] == pytest.approx(5.0)
    assert D[0, 2] == pytest.approx(3.0)


def test_matrix_space_rejects_asymmetry_and_nonzero_diagonal():
    with pytest.raises(ValueError):
        MatrixSpace(np.array([[0.0, 1.0], [3.0, 0.0]]))
    with pytest.raises(ValueError):
        MatrixSpace(np.array([[0.2, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_matrix_space_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="finite"):
        MatrixSpace(np.array([[0.0, bad], [bad, 0.0]]))


def test_matrix_space_canonicalizes_tiny_noise():
    eps = 1e-12
    m = np.array([[0.0, 1.0 + eps], [1.0 - eps, eps]])
    sp = MatrixSpace(m)
    assert sp.matrix[0, 0] == 0.0
    assert sp.matrix[0, 1] == sp.matrix[1, 0] == pytest.approx(1.0)


def test_matrix_space_rejects_bad_ids():
    sp = MatrixSpace(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        sp.between([0], [3])
    with pytest.raises(ValueError):
        sp.cross([-1], [0])


def test_graph_metric_against_floyd_warshall():
    rng = np.random.default_rng(7)
    for trial in range(25):
        n = int(rng.integers(3, 20))
        m = int(rng.integers(n - 1, 3 * n))
        # random connected graph: spanning chain plus chords
        edges = [(i, i + 1, float(rng.uniform(0.1, 5.0))) for i in range(n - 1)]
        for _ in range(m - n + 1):
            i, j = rng.integers(0, n, 2)
            if i != j:
                edges.append((int(i), int(j), float(rng.uniform(0.1, 5.0))))
        sp = build_graph_metric(n, edges)
        ref = floyd_warshall(n, edges)
        assert np.allclose(sp.matrix, np.array(ref), atol=1e-9)
        assert triangle_violations(sp.matrix) == 0


def test_graph_metric_min_accumulates_parallel_edges():
    sp = build_graph_metric(2, [(0, 1, 5.0), (0, 1, 2.0), (1, 0, 9.0)])
    assert sp.between([0, 1], [1, 0]).tolist() == pytest.approx([2.0, 2.0])


def test_graph_metric_rejects_disconnected():
    with pytest.raises(ValueError):
        build_graph_metric(4, [(0, 1, 1.0), (2, 3, 1.0)])


def test_triangle_violations_detects_a_violation():
    bad = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    assert triangle_violations(bad) > 0
    assert not triangle_ok(bad.tolist())


def test_lattice_box_basics():
    box = LatticeBox(0, 255, 3)
    assert box.side == 256
    assert box.size == 256 ** 3
    assert box.contains(np.array([[0, 0, 0], [255, 255, 255]]))
    assert not box.contains(np.array([[0, 0, 256]]))


def test_lattice_nearest_point_rounds_half_down():
    box = LatticeBox(0, 255, 3)
    q = np.array([[2.5, 2.4, 2.6], [-4.0, 300.0, 0.0]])
    assert lattice_nn_map(box, q).tolist() == [[2, 2, 3], [0, 255, 0]]


def test_lattice_point_id_row_major():
    # the id of a point is its row-major rank: all_points lists them in id order
    box = LatticeBox(0, 3, 2)
    pts = box.all_points()
    assert pts.shape == (16, 2)
    for i, p in enumerate(pts):
        assert p.tolist() == [i // 4, i % 4]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(0, 1000))
def test_small_graph_metrics_satisfy_axioms(n, seed):
    rng = np.random.default_rng(seed)
    edges = [(i, i + 1, float(rng.uniform(0.1, 3.0))) for i in range(n - 1)]
    for _ in range(n):
        i, j = rng.integers(0, n, 2)
        if i != j:
            edges.append((int(i), int(j), float(rng.uniform(0.1, 3.0))))
    sp = build_graph_metric(n, edges)
    M = sp.matrix
    assert np.allclose(M, M.T)
    assert np.all(np.diag(M) == 0.0)
    assert triangle_violations(M) == 0

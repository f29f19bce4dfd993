from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import min_max_outdegree
from snnkit.graphs import CompatGraph, Orientation, grid_graph, orient_edges


def test_compat_graph_requires_canonical_edges():
    with pytest.raises(ValueError):
        CompatGraph(4, np.array([[2, 1, 1]]))
    g = CompatGraph.from_pairs(4, [(2, 1), (0, 3, 2)])
    assert g.edges[0].tolist() == [1, 2, 1]
    assert g.edges[1].tolist() == [0, 3, 2]
    assert g.num_entries == 2
    assert g.num_instances == 3


def test_compat_graph_rejects_self_loops_and_bad_ids():
    with pytest.raises(ValueError):
        CompatGraph(3, np.array([[1, 1, 1]]))
    with pytest.raises(ValueError):
        CompatGraph(3, np.array([[0, 3, 1]]))
    with pytest.raises(ValueError):
        CompatGraph(3, np.array([[0, 1, 0]]))


def test_from_pairs_and_degrees():
    g = CompatGraph.from_pairs(3, [(0, 1), (1, 2), (1, 2)])
    # parallel pairs stay as separate unit entries
    assert g.num_entries == 3
    assert g.num_instances == 3
    assert g.degrees().tolist() == [1, 3, 2]


def test_expanded_repeats_by_multiplicity():
    g = CompatGraph(3, np.array([[0, 1, 2], [1, 2, 1]]))
    ex = g.expanded()
    assert ex.shape == (3, 2)
    assert (ex == [0, 1]).all(axis=1).sum() == 2


def test_neighbor_sets():
    g = CompatGraph.from_pairs(4, [(0, 1), (0, 2)])
    ns = g.neighbor_sets()
    assert ns[0].tolist() == [1, 2]
    assert ns[1].tolist() == [0]
    assert ns[3].tolist() == []


def test_two_coloring_on_bipartite_and_odd_cycle():
    grid = grid_graph(3, 2)
    col = grid.two_coloring()
    assert col is not None
    i, j = grid.edges[:, 0], grid.edges[:, 1]
    assert np.all(col[i] != col[j])
    tri = CompatGraph.from_pairs(3, [(0, 1), (1, 2), (0, 2)])
    assert tri.two_coloring() is None


def test_grid_graph_shape():
    g = grid_graph(4, 3)
    # right edges: 3 per row * 3 rows; down edges: 4 per row * 2 rows
    assert g.num_entries == 3 * 3 + 4 * 2
    assert g.n == 12
    # row-major: pixel (row 1, col 2) is vertex 6; its right edge exists
    assert any((e[0], e[1]) == (6, 7) for e in g.edges)


def test_orientation_validates():
    with pytest.raises(ValueError):
        Orientation(np.array([[0, 1]]), np.array([2]), 1)  # owner not an endpoint


def test_orient_edges_invariants_random():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(2, 12))
        pairs = []
        for _ in range(int(rng.integers(0, 14))):
            i, j = rng.integers(0, n, 2)
            if i != j:
                pairs.append((int(i), int(j)))
        g = CompatGraph.from_pairs(n, pairs) if pairs else CompatGraph(n, np.zeros((0, 3), int))
        o = orient_edges(g)
        # every instance owned by one of its endpoints
        for (i, j), w in zip(o.edges, o.owner):
            assert w in (i, j)
        out = np.bincount(o.owner, minlength=n)
        assert o.r == (out.max() if len(out) and o.edges.size else 0)
        assert len(o.edges) == g.num_instances


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                                   max_size=8))
def test_peeling_r_within_twice_exact(n, raw):
    pairs = [(i % n, j % n) for i, j in raw if i % n != j % n]
    g = CompatGraph.from_pairs(n, pairs) if pairs else CompatGraph(n, np.zeros((0, 3), int))
    o = orient_edges(g)
    exact = min_max_outdegree(n, [(int(i), int(j)) for i, j in g.expanded()])
    if exact == 0:
        assert o.r == 0
    else:
        assert exact <= o.r <= 2 * exact


def test_exact_pseudoarboricity_known_values():
    assert min_max_outdegree(3, [(0, 1), (1, 2), (0, 2)]) == 1   # triangle
    assert min_max_outdegree(2, [(0, 1)] * 3) == 2               # triple edge
    assert min_max_outdegree(5, [(0, i) for i in range(1, 5)]) == 1  # star


def _multigraph(n, raw, odd_cycle):
    """Rows (i, j, mult) from raw triples; with odd_cycle, a triangle on the
    three highest vertices, joined to nothing below them."""
    rows = [(min(i % n, j % n), max(i % n, j % n), m) for i, j, m in raw]
    rows = [(i, j, m) for i, j, m in rows if i != j]
    if odd_cycle and n >= 6:
        hi = n - 3
        rows = [(i, j, m) for i, j, m in rows if (i < hi) == (j < hi)]
        rows += [(hi, hi + 1, 1), (hi + 1, hi + 2, 2), (hi, hi + 2, 1)]
    return rows


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 14),
       st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13), st.integers(1, 3)),
                max_size=20),
       st.booleans())
def test_graph_queries_match_the_loop_oracles(n, raw, odd_cycle):
    rows = _multigraph(n, raw, odd_cycle)
    g = CompatGraph(n, np.array(rows, dtype=np.int64).reshape(-1, 3))
    want = oracles.two_coloring(n, rows)
    col = g.two_coloring()
    if want is None:
        assert col is None
    else:
        assert col is not None and col.dtype == np.int8
        assert col.tolist() == want
    ns = g.neighbor_sets()
    assert len(ns) == n
    assert all(a.dtype == np.int64 for a in ns)
    assert [a.tolist() for a in ns] == oracles.neighbor_lists(n, rows)
    assert g.degrees().dtype == np.int64
    assert g.degrees().tolist() == oracles.degrees(n, rows)


@pytest.mark.parametrize("rows, bipartite", [
    # path 0-1-2 (parallel pair), isolated 3, edge 4-5, triangle 6-7-8
    ([(0, 1, 1), (0, 1, 2), (1, 2, 1), (4, 5, 3), (6, 7, 1), (7, 8, 1), (6, 8, 1)], False),
    # two components whose smallest vertices sit on the far side of an edge
    ([(2, 5, 1), (0, 7, 1), (5, 7, 1), (1, 8, 2), (3, 8, 1)], True),
])
def test_two_coloring_matches_the_oracle_on_fixed_graphs(rows, bipartite):
    g = CompatGraph(9, np.array(rows))
    want = oracles.two_coloring(9, rows)
    assert (want is not None) == bipartite
    col = g.two_coloring()
    assert (col is None) if want is None else (col.tolist() == want)


@pytest.mark.parametrize("width, height", [(1, 1), (1, 9), (7, 1), (3, 2), (17, 5)])
def test_grid_graph_rows_match_the_oracle(width, height):
    g = grid_graph(width, height)
    assert g.edges.dtype == np.int64
    assert [tuple(e) for e in g.edges.tolist()] == oracles.grid_edges(width, height)


def test_two_coloring_of_a_large_grid_is_the_checkerboard():
    g = grid_graph(512, 512)
    r, c = np.divmod(np.arange(512 * 512), 512)
    assert np.array_equal(g.two_coloring(), ((r + c) % 2).astype(np.int8))

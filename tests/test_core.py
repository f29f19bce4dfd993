from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from conftest import space_dist
from oracles import enum_opt, euclid, icm, neighbor_lists
from snnkit import core
from snnkit.core import (DEFAULT_GUARD, GuardExceededError, _classes, _collapsed,
                         _directed, _icm, _shared_scorer, brute_force_opt, cost,
                         cost_points, make_instance, nn_label_map, unique_rows)
from snnkit.denoise import NoiseConfig, add_noise, pixel_instance
from snnkit.exact import pruning_gap
from snnkit.generators import random_instance
from snnkit.graphs import CompatGraph, grid_graph
from snnkit.metric import EuclideanSpace, LatticeBox


def line_instance():
    """Two queries on a line between two labels, one compat edge.

    Worked by hand: choices (0,0) and (1,1) both cost 10; (0,1) costs
    1 + 1 + 10 = 12; (1,0) costs 9 + 9 + 10 = 28.
    """
    sp = EuclideanSpace(1)
    return make_instance(sp, np.array([[0.0], [10.0]]),
                         np.array([[1.0], [9.0]]), edges=[(0, 1)])


def pruned_line_instance():
    """Same queries, labels {0, 5, 10}.  The middle label is never a
    per-query nearest neighbour but (5, 5) costs 4 + 4 + 0 = 8, so
    pruning it costs something: opt over {0, 10} is 10, alpha = 1.25."""
    sp = EuclideanSpace(1)
    return make_instance(sp, np.array([[0.0], [5.0], [10.0]]),
                         np.array([[1.0], [9.0]]), edges=[(0, 1)])


def test_cost_decomposes():
    inst = line_instance()
    a = cost(inst, [0, 1])
    assert a.nn_cost == pytest.approx(1 + 1)
    assert a.pw_cost == pytest.approx(10)
    assert a.total == pytest.approx(a.nn_cost + a.pw_cost)


def test_brute_force_line_instance_tie_break():
    a = brute_force_opt(line_instance())
    assert a.total == pytest.approx(10.0)
    # (0,0) and (1,1) tie; lexicographically first wins
    assert a.idx.tolist() == [0, 0]


def test_brute_force_respects_allowed():
    inst = pruned_line_instance()
    full = brute_force_opt(inst)
    assert full.total == pytest.approx(8.0)
    assert full.idx.tolist() == [1, 1]
    restricted = brute_force_opt(inst, allowed=[0, 2])
    assert restricted.total == pytest.approx(10.0)


def test_pruning_gap_worked_example():
    rep = pruning_gap(pruned_line_instance())
    assert rep.opt_full == pytest.approx(8.0)
    assert rep.opt_pruned == pytest.approx(10.0)
    assert rep.alpha == pytest.approx(1.25)
    assert rep.pruned_labels.tolist() == [0, 2]


def test_nn_label_map_line():
    assert nn_label_map(pruned_line_instance()).tolist() == [0, 2]


def test_pruning_gap_at_least_one(sweep):
    for item in sweep.items[:120]:
        rep = pruning_gap(item.inst)
        assert rep.alpha >= 1.0 - 1e-9


def test_pruning_gap_zero_cost_defined():
    # query sits exactly on the only label: both optima are 0, alpha := 1
    sp = EuclideanSpace(1)
    inst = make_instance(sp, np.array([[3.0]]), np.array([[3.0]]))
    rep = pruning_gap(inst)
    assert rep.opt_full == 0.0
    assert rep.alpha == 1.0


def test_brute_force_against_pure_python_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(60):
        inst = random_instance(rng, max_queries=4, max_labels=6)
        a = brute_force_opt(inst)
        dist = space_dist(inst.space)
        if inst.space.kind == "euclidean":
            labels, queries = inst.labels, inst.queries
        else:
            labels, queries = inst.labels, inst.queries
        edges = [(int(i), int(j), int(m)) for i, j, m in inst.graph.edges]
        choice, nn, pw, tot = enum_opt(dist, list(queries), list(labels),
                                       edges, inst.kappa, inst.lam)
        assert a.total == pytest.approx(tot, abs=1e-9)
        assert list(a.idx) == list(choice)


def test_weighted_costs_scale():
    sp = EuclideanSpace(1)
    inst = make_instance(sp, np.array([[0.0], [10.0]]),
                         np.array([[1.0], [9.0]]), edges=[(0, 1)],
                         kappa=[2.0, 1.0], lam=[0.5])
    a = cost(inst, [0, 1])
    assert a.nn_cost == pytest.approx(2 * 1 + 1 * 1)
    assert a.pw_cost == pytest.approx(0.5 * 10)
    assert not inst.unweighted


def test_guard_raises():
    sp = EuclideanSpace(1)
    labels = np.arange(20, dtype=float)[:, None]
    queries = np.zeros((8, 1))
    inst = make_instance(sp, labels, queries)
    assert 20 ** 8 > DEFAULT_GUARD
    with pytest.raises(GuardExceededError, match=rf"20\^8 .* guard {DEFAULT_GUARD}"):
        brute_force_opt(inst)


@pytest.mark.parametrize("label_space", ["image", "full"])
def test_guard_refuses_pixel_instance_before_allocating(cartoon, label_space):
    noisy = add_noise(cartoon, NoiseConfig(kind="gaussian", sigma=10.0, seed=42))
    inst = pixel_instance(noisy, label_space)  # 4096 queries; ~4050 or 256^3 labels
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceededError):
            brute_force_opt(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (k, L) unary matrix alone would take 133 MB on the palette
    assert peak < 8 * 2 ** 20


def test_lattice_instance_brute_force_small_box():
    box = LatticeBox(0, 3, 1)
    sp = EuclideanSpace(1)
    inst = make_instance(sp, box, np.array([[0.2], [2.9]]), edges=[(0, 1)])
    a = brute_force_opt(inst)
    ref = min(
        (abs(0.2 - p) + abs(2.9 - q) + abs(p - q), (p, q))
        for p in range(4) for q in range(4))
    assert a.total == pytest.approx(ref[0])


def test_cost_points_matches_cost():
    inst = pruned_line_instance()
    via_idx = cost(inst, [1, 1])
    via_pts = cost_points(inst, np.array([[5.0], [5.0]]))
    assert via_pts.total == pytest.approx(via_idx.total)


def test_instance_validation():
    sp = EuclideanSpace(2)
    with pytest.raises(ValueError):
        make_instance(sp, np.zeros((0, 2)), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        make_instance(sp, np.zeros((3, 2)), np.zeros((2, 2)), kappa=[1.0])
    with pytest.raises(ValueError):
        make_instance(sp, np.zeros((3, 2)), np.zeros((2, 2)),
                      edges=[(0, 1)], lam=[1.0, 2.0])
    with pytest.raises(ValueError):
        make_instance(sp, np.zeros((3, 2)), np.zeros((2, 3)))


@pytest.mark.parametrize("field", ["queries", "kappa", "lam", "labels"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_is_rejected(field, bad):
    args = {"labels": np.array([[0.0], [10.0]]), "queries": np.array([[1.0], [9.0]]),
            "kappa": np.ones(2), "lam": np.ones(1)}
    args[field] = args[field].copy()
    args[field].flat[-1] = bad
    with pytest.raises(ValueError, match="finite"):
        make_instance(EuclideanSpace(1), args["labels"], args["queries"], edges=[(0, 1)],
                      kappa=args["kappa"], lam=args["lam"])


def _row_cases():
    rng = np.random.default_rng(5)
    yield rng.integers(-3, 3, size=(400, 3))                # many duplicates, negatives
    yield rng.integers(-2, 2, size=(50, 1))                 # one column
    yield rng.integers(-9, 9, size=(1, 4))                  # one row
    yield rng.integers(0, 2, size=(300, 75))                # 75 columns
    yield np.repeat(rng.integers(-5, 5, size=(20, 75)), 6, axis=0)[rng.permutation(120)]
    yield rng.integers(-2**40, 2**40, size=(200, 2))
    yield rng.normal(size=(200, 3))                         # all distinct
    yield np.round(rng.normal(size=(500, 2)), 1)            # float duplicates
    yield rng.choice([-1.5, -0.0, 0.0, 2.25], size=(300, 75))


@pytest.mark.parametrize("a", list(_row_cases()), ids=lambda a: f"{a.dtype}-{a.shape[0]}x{a.shape[1]}")
def test_unique_rows_matches_numpy_unique(a):
    rows, first, inverse = unique_rows(a)
    want_rows, want_first, want_inverse = np.unique(a, axis=0, return_index=True,
                                                    return_inverse=True)
    assert rows.dtype == a.dtype
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(first, want_first)
    assert np.array_equal(inverse, want_inverse.reshape(-1))
    assert np.array_equal(rows[inverse], a)


def test_icm_scores_only_rows_whose_neighbours_moved():
    # a seeded 12x10 grid over 6 labels on a line, from a random start
    rng = np.random.default_rng(5)
    graph = grid_graph(12, 10)
    k = graph.n
    labels, queries = rng.uniform(0, 10, size=(6, 1)), rng.uniform(0, 10, size=(k, 1))
    inst = make_instance(EuclideanSpace(1), labels, queries, graph)
    start = rng.integers(0, len(labels), size=k)
    d_nn, d_lab = inst.space.cross(queries, labels), inst.space.cross(labels, labels)
    score = _shared_scorer(len(labels), lambda rows: d_nn[rows], lambda u: d_lab[:, u])
    calls = []

    def counting(cur, rows, li, nd, nw):
        calls.append((rows.copy(), cur.copy()))
        return score(cur, rows, li, nd, nw)

    classes = _classes(graph.two_coloring(), np.arange(k))
    got = _icm(start.copy(), classes, *_directed(*_collapsed(inst)), counting, passes=10)
    want = icm(euclid, queries.tolist(), labels.tolist(), graph.edges.tolist(),
               inst.kappa, inst.lam, start.tolist())
    assert got.tolist() == want

    # replay the passes: a class scores the rows not scored since a neighbour
    # last moved, and is skipped when there are none
    nbrs = neighbor_lists(k, graph.edges.tolist())
    labelings = [cur for _, cur in calls] + [got]
    due = np.ones(k, dtype=bool)
    n = 0
    for passes in range(1, 11):
        moved_in_pass = False
        for cls in classes:
            if not due[cls].any():
                continue
            rows = calls[n][0]
            assert rows.tolist() == cls[due[cls]].tolist()
            due[rows] = False
            moved = np.flatnonzero(labelings[n + 1] != labelings[n])
            assert np.isin(moved, rows).all()
            for v in moved:
                due[nbrs[v]] = True
            moved_in_pass |= len(moved) > 0
            n += 1
        if not moved_in_pass:
            break
    assert n == len(calls)
    assert passes > 2 and sum(len(r) for r, _ in calls) < (passes - 1) * k


@pytest.mark.parametrize("graph_kind", ["grid", "odd-cycle"])
def test_chunked_scoring_moves_like_one_chunk_and_the_oracle(graph_kind, monkeypatch):
    # weighted parallel edges, so each row sums several terms in edge order
    rng = np.random.default_rng(8)
    if graph_kind == "grid":
        k, pairs = 54, grid_graph(9, 6).edges.tolist()
    else:
        k = 25
        pairs = [(i, (i + 1) % k) for i in range(k)] + [(i, (i + 1) % k, 2) for i in range(0, k, 3)]
    graph = CompatGraph.from_pairs(k, pairs)
    S = 7
    labels, queries = rng.uniform(0, 10, size=(S, 2)), rng.uniform(0, 10, size=(k, 2))
    kappa, lam = rng.uniform(0.2, 2, size=k), rng.uniform(0.5, 4, size=graph.num_entries)
    inst = make_instance(EuclideanSpace(2), labels, queries, graph, kappa, lam)
    start = rng.integers(0, S, size=k)
    d_nn = kappa[:, None] * inst.space.cross(queries, labels)
    d_lab = inst.space.cross(labels, labels)
    classes = _classes(graph.two_coloring(), np.arange(k))

    def run(budget):
        monkeypatch.setattr(core, "_SCORE_BYTES", budget)
        sizes = []

        def unary(rows):
            sizes.append(len(rows))
            return d_nn[rows]
        score = _shared_scorer(S, unary, lambda u: d_lab[:, u])
        got = _icm(start.copy(), classes, *_directed(*_collapsed(inst)), score, passes=10)
        assert max(sizes) <= max(1, budget // (8 * S))
        return got.tolist(), max(sizes)

    want = icm(euclid, queries.tolist(), labels.tolist(), graph.edges.tolist(),
               kappa, lam, start.tolist())
    one, widest = run(1 << 40)
    assert one == want and widest == max(len(c) for c in classes)
    # 1-row chunks, 4-row chunks and a budget just short of 5 rows
    for budget in (1, 8 * S * 4, 8 * S * 5 - 1):
        assert run(budget)[0] == want

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from conftest import space_dist
from oracles import rplus_scores
from snnkit.core import brute_force_opt, cost, make_instance
from snnkit.denoise import NoiseConfig, add_noise, pixel_instance
from snnkit.graphs import Orientation, orient_edges
from snnkit.metric import EuclideanSpace
from snnkit.nn import NnIndex
from snnkit.sparse import rplus_solve, sparse_assign


def line_instance():
    sp = EuclideanSpace(1)
    return make_instance(sp, np.array([[0.0], [10.0]]),
                         np.array([[1.0], [9.0]]), edges=[(0, 1)])


def test_rplus_worked_example():
    # forcing query 1 to own the single edge makes query 0 score labels by
    # d(q0, p) + d(q0, p)/2... worked by hand in both orientations: either
    # way the solver lands on (0, 1) with total 12.
    inst = line_instance()
    o = Orientation(np.array([[0, 1]]), np.array([1]), 1)
    a = rplus_solve(inst, orientation=o)
    assert a.idx.tolist() == [0, 1]
    assert a.total == pytest.approx(12.0)


def test_rplus_bound_random(sweep):
    for item in sweep.items[:150]:
        a = rplus_solve(item.inst)
        bound = (2 * item.r + 1) * item.opt.total + 1e-9
        assert a.total <= bound


def test_rplus_picks_a_best_scoring_label(sweep):
    for item in sweep.items:
        inst = item.inst
        o = orient_edges(inst.graph)
        a = rplus_solve(inst, orientation=o)
        scores = rplus_scores(inst.queries, inst.labels, space_dist(inst.space),
                              o.edges.tolist(), o.owner.tolist(), o.r)
        for row, pick in zip(scores, a.idx):
            assert row[pick] <= min(row) + 1e-9


def test_rplus_memory_stays_linear_on_a_palette(cartoon):
    # 4,096 pixels: a dense pixel-by-pixel anchor matrix alone would take 134 MB
    inst = pixel_instance(add_noise(cartoon, NoiseConfig()), "image")
    o = orient_edges(inst.graph)
    tracemalloc.start()
    try:
        rplus_solve(inst, orientation=o)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_rplus_empty_graph_is_plain_nn():
    sp = EuclideanSpace(1)
    inst = make_instance(sp, np.array([[0.0], [4.0]]), np.array([[1.0], [3.9]]))
    a = rplus_solve(inst)
    nn = NnIndex(sp, inst.labels).nn_map(inst.queries)
    assert a.idx.tolist() == nn.tolist()


def test_rplus_orientation_default_comes_from_peeling():
    inst = line_instance()
    explicit = rplus_solve(inst, orientation=orient_edges(inst.graph))
    implicit = rplus_solve(inst)
    assert explicit.total == pytest.approx(implicit.total)


def test_sparse_assign_bounds_and_choice_invariant(sweep):
    for item in sweep.items[:150]:
        inst, opt = item.inst, item.opt
        a, designated = sparse_assign(inst, opt)
        assert a.nn_cost <= 3 * opt.nn_cost + 1e-9
        assert a.pw_cost <= 4 * opt.pw_cost + 4 * item.r * opt.nn_cost + 1e-9
        # query i designates the first best-scoring candidate among itself,
        # then its neighbours in ascending order, and takes its nearest label
        d = space_dist(inst.space)
        P, Q = opt.points.tolist(), inst.queries.tolist()
        nbrs = [set() for _ in range(inst.k)]
        for u, v, _ in inst.graph.edges.tolist():
            nbrs[u].add(v)
            nbrs[v].add(u)
        for i in range(inst.k):
            cand = [i] + sorted(nbrs[i])
            scores = [d(P[i], P[j]) + d(P[j], Q[j]) for j in cand]
            j = next(j for j, s in zip(cand, scores) if s <= min(scores) + 1e-9)
            assert designated[i] == j
            assert d(Q[j], inst.labels[a.idx[i]].tolist()) <= \
                min(d(Q[j], p) for p in inst.labels.tolist()) + 1e-9


def test_sparse_assign_ties_go_to_the_query_then_its_lowest_neighbour():
    # every query labelled 10: query 0 scores 6 itself and 0 at either
    # neighbour; queries 1 and 2 score 0 at themselves and at each other
    inst = make_instance(EuclideanSpace(1), np.array([[0.0], [10.0]]),
                         np.array([[4.0], [10.0], [10.0]]), edges=[(0, 2), (1, 2), (0, 1)])
    a, designated = sparse_assign(inst, cost(inst, [1, 1, 1]))
    assert designated.tolist() == [1, 1, 2]
    assert a.idx.tolist() == [1, 1, 1]


def test_sparse_assign_empty_graph_keeps_nearest_labels():
    sp = EuclideanSpace(1)
    inst = make_instance(sp, np.array([[0.0], [4.0]]), np.array([[1.0], [3.9]]))
    opt = brute_force_opt(inst)
    a, _ = sparse_assign(inst, opt)
    assert a.idx.tolist() == opt.idx.tolist()
    assert a.total == pytest.approx(opt.total)


def test_sparse_assign_output_is_costed_correctly(sweep):
    for item in sweep.items[:40]:
        a, _ = sparse_assign(item.inst, item.opt)
        again = cost(item.inst, a.idx)
        assert a.total == pytest.approx(again.total, abs=1e-9)


def test_weighted_instances_rejected():
    sp = EuclideanSpace(1)
    inst = make_instance(sp, np.array([[0.0], [10.0]]),
                         np.array([[1.0], [9.0]]), edges=[(0, 1)], lam=[2.0])
    with pytest.raises(ValueError):
        rplus_solve(inst)
    with pytest.raises(ValueError):
        sparse_assign(inst, brute_force_opt(inst))

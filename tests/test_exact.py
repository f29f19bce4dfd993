from __future__ import annotations

import numpy as np
import pytest

from snnkit.core import brute_force_opt, cost, make_instance
from snnkit.exact import NodeBudgetExceeded, bb_opt
from snnkit.generators import random_instance
from snnkit.metric import EuclideanSpace
from snnkit.sparse import rplus_solve


def test_bb_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(17)
    for _ in range(120):
        inst = random_instance(rng)
        want = brute_force_opt(inst)
        got = bb_opt(inst)
        assert got.total == pytest.approx(want.total, abs=1e-9)
        # the assignment it returns must actually cost what it claims
        assert cost(inst, got.idx).total == pytest.approx(got.total, abs=1e-9)


@pytest.mark.parametrize("solver", [brute_force_opt, bb_opt, rplus_solve])
@pytest.mark.parametrize("allowed", [[3], [-1], []], ids=["past-end", "negative", "empty"])
def test_solvers_refuse_allowed_ids_outside_the_label_set(solver, allowed):
    inst = make_instance(EuclideanSpace(1), np.array([[0.0], [5.0], [10.0]]),
                         np.array([[1.0], [9.0]]), edges=[(0, 1)])
    with pytest.raises(ValueError, match="allowed label"):
        solver(inst, allowed=allowed)


def test_bb_matches_brute_force_weighted():
    rng = np.random.default_rng(23)
    for _ in range(60):
        inst = random_instance(rng, weighted=True)
        want = brute_force_opt(inst)
        got = bb_opt(inst)
        assert got.total == pytest.approx(want.total, abs=1e-9)
    # weights over twelve decades: bb_opt takes each labeled query's edge
    # terms back off its neighbors' scores by subtraction, and the rounding
    # that leaves must not prune the optimum
    rng = np.random.default_rng(5)
    for _ in range(300):
        base = random_instance(rng)
        inst = make_instance(base.space, base.labels, base.queries, base.graph,
                             kappa=10 ** rng.uniform(-6, 6, base.k),
                             lam=10 ** rng.uniform(-6, 6, base.graph.num_entries))
        assert bb_opt(inst).total == pytest.approx(brute_force_opt(inst).total, rel=1e-9)


def test_bb_respects_allowed_subset():
    rng = np.random.default_rng(29)
    for _ in range(30):
        inst = random_instance(rng, max_queries=4, max_labels=7)
        allowed = np.unique(rng.integers(0, inst.n_labels, 3))
        want = brute_force_opt(inst, allowed=allowed)
        got = bb_opt(inst, allowed=allowed)
        assert got.total == pytest.approx(want.total, abs=1e-9)
        assert set(got.idx) <= set(int(a) for a in allowed)


def test_bb_node_budget_raises():
    rng = np.random.default_rng(31)
    sp = EuclideanSpace(2)
    labels = rng.uniform(0, 1, (30, 2))
    queries = rng.uniform(0, 1, (10, 2))
    edges = [(i, j) for i in range(10) for j in range(i + 1, 10)]
    inst = make_instance(sp, labels, queries, edges=edges)
    with pytest.raises(NodeBudgetExceeded):
        bb_opt(inst, node_budget=5)


def test_bb_stats_reporting():
    inst = random_instance(np.random.default_rng(37))
    a, stats = bb_opt(inst, return_stats=True)
    # zero nodes is possible when the warm start already meets the root bound
    assert stats.nodes >= 0
    assert a.total == pytest.approx(brute_force_opt(inst).total, abs=1e-9)


def test_bb_single_query_is_nearest_label():
    sp = EuclideanSpace(1)
    inst = make_instance(sp, np.array([[0.0], [4.0], [9.0]]), np.array([[5.0]]))
    a = bb_opt(inst)
    assert a.idx.tolist() == [1]
    assert a.total == pytest.approx(1.0)


def test_bb_searches_deeper_than_the_recursion_limit():
    # a 1,500-query chain: labels 0 and 1, queries 0..1199 at 0, the rest at 1
    k = 1500
    queries = np.where(np.arange(k) < 1200, 0.0, 1.0)[:, None]
    inst = make_instance(EuclideanSpace(1), np.array([[0.0], [1.0]]), queries,
                         edges=[(i, i + 1) for i in range(k - 1)])
    a, stats = bb_opt(inst, return_stats=True)
    assert a.total == 1.0
    assert a.idx.tolist() == [0] * 1200 + [1] * 300
    assert stats.nodes == 1199

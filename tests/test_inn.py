from __future__ import annotations

import numpy as np
import pytest

from snnkit.core import brute_force_opt, cost, make_instance
from snnkit.generators import random_instance
from snnkit.graphs import grid_graph
from snnkit.inn import inn_solve, pruned_label_set
from snnkit.metric import EuclideanSpace, LatticeBox, MatrixSpace
from snnkit.nn import lattice_nn_map


def test_pruned_label_set_distinct_nearest():
    sp = EuclideanSpace(1)
    inst = make_instance(sp, np.array([[0.0], [5.0], [10.0]]),
                         np.array([[1.0], [0.5], [9.0]]), edges=[(0, 1), (1, 2)])
    pl = pruned_label_set(inst)
    assert pl.label_idx[pl.nn_pos].tolist() == [0, 0, 2]
    assert pl.label_idx.tolist() == [0, 2]
    assert pl.label_points.tolist() == [[0.0], [10.0]]


def test_inn_exact_equals_restricted_brute_force(sweep):
    for item in sweep.items[:100]:
        pl = pruned_label_set(item.inst)
        want = brute_force_opt(item.inst, allowed=pl.label_idx)
        got = inn_solve(item.inst, "exact")
        assert got.total == pytest.approx(want.total, abs=1e-9)


def test_inn_auto_uses_exact_on_small_instances():
    rng = np.random.default_rng(5)
    for _ in range(40):
        inst = random_instance(rng)
        auto = inn_solve(inst)
        exact = inn_solve(inst, "exact")
        assert auto.total == pytest.approx(exact.total, abs=1e-9)


def test_inn_heuristic_labels_stay_in_pruned_set():
    rng = np.random.default_rng(9)
    for kind in ("icm", "rplus"):
        for _ in range(15):
            inst = random_instance(rng)
            a = inn_solve(inst, kind)
            pl = pruned_label_set(inst)
            assert set(int(i) for i in a.idx) <= set(int(i) for i in pl.label_idx)
            assert cost(inst, a.idx).total == pytest.approx(a.total, abs=1e-9)


def test_inn_solution_never_beats_full_opt(sweep):
    for item in sweep.items[:100]:
        a = inn_solve(item.inst, "exact")
        assert a.total >= item.opt.total - 1e-9


@pytest.mark.parametrize("lo, hi, dim", [(-5, 5, 2), (-300, -250, 3), (-1, 0, 1)])
def test_lattice_pruned_labels_are_sorted_and_indexed_by_nn_pos(lo, hi, dim):
    rng = np.random.default_rng(lo + 1000)
    queries = rng.uniform(lo - 3, hi + 3, size=(200, dim))
    inst = make_instance(EuclideanSpace(dim), LatticeBox(lo, hi, dim), queries)
    pl = pruned_label_set(inst)
    pts = pl.label_points
    nn = lattice_nn_map(inst.labels, queries)
    assert np.array_equal(pts[pl.nn_pos], nn)
    # distinct and in lexicographic order
    assert [tuple(p) for p in pts.tolist()] == sorted({tuple(p) for p in nn.tolist()})


def test_inn_lattice_instance():
    sp = EuclideanSpace(3)
    box = LatticeBox(0, 255, 3)
    rng = np.random.default_rng(2)
    queries = rng.uniform(0, 255, (4, 3))
    inst = make_instance(sp, box, queries, edges=[(0, 1), (1, 2), (2, 3)])
    a = inn_solve(inst)
    assert a.idx is None
    assert a.points.shape == (4, 3)
    assert box.contains(a.points)


def test_inn_auto_beyond_exact_range_on_a_matrix_metric():
    # 12 queries is past auto's exact range, yet 3^12 labelings fit the guard
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 10, (15, 2))
    space = MatrixSpace(np.linalg.norm(pts[:, None] - pts[None], axis=2))
    inst = make_instance(space, np.arange(3), np.arange(3, 15), edges=grid_graph(3, 4))
    a = inn_solve(inst)
    assert set(a.idx.tolist()) <= set(pruned_label_set(inst).label_idx.tolist())
    assert cost(inst, a.idx).total == pytest.approx(a.total, abs=1e-9)
    assert a.total >= brute_force_opt(inst).total - 1e-9


def test_stage2_solver_validation():
    inst = random_instance(np.random.default_rng(0))
    for kind in ("simulated-annealing", "tree"):
        with pytest.raises(ValueError, match="unknown stage-2 solver"):
            inn_solve(inst, kind)

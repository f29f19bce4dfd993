from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import oracles
from snnkit import treesolve
from snnkit.core import brute_force_opt, cost, cost_points, make_instance, nn_label_map
from snnkit.denoise import NoiseConfig, add_noise, pixel_instance
from snnkit.generators import cartoon_fixture, random_instance
from snnkit.graphs import CompatGraph, grid_graph
from snnkit.inn import inn_solve, pruned_label_set
from snnkit.metric import EuclideanSpace, LatticeBox, MatrixSpace
from snnkit.nn import NnIndex, lattice_nn_map
from snnkit.treemetric import build_tree_metric
from snnkit.treesolve import euclidean_refine, relax


def icm(inst):
    return inn_solve(inst, "icm")


def euclidean_only(rng, **kw):
    while True:
        inst = random_instance(rng, **kw)
        if inst.space.kind == "euclidean":
            return inst


def test_solution_is_valid_and_consistent():
    rng = np.random.default_rng(21)
    for _ in range(40):
        inst = euclidean_only(rng)
        a = icm(inst)
        assert len(a.idx) == inst.k
        assert np.all(a.idx >= 0) and np.all(a.idx < inst.n_labels)
        assert cost(inst, a.idx).total == pytest.approx(a.total, abs=1e-9)


def test_solution_never_beats_optimum():
    rng = np.random.default_rng(22)
    for _ in range(40):
        inst = euclidean_only(rng)
        opt = brute_force_opt(inst)
        a = icm(inst)
        assert a.total >= opt.total - 1e-9


def test_well_separated_clusters_are_solved_exactly():
    # queries hug their own label and the graph only links within a
    # cluster, so the optimum is the per-query nearest label
    sp = EuclideanSpace(2)
    labels = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
    queries = np.array([[0.5, 0.2], [0.1, 0.4],
                        [100.2, 0.3], [99.8, 0.1]])
    inst = make_instance(sp, labels, queries, edges=[(0, 1), (2, 3)])
    a = icm(inst)
    opt = brute_force_opt(inst)
    assert a.idx.tolist() == [0, 0, 1, 1]
    assert a.total == pytest.approx(opt.total, abs=1e-9)


def test_smoothing_pull_wins_on_tight_chain():
    # a chain of queries between two far labels: collapsing to one label
    # beats the mixed assignment, and the heuristic should find a
    # single-label answer
    sp = EuclideanSpace(1)
    labels = np.array([[0.0], [10.0]])
    queries = np.array([[4.0], [5.0], [6.0]])
    inst = make_instance(sp, labels, queries,
                         edges=[(0, 1), (1, 2)])
    a = icm(inst)
    assert len(set(a.idx.tolist())) == 1
    assert a.total == pytest.approx(brute_force_opt(inst).total)


def test_same_seed_is_deterministic():
    inst = euclidean_only(np.random.default_rng(30))
    a, b = icm(inst), icm(inst)
    assert a.idx.tolist() == b.idx.tolist()
    assert a.total == b.total


def test_refine_never_increases_cost():
    rng = np.random.default_rng(31)
    for _ in range(40):
        inst = euclidean_only(rng)
        start = rng.integers(0, inst.n_labels, inst.k)
        before = cost(inst, start).total
        ref = euclidean_refine(inst, start)
        assert ref.total <= before + 1e-9
        assert cost(inst, ref.idx).total == pytest.approx(ref.total, abs=1e-9)


@pytest.mark.parametrize("graph, bipartite", [
    (grid_graph(3, 3), True),                                    # moves a color class at once
    (CompatGraph.from_pairs(5, [(i, (i + 1) % 5) for i in range(5)]), False),  # one query at a time
], ids=["grid3x3", "cycle5"])
def test_refine_ends_where_no_single_move_helps(graph, bipartite, monkeypatch):
    monkeypatch.setattr(treesolve, "_PASSES", 100)
    assert (graph.two_coloring() is not None) == bipartite
    rng = np.random.default_rng(31)
    k = graph.n
    for _ in range(25):
        labels = rng.uniform(0, 10, size=(int(rng.integers(2, 9)), 2))
        inst = make_instance(EuclideanSpace(2), labels, rng.uniform(0, 10, size=(k, 2)),
                             graph, kappa=rng.uniform(0.2, 2.0, size=k),
                             lam=rng.uniform(0.2, 2.0, size=graph.num_entries))
        a = euclidean_refine(inst, rng.integers(0, len(labels), size=k))
        for q in range(k):
            for lab in range(len(labels)):
                moved = a.idx.copy()
                moved[q] = lab
                assert cost(inst, moved).total >= a.total - 1e-9


# the bipartite and the one-at-a-time ICM under pass caps; parallel rows
# exercise collapsed weights.  The 10-pass cases keep the bare graph ids.
ICM_CASES = [pytest.param(rows, passes, id=name if passes == 10 else f"{name}-{passes}pass")
             for passes in (1, 2, 10) for name, rows in (
                 ("grid4x3", grid_graph(4, 3).edges.tolist() + [[1, 2, 2], [5, 9, 1]]),
                 ("cycle5", [[i, i + 1, 1] for i in range(4)] + [[0, 4, 1], [1, 2, 3]]))]


@pytest.mark.parametrize("rows, passes", ICM_CASES)
def test_refine_matches_the_loop_icm_oracle(rows, passes, monkeypatch):
    monkeypatch.setattr(treesolve, "_PASSES", passes)
    # repeated label points make ties
    graph = CompatGraph(1 + max(max(r[:2]) for r in rows), np.array(rows))
    k = graph.n
    rng = np.random.default_rng(44)
    for _ in range(30):
        base = rng.uniform(0, 10, size=(int(rng.integers(2, 7)), 2))
        labels = base[rng.integers(0, len(base), size=len(base) + 3)]
        queries = rng.uniform(0, 10, size=(k, 2))
        kappa = rng.uniform(0.2, 2.0, size=k)
        lam = rng.uniform(0.2, 3.0, size=graph.num_entries)
        inst = make_instance(EuclideanSpace(2), labels, queries, graph, kappa=kappa, lam=lam)
        start = rng.integers(0, len(labels), size=k)
        want = oracles.icm(oracles.euclid, queries.tolist(), labels.tolist(), rows,
                           kappa, lam, start.tolist(), passes=passes)
        assert euclidean_refine(inst, start).idx.tolist() == want


@pytest.mark.parametrize("rows, passes", ICM_CASES)
def test_lattice_refine_matches_the_loop_oracle(rows, passes, monkeypatch):
    monkeypatch.setattr(treesolve, "_PASSES", passes)
    # queries partly off the box; starts anywhere in it
    graph = CompatGraph(1 + max(max(r[:2]) for r in rows), np.array(rows))
    k = graph.n
    rng = np.random.default_rng(45)
    for _ in range(30):
        dim = int(rng.integers(1, 4))
        box = LatticeBox(0, int(rng.integers(1, 8)), dim)
        queries = rng.uniform(-1.0, box.hi + 1.0, size=(k, dim))
        kappa = rng.uniform(0.2, 2.0, size=k)
        lam = rng.uniform(0.2, 3.0, size=graph.num_entries)
        inst = make_instance(EuclideanSpace(dim), box, queries, graph, kappa=kappa, lam=lam)
        start = rng.integers(0, box.hi + 1, size=(k, dim))
        want = oracles.lattice_icm(queries.tolist(), box.lo, box.hi, rows, kappa, lam,
                                   start.tolist(), passes=passes)
        assert euclidean_refine(inst, start).points.tolist() == want


def test_refine_fixes_an_obvious_mistake():
    sp = EuclideanSpace(1)
    inst = make_instance(sp, np.array([[0.0], [9.0]]), np.array([[0.1], [0.2]]))
    ref = euclidean_refine(inst, np.array([1, 1]))
    assert ref.idx.tolist() == [0, 0]


def test_bipartite_grid_instance_runs():
    # 3x3 grid of queries is two-colorable; exercises the checkerboard
    # descent path
    sp = EuclideanSpace(2)
    rng = np.random.default_rng(8)
    queries = rng.uniform(0, 10, (9, 2))
    labels = rng.uniform(0, 10, (5, 2))
    inst = make_instance(sp, labels, queries, edges=grid_graph(3, 3))
    a = icm(inst)
    assert a.total >= brute_force_opt(inst).total - 1e-9


def test_odd_cycle_instance_runs():
    sp = EuclideanSpace(2)
    rng = np.random.default_rng(9)
    queries = rng.uniform(0, 10, (5, 2))
    labels = rng.uniform(0, 10, (4, 2))
    edges = [(i, (i + 1) % 5) for i in range(5)]
    inst = make_instance(sp, labels, queries, edges=edges)
    a = icm(inst)
    assert cost(inst, a.idx).total == pytest.approx(a.total, abs=1e-9)


def relaxed_cube_solve(inst):
    """The cube path of denoise_pixels: relax, round, refine."""
    x, lb = relax(inst)
    rounded = lattice_nn_map(inst.labels, x)
    return euclidean_refine(inst, rounded), rounded, lb


def test_lattice_solve_returns_points_in_box():
    sp = EuclideanSpace(3)
    box = LatticeBox(0, 255, 3)
    rng = np.random.default_rng(10)
    queries = rng.uniform(0, 255, (16, 3))
    inst = make_instance(sp, box, queries, edges=grid_graph(4, 4))
    x, lb = relax(inst)
    assert x.shape == (16, 3)
    assert np.all(x >= 0) and np.all(x <= 255)
    a, _, _ = relaxed_cube_solve(inst)
    assert a.idx is None
    assert a.points.shape == (16, 3)
    assert box.contains(a.points)
    assert np.all(a.points == np.floor(a.points))
    assert lb <= a.total


def test_matrix_space_rejected():
    rng = np.random.default_rng(13)
    while True:
        inst = random_instance(rng)
        if inst.space.kind != "euclidean":
            break
    with pytest.raises(ValueError):
        relax(inst)
    # a finite space over a lattice label box is refused too
    lat = make_instance(MatrixSpace(np.zeros((1, 1))), LatticeBox(0, 3, 1),
                        np.array([0]))
    with pytest.raises(ValueError):
        relax(lat)


def test_tree_backends_reject_explicit_labels():
    inst = euclidean_only(np.random.default_rng(14))
    with pytest.raises(ValueError):
        build_tree_metric(inst.labels, 1)
    with pytest.raises(ValueError):
        relax(inst)


def tiny_lattice_instance(rng):
    """A random instance over a lattice box small enough to enumerate."""
    dim = int(rng.integers(1, 3))
    lo = int(rng.integers(-2, 2))
    box = LatticeBox(lo, lo + int(rng.integers(1, 4 if dim == 1 else 2)), dim)
    k = int(rng.integers(2, 6))
    pairs = [(i, j, int(rng.integers(1, 3))) for i in range(k) for j in range(i + 1, k)
             if rng.random() < 0.6]
    # queries reach past the box on every side; some edges weigh nothing
    queries = rng.uniform(box.lo - 3, box.hi + 3, (k, dim))
    lam = rng.uniform(0.0, 3.0, len(pairs)) * (rng.random(len(pairs)) < 0.8)
    return make_instance(EuclideanSpace(dim), box, queries, edges=pairs,
                         kappa=rng.uniform(0.0, 2.0, k), lam=lam)


@pytest.mark.parametrize("iters", [5, 50, 400])
def test_relax_lower_bound_never_exceeds_the_lattice_optimum(iters, monkeypatch):
    # every dual iterate certifies, so the bound holds at any budget
    monkeypatch.setattr(treesolve, "_RELAX_ITERS", iters)
    rng = np.random.default_rng(17)
    for _ in range(100):
        inst = tiny_lattice_instance(rng)
        _, lb = relax(inst)
        assert lb <= brute_force_opt(inst).total


@pytest.mark.parametrize("iters", [1, 5, 50])
def test_relax_matches_the_loop_oracle(iters, monkeypatch):
    monkeypatch.setattr(treesolve, "_RELAX_ITERS", iters)
    rng = np.random.default_rng(29)
    dims, weightless, off_box = set(), False, False
    for _ in range(60):
        inst = tiny_lattice_instance(rng)
        box = inst.labels
        x, _ = relax(inst)
        want = oracles.relax(inst.queries.tolist(), box.lo, box.hi, inst.graph.edges.tolist(),
                             inst.kappa.tolist(), inst.lam.tolist(), iters)
        np.testing.assert_allclose(x, want, rtol=0, atol=1e-9)
        dims.add(box.dim)
        weightless |= bool((inst.lam == 0).any())
        off_box |= bool(((inst.queries < box.lo) | (inst.queries > box.hi)).any())
    assert dims == {1, 2} and weightless and off_box


@pytest.mark.parametrize("shape", [(40, d) for d in range(1, 8)] + [(6, 5, d) for d in (1, 3, 7)])
def test_norms_equal_numpy_norms(shape):
    rng = np.random.default_rng(sum(shape))
    a = rng.standard_normal(shape) * rng.choice([1.0, 1e-300, 1e150], size=shape[:-1] + (1,))
    a[0] = 0.0
    a[-1, ..., 0] = 0.0
    assert np.array_equal(treesolve._norms(a), np.linalg.norm(a, axis=-1))
    out = np.empty(shape[:-1])
    assert treesolve._norms(a, out=out) is out
    assert np.array_equal(out, np.linalg.norm(a, axis=-1))


def test_relax_lower_bound_closes_in_one_dimension():
    # with integer queries in a 1-D box the relaxation has an integer
    # optimum, so a converged bound meets the lattice optimum
    rng = np.random.default_rng(19)
    ratios = []
    for _ in range(50):
        k = int(rng.integers(2, 7))
        box = LatticeBox(0, int(rng.integers(2, 6)), 1)
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k) if rng.random() < 0.6]
        queries = rng.integers(box.lo, box.hi + 1, (k, 1)).astype(float)
        inst = make_instance(EuclideanSpace(1), box, queries, edges=pairs,
                             kappa=rng.uniform(0.1, 2.0, k),
                             lam=rng.uniform(0.1, 3.0, len(pairs)))
        _, lb = relax(inst)
        opt = brute_force_opt(inst).total
        assert lb <= opt
        if opt > 0:
            ratios.append(lb / opt)
    assert np.median(ratios) > 0.99


def test_relax_lower_bound_closes_with_queries_off_the_box():
    # in one dimension the separable row bound is each row's exact minimum,
    # so the bound stays tight where queries lie outside the box
    rng = np.random.default_rng(23)
    ratios = []
    for _ in range(100):
        k = int(rng.integers(2, 7))
        box = LatticeBox(0, int(rng.integers(1, 6)), 1)
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k) if rng.random() < 0.6]
        queries = rng.integers(-3, 9, (k, 1)).astype(float)
        inst = make_instance(EuclideanSpace(1), box, queries, edges=pairs,
                             kappa=rng.uniform(0.1, 2.0, k),
                             lam=rng.uniform(0.1, 3.0, len(pairs)))
        _, lb = relax(inst)
        opt = brute_force_opt(inst).total
        assert lb <= opt
        if opt > 0:
            ratios.append(lb / opt)
    assert min(ratios) >= 0.99


def test_refine_never_costs_more_than_the_rounded_relaxation():
    rng = np.random.default_rng(18)
    for _ in range(30):
        inst = tiny_lattice_instance(rng)
        a, rounded, lb = relaxed_cube_solve(inst)
        assert a.total <= cost_points(inst, rounded).total + 1e-9
        assert lb <= a.total


def nearest_label_start(inst):
    """Stage-1 nearest-label map as ids into the pruned set, that set, and
    the map's label points."""
    pl = pruned_label_set(inst)
    nn = nn_label_map(inst)
    if inst.has_explicit_labels:
        ids = pl.label_idx.tolist()
        return np.array([ids.index(i) for i in nn.tolist()]), pl, inst.labels[nn]
    rows = [tuple(p) for p in pl.label_points.tolist()]
    return np.array([rows.index(tuple(p)) for p in nn.tolist()]), pl, nn


def lattice_instance(rng):
    box = LatticeBox(0, 7, 2)
    return make_instance(EuclideanSpace(2), box, rng.uniform(-1, 8, (12, 2)),
                         edges=grid_graph(4, 3), kappa=rng.uniform(0.2, 2.0, 12))


def test_icm_is_refine_from_the_pruned_nearest_label_map():
    rng = np.random.default_rng(15)
    for t in range(50):
        inst = lattice_instance(rng) if t % 5 == 0 else random_instance(rng, max_queries=10)
        start, pl, near = nearest_label_start(inst)
        assert (pl.label_points[start] == near).all()
        want = euclidean_refine(replace(inst, labels=pl.label_points), start)
        got = icm(inst)
        assert (got.points == want.points).all()
        assert got.total == want.total
        if inst.has_explicit_labels:
            assert got.idx.tolist() == pl.label_idx[want.idx].tolist()


def test_icm_never_costs_more_than_the_nearest_label_map():
    rng = np.random.default_rng(16)
    for t in range(50):
        if t % 5 == 0:
            inst = lattice_instance(rng)
            start = cost_points(inst, nn_label_map(inst))
        else:
            inst = random_instance(rng, max_queries=10)
            start = cost(inst, nn_label_map(inst))
        assert icm(inst).total <= start.total + 1e-9


def test_icm_on_a_large_palette_starts_from_the_cheaper_of_two_maps():
    # 575 pruned colors, past the relaxation's iteration count: ICM starts
    # from the relaxed colors' nearest pruned colors when those cost less
    noisy = add_noise(cartoon_fixture(24, 24), NoiseConfig(kind="gaussian", seed=42))
    inst = pixel_instance(noisy, "full")
    pl = pruned_label_set(inst)
    assert len(pl.label_points) > treesolve._RELAX_ITERS
    sub = replace(inst, labels=pl.label_points)
    x, _ = relax(inst)
    starts = [pl.nn_pos, NnIndex(inst.space, pl.label_points).nn_map(x)]
    cheaper = min(starts, key=lambda s: cost(sub, s).total)   # a tie keeps the first
    got = icm(inst)
    assert {tuple(p) for p in got.points.tolist()} <= {tuple(p) for p in pl.label_points.tolist()}
    assert got.total <= min(cost(sub, s).total for s in starts) + 1e-9
    want = euclidean_refine(sub, cheaper)
    assert (got.points == want.points).all()
    assert got.total == want.total
    assert got.total < euclidean_refine(sub, pl.nn_pos).total - 1e-9


def test_solvers_leave_the_instance_arrays_unchanged():
    rng = np.random.default_rng(33)
    noisy = add_noise(cartoon_fixture(24, 24), NoiseConfig(kind="gaussian", seed=3))
    cube = pixel_instance(noisy, "full")
    assert len(pruned_label_set(cube).label_points) > treesolve._RELAX_ITERS  # ICM starts from relax
    explicit = euclidean_only(rng)
    explicit = replace(explicit, queries=explicit.queries.astype(float))
    for inst in (lattice_instance(rng), cube, explicit):
        assert np.asarray(inst.queries, dtype=float) is inst.queries
        arrays = [inst.queries, inst.kappa, inst.lam]
        arrays += [] if isinstance(inst.labels, LatticeBox) else [inst.labels]
        before = [a.copy() for a in arrays]
        if isinstance(inst.labels, LatticeBox):
            x, _ = relax(inst)
            euclidean_refine(inst, lattice_nn_map(inst.labels, x))
        else:
            euclidean_refine(inst, rng.integers(0, inst.n_labels, inst.k))
        icm(inst)
        assert all(np.array_equal(a, b) for a, b in zip(arrays, before))

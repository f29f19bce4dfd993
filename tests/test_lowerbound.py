from __future__ import annotations

import numpy as np
import pytest

from snnkit.core import brute_force_opt
from snnkit.exact import pruning_gap
from snnkit.lowerbound import (LowerBoundParams, attachment_cost,
                               build_lower_bound_instance,
                               default_multiplicity)


def test_params_validation():
    with pytest.raises(ValueError):
        LowerBoundParams(k=5, d=3)        # k*d odd, no regular graph
    with pytest.raises(ValueError):
        LowerBoundParams(k=3, d=3)        # k must exceed d
    with pytest.raises(ValueError):
        LowerBoundParams(k=4, d=3, multiplicity=0)


def test_default_multiplicity_values():
    assert default_multiplicity(2) == 1
    for k in (4, 6, 8, 12, 16):
        assert default_multiplicity(k) == 2
    assert default_multiplicity(32) == 3
    assert default_multiplicity(64) == 3


def test_instance_structure():
    p = LowerBoundParams(k=6, d=3, multiplicity=2, seed=1)
    inst = build_lower_bound_instance(p)
    assert inst.k == 6
    assert inst.n_labels == 12
    assert inst.graph.num_entries == 6 * 3 // 2
    assert np.all(inst.graph.edges[:, 2] == 2)
    # every query touches d edge entries, each of multiplicity m
    assert inst.graph.degrees().tolist() == [3 * 2] * 6
    assert inst.unweighted


def test_leaf_edges_have_multiplicity_weight():
    p = LowerBoundParams(k=4, d=3, multiplicity=2, seed=42)
    inst = build_lower_bound_instance(p)
    M = inst.space.matrix
    for i in range(4):
        # leaf i (vertex 4+i) hangs off core vertex i at distance m
        assert M[i, 4 + i] == pytest.approx(2.0)
        # all other core vertices are one hop further
        for j in range(4):
            if j != i:
                assert M[4 + i, j] == pytest.approx(3.0)


def test_same_seed_same_instance():
    p = LowerBoundParams(k=8, d=3, multiplicity=2, seed=3)
    a = build_lower_bound_instance(p)
    b = build_lower_bound_instance(p)
    assert (a.graph.edges == b.graph.edges).all()
    assert np.allclose(a.space.matrix, b.space.matrix)


def test_k4_gap_worked_example():
    # with k=4, d=3 the core is K4.  Sending every query to one core
    # vertex costs m + 3*(m+1) = 11; that is optimal.  Restricted to the
    # leaves, collapsing onto one leaf costs 3*(2m+1) = 15.  At k=8 the
    # 16^8 labelings are past enumeration; branch and bound gives 27 -> 39.
    for k, opt_full, opt_pruned in ((4, 11.0, 15.0), (8, 27.0, 39.0)):
        p = LowerBoundParams(k=k, d=3, multiplicity=2, seed=42)
        rep = pruning_gap(build_lower_bound_instance(p))
        assert rep.opt_full == pytest.approx(opt_full)
        assert rep.opt_pruned == pytest.approx(opt_pruned)
        assert rep.alpha == pytest.approx(opt_pruned / opt_full)


def test_attachment_cost_upper_bounds_opt():
    for k, seed in ((4, 42), (6, 7)):
        p = LowerBoundParams(k=k, d=3, multiplicity=2, seed=seed)
        inst = build_lower_bound_instance(p)
        opt = brute_force_opt(inst)
        assert opt.total <= attachment_cost(p) + 1e-9
    assert attachment_cost(LowerBoundParams(k=4, d=3, multiplicity=2)) == \
        pytest.approx(4 * 2 + 4 * 3 * 2 / 2)

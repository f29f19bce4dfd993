from __future__ import annotations

import numpy as np
import pytest

from oracles import zero_ext_enum
from snnkit.core import brute_force_opt, make_instance
from snnkit.generators import random_instance
from snnkit.metric import EuclideanSpace, MatrixSpace
from snnkit.zeroext import (ZeroExtInstance, back_translate,
                            snn_to_zero_extension, zero_ext_cost,
                            zero_ext_exact)


def small_zero_ext():
    sp = MatrixSpace(np.array([[0.0, 2.0, 3.0],
                               [2.0, 0.0, 1.0],
                               [3.0, 1.0, 0.0]]))
    # terminals 0..2, free vertices 3..4
    edges = np.array([[0, 3, 1.0], [3, 4, 2.0], [4, 2, 1.0], [1, 3, 0.5]])
    return ZeroExtInstance(space=sp, terminal_points=np.array([0, 1, 2]),
                           n_free=2, edges=edges)


def test_terminals_map_to_themselves():
    z = small_zero_ext()
    f, c = zero_ext_exact(z)
    assert f[:3].tolist() == [0, 1, 2]


def test_exact_matches_pure_enumeration():
    z = small_zero_ext()
    f, c = zero_ext_exact(z)
    ref_f, ref_c = zero_ext_enum(z.terminal_dists().tolist(),
                                 [tuple(e) for e in z.edges], 3, 2)
    assert c == pytest.approx(ref_c, abs=1e-9)
    assert f.tolist() == ref_f
    assert zero_ext_cost(z, f) == pytest.approx(c, abs=1e-9)


def test_exact_matches_enumeration_random():
    rng = np.random.default_rng(13)
    for _ in range(25):
        t = int(rng.integers(2, 5))
        fr = int(rng.integers(1, 4))
        pts = rng.uniform(0, 5, (t, 2))
        sp = EuclideanSpace(2)
        n = t + fr
        edges = []
        for _ in range(int(rng.integers(1, 7))):
            u, v = rng.integers(0, n, 2)
            if u != v:
                edges.append((int(u), int(v), float(rng.uniform(0.1, 2.0))))
        if not edges:
            edges = [(0, t, 1.0)]
        z = ZeroExtInstance(space=sp, terminal_points=pts, n_free=fr,
                            edges=np.array(edges, dtype=float))
        f, c = zero_ext_exact(z)
        ref_f, ref_c = zero_ext_enum(z.terminal_dists().tolist(), edges, t, fr)
        assert c == pytest.approx(ref_c, abs=1e-9)
        assert f.tolist() == ref_f


def test_reduction_structure():
    sp = EuclideanSpace(1)
    inst = make_instance(sp, np.array([[0.0], [10.0]]),
                         np.array([[1.0], [9.0]]), edges=[(0, 1, 2)])
    z = snn_to_zero_extension(inst)
    assert z.n_terminals == 2
    assert z.n_free == 2
    # one lifted compat edge with weight = multiplicity, two unit nn edges
    w = sorted(z.edges[:, 2].tolist())
    assert w == [1.0, 1.0, 2.0]


def test_reduction_back_translation_worked_example():
    sp = EuclideanSpace(1)
    inst = make_instance(sp, np.array([[0.0], [10.0]]),
                         np.array([[1.0], [9.0]]), edges=[(0, 1)])
    z = snn_to_zero_extension(inst)
    f, c = zero_ext_exact(z)
    assert c == pytest.approx(10.0)
    assert f.tolist() == [0, 1, 0, 0]
    a = back_translate(inst, f)
    opt = brute_force_opt(inst).total
    assert a.total == pytest.approx(10.0)
    assert a.total <= 3 * opt + 1e-9


def test_back_translation_bound_random(sweep):
    for item in sweep.items[:150]:
        z = snn_to_zero_extension(item.inst)
        f, _ = zero_ext_exact(z)
        a = back_translate(item.inst, f)
        assert a.total <= 3 * item.opt.total + 1e-9


def test_validation():
    sp = EuclideanSpace(2)
    with pytest.raises(ValueError):
        ZeroExtInstance(space=sp, terminal_points=np.zeros((0, 2)), n_free=1,
                        edges=np.array([[0, 0, 1.0]]))
    with pytest.raises(ValueError):
        ZeroExtInstance(space=sp, terminal_points=np.zeros((2, 2)), n_free=1,
                        edges=np.array([[0, 1, -1.0]]))
    with pytest.raises(ValueError):
        ZeroExtInstance(space=sp, terminal_points=np.zeros((2, 2)), n_free=1,
                        edges=np.array([[0, 3, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_is_refused(bad):
    sp = EuclideanSpace(2)
    with pytest.raises(ValueError, match="finite"):
        ZeroExtInstance(space=sp, terminal_points=np.zeros((2, 2)), n_free=1,
                        edges=np.array([[0, 2, bad]]))
    with pytest.raises(ValueError, match="finite"):
        ZeroExtInstance(space=sp, terminal_points=np.array([[0.0, bad], [1.0, 1.0]]),
                        n_free=1, edges=np.array([[0, 2, 1.0]]))


def test_instance_rebuilt_from_plain_lists_keeps_its_costs():
    inst = make_instance(EuclideanSpace(1), np.array([[0.0], [10.0]]),
                         np.array([[1.0], [9.0]]), edges=[(0, 1)])
    z = snn_to_zero_extension(inst)
    back = ZeroExtInstance(space=z.space, terminal_points=z.terminal_points.tolist(),
                           n_free=z.n_free, edges=z.edges.tolist())
    assert (back.terminal_points == z.terminal_points).all()
    assert (back.edges == z.edges).all()
    f = [0, 1, 0, 0]
    assert zero_ext_cost(back, f) == zero_ext_cost(z, f) == 10.0


@pytest.mark.parametrize("edge", [[0.5, 2, 1.0], [0, 2.5, 1.0]], ids=["u", "v"])
def test_non_integer_endpoints_are_refused(edge):
    with pytest.raises(ValueError, match="must be integers"):
        ZeroExtInstance(space=EuclideanSpace(1), terminal_points=[[0.0], [1.0]], n_free=1,
                        edges=[edge])

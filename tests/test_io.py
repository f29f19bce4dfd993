from __future__ import annotations

import copy

import numpy as np
import pytest

from snnkit.core import brute_force_opt, make_instance
from snnkit.generators import random_instance
from snnkit.io import (assignment_to_dict, instance_from_dict,
                       instance_to_dict, load_instance, load_json,
                       save_instance, save_json, zeroext_from_dict,
                       zeroext_to_dict)
from snnkit.metric import EuclideanSpace, LatticeBox
from snnkit.zeroext import snn_to_zero_extension, zero_ext_cost


def same_instance(a, b):
    assert a.k == b.k
    assert (a.graph.edges == b.graph.edges).all()
    assert np.allclose(a.kappa, b.kappa)
    assert np.allclose(a.lam, b.lam)
    assert np.allclose(a.queries, b.queries)
    if a.has_explicit_labels:
        assert np.allclose(a.labels, b.labels)
    else:
        assert a.labels == b.labels


def test_instance_round_trip_all_space_kinds(tmp_path):
    rng = np.random.default_rng(1)
    for i in range(12):
        inst = random_instance(rng, weighted=bool(i % 2))
        p = tmp_path / f"i{i}.json"
        save_instance(p, inst)
        back = load_instance(p)
        same_instance(inst, back)
        # costs agree after the round trip
        assert brute_force_opt(back).total == pytest.approx(
            brute_force_opt(inst).total, abs=1e-9)


def test_lattice_instance_round_trip(tmp_path):
    inst = make_instance(EuclideanSpace(3), LatticeBox(0, 255, 3),
                         np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
                         edges=[(0, 1)])
    p = tmp_path / "lat.json"
    save_instance(p, inst)
    back = load_instance(p)
    same_instance(inst, back)


def test_zeroext_round_trip(tmp_path):
    inst = make_instance(EuclideanSpace(1), np.array([[0.0], [10.0]]),
                         np.array([[1.0], [9.0]]), edges=[(0, 1)])
    z = snn_to_zero_extension(inst)
    p = tmp_path / "z.json"
    save_json(p, zeroext_to_dict(z))
    back = zeroext_from_dict(load_json(p))
    f = [0, 1, 0, 0]
    assert zero_ext_cost(back, f) == pytest.approx(zero_ext_cost(z, f))
    assert back.n_free == z.n_free


@pytest.mark.parametrize("field, bad", [("edges", [[0, 2, float("nan")]]),
                                        ("edges", [[0, 2, float("inf")]]),
                                        ("terminals", [[float("nan")], [1.0]])])
def test_zeroext_from_dict_refuses_non_finite_input(field, bad):
    d = {"schema": "zero-extension-instance/1", "space": {"kind": "euclidean", "dim": 1},
         "terminals": [[0.0], [1.0]], "n_free": 1, "edges": [[0, 2, 1.0]]}
    zeroext_from_dict(d)
    with pytest.raises(ValueError, match="finite"):
        zeroext_from_dict({**d, field: bad})


_EUCLID = {"schema": "snn-instance/1", "space": {"kind": "euclidean", "dim": 1},
           "labels": {"lattice": {"lo": 0, "hi": 3, "dim": 1}},
           "queries": [[0.5], [2.0]], "edges": [[0, 1, 2]]}
_MATRIX = {"schema": "snn-instance/1",
           "space": {"kind": "explicit-matrix", "matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
           "labels": [0, 1], "queries": [2, 1], "edges": [[0, 1]]}


@pytest.mark.parametrize("base, keys, bad", [
    (_EUCLID, ("edges",), [[0, 1.7]]),
    (_EUCLID, ("edges",), [[0, 1, 2.5]]),
    (_EUCLID, ("edges",), [[False, True]]),
    (_EUCLID, ("space", "dim"), 1.5),
    (_EUCLID, ("labels", "lattice", "lo"), 0.5),
    (_EUCLID, ("labels", "lattice", "dim"), True),
    (_MATRIX, ("labels",), [0.5, 1]),
    (_MATRIX, ("queries",), [2, False]),
], ids=["endpoint", "multiplicity", "bool-endpoints", "dim", "lattice-lo", "lattice-dim",
        "label-id", "query-id"])
def test_instance_from_dict_refuses_non_integers(base, keys, bad):
    instance_from_dict(base)
    d = copy.deepcopy(base)
    *parents, last = keys
    target = d
    for key in parents:
        target = target[key]
    target[last] = bad
    with pytest.raises(ValueError, match="must be an integer"):
        instance_from_dict(d)


@pytest.mark.parametrize("field, bad", [("n_free", 1.5), ("n_free", True),
                                        ("space", {"kind": "euclidean", "dim": 1.5})],
                         ids=["n_free", "bool-n_free", "dim"])
def test_zeroext_from_dict_refuses_non_integers(field, bad):
    d = {"schema": "zero-extension-instance/1", "space": {"kind": "euclidean", "dim": 1},
         "terminals": [[0.0], [1.0]], "n_free": 1, "edges": [[0, 2, 1.0]]}
    zeroext_from_dict(d)
    with pytest.raises(ValueError, match="must be an integer"):
        zeroext_from_dict({**d, field: bad})


def test_assignment_dict_shape():
    inst = make_instance(EuclideanSpace(1), np.array([[0.0], [10.0]]),
                         np.array([[1.0], [9.0]]), edges=[(0, 1)])
    d = assignment_to_dict(brute_force_opt(inst), meta={"solver": "oracle"})
    assert d["schema"] == "snn-assignment/1"
    assert d["label_ids"] == [0, 0]
    assert d["labels"] == [[0.0], [0.0]]
    assert d["total"] == pytest.approx(10.0)
    assert d["solver"] == "oracle"


def test_bad_schema_rejected():
    with pytest.raises(ValueError):
        instance_from_dict({"schema": "who-knows/9"})


def test_dict_round_trip_without_files():
    inst = random_instance(np.random.default_rng(3))
    same_instance(inst, instance_from_dict(instance_to_dict(inst)))

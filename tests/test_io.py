from __future__ import annotations

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snnkit.core import brute_force_opt, make_instance
from snnkit.generators import random_instance
from snnkit.io import (assignment_to_dict, instance_from_dict,
                       instance_to_dict, load_instance, save_instance)
from snnkit.metric import EuclideanSpace, LatticeBox


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


def _set(doc, keys, value):
    """Put value at the key path keys of a JSON document."""
    *parents, last = keys
    for key in parents:
        doc = doc[key]
    doc[last] = value


_EUCLID = {"schema": "snn-instance/1", "space": {"kind": "euclidean", "dim": 1},
           "labels": {"lattice": {"lo": 0, "hi": 3, "dim": 1}},
           "queries": [[0.5], [2.0]], "edges": [[0, 1, 2]]}
_POINTS = {**_EUCLID, "labels": [[0.0], [1.0]]}
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
    _set(d, keys, bad)
    with pytest.raises(ValueError, match="must be an integer"):
        instance_from_dict(d)


@pytest.mark.parametrize("base, keys, bad", [
    (_POINTS, ("labels",), [[0.0], [True]]),
    (_POINTS, ("queries",), [[False], [2.0]]),
    (_POINTS, ("kappa",), [True, 1]),
    (_POINTS, ("lambda",), [True]),
    (_POINTS, ("kappa",), None),
    (_POINTS, ("queries",), [["0.5"], [2.0]]),
    (_MATRIX, ("space", "matrix"), [[0, 1, 2], [1, 0, True], [2, True, 0]]),
], ids=["label-coordinate", "query-coordinate", "kappa", "lambda", "null-kappa",
        "string-coordinate", "matrix-entry"])
def test_instance_from_dict_refuses_non_numbers(base, keys, bad):
    instance_from_dict(base)
    d = copy.deepcopy(base)
    _set(d, keys, bad)
    with pytest.raises(ValueError, match="must be numbers"):
        instance_from_dict(d)


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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_instance_dict_round_trips_exactly(seed, weighted):
    inst = random_instance(np.random.default_rng(seed), weighted=weighted)
    back = instance_from_dict(json.loads(json.dumps(instance_to_dict(inst))))
    # the dict holds every array of the instance, so equal dicts are equal instances
    assert instance_to_dict(back) == instance_to_dict(inst)


def _paths(obj, path=()):
    """Every position in a JSON document, as a key path."""
    if isinstance(obj, dict):
        items = obj.items()
    else:
        items = enumerate(obj) if isinstance(obj, list) else ()
    for key, val in items:
        yield path + (key,)
        yield from _paths(val, path + (key,))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.data())
def test_a_document_with_one_value_swapped_loads_the_same_or_is_refused(seed, weighted, data):
    inst = random_instance(np.random.default_rng(seed), weighted=weighted)
    if data.draw(st.booleans()):
        inst = make_instance(EuclideanSpace(2), LatticeBox(0, 9, 2), np.round(
            np.random.default_rng(seed).uniform(-1, 10, (3, 2)), 3), edges=[(0, 1), (1, 2)])
    d = json.loads(json.dumps(instance_to_dict(inst)))
    _set(d, data.draw(st.sampled_from(list(_paths(d)))),
         data.draw(st.one_of(st.booleans(), st.text(max_size=3), st.none(),
                             st.just(float("nan")))))
    try:
        back = instance_from_dict(d)
    except (ValueError, TypeError, KeyError):
        return
    assert instance_to_dict(back) == instance_to_dict(inst)

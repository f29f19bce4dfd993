"""JSON file formats for instances and results.

Every document carries a "schema" tag.  Graph-derived metrics are stored as
their materialized matrices, so files are self-contained.  Loading refuses
what the format does not state: booleans, strings or nulls where numbers
are due, and fractions where integers are.
"""
from __future__ import annotations

import json

import numpy as np

from .core import Assignment, SnnInstance, make_instance
from .graphs import CompatGraph, _as_int
from .metric import EuclideanSpace, LatticeBox, MatrixSpace

INSTANCE_SCHEMA = "snn-instance/1"
ASSIGNMENT_SCHEMA = "snn-assignment/1"
GAP_SCHEMA = "pruning-report/1"


def _space_to_dict(space) -> dict:
    if isinstance(space, EuclideanSpace):
        return {"kind": "euclidean", "dim": space.dim}
    if isinstance(space, MatrixSpace):
        return {"kind": space.kind, "matrix": space.matrix.tolist()}
    raise TypeError(f"cannot serialize space {space!r}")


def _numbers(obj, what: str) -> np.ndarray:
    """A JSON number or nested list of numbers as a float array."""
    a = np.asarray(obj, dtype=object)
    if not all(type(v) in (int, float) for v in a.reshape(-1)):
        raise ValueError(f"{what} must be numbers")
    return a.astype(float)


def _space_from_dict(d: dict):
    if not isinstance(d, dict):
        raise ValueError("space must be an object")
    kind = d.get("kind")
    if kind == "euclidean":
        return EuclideanSpace(_as_int(d["dim"], "dim"))
    if kind in ("explicit-matrix", "graph-shortest-path"):
        return MatrixSpace(_numbers(d["matrix"], "distances"), kind=kind)
    raise ValueError(f"unknown space kind {kind!r}")


def _points_to_list(space, pts):
    if isinstance(pts, LatticeBox):
        return {"lattice": {"lo": pts.lo, "hi": pts.hi, "dim": pts.dim}}
    a = np.asarray(pts)
    if isinstance(space, EuclideanSpace):
        return np.atleast_2d(a).tolist()
    return a.astype(int).reshape(-1).tolist()


def _points_from_list(space, obj):
    if isinstance(obj, dict) and "lattice" in obj:
        spec = obj["lattice"]
        return LatticeBox(*(_as_int(spec[f], f"lattice {f}") for f in ("lo", "hi", "dim")))
    if isinstance(space, EuclideanSpace):
        return _numbers(obj, "coordinates")
    return np.array([_as_int(v, "point id") for v in obj], dtype=np.int64)


def instance_to_dict(inst: SnnInstance) -> dict:
    return {
        "schema": INSTANCE_SCHEMA,
        "space": _space_to_dict(inst.space),
        "labels": _points_to_list(inst.space, inst.labels),
        "queries": _points_to_list(inst.space, inst.queries),
        "edges": inst.graph.edges.tolist(),
        "kappa": inst.kappa.tolist(),
        "lambda": inst.lam.tolist(),
    }


def instance_from_dict(d: dict) -> SnnInstance:
    if d.get("schema") != INSTANCE_SCHEMA:
        raise ValueError(f"expected schema {INSTANCE_SCHEMA}, got {d.get('schema')!r}")
    space = _space_from_dict(d["space"])
    labels = _points_from_list(space, d["labels"])
    queries = _points_from_list(space, d["queries"])
    k = len(queries)
    graph = CompatGraph.from_pairs(k, d.get("edges", []))
    kappa, lam = (_numbers(d[f], f) if f in d else None for f in ("kappa", "lambda"))
    return make_instance(space, labels, queries, graph, kappa=kappa, lam=lam)


def assignment_to_dict(a: Assignment, meta: dict | None = None) -> dict:
    d = {
        "schema": ASSIGNMENT_SCHEMA,
        "labels": np.asarray(a.points).tolist(),
        "label_ids": None if a.idx is None else np.asarray(a.idx).tolist(),
        "nn_cost": a.nn_cost,
        "pw_cost": a.pw_cost,
        "total": a.total,
    }
    if meta:
        d.update(meta)
    return d


def save_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def save_instance(path, inst: SnnInstance) -> None:
    save_json(path, instance_to_dict(inst))


def load_instance(path) -> SnnInstance:
    return instance_from_dict(load_json(path))


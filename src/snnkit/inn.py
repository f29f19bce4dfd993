"""Two-stage pipeline: nearest-label pruning, then solve over the survivors.

Stage 1 replaces the label set with the distinct nearest labels of the
queries (for lattice label spaces this is exactly the set of query colors
rounded to the lattice).  Stage 2 solves the joint objective restricted to
the pruned set.  inn_solve names the stage-2 method by a string from
KINDS: "exact" enumeration, "icm" (iterated conditional modes), "rplus"
(the orientation-based aggregate-NN solver), or "auto", which picks
between the first two by instance size.

ICM starts from the stage-1 nearest-label map.  On a Euclidean instance over
a lattice box whose pruned set keeps more labels than the convex
relaxation's iteration count, it starts instead from the relaxed labels'
nearest pruned labels, when that map costs strictly less: ICM then makes
fewer moves and stops lower.  Smaller palettes keep the nearest-label
start, as the relaxation would cost more than the ICM it saves.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (Assignment, DEFAULT_GUARD, SnnInstance, brute_force_opt, cost,
                   nn_label_map, unique_rows)
from .metric import LatticeBox
from .nn import NnIndex
from .sparse import rplus_solve
from .treesolve import _RELAX_ITERS, euclidean_refine, relax

_EXACT_MAX_K = 8
KINDS = ("auto", "exact", "icm", "rplus")


@dataclass(eq=False)
class PrunedLabels:
    """Outcome of stage 1.

    Query i's nearest label is label_points[nn_pos[i]]; on an explicit label
    set its id is label_idx[nn_pos[i]].
    """
    label_points: np.ndarray        # distinct survivors, id-sorted
    nn_pos: np.ndarray              # each query's nearest label, as a row of label_points
    label_idx: Optional[np.ndarray]  # survivor ids into the original labels (explicit only)


def pruned_label_set(inst: SnnInstance) -> PrunedLabels:
    nn = nn_label_map(inst)
    if inst.has_explicit_labels:
        uniq, pos = np.unique(nn, return_inverse=True)
        return PrunedLabels(label_points=inst.labels[uniq], nn_pos=pos, label_idx=uniq)
    pts, _, pos = unique_rows(nn)
    return PrunedLabels(label_points=pts.astype(float), nn_pos=pos, label_idx=None)


def _icm_start(inst: SnnInstance, sub: SnnInstance, pl: PrunedLabels) -> np.ndarray:
    """ICM's start, as rows of the pruned set sub.labels.

    The stage-1 nearest-label map, unless the instance is Euclidean over a
    lattice box and keeps more than _RELAX_ITERS labels: then the relaxed
    labels' nearest pruned labels, when they cost strictly less.  Below
    that size the relaxation's iterations would outweigh ICM's passes.
    """
    if (not isinstance(inst.labels, LatticeBox) or inst.space.kind != "euclidean"
            or len(pl.label_points) <= _RELAX_ITERS):
        return pl.nn_pos
    x, _ = relax(inst)
    seeded = NnIndex(inst.space, pl.label_points).nn_map(x)
    return seeded if cost(sub, seeded).total < cost(sub, pl.nn_pos).total else pl.nn_pos


def inn_solve(inst: SnnInstance, kind: str = "auto") -> Assignment:
    """Prune to nearest labels, then solve stage 2 by `kind`, one of KINDS.

    "auto" runs "exact" on at most 8 queries within the enumeration guard,
    and "icm" otherwise.  The returned labels are always drawn from the
    pruned set; their ids refer to the original instance when it has
    explicit labels.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown stage-2 solver {kind!r}")
    pl = pruned_label_set(inst)
    n_pruned = len(pl.label_points)

    if kind == "auto":
        feasible = inst.k <= _EXACT_MAX_K and n_pruned ** inst.k <= DEFAULT_GUARD
        kind = "exact" if feasible else "icm"

    if kind == "exact" and inst.has_explicit_labels:
        return brute_force_opt(inst, allowed=pl.label_idx)
    sub = replace(inst, labels=pl.label_points)
    if kind == "exact":
        a = brute_force_opt(sub)
    elif kind == "icm":
        a = euclidean_refine(sub, _icm_start(inst, sub, pl))
    else:  # rplus
        a = rplus_solve(sub)
    if inst.has_explicit_labels:
        return replace(a, idx=pl.label_idx[a.idx])
    return replace(a, idx=None)

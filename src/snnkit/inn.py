"""Two-stage pipeline: nearest-label pruning, then solve over the survivors.

Stage 1 replaces the label set with the distinct nearest labels of the
queries (for lattice label spaces this is exactly the set of query colors
rounded to the lattice).  Stage 2 solves the joint objective restricted to
the pruned set, by exact enumeration, by iterated conditional modes (ICM),
or by the orientation-based aggregate-NN solver.

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
from .graphs import orient_edges
from .metric import LatticeBox
from .nn import NnIndex
from .sparse import rplus_solve
from .treesolve import _RELAX_ITERS, euclidean_refine, relax

_EXACT_MAX_K = 8


@dataclass
class Stage2Solver:
    """Configuration of the second stage.

    kind "auto" picks exact enumeration for small instances (at most 8
    queries and within the enumeration guard) and ICM otherwise.  ICM
    starts from the nearest-label map, or from the convex relaxation's
    nearest pruned labels on large Euclidean lattice palettes (see the
    module docstring).
    """
    kind: str = "auto"

    def __post_init__(self):
        if self.kind not in ("auto", "exact", "icm", "rplus"):
            raise ValueError(f"unknown stage-2 solver {self.kind!r}")


@dataclass(eq=False)
class PrunedLabels:
    """Outcome of stage 1."""
    nn_points: np.ndarray           # nearest label point per query
    label_points: np.ndarray        # distinct survivors, id-sorted
    nn_pos: np.ndarray              # each query's nearest label, as a row of label_points
    nn_idx: Optional[np.ndarray]    # ids into the original labels (explicit only)
    label_idx: Optional[np.ndarray]


def pruned_label_set(inst: SnnInstance) -> PrunedLabels:
    nn = nn_label_map(inst)
    if inst.has_explicit_labels:
        uniq, pos = np.unique(nn, return_inverse=True)
        return PrunedLabels(nn_points=inst.labels[nn], label_points=inst.labels[uniq],
                            nn_pos=pos, nn_idx=nn, label_idx=uniq)
    pts, _, pos = unique_rows(nn)
    return PrunedLabels(nn_points=nn.astype(float), label_points=pts.astype(float),
                        nn_pos=pos, nn_idx=None, label_idx=None)


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


def inn_solve(inst: SnnInstance, stage2: Stage2Solver | None = None) -> Assignment:
    """Prune to nearest labels, then run the configured stage-2 solver.

    The returned labels are always drawn from the pruned set.  Label ids
    refer to the original instance when it has explicit labels.
    """
    stage2 = stage2 or Stage2Solver()
    pl = pruned_label_set(inst)
    n_pruned = len(pl.label_points)

    kind = stage2.kind
    if kind == "auto":
        feasible = inst.k <= _EXACT_MAX_K and n_pruned ** inst.k <= DEFAULT_GUARD
        kind = "exact" if feasible else "icm"

    if kind == "exact":
        if inst.has_explicit_labels:
            return brute_force_opt(inst, allowed=pl.label_idx)
        sub = replace(inst, labels=pl.label_points)
        a = brute_force_opt(sub)
        return Assignment(points=a.points, nn_cost=a.nn_cost, pw_cost=a.pw_cost,
                          total=a.total, idx=None)

    sub = replace(inst, labels=pl.label_points)
    if kind == "icm":
        a = euclidean_refine(sub, _icm_start(inst, sub, pl))
    else:  # rplus
        a = rplus_solve(sub, orient_edges(inst.graph))
    if inst.has_explicit_labels and a.idx is not None:
        idx = pl.label_idx[a.idx]
    else:
        idx = None
    return Assignment(points=a.points, nn_cost=a.nn_cost, pw_cost=a.pw_cost,
                      total=a.total, idx=idx)

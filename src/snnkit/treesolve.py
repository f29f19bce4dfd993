"""Labeling over the integer color cube by descent through a lattice tree
metric, and true-objective refinement by iterated conditional modes.

The tree solver pushes every query down a random-split tree of a LatticeBox
one level at a time.  At each node the queries sitting there choose a child;
the choice trades the distance from the query to the child's label box
against a separation penalty (the two children's cover diameters) paid per
edge whose endpoints pick different children.  Choices are relaxed by
iterated conditional-mode sweeps, run as exact coordinate descent on the
two classes of a bipartition when the graph is bipartite (grids are) and
sequentially otherwise.  Once every query reaches a leaf, the labeling is
refined.

euclidean_refine polishes a labeling in the true objective by the same
coordinate descent: over the full label set for explicit labels, in any
metric space, and over a small candidate set (own color, current label,
neighbors' labels) for lattice label spaces.  Refinement never increases the
true cost.
"""
from __future__ import annotations

import numpy as np

from .core import (Assignment, SnnInstance, _classes, _collapsed, _directed, _icm,
                   _shared_scorer, cost, cost_points)
from .metric import LatticeBox
from .nn import lattice_nn_map
from .treemetric import TreeMetric, build_tree_metric

# label distance of the two child choices: separation is paid when they differ
_SIDE_DIST = np.array([[0.0, 1.0], [1.0, 0.0]])


def _dist_to_box(Q: np.ndarray, lo, hi) -> np.ndarray:
    c = np.clip(Q, lo, hi)
    return np.linalg.norm(c - Q, axis=1)


def _descend(inst: SnnInstance, tm: TreeMetric, passes: int):
    """Route all queries to leaves; returns the chosen label points."""
    Q = np.asarray(inst.queries, dtype=float)
    k = len(Q)
    de_src, de_dst, de_w = _directed(*_collapsed(inst))
    coloring = inst.graph.two_coloring()

    handles: list = [tm.root] * k
    done = np.zeros(k, dtype=bool)
    out_pts = np.zeros((k, tm.dim))

    while not done.all():
        groups: dict = {}
        for q in np.where(~done)[0]:
            groups.setdefault(handles[q], []).append(int(q))

        gid = np.full(k, -1, dtype=np.int64)
        uA = np.zeros(k)
        uB = np.zeros(k)
        pen = np.zeros(k)
        children: list = []
        for h, members in groups.items():
            qidx = np.array(members, dtype=np.int64)
            if tm.node_is_leaf(h):
                out_pts[qidx] = tm.node_leaf_point(h)
                done[qidx] = True
                continue
            left, right, _, _ = tm.node_children(h)
            g = len(children)
            children.append((left, right))
            gid[qidx] = g
            la, lb = tm.node_label_box(left)
            ra, rb = tm.node_label_box(right)
            uA[qidx] = inst.kappa[qidx] * _dist_to_box(Q[qidx], la, lb)
            uB[qidx] = inst.kappa[qidx] * _dist_to_box(Q[qidx], ra, rb)
            pen[qidx] = tm.node_diam(left) + tm.node_diam(right)

        act = gid >= 0
        if not act.any():
            continue
        side = (uB < uA).astype(np.int8)  # ties go left
        if len(de_src):
            live = act[de_src] & (gid[de_src] == np.where(act[de_dst], gid[de_dst], -2))
            es, ed = de_src[live], de_dst[live]
            epen = de_w[live] * pen[es]
        else:
            es = ed = np.zeros(0, dtype=np.int64)
            epen = np.zeros(0)
        if len(es):
            uAB = np.stack([uA, uB], axis=1)
            choose = _shared_scorer(lambda rows: uAB[rows], lambda u: _SIDE_DIST[:, u])
            _icm(side, _classes(coloring, np.flatnonzero(act)), es, ed, epen, choose, passes)
        for q in np.where(act)[0]:
            left, right = children[gid[q]]
            handles[q] = left if side[q] == 0 else right
    return out_pts


def _refine_explicit(inst: SnnInstance, cur: np.ndarray, passes: int) -> np.ndarray:
    """Coordinate descent over the full explicit label set, true objective."""
    Q = inst.queries
    pool = inst.labels
    kap = inst.kappa
    score = _shared_scorer(lambda rows: kap[rows, None] * inst.space.cross(Q[rows], pool),
                           lambda u: inst.space.cross(pool, pool[u]))
    classes = _classes(inst.graph.two_coloring(), np.arange(len(Q)))
    return _icm(cur, classes, *_directed(*_collapsed(inst)), score, passes)


def _lattice_scorer(inst: SnnInstance):
    """Per-row candidates: own color, current label, then neighbors' labels."""
    Q = np.asarray(inst.queries, dtype=float)
    own = lattice_nn_map(inst.labels, Q).astype(float)
    kap = inst.kappa

    def score(cur, rows, li, nd, nw):
        deg = np.bincount(li, minlength=len(rows))
        cand = np.repeat(cur[rows][:, None, :], 2 + int(deg.max(initial=0)), axis=1)
        cand[:, 0] = own[rows]
        # slots 2.. hold the neighbors' current labels, in edge order
        order = np.argsort(li, kind="stable")
        slot = 2 + np.arange(len(li)) - (np.cumsum(deg) - deg)[li[order]]
        cand[li[order], slot] = cur[nd[order]]
        s = kap[rows, None] * np.linalg.norm(cand - Q[rows][:, None, :], axis=2)
        if len(li):
            term = nw[:, None] * np.linalg.norm(cand[li] - cur[nd][:, None, :], axis=2)
            np.add.at(s, li, term)
        return s, 1, cand
    return score


def _refine_lattice(inst: SnnInstance, cur_pts: np.ndarray, passes: int) -> np.ndarray:
    """Candidate-set coordinate descent for lattice label spaces."""
    classes = _classes(inst.graph.two_coloring(), np.arange(inst.k))
    return _icm(cur_pts, classes, *_directed(*_collapsed(inst)), _lattice_scorer(inst), passes)


def euclidean_refine(inst: SnnInstance, labels, passes: int = 10) -> Assignment:
    """Improve a labeling by true-objective coordinate descent.

    labels: label ids for explicit label sets, in any metric space, and
    label points for lattice boxes, which need a Euclidean space.  The
    returned assignment never costs more than the input.
    """
    if isinstance(inst.labels, LatticeBox):
        if inst.space.kind != "euclidean":
            raise ValueError("lattice refinement is defined for Euclidean instances")
        pts = np.asarray(labels, dtype=float).copy()
        pts = _refine_lattice(inst, pts, passes)
        return cost_points(inst, pts.astype(np.int64))
    cur = np.asarray(labels, dtype=np.int64).copy()
    cur = _refine_explicit(inst, cur, passes)
    return cost(inst, cur)


def tree_labeling_solve(inst: SnnInstance, tm: TreeMetric | None = None,
                        rng_seed: int = 42, descent_passes: int = 20,
                        refine_passes: int = 10) -> Assignment:
    """Heuristic labeling over a lattice label box: tree descent, then
    true-metric refinement.

    Deterministic given the instance and tree; when tm is omitted one is
    built from the label box with rng_seed.
    """
    if not isinstance(inst.labels, LatticeBox) or inst.space.kind != "euclidean":
        raise ValueError("tree labeling needs a Euclidean instance over a lattice label box")
    if tm is None:
        tm = build_tree_metric(inst.labels, rng_seed)
    elif tm.box != inst.labels:
        raise ValueError("tree metric was built over a different label box")
    pts = _descend(inst, tm, descent_passes)
    return euclidean_refine(inst, pts.astype(np.int64), passes=refine_passes)

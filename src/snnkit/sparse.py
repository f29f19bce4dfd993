"""Solvers that exploit sparsity of the compatibility graph.

Two routines, both for unweighted objectives (unit kappa/lambda, arbitrary
multiplicities):

* sparse_assign rounds an optimal labeling to one that only uses nearest
  labels of queries, losing at most a factor tied to the orientation quality
  r of the graph: the rounded nn term is at most 3x the optimal nn term and
  the rounded pairwise term at most 4x pairwise plus 4r x nn.

* rplus_solve labels each query by an aggregate nearest-neighbor query
  against anchors induced by an edge orientation, achieving cost at most
  (2r+1) times optimal where r is the orientation's max out-degree.
"""
from __future__ import annotations

import numpy as np

from .core import Assignment, SnnInstance, _explicit_allowed, cost, nn_label_map
from .graphs import Orientation, orient_edges


def _require_unweighted(inst: SnnInstance, what: str):
    if not inst.unweighted:
        raise ValueError(f"{what} requires unit kappa/lambda weights "
                         "(edge multiplicities are fine)")


def sparse_assign(inst: SnnInstance, optimal: Assignment) -> tuple[Assignment, np.ndarray]:
    """Round a labeling so every query uses some query's nearest label.

    For each query i, over candidates j in {i} + neighbors(i), score
    d(opt_i, opt_j) + d(opt_j, q_j) and adopt the nearest label of the best
    scoring candidate (ties to the earliest candidate: the query itself,
    then its neighbors in ascending id order).  Returns the rounded
    assignment and designated, where query i takes the nearest label of
    query designated[i].  With an optimal input labeling the result is a
    (4r+3) approximation for any orientation quality r of the graph.
    """
    _require_unweighted(inst, "sparse_assign")
    if not inst.has_explicit_labels:
        raise TypeError("sparse_assign needs an explicit label set")
    nn_idx = nn_label_map(inst)
    opt_pts = np.asarray(optimal.points)
    if len(opt_pts) != inst.k:
        raise ValueError("optimal labeling must cover all queries")

    nbrs = inst.graph.neighbor_sets()
    designated = np.empty(inst.k, dtype=np.int64)
    for i in range(inst.k):
        cand = np.concatenate(([i], nbrs[i]))
        d_pp = inst.space.between(np.broadcast_to(opt_pts[i], opt_pts[cand].shape),
                                  opt_pts[cand])
        d_pq = inst.space.between(opt_pts[cand], inst.queries[cand])
        designated[i] = cand[np.argmin(d_pp + d_pq)]
    return cost(inst, nn_idx[designated]), designated


def rplus_solve(inst: SnnInstance, orientation: Orientation | None = None,
                allowed=None) -> Assignment:
    """Label queries by orientation-weighted aggregate nearest neighbors.

    Each query minimizes d(q_i, p) plus, for every incident edge instance
    owned by the other endpoint q_j, d(p, q_j) / (r + 1).  Deterministic;
    ties go to the smallest label id.
    """
    _require_unweighted(inst, "rplus_solve")
    if not inst.has_explicit_labels:
        raise TypeError("rplus_solve needs an explicit label set")
    if orientation is None:
        orientation = orient_edges(inst.graph)
    r = orientation.r

    ids = _explicit_allowed(inst, allowed)
    pts = inst.labels[ids]

    d_q = inst.space.cross(inst.queries, pts)          # (k, L)
    # pull[i]: distances from every label to the anchors of i, the other
    # endpoints of the edge instances at i that they own; gathered k edge
    # instances at a time, so that no gathered block outgrows d_q
    e, own = orientation.edges, orientation.owner
    non_owner = np.where(own == e[:, 0], e[:, 1], e[:, 0])
    pull = np.zeros_like(d_q)
    k = inst.k
    for s in range(0, len(own), k):
        np.add.at(pull, non_owner[s:s + k], d_q[own[s:s + k]])
    score = d_q + pull / (r + 1)
    choice = np.argmin(score, axis=1)
    return cost(inst, ids[choice])

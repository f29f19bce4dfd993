"""Labeling over the integer color cube through its convex relaxation, and
true-objective refinement by iterated conditional modes.

relax widens a lattice label box {lo..hi}^dim to the continuous box
[lo, hi]^dim.  The objective is then convex (vectorial TV-L1) and is solved
by a fixed number of first-order primal-dual iterations (Chambolle and
Pock, JMIV 2011).  Its dual iterate certifies a lower bound on the box
optimum, and so on the lattice optimum.  Rounding the relaxed labels to the
lattice and refining them gives the cube labeling.

euclidean_refine polishes a labeling in the true objective by coordinate
descent, run on the two classes of a bipartition when the graph is
bipartite (grids are) and one query at a time otherwise: over the full
label set for explicit labels, in any metric space, and over a small
candidate set (own color, current label, neighbors' labels) for lattice
label spaces.  Refinement never increases the true cost.
"""
from __future__ import annotations

import numpy as np
from scipy import sparse

from .core import (Assignment, SnnInstance, _classes, _collapsed, _directed, _icm,
                   _shared_scorer, cost, cost_points)
from .metric import LatticeBox
from .nn import lattice_nn_map

_RELAX_ITERS = 400
# coordinate-descent passes of euclidean_refine
_PASSES = 10
# relative rounding allowance taken off the float64 lower bound
_LB_ROUNDING = 1e-9


def _norms(a, out=None) -> np.ndarray:
    """Euclidean norms along the last axis, summing the squared columns in order.

    Bit-identical to np.linalg.norm(a, axis=-1) for last axes below 8
    columns, where numpy's pairwise sum runs sequentially, and several
    times faster on many short rows.  out, if given, takes the result.
    """
    out = np.multiply(a[..., 0], a[..., 0], out=out)
    for c in range(1, a.shape[-1]):
        out += a[..., c] * a[..., c]
    return np.sqrt(out, out=out)


def relax(inst: SnnInstance) -> tuple[np.ndarray, float]:
    """Relaxed labels over the continuous label box, and a certified lower
    bound on the optimum over the lattice.

    Runs _RELAX_ITERS Chambolle-Pock iterations on
    min_x sum_i kappa_i |x_i - q_i| + sum_e w_e |x_i - x_j| with x in the
    box, one dual vector z_e, |z_e| <= w_e, per collapsed edge and
    tau = sigma = 0.99 / sqrt(2 * max degree).  The primal step shrinks
    toward q_i, then clips to the box.  With v = D^T z, every x in the box
    costs at least sum_i <v_i, q_i> + m_i, where m_i bounds the minimum of
    kappa_i |y| + <v_i, y> over y in the box less q_i from below by the
    larger of two estimates:
    - radial: -max(|v_i| - kappa_i, 0) * R_i, with R_i the distance from
      q_i to the farthest box corner;
    - separable: kappa |y| >= (kappa / sqrt(dim)) |y|_1 splits the minimum
      into one over each coordinate's range, attained at 0 or at an end
      (exact in one dimension).
    That bound is returned less _LB_ROUNDING times the magnitude of its
    terms.  Returns the last primal iterate, shape (k, dim), and the bound.
    The norms sum columns in order, and the loop reuses its buffers.
    """
    box = inst.labels
    if not isinstance(box, LatticeBox) or inst.space.kind != "euclidean":
        raise ValueError("relax needs a Euclidean instance over a lattice label box")
    Q = np.asarray(inst.queries, dtype=float)
    kap = inst.kappa[:, None]
    ei, ej, w = _collapsed(inst)
    keep = w > 0    # a weightless edge has only z_e = 0, and would divide by 0 below
    ei, ej, w = ei[keep], ej[keep], w[keep]
    m = len(w)
    D = sparse.csr_matrix((np.repeat([1.0, -1.0], m),
                           (np.tile(np.arange(m), 2), np.concatenate([ei, ej]))),
                          shape=(m, inst.k))
    Dt = D.T.tocsr()
    deg = np.bincount(np.concatenate([ei, ej]), minlength=inst.k)
    tau = sigma = 0.99 / np.sqrt(2 * max(1, int(deg.max(initial=0))))
    x = np.clip(Q, box.lo, box.hi)
    xbar = x.copy()
    x_new, y = np.empty_like(x), np.empty_like(x)
    z = np.zeros((m, box.dim))
    nz, r, f = np.empty(m), np.empty(inst.k), np.empty(inst.k)
    tk = tau * inst.kappa
    tiny = np.finfo(float).tiny
    for _ in range(_RELAX_ITERS):
        # dual ascent, then each z_e back onto the ball of radius w_e
        dz = D @ xbar
        dz *= sigma
        z += dz
        np.maximum(_norms(z, out=nz), w, out=nz)
        np.divide(w, nz, out=nz)
        z *= nz[:, None]
        # primal descent, shrunk toward q_i by tau * kappa_i, then clipped
        dx = Dt @ z
        dx *= tau
        np.subtract(x, dx, out=y)
        y -= Q
        _norms(y, out=r)
        np.maximum(np.subtract(r, tk, out=f), 0.0, out=f)
        f /= np.maximum(r, tiny, out=r)
        y *= f[:, None]
        np.clip(np.add(Q, y, out=x_new), box.lo, box.hi, out=x_new)
        np.subtract(np.multiply(x_new, 2.0, out=xbar), x, out=xbar)
        x, x_new = x_new, x
    v = Dt @ z
    gain = np.einsum("ij,ij->i", v, Q)
    # row i's minimum over the box of kappa_i |y| + <v_i, y>, y = x_i - q_i,
    # bounded by a radial and by a separable estimate
    far = np.linalg.norm(np.maximum(Q - box.lo, box.hi - Q), axis=1)
    loss = np.maximum(np.linalg.norm(v, axis=1) - inst.kappa, 0.0) * far
    c = kap / np.sqrt(box.dim)
    t = np.stack([box.lo - Q, box.hi - Q])      # the two ends of each coordinate's range
    ends = c * np.abs(t) + v * t
    sep = np.minimum(ends.min(axis=0), np.where((t[0] <= 0) & (t[1] >= 0), 0.0, np.inf))
    row = np.maximum(-loss, sep.sum(axis=1))
    diam = (box.hi - box.lo) * np.sqrt(box.dim)
    scale = ((c + np.abs(v)) * np.abs(t).max(axis=0)).sum()
    slack = _LB_ROUNDING * (np.abs(gain).sum() + loss.sum() + scale + w.sum() * diam)
    return x, float(gain.sum() + row.sum() - slack)


def _lattice_scorer(inst: SnnInstance):
    """Per-row candidates: own color, current label, then neighbors' labels.

    Scores the (rows, 2 + degree) candidate block and returns its argmin.
    """
    Q = np.asarray(inst.queries, dtype=float)
    own = lattice_nn_map(inst.labels, Q).astype(float)
    kap = inst.kappa

    def score(cur, rows, li, nd, nw):
        deg = np.bincount(li, minlength=len(rows))
        cand = np.repeat(cur[rows][:, None, :], 2 + int(deg.max(initial=0)), axis=1)
        cand[:, 0] = own[rows]
        # slots 2.. hold the neighbors' current labels, in edge order
        order = np.argsort(li, kind="stable")
        rank = np.arange(len(li)) - (np.cumsum(deg) - deg)[li[order]]
        cand[li[order], 2 + rank] = cur[nd[order]]
        s = kap[rows, None] * _norms(cand - Q[rows][:, None, :])
        if len(li):
            term = nw[:, None] * _norms(cand[li] - cur[nd][:, None, :])
            # round t adds each row's t-th edge: distinct rows, edge order kept
            for t in range(int(deg.max())):
                e = order[rank == t]
                s[li[e]] += term[e]
        r = np.arange(len(rows))
        best = np.argmin(s, axis=1)
        return cand[r, best], s[r, best], s[:, 1]
    return score


def euclidean_refine(inst: SnnInstance, labels) -> Assignment:
    """Improve a labeling by true-objective coordinate descent.

    labels: label ids for explicit label sets, in any metric space, and
    label points for lattice boxes, which need a Euclidean space.  Runs at
    most _PASSES passes, stopping early once no query moves.  The returned
    assignment never costs more than the input.
    """
    lattice = isinstance(inst.labels, LatticeBox)
    if lattice and inst.space.kind != "euclidean":
        raise ValueError("lattice refinement is defined for Euclidean instances")
    classes = _classes(inst.graph.two_coloring(), np.arange(inst.k))
    edges = _directed(*_collapsed(inst))
    if lattice:
        pts = np.asarray(labels, dtype=float).copy()
        _icm(pts, classes, *edges, _lattice_scorer(inst), _PASSES)
        return cost_points(inst, pts.astype(np.int64))
    # every row prices the full explicit label set
    Q, pool, kap = inst.queries, inst.labels, inst.kappa

    def unary(rows):
        s = inst.space.cross(Q[rows], pool)
        s *= kap[rows, None]    # in place: one (rows, S) block per chunk
        return s

    score = _shared_scorer(len(pool), unary,
                           lambda u: inst.space.cross(pool, pool[u]))
    cur = np.asarray(labels, dtype=np.int64).copy()
    return cost(inst, _icm(cur, classes, *edges, score, _PASSES))

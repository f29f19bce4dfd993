"""Branch-and-bound exact solver for joint labeling instances.

Same optimum as brute_force_opt but scales to instance sizes where L^k
enumeration is hopeless, as long as the pairwise structure prunes well.
The bound is admissible: cost of the partial labeling plus, for every
unlabeled query, the cheapest label given only its already-labeled
neighbors.  Search effort is capped by a deterministic node budget so
"solvable exactly" is a reproducible notion.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (SnnInstance, _classes, _collapsed, _directed, _explicit_allowed, _icm,
                   _shared_scorer, cost)


class NodeBudgetExceeded(RuntimeError):
    """Raised when the search would pass its deterministic node budget."""


@dataclass
class SearchStats:
    nodes: int


def _visit_order(k: int, adj: list[list[tuple[int, float]]]) -> list[int]:
    """Maximum-adjacency order: grow from the heaviest vertex, always taking
    the unvisited vertex with the most weight into the visited set."""
    strength = np.zeros(k)
    for v in range(k):
        for _, wt in adj[v]:
            strength[v] += wt
    attach = np.zeros(k)
    visited = np.zeros(k, dtype=bool)
    order = []
    for _ in range(k):
        cand = np.where(~visited)[0]
        key = attach[cand] + 1e-9 * strength[cand]
        v = int(cand[np.argmax(key)])
        visited[v] = True
        order.append(v)
        for u, wt in adj[v]:
            if not visited[u]:
                attach[u] += wt
    return order


def bb_opt(inst: SnnInstance, allowed=None, node_budget: int | None = None,
           return_stats: bool = False):
    """Exact optimum via branch and bound.

    allowed: optional label ids restricting the search (explicit label sets
    only).  Guarantees the optimal cost; among cost ties the returned
    labeling is whichever the search finds first.
    """
    if not inst.has_explicit_labels:
        raise TypeError("bb_opt needs an explicit label set")
    ids = _explicit_allowed(inst, allowed)
    pts = inst.labels[ids]
    k = inst.k
    L = len(ids)

    d_nn = inst.kappa[:, None] * inst.space.cross(inst.queries, pts)
    d_lab = inst.space.cross(pts, pts)
    pi, pj, pw = _collapsed(inst)
    adj: list[list[tuple[int, float]]] = [[] for _ in range(k)]
    for i, j, wt in zip(pi.tolist(), pj.tolist(), pw.tolist()):
        adj[i].append((j, wt))
        adj[j].append((i, wt))

    # warm start: best single-label sweep, then greedy NN labeling, ICM-polished
    sweep_best = int(np.argmin(d_nn.sum(axis=0)))
    start_a = np.full(k, sweep_best, dtype=np.int64)
    start_b = np.argmin(d_nn, axis=1).astype(np.int64)

    def total_of(lab):
        t = d_nn[np.arange(k), lab].sum()
        for i, j, wt in zip(pi, pj, pw):
            t += wt * d_lab[lab[i], lab[j]]
        return float(t)

    best_lab = min((start_a, start_b), key=total_of)
    polish = _shared_scorer(L, lambda rows: d_nn[rows], lambda u: d_lab[:, u])
    one_at_a_time = _classes(None, np.arange(k))
    best_lab = _icm(best_lab, one_at_a_time, *_directed(pi, pj, pw), polish, passes=8)
    incumbent = total_of(best_lab)
    best = best_lab.copy()

    order = _visit_order(k, adj)
    acc = d_nn.copy()              # acc[v, c]: unary + edges into labeled part
    h = acc.min(axis=1)
    assigned = np.full(k, -1, dtype=np.int64)
    hsum = float(h.sum())
    nodes = 0

    # depth-first search on an explicit stack, one frame per labeled query:
    # its candidates in score order, the next one's position, the partial
    # cost, the rest of the bound, and the neighbor updates of the candidate
    # being searched
    def frame(depth, partial, hsum):
        v = order[depth]
        return [np.argsort(acc[v], kind="stable"), 0, partial, hsum - h[v], ()]

    stack = [frame(0, 0.0, hsum)]
    while stack:
        f = stack[-1]
        cand, pos, partial, rest, touched = f
        v = order[len(stack) - 1]
        for u, old, wt in touched:   # take back the candidate just searched
            acc[u] -= wt * d_lab[:, assigned[v]]
            h[u] = old
        assigned[v] = -1
        if pos == L or partial + acc[v, cand[pos]] + rest >= incumbent - 1e-12:
            stack.pop()  # candidates are score-sorted; later ones only get worse
            continue
        if node_budget is not None and nodes >= node_budget:
            raise NodeBudgetExceeded(f"budget of {node_budget} nodes exhausted")
        nodes += 1
        c = assigned[v] = int(cand[pos])
        touched, new_hsum = [], rest
        for u, wt in adj[v]:
            if assigned[u] < 0:
                old = h[u]
                acc[u] += wt * d_lab[:, c]
                h[u] = acc[u].min()
                new_hsum += h[u] - old
                touched.append((u, old, wt))
        f[1], f[4] = pos + 1, touched
        child = partial + float(acc[v, c])
        if len(stack) < k:
            stack.append(frame(len(stack), child, new_hsum))
        elif child < incumbent:
            incumbent, best = child, assigned.copy()

    a = cost(inst, ids[best])
    if return_stats:
        return a, SearchStats(nodes=nodes)
    return a

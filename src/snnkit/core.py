"""Joint nearest-neighbor instances, the cost functional, exact baselines,
and the labeling kernels every solver runs on.

An instance couples a label set P and queries Q in a shared metric space with
a compatibility multigraph G over the queries.  The objective of a labeling
p: Q -> P is

    sum_i kappa_i * d(q_i, p_i)  +  sum_{(i,j,mult) in G} lambda_e * mult * d(p_i, p_j)

The unweighted case (all kappa and lambda equal to 1, multiplicities free) is
what the approximation guarantees elsewhere in the package are stated for;
the functional itself supports general nonnegative weights.

Solvers share one internal form: unary costs, collapsed weighted edges and
label distances.  _enumerate minimizes it exactly by enumeration, _icm
improves a labeling by iterated conditional modes (Besag 1986).  _icm's
scorer returns, for each row of a class, its first best label, that
label's score and the score of its current label.  _shared_scorer is that
scorer over S explicit labels: it prices the rows in chunks of at most
_SCORE_BYTES of scores, so besides that budget it holds only the distances
from the S labels to the distinct labels of the class's neighbors.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .graphs import CompatGraph
from .metric import LatticeBox
from .nn import NnIndex, lattice_nn_map

DEFAULT_GUARD = 10 ** 7
_CHUNK = 1 << 18
# bytes of one (rows, labels) score block priced by _shared_scorer
_SCORE_BYTES = 8 << 20
_EPS = 1e-12


class GuardExceededError(RuntimeError):
    """Raised when an exact enumeration would exceed its state budget."""


@dataclass(eq=False)
class SnnInstance:
    space: object
    labels: object        # ndarray of points, or LatticeBox
    queries: np.ndarray
    graph: CompatGraph
    kappa: np.ndarray     # (k,) nonnegative query weights
    lam: np.ndarray       # (m,) nonnegative weights aligned with graph.edges rows

    def __post_init__(self):
        self.queries = np.asarray(self.queries)
        self.kappa = np.asarray(self.kappa, dtype=float).reshape(-1)
        self.lam = np.asarray(self.lam, dtype=float).reshape(-1)
        if not isinstance(self.labels, LatticeBox):
            self.labels = np.asarray(self.labels)
            if len(self.labels) == 0:
                raise ValueError("label set must be nonempty")
        k = len(self.queries)
        if k == 0:
            raise ValueError("need at least one query")
        if self.graph.n != k:
            raise ValueError(f"graph has {self.graph.n} vertices but there are {k} queries")
        if len(self.kappa) != k:
            raise ValueError("kappa must have one entry per query")
        if len(self.lam) != self.graph.num_entries:
            raise ValueError("lambda must have one entry per edge row")
        if not (np.isfinite(self.kappa).all() and np.isfinite(self.lam).all()):
            raise ValueError("weights must be finite")
        if np.any(self.kappa < 0) or np.any(self.lam < 0):
            raise ValueError("weights must be nonnegative")
        if not np.isfinite(self.queries).all():
            raise ValueError("query coordinates must be finite")
        if self.has_explicit_labels and not np.isfinite(self.labels).all():
            raise ValueError("label coordinates must be finite")
        dim = getattr(self.space, "dim", None)
        if dim is not None:
            if isinstance(self.labels, LatticeBox):
                if self.labels.dim != dim:
                    raise ValueError("lattice dimension does not match the space")
            elif self.labels.ndim != 2 or self.labels.shape[1] != dim:
                raise ValueError("label coordinates do not match the space dimension")
            if self.queries.ndim != 2 or self.queries.shape[1] != dim:
                raise ValueError("query coordinates do not match the space dimension")

    @property
    def k(self) -> int:
        return len(self.queries)

    @property
    def has_explicit_labels(self) -> bool:
        return not isinstance(self.labels, LatticeBox)

    @property
    def n_labels(self) -> int:
        return self.labels.size if isinstance(self.labels, LatticeBox) else len(self.labels)

    @property
    def unweighted(self) -> bool:
        return bool(np.all(self.kappa == 1.0) and np.all(self.lam == 1.0))


def make_instance(space, labels, queries, edges=None, kappa=None, lam=None) -> SnnInstance:
    """Convenience constructor; edges may be a CompatGraph or pair/triple list."""
    queries = np.asarray(queries)
    k = len(queries)
    if isinstance(edges, CompatGraph):
        graph = edges
    else:
        graph = CompatGraph.from_pairs(k, edges or [])
    kappa = np.ones(k) if kappa is None else np.asarray(kappa, dtype=float)
    lam = np.ones(graph.num_entries) if lam is None else np.asarray(lam, dtype=float)
    return SnnInstance(space=space, labels=labels, queries=queries,
                       graph=graph, kappa=kappa, lam=lam)


@dataclass(frozen=True, eq=False)
class Assignment:
    """A labeling of every query, with its cost split.

    idx holds label ids into the instance's explicit label array when that
    makes sense (None for lattice label sets); points always holds the
    chosen label points themselves.
    """
    points: np.ndarray
    nn_cost: float
    pw_cost: float
    total: float
    idx: Optional[np.ndarray] = None


def _evaluate(space, queries, graph: CompatGraph, kappa, lam, label_points) -> tuple[float, float]:
    """Cost split (nn, pairwise) of labeling query i with label_points[i]."""
    pts = np.asarray(label_points)
    if len(pts) != len(queries):
        raise ValueError("need exactly one label point per query")
    nn = float(np.dot(np.asarray(kappa, dtype=float),
                      space.between(queries, pts)))
    pw = 0.0
    if graph.num_entries:
        i, j, mult = graph.edges[:, 0], graph.edges[:, 1], graph.edges[:, 2]
        d = space.between(pts[i], pts[j])
        pw = float(np.sum(np.asarray(lam, dtype=float) * mult * d))
    return nn, pw


def cost(inst: SnnInstance, label_idx) -> Assignment:
    """Cost of assigning query i the explicit label with id label_idx[i]."""
    if not inst.has_explicit_labels:
        raise TypeError("cost by label id needs an explicit label set; use cost_points")
    idx = np.asarray(label_idx, dtype=np.int64).reshape(-1)
    if len(idx) != inst.k:
        raise ValueError(f"assignment must cover all {inst.k} queries")
    if idx.min() < 0 or idx.max() >= len(inst.labels):
        raise ValueError("label id out of range")
    pts = inst.labels[idx]
    nn, pw = _evaluate(inst.space, inst.queries, inst.graph, inst.kappa, inst.lam, pts)
    return Assignment(points=pts, nn_cost=nn, pw_cost=pw, total=nn + pw, idx=idx)


def cost_points(inst: SnnInstance, points) -> Assignment:
    """Cost of a labeling given directly by label points."""
    pts = np.asarray(points)
    if isinstance(inst.labels, LatticeBox) and not inst.labels.contains(pts):
        raise ValueError("labeling leaves the lattice label box")
    nn, pw = _evaluate(inst.space, inst.queries, inst.graph, inst.kappa, inst.lam, pts)
    return Assignment(points=pts, nn_cost=nn, pw_cost=pw, total=nn + pw, idx=None)


def unique_rows(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct rows of a 2-D array in lexicographic order.

    Returns (rows, first, inverse) as np.unique(a, axis=0, return_index=True,
    return_inverse=True) does: the distinct rows, the first position of each
    in a, and each row's position among them.
    """
    a = np.asarray(a)
    order = np.lexsort(a.T[::-1])  # column 0 most significant; stable
    s = a[order]
    new = np.ones(len(a), dtype=bool)
    new[1:] = np.any(s[1:] != s[:-1], axis=1)
    inverse = np.empty(len(a), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return s[new], order[new], inverse


def _explicit_allowed(inst: SnnInstance, allowed) -> np.ndarray:
    """Resolve the allowed label ids of an explicit label set."""
    n = len(inst.labels)
    if allowed is None:
        return np.arange(n, dtype=np.int64)
    a = np.unique(np.asarray(allowed, dtype=np.int64))
    if len(a) == 0:
        raise ValueError("allowed label set must be nonempty")
    if a.min() < 0 or a.max() >= n:
        raise ValueError("allowed label id out of range")
    return a


def _collapsed(inst: SnnInstance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct edge endpoints, sorted, with summed lambda * multiplicity weights."""
    e = inst.graph.edges
    keys, inv = np.unique(e[:, 0] * inst.k + e[:, 1], return_inverse=True)
    w = np.bincount(inv, weights=inst.lam * e[:, 2], minlength=len(keys))
    return keys // inst.k, keys % inst.k, np.asarray(w, dtype=float)


def _directed(i, j, w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both orientations of undirected edges: sources, targets, weights."""
    return np.concatenate([i, j]), np.concatenate([j, i]), np.concatenate([w, w])


def _enumerate(unary, ei, ej, w, dlab) -> tuple[np.ndarray, float]:
    """Exact minimiser of sum_q unary[q, x_q] + sum_e w_e * dlab[x_ei, x_ej].

    Walks all L^k labelings in chunks, first query most significant, so
    ties go to the lexicographically smallest tuple.  Returns the labels
    and their cost.
    """
    k, L = unary.shape
    states = L ** k
    base = L ** np.arange(k - 1, -1, -1, dtype=np.int64)
    rows = np.arange(k)[:, None]
    best_cost, best_state = np.inf, -1
    for start in range(0, states, _CHUNK):
        offs = np.arange(start, min(states, start + _CHUNK), dtype=np.int64)
        digits = (offs[None, :] // base[:, None]) % L  # (k, c)
        c = unary[rows, digits].sum(axis=0)
        for i, j, wt in zip(ei, ej, w):
            c += wt * dlab[digits[i], digits[j]]
        pos = int(np.argmin(c))
        if c[pos] < best_cost:
            best_cost = float(c[pos])
            best_state = start + pos
    return (best_state // base) % L, best_cost


def _classes(coloring, rows) -> list[np.ndarray]:
    """Independent sets of rows for _icm: the two color classes, or each row alone."""
    if coloring is None:
        return [rows[t:t + 1] for t in range(len(rows))]
    return [rows[coloring[rows] == c] for c in (0, 1)]


def _shared_scorer(n_labels: int, unary, dist):
    """Scorer for _icm when every row picks from the same S = n_labels labels.

    Labels are dense ids 0..S-1.  unary(rows) gives a new (rows, S) block of
    unary costs and dist(u) the (S, len(u)) distances from every label to
    the labels u.  score(cur, rows, li, nd, nw) returns each row's first
    best label, that label's score and the score of the row's current label.

    The distinct neighbor labels u of the class and dist(u) are computed
    once per call.  The rows are then priced in chunks of
    max(1, _SCORE_BYTES // (8 * S)), so no (rows, S) block outgrows the
    budget: a chunk's neighbor weights are gathered per label of u, its
    edges added in edge order as np.bincount would, and priced in one
    product.  Each row's scores are the same as when pricing the whole class
    at once.  The weight and product blocks are kept between calls, so a
    chunk allocates only its unary block.
    """
    step = max(1, _SCORE_BYTES // (8 * n_labels))
    bufs = [np.empty(0), np.empty(0)]   # one chunk's weights and their product

    def score(cur, rows, li, nd, nw):
        n = len(rows)
        now = cur[rows]
        best, best_s, now_s = np.empty(n, dtype=np.int64), np.empty(n), np.empty(n)
        if len(li):
            lab = cur[nd]
            seen = np.zeros(n_labels, dtype=bool)
            seen[lab] = True
            u = np.flatnonzero(seen)
            col = (np.cumsum(seen) - 1)[lab]
            d = dist(u)
            order = np.argsort(li, kind="stable")  # edge order kept within a row
            cut = np.searchsorted(li[order], np.arange(0, n + step, step))
            size = min(n, step) * n_labels
            if len(bufs[0]) < size:
                bufs[:] = np.empty(size), np.empty(size)
            wbuf, pbuf = bufs
        for c, a in enumerate(range(0, n, step)):
            b = min(n, a + step)
            s = unary(rows[a:b])
            if len(li):
                e = order[cut[c]:cut[c + 1]]
                w = wbuf[:(b - a) * len(u)]
                w.fill(0.0)
                np.add.at(w, (li[e] - a) * len(u) + col[e], nw[e])
                s += np.matmul(w.reshape(b - a, -1), d.T,
                               out=pbuf[:(b - a) * n_labels].reshape(b - a, -1))
            r = np.arange(b - a)
            best[a:b] = np.argmin(s, axis=1)
            best_s[a:b] = s[r, best[a:b]]
            now_s[a:b] = s[r, now[a:b]]
        return best, best_s, now_s
    return score


def _icm(cur, classes, src, dst, w, score, passes: int):
    """Iterated conditional modes on the labeling cur, in place.

    Each pass visits the classes in order and moves all rows of a class at
    once, so a class must be an independent set.  Directed edge e charges
    w[e] times a label distance to row src[e] against the label of dst[e].
    score(cur, rows, li, nd, nw) is given a class and its incident edges
    (li: row positions within the class, nd: neighbors, nw: weights) and
    returns (best, best_score, now_score): each row's first best label,
    that label's score and the score of the row's current label.  A row
    moves to its best label only when that beats its current score by more
    than _EPS.

    Only dirty rows are scored: all rows start dirty, scoring clears a row,
    and a move makes the row's neighbors dirty.  A row's scores depend only
    on its unary row and its neighbors' labels, so a clean row would repeat
    its last decision, which left it at a best label or without a gain
    above _EPS.  A class without dirty rows is skipped, and the passes stop
    when no row is dirty, at the latest after a pass without moves.
    """
    classes = [rows for rows in classes if len(rows)]
    cls = np.full(len(cur), -1, dtype=np.int64)
    local = np.zeros(len(cur), dtype=np.int64)
    for c, rows in enumerate(classes):
        cls[rows] = c
        local[rows] = np.arange(len(rows))
    ecls = cls[src]
    order = np.argsort(ecls, kind="stable")  # keeps edge order within a class
    cut = np.searchsorted(ecls[order], np.arange(len(classes) + 1))
    parts = []
    for c, rows in enumerate(classes):
        e = order[cut[c]:cut[c + 1]]
        parts.append((rows, local[src[e]], dst[e], w[e]))
    dirty = np.ones(len(cur), dtype=bool)
    for _ in range(passes):
        if not dirty.any():
            break
        for rows, li, nd, nw in parts:
            keep = dirty[rows]
            if not keep.any():
                continue
            if not keep.all():  # the dirty rows, and their edges in order
                e = keep[li]
                rows, li, nd, nw = rows[keep], (np.cumsum(keep) - 1)[li[e]], nd[e], nw[e]
            dirty[rows] = False
            best, best_s, now_s = score(cur, rows, li, nd, nw)
            move = best_s < now_s - _EPS
            if move.any():
                cur[rows[move]] = best[move]
                dirty[nd[move[li]]] = True
    return cur


def brute_force_opt(inst: SnnInstance, allowed=None) -> Assignment:
    """Exact optimum by enumeration over allowed^k labelings.

    Refuses to enumerate more than DEFAULT_GUARD states.  Ties are broken toward
    the lexicographically smallest tuple of label ids (queries in order,
    allowed ids ascending).
    """
    k = inst.k
    if isinstance(inst.labels, LatticeBox):
        box = inst.labels
        if box.size ** k > DEFAULT_GUARD:
            raise GuardExceededError(
                f"enumeration over {box.size}^{k} assignments exceeds guard {DEFAULT_GUARD}")
        # tiny box: enumerate over an explicit copy of its points
        sub = replace(inst, labels=box.all_points().astype(float))
        return replace(brute_force_opt(sub, allowed=allowed), idx=None)
    ids = _explicit_allowed(inst, allowed)
    L = len(ids)
    if L ** k > DEFAULT_GUARD:
        raise GuardExceededError(
            f"enumeration over {L}^{k} assignments exceeds guard {DEFAULT_GUARD}")

    pts = inst.labels[ids]
    e = inst.graph.edges
    dlab = inst.space.cross(pts, pts) if len(e) else None
    digits, _ = _enumerate(inst.kappa[:, None] * inst.space.cross(inst.queries, pts),
                           e[:, 0], e[:, 1], inst.lam * e[:, 2], dlab)
    return cost(inst, ids[digits])


def nn_label_map(inst: SnnInstance) -> np.ndarray:
    """Per-query nearest label: ids for explicit sets, points for lattices."""
    if inst.has_explicit_labels:
        return NnIndex(inst.space, inst.labels).nn_map(inst.queries)
    return lattice_nn_map(inst.labels, inst.queries)

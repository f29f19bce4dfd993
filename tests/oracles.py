"""Independent reference implementations used to cross-check the package.

Everything in here is deliberately slow and dumb: plain Python loops,
itertools enumeration, no vectorisation.  The point is that these
routines share no code path with src/ so agreement is meaningful.
"""
from __future__ import annotations

import itertools
import math

INF = float("inf")


def floyd_warshall(n, edges):
    """All-pairs shortest paths from a weighted edge list (undirected)."""
    d = [[0.0 if i == j else INF for j in range(n)] for i in range(n)]
    for (i, j, w) in edges:
        w = float(w)
        if w < d[i][j]:
            d[i][j] = w
            d[j][i] = w
    for m in range(n):
        dm = d[m]
        for i in range(n):
            dim = d[i][m]
            if dim == INF:
                continue
            row = d[i]
            for j in range(n):
                alt = dim + dm[j]
                if alt < row[j]:
                    row[j] = alt
    return d


def euclid(a, b):
    return math.sqrt(sum((float(x) - float(y)) ** 2 for x, y in zip(a, b)))


def lattice_nearest_point(lo, hi, q):
    """Closest point of the integer box {lo..hi}^d: per coordinate, the
    nearer of the two neighbouring integers, the lower one on a tie."""
    out = []
    for x in q:
        down = math.floor(float(x))
        c = down if float(x) - down <= 0.5 else down + 1
        out.append(min(max(c, lo), hi))
    return out


def assignment_cost(dist, queries, labels, choice, edges, kappa, lam):
    """Plain-loop objective: nn part + pairwise part.

    dist(a, b) takes raw points.  edges is a list of (i, j, mult).
    """
    nn = 0.0
    for i, q in enumerate(queries):
        nn += float(kappa[i]) * dist(q, labels[choice[i]])
    pw = 0.0
    for e, (i, j, mult) in enumerate(edges):
        pw += float(lam[e]) * int(mult) * dist(labels[choice[i]], labels[choice[j]])
    return nn, pw


def enum_opt(dist, queries, labels, edges, kappa, lam, allowed=None):
    """Exhaustive minimiser; returns (choice, nn, pw, total).

    Ties resolve to the lexicographically smallest choice tuple because
    itertools.product yields tuples in that order and we keep strict
    improvements only.
    """
    idx = range(len(labels)) if allowed is None else list(allowed)
    best = None
    for choice in itertools.product(idx, repeat=len(queries)):
        nn, pw = assignment_cost(dist, queries, labels, choice, edges, kappa, lam)
        tot = nn + pw
        if best is None or tot < best[3] - 1e-12:
            best = (choice, nn, pw, tot)
    return best


def min_max_outdegree(n, instances):
    """Exact pseudoarboricity by trying every orientation of every edge
    instance.  instances is a list of (i, j) with repeats allowed."""
    m = len(instances)
    best = m
    for bits in range(2 ** m):
        out = [0] * n
        for e, (i, j) in enumerate(instances):
            out[i if (bits >> e) & 1 else j] += 1
        best = min(best, max(out) if out else 0)
    return best


def triangle_ok(matrix, tol=1e-9):
    n = len(matrix)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if matrix[a][c] > matrix[a][b] + matrix[b][c] + tol:
                    return False
    return True


def zero_ext_enum(dist_tt, weights_edges, n_terminals, n_free):
    """Exhaustive 0-extension: mapping fixes terminals to themselves and
    tries every assignment of free vertices.  dist_tt is the terminal
    metric as a nested list, weights_edges a list of (u, v, w) over the
    combined vertex numbering (terminals first)."""
    best = None
    for free in itertools.product(range(n_terminals), repeat=n_free):
        f = list(range(n_terminals)) + list(free)
        c = 0.0
        for (u, v, w) in weights_edges:
            c += float(w) * dist_tt[f[int(u)]][f[int(v)]]
        if best is None or c < best[1] - 1e-12:
            best = (f, c)
    return best


def rplus_scores(queries, labels, dist, edges, owner, r):
    """Score of every label for every query under an edge orientation:
    d(q_i, p) plus d(q_j, p) / (r + 1) for each edge instance (u, v) at i
    whose owner j is the other endpoint."""
    scores = []
    for i, q in enumerate(queries):
        anchors = [queries[o] for (u, v), o in zip(edges, owner)
                   if i in (u, v) and o != i]
        scores.append([dist(q, p) + sum(dist(a, p) for a in anchors) / (r + 1)
                       for p in labels])
    return scores


def neighbor_lists(n, edges):
    """Sorted distinct neighbours of every vertex; edges are (i, j, mult) rows."""
    nbrs = [set() for _ in range(n)]
    for i, j, _ in edges:
        nbrs[int(i)].add(int(j))
        nbrs[int(j)].add(int(i))
    return [sorted(s) for s in nbrs]


def degrees(n, edges):
    """Vertex degrees counting multiplicity."""
    deg = [0] * n
    for i, j, mult in edges:
        deg[int(i)] += int(mult)
        deg[int(j)] += int(mult)
    return deg


def two_coloring(n, edges):
    """Depth-first 2-colouring from each uncoloured vertex in index order,
    the start vertex coloured 0; None when an odd cycle shows up."""
    nbrs = neighbor_lists(n, edges)
    color = [-1] * n
    for s in range(n):
        if color[s] >= 0:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for u in nbrs[v]:
                if color[u] < 0:
                    color[u] = 1 - color[v]
                    stack.append(u)
                elif color[u] == color[v]:
                    return None
    return color


def grid_edges(width, height):
    """4-connected grid rows (v, v', 1): each pixel's right edge, then its
    down edge, pixels in row-major order."""
    rows = []
    for r in range(height):
        for c in range(width):
            v = r * width + c
            if c + 1 < width:
                rows.append((v, v + 1, 1))
            if r + 1 < height:
                rows.append((v, v + width, 1))
    return rows


def icm(dist, queries, labels, edges, kappa, lam, start, passes=10, eps=1e-12):
    """Iterated conditional modes over an explicit label list.

    Parallel edges are collapsed into one weight per vertex pair.  A pass
    visits the two colour classes in order when the graph is bipartite, else
    each query alone in index order; every query of a class is rescored
    against the labels at the start of its class and moves to its first
    best label only when that gains more than eps.  Stops after a pass
    without moves.
    """
    k = len(queries)
    weight = {}
    for e, (i, j, mult) in enumerate(edges):
        for a, b in ((int(i), int(j)), (int(j), int(i))):
            weight.setdefault(a, {})
            weight[a][b] = weight[a].get(b, 0.0) + float(lam[e]) * int(mult)
    color = two_coloring(k, edges)
    if color is None:
        classes = [[i] for i in range(k)]
    else:
        classes = [[i for i in range(k) if color[i] == c] for c in (0, 1)]
    cur = [int(x) for x in start]
    for _ in range(passes):
        changed = False
        for rows in classes:
            moves = {}
            for i in rows:
                scores = []
                for p in labels:
                    s = float(kappa[i]) * dist(queries[i], p)
                    for j, w in weight.get(i, {}).items():
                        s += w * dist(p, labels[cur[j]])
                    scores.append(s)
                best = min(range(len(labels)), key=lambda t: (scores[t], t))
                if scores[best] < scores[cur[i]] - eps:
                    moves[i] = best
            for i, best in moves.items():
                cur[i] = best
                changed = True
        if not changed:
            break
    return cur


def lattice_icm(queries, lo, hi, edges, kappa, lam, start, passes=10, eps=1e-12):
    """Iterated conditional modes over the integer box {lo..hi}^dim, with a
    few candidates per query.

    Parallel edges (i, j, mult), i < j, are collapsed into one weight per
    vertex pair.  A query's edges are the collapsed pairs in sorted order,
    first those where it is the smaller endpoint, then those where it is the
    larger.  Its candidates are its own colour rounded into the box, its
    current label, then its neighbours' labels in edge order; a candidate's
    score adds its weighted distances in that edge order.  Classes, the
    first-best rule and eps are those of icm.  Returns the label points.
    """
    k = len(queries)
    weight = {}
    for e, (i, j, mult) in enumerate(edges):
        key = (int(i), int(j))
        weight[key] = weight.get(key, 0.0) + float(lam[e]) * int(mult)
    pairs = sorted(weight.items())
    nbrs = [[] for _ in range(k)]
    for (i, j), w in pairs:
        nbrs[i].append((j, w))
    for (i, j), w in pairs:
        nbrs[j].append((i, w))
    color = two_coloring(k, edges)
    if color is None:
        classes = [[i] for i in range(k)]
    else:
        classes = [[i for i in range(k) if color[i] == c] for c in (0, 1)]
    cur = [[int(c) for c in p] for p in start]
    for _ in range(passes):
        changed = False
        for rows in classes:
            moves = {}
            for i in rows:
                cands = [lattice_nearest_point(lo, hi, queries[i]), cur[i]]
                cands += [cur[j] for j, _ in nbrs[i]]
                scores = []
                for p in cands:
                    s = float(kappa[i]) * euclid(queries[i], p)
                    for j, w in nbrs[i]:
                        s += w * euclid(p, cur[j])
                    scores.append(s)
                best = min(range(len(cands)), key=lambda t: (scores[t], t))
                if scores[best] < scores[1] - eps:
                    moves[i] = list(cands[best])
            for i, p in moves.items():
                cur[i] = p
                changed = True
        if not changed:
            break
    return cur


def relax(queries, lo, hi, edges, kappa, lam, iters):
    """Chambolle-Pock primal iterate for min sum_i kappa_i |x_i - q_i| +
    sum_e w_e |x_i - x_j| over the box [lo, hi]^dim.

    Parallel edges are collapsed into one weight per vertex pair and
    weightless pairs dropped; tau = sigma = 0.99 / sqrt(2 * max degree) over
    what is left.  An iteration: each dual z_e steps by sigma times the
    extrapolated difference x_i - x_j and is scaled back onto the ball of
    radius w_e; each x_i steps by -tau times its summed duals, is shrunk
    toward q_i by tau * kappa_i and clipped to the box; the extrapolation is
    2 x_new - x.  Returns x after iters iterations.
    """
    k, dim = len(queries), len(queries[0])
    weight = {}
    for e, (i, j, mult) in enumerate(edges):
        key = (int(i), int(j))
        weight[key] = weight.get(key, 0.0) + float(lam[e]) * int(mult)
    pairs = [(i, j, w) for (i, j), w in sorted(weight.items()) if w > 0]
    deg = [0] * k
    for i, j, _ in pairs:
        deg[i] += 1
        deg[j] += 1
    tau = sigma = 0.99 / math.sqrt(2 * max([1] + deg))
    q = [[float(c) for c in p] for p in queries]
    x = [[min(max(c, lo), hi) for c in p] for p in q]
    xbar = [p[:] for p in x]
    z = [[0.0] * dim for _ in pairs]
    for _ in range(iters):
        for e, (i, j, w) in enumerate(pairs):
            ze = [z[e][d] + sigma * (xbar[i][d] - xbar[j][d]) for d in range(dim)]
            scale = w / max(math.sqrt(sum(c * c for c in ze)), w)
            z[e] = [c * scale for c in ze]
        dual = [[0.0] * dim for _ in range(k)]
        for e, (i, j, _) in enumerate(pairs):
            for d in range(dim):
                dual[i][d] += z[e][d]
                dual[j][d] -= z[e][d]
        x_new = []
        for i in range(k):
            y = [x[i][d] - tau * dual[i][d] - q[i][d] for d in range(dim)]
            r = math.sqrt(sum(c * c for c in y))
            shrink = max(r - tau * float(kappa[i]), 0.0) / r if r > 0 else 0.0
            x_new.append([min(max(q[i][d] + shrink * y[d], lo), hi) for d in range(dim)])
        xbar = [[2.0 * a - b for a, b in zip(pn, po)] for pn, po in zip(x_new, x)]
        x = x_new
    return x

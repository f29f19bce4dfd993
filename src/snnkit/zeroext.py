"""0-extension instances and the reduction from joint labeling.

A 0-extension instance has a weighted graph whose vertex set splits into
terminals, each pinned to a point of a metric space, and free vertices.  A
mapping sends every vertex to a terminal (terminals to themselves); its cost
is the sum over edges of weight times the distance between the endpoint
terminals' points.

Joint labeling reduces to this by making every label a terminal, every query
a free vertex, lifting compatibility edges, and adding a unit edge from each
query to its nearest label.  Mapping an exact 0-extension solution back
yields a labeling within 3x of the joint optimum; a b-approximate solution
gives (2b+1).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (Assignment, DEFAULT_GUARD, GuardExceededError, SnnInstance, _enumerate, cost,
                   nn_label_map)


@dataclass(eq=False)
class ZeroExtInstance:
    """Vertices 0..T-1 are terminals (in slot order), T..T+F-1 are free."""
    space: object
    terminal_points: np.ndarray
    n_free: int
    edges: np.ndarray  # (M, 3) float rows (u, v, w)

    def __post_init__(self):
        self.terminal_points = np.asarray(self.terminal_points)
        self.edges = np.asarray(self.edges, dtype=float).reshape(-1, 3)
        if len(self.terminal_points) == 0:
            raise ValueError("need at least one terminal")
        if self.n_free < 0:
            raise ValueError("free vertex count must be nonnegative")
        if not np.isfinite(self.edges).all():
            raise ValueError("edge endpoints and weights must be finite")
        if not np.isfinite(self.terminal_points).all():
            raise ValueError("terminal coordinates must be finite")
        n = self.n_vertices
        if len(self.edges):
            u, v, w = self.edges[:, 0], self.edges[:, 1], self.edges[:, 2]
            if np.any(u != np.floor(u)) or np.any(v != np.floor(v)):
                raise ValueError("edge endpoints must be integers")
            if np.any(u < 0) or np.any(u >= n) or np.any(v < 0) or np.any(v >= n):
                raise ValueError("edge endpoint out of range")
            if np.any(u == v):
                raise ValueError("self-loops are not allowed")
            if np.any(w < 0):
                raise ValueError("edge weights must be nonnegative")

    @property
    def n_terminals(self) -> int:
        return len(self.terminal_points)

    @property
    def n_vertices(self) -> int:
        return self.n_terminals + self.n_free

    def terminal_dists(self) -> np.ndarray:
        return self.space.cross(self.terminal_points, self.terminal_points)


def zero_ext_cost(z: ZeroExtInstance, mapping) -> float:
    """Cost of a full mapping vertex -> terminal slot."""
    f = np.asarray(mapping, dtype=np.int64).reshape(-1)
    if len(f) != z.n_vertices:
        raise ValueError(f"mapping must cover all {z.n_vertices} vertices")
    t = z.n_terminals
    if np.any(f < 0) or np.any(f >= t):
        raise ValueError("mapping targets must be terminal slots")
    if np.any(f[:t] != np.arange(t)):
        raise ValueError("terminals must map to themselves")
    if not len(z.edges):
        return 0.0
    dt = z.terminal_dists()
    u = z.edges[:, 0].astype(np.int64)
    v = z.edges[:, 1].astype(np.int64)
    return float(np.sum(z.edges[:, 2] * dt[f[u], f[v]]))


def zero_ext_exact(z: ZeroExtInstance) -> tuple[np.ndarray, float]:
    """Exact 0-extension by enumeration over T^F mappings of free vertices.

    Ties go to the lexicographically smallest tuple of terminal slots (free
    vertices in id order).
    """
    t, fcnt = z.n_terminals, z.n_free
    if t ** fcnt > DEFAULT_GUARD:
        raise GuardExceededError(
            f"enumeration over {t}^{fcnt} mappings exceeds guard {DEFAULT_GUARD}")
    dt = z.terminal_dists()

    # terminal-terminal edges are a constant, terminal-free edges unary costs
    const = 0.0
    unary = np.zeros((fcnt, t))
    pi: list[int] = []
    pj: list[int] = []
    pw: list[float] = []
    for u, v, w in z.edges:
        u, v = int(u), int(v)
        if u < t and v < t:
            const += w * dt[u, v]
        elif u < t or v < t:
            term, free = (u, v) if u < t else (v, u)
            unary[free - t] += w * dt[term]
        else:
            pi.append(u - t)
            pj.append(v - t)
            pw.append(float(w))

    if fcnt == 0:
        return np.arange(t, dtype=np.int64), float(const)
    digits, best = _enumerate(unary, pi, pj, pw, dt)
    return np.concatenate([np.arange(t, dtype=np.int64), digits]), best + const


def snn_to_zero_extension(inst: SnnInstance) -> ZeroExtInstance:
    """Reduce an unweighted joint-labeling instance to 0-extension.

    Labels become terminals, queries free vertices.  Compatibility edges are
    lifted with weight equal to their multiplicity; each query gains a unit
    edge to its nearest label.  Query vertices keep their own identity even
    when co-located with a label.
    """
    if not inst.unweighted:
        raise ValueError("the reduction is stated for unit kappa/lambda weights")
    if not inst.has_explicit_labels:
        raise TypeError("the reduction needs an explicit label set")
    nn_idx = nn_label_map(inst)
    t = len(inst.labels)
    rows = []
    for i, j, mult in inst.graph.edges:
        rows.append((t + int(i), t + int(j), float(mult)))
    for i in range(inst.k):
        rows.append((t + i, int(nn_idx[i]), 1.0))
    edges = np.array(rows, dtype=float).reshape(-1, 3)
    return ZeroExtInstance(space=inst.space, terminal_points=inst.labels,
                           n_free=inst.k, edges=edges)


def back_translate(inst: SnnInstance, mapping) -> Assignment:
    """Read a labeling off a 0-extension mapping of the reduced instance."""
    f = np.asarray(mapping, dtype=np.int64)
    t = len(inst.labels)
    if len(f) != t + inst.k:
        raise ValueError("mapping shape does not match the reduced instance")
    return cost(inst, f[t:])

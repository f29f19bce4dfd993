"""Hard instances for nearest-label pruning, built from regular expanders.

Take a connected random d-regular graph H on k vertices v_1..v_k and hang a
leaf u_i off every v_i with edge weight equal to a chosen multiplicity.  The
metric is the shortest-path metric of this augmented graph; the labels are
all 2k vertices, the queries are the leaves, and the compatibility graph
copies H onto the queries with every edge repeated `multiplicity` times.

Labeling every query with its attachment vertex costs
k * multiplicity + k * d * multiplicity / 2, while nearest-label pruning
keeps only the leaves themselves (each query is its own nearest label at
distance zero), which forces pairwise distances through the leaf edges and
inflates the achievable optimum.  With d = 3, the default multiplicity and
seed 42 the exact gap is 1.3636 at k = 4 and 1.4444 at k = 8; estimates at
k = 16, 32 and 64 read 1.4308, 1.4712 and 1.4256, so growth with k is not
measured past k = 32.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import networkx as nx

from .core import SnnInstance, make_instance
from .graphs import CompatGraph
from .metric import build_graph_metric

_MAX_TRIES = 200


@dataclass(frozen=True)
class LowerBoundParams:
    k: int                 # expander vertices (= number of queries)
    d: int = 3             # expander degree
    multiplicity: int = 1  # leaf edge weight and compatibility edge repeats
    seed: int = 42

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("need at least 2 expander vertices")
        if not (1 <= self.d < self.k):
            raise ValueError("degree must satisfy 1 <= d < k")
        if (self.k * self.d) % 2 != 0:
            raise ValueError("k * d must be even for a d-regular graph")
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")


def build_lower_bound_instance(params: LowerBoundParams) -> SnnInstance:
    """Sample the instance; retries until the regular graph is connected."""
    rng = np.random.default_rng(params.seed)
    h = None
    for _ in range(_MAX_TRIES):
        cand = nx.random_regular_graph(params.d, params.k,
                                       seed=int(rng.integers(2 ** 31)))
        if nx.is_connected(cand):
            h = cand
            break
    if h is None:
        raise RuntimeError("could not sample a connected regular graph")

    k, mult = params.k, params.multiplicity
    # vertices 0..k-1 are the expander, k..2k-1 the leaves
    wedges = [(u, v, 1.0) for u, v in sorted(tuple(sorted(e)) for e in h.edges())]
    wedges += [(i, k + i, float(mult)) for i in range(k)]
    space = build_graph_metric(2 * k, wedges)

    labels = np.arange(2 * k, dtype=np.int64)
    queries = np.arange(k, 2 * k, dtype=np.int64)
    compat = CompatGraph.from_pairs(
        k, [(u, v, mult) for u, v, _ in wedges[:h.number_of_edges()]])
    return make_instance(space, labels, queries, compat)


def attachment_cost(params: LowerBoundParams) -> float:
    """Cost of labeling every query with its attachment vertex."""
    k, d, m = params.k, params.d, params.multiplicity
    return k * m + k * d * m / 2.0


def default_multiplicity(k: int) -> int:
    """ceil(sqrt(log2 k)): the scaling meant to make the family's gap grow."""
    return int(np.ceil(np.sqrt(np.log2(k))))

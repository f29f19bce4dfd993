"""Joint nearest-neighbor labeling: pruning, sparse solvers, experiments."""
from .core import (Assignment, GuardExceededError, SnnInstance, brute_force_opt,
                   cost, cost_points, make_instance)
from .exact import pruning_gap
from .graphs import CompatGraph, Orientation, grid_graph, orient_edges
from .inn import inn_solve, pruned_label_set
from .metric import EuclideanSpace, LatticeBox, MatrixSpace, build_graph_metric
from .nn import NnIndex, lattice_nn_map
from .sparse import rplus_solve, sparse_assign
from .treesolve import euclidean_refine, relax
from .zeroext import (ZeroExtInstance, back_translate, snn_to_zero_extension,
                      zero_ext_cost, zero_ext_exact)

__version__ = "0.1.0"

__all__ = [
    "Assignment", "CompatGraph", "EuclideanSpace", "GuardExceededError",
    "LatticeBox", "MatrixSpace", "NnIndex", "Orientation", "SnnInstance",
    "ZeroExtInstance", "back_translate",
    "brute_force_opt", "build_graph_metric", "cost",
    "cost_points", "euclidean_refine", "grid_graph",
    "inn_solve", "lattice_nn_map", "make_instance", "orient_edges",
    "pruned_label_set", "pruning_gap", "relax", "rplus_solve",
    "snn_to_zero_extension", "sparse_assign", "zero_ext_cost", "zero_ext_exact",
]

"""Spectral graph sparsification toolkit.

Modules:
  core         weighted graphs and dense symmetric linear algebra
  engine       two-barrier rank-one update selection
  patch        subgraph ("patch") sparsification built on the engine
  ultra        low-stretch spanning trees and ultrasparsifiers
  connectivity algebraic-connectivity maximization by edge addition
  cli          command-line front end
"""

from .core import WeightedGraph, laplacian, pencil_eigenvalues
from .engine import EngineProblem, EngineResult, run_engine
from .patch import PatchSparsifier, sparsify_patch
from .ultra import UltraResult, build_ultrasparsifier, low_stretch_tree, tree_stretch
from .connectivity import (
    ConnectivityInstance,
    brute_force_opt,
    round_solution,
    solve_fractional,
)

__all__ = [
    "WeightedGraph",
    "laplacian",
    "pencil_eigenvalues",
    "EngineProblem",
    "EngineResult",
    "run_engine",
    "PatchSparsifier",
    "sparsify_patch",
    "UltraResult",
    "build_ultrasparsifier",
    "low_stretch_tree",
    "tree_stretch",
    "ConnectivityInstance",
    "brute_force_opt",
    "round_solution",
    "solve_fractional",
]
__version__ = "0.1.0"

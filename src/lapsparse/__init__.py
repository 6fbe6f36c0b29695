"""Spectral graph sparsification toolkit.

Modules:
  core         weighted graphs and dense symmetric linear algebra
  engine       two-barrier rank-one update selection
  patch        subgraph ("patch") sparsification built on the engine
  ultra        low-stretch spanning trees and ultrasparsifiers
  connectivity algebraic-connectivity maximization by edge addition
  cli          command-line front end

Importing the package imports none of them. Each name in __all__ is looked
up in its module when it is first read (PEP 562), so a command line
process compiles and runs only the modules its subcommand uses. The lookup
is not cached: lapsparse.<name> is always the module's current attribute.
"""

import importlib

_EXPORTS = {
    "core": ("WeightedGraph", "laplacian", "pencil_eigenvalues"),
    "engine": ("EngineProblem", "EngineResult", "run_engine"),
    "patch": ("PatchSparsifier", "sparsify_patch"),
    "ultra": ("UltraResult", "build_ultrasparsifier", "low_stretch_tree", "tree_stretch"),
    "connectivity": ("ConnectivityInstance", "brute_force_opt", "round_solution", "solve_fractional"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list:
    return sorted({*globals(), *__all__})

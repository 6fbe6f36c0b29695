"""The package exposes no public name that nothing uses, and the command
line calls no solver of its own.

A public module-level function, class or constant of lapsparse must be
referenced by other code in the package or be exported in
lapsparse.__all__. References are name loads and attribute reads; a name
referenced only from definitions that are themselves unreferenced counts as
unreferenced, repeated until nothing changes. core.eigh and core.eigvalsh
are exempt: they are the independent (scipy) reference solvers.
"""
import ast
from pathlib import Path

import lapsparse

SRC = Path(lapsparse.__file__).parent
EXEMPT = {"core.eigh", "core.eigvalsh"}


def _defined_names(stmt) -> list:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _referenced(node) -> set:
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
    return refs


def unreferenced_public_names(src: Path = SRC) -> list:
    """Sorted "module.name" of every public definition nothing live uses."""
    units = []  # (module, public names defined, names referenced)
    for path in sorted(src.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            public = {name for name in _defined_names(stmt) if not name.startswith("_")}
            units.append((module, public, _referenced(stmt)))
    candidates = {f"{module}.{name}" for module, public, _ in units for name in public} - EXEMPT
    exported = set(lapsparse.__all__)
    dead: set = set()
    while True:
        live_refs = set()
        for module, public, refs in units:
            if public and all(f"{module}.{name}" in dead for name in public):
                continue
            live_refs |= refs - public  # a definition does not keep itself alive
        newly = {
            qual
            for qual in candidates - dead
            if qual.split(".", 1)[1] not in live_refs | exported
        }
        if not newly:
            return sorted(dead)
        dead |= newly


def test_every_public_name_is_used_or_exported():
    dead = unreferenced_public_names()
    assert not dead, f"public names that no lapsparse code uses and __all__ omits: {', '.join(dead)}"


# Solvers and checks that only the library's measurement routines call.
SOLVER_NAMES = {
    "pencil_eigenvalues", "factor_laplacian", "_decompose", "_spectrum",
    "check_symmetric", "eigh", "eigvalsh",
}


def test_cli_calls_no_solver():
    # the command line re-checks its written output through the library's
    # own measurement routines, so it references no solver directly
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    names = _referenced(tree) | {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    assert not names & SOLVER_NAMES, f"cli references {sorted(names & SOLVER_NAMES)}"


def _iterations(tree) -> list:
    """The iterated expression of every for statement and comprehension."""
    return [
        node.iter
        for node in ast.walk(tree)
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension))
    ]


def test_no_loop_iterates_graph_edges():
    # graphs are arrays: WeightedGraph.edges builds Python triples for
    # callers outside the package, and no per-edge Python loop may come back
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for expr in _iterations(ast.parse(path.read_text(encoding="utf-8"))):
            if any(isinstance(sub, ast.Attribute) and sub.attr == "edges" for sub in ast.walk(expr)):
                offenders.append(f"{path.name}:{expr.lineno}: {ast.unparse(expr)}")
    assert not offenders, "loops over .edges: " + "; ".join(offenders)


def _calls(node) -> set:
    return {
        sub.func.id if isinstance(sub.func, ast.Name) else getattr(sub.func, "attr", "")
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call)
    }


def test_no_symmetry_scan_inside_the_solver_loop():
    # every iterate of solve_fractional and every subset of brute_force_opt
    # adds an exactly symmetric _edge_laplacian to an L_base checked once, so
    # their loops scan no n x n matrix: no check_symmetric call, also not
    # through the module's or the solver's own functions that a loop calls
    tree = ast.parse((SRC / "connectivity.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name, loop_type in (("solve_fractional", ast.While), ("brute_force_opt", ast.For)):
        solver = functions[name]
        nested = {node.name: node for node in ast.walk(solver) if isinstance(node, ast.FunctionDef) and node is not solver}
        defined = {**functions, **nested}
        loops = [node for node in ast.walk(solver) if isinstance(node, loop_type)]
        assert loops, f"{name} has no {loop_type.__name__} loop"
        names = set().union(*map(_calls, loops))
        expanded: set = set()
        while names & defined.keys() - expanded:
            callee = min(names & defined.keys() - expanded)
            expanded.add(callee)
            names |= _calls(defined[callee])
        offenders = names & {"check_symmetric"}
        assert not offenders, f"{name}'s loops call {sorted(offenders)}"


def test_connectivity_solves_on_numpy_lapack_only():
    # scipy.linalg's solvers and factorizations (solve, solve_triangular,
    # cho_factor, cholesky, inv, eigh, ...) would start scipy's own OpenBLAS
    # copy, with its own threads, next to numpy's; helmert only builds a matrix
    tree = ast.parse((SRC / "connectivity.py").read_text(encoding="utf-8"))
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "scipy.linalg"
    }
    used |= {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("scipy", "scipy.linalg")
        for alias in node.names
    }
    assert used <= {"helmert"}, f"connectivity.py uses scipy.linalg's {sorted(used - {'helmert'})}"

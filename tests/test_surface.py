"""The package exposes no public name that nothing uses, the command line
calls no solver of its own, and no command loads scipy: only the reference
solver core.eigvalsh imports it, when it is called. Each command loads only
the modules of the package that it runs, and no command loads numpy.ma.
Only the patch module builds an engine instance. Graphs stay arrays inside
the package: no loop iterates WeightedGraph.edges, and nothing reads
WeightedGraph.edge_pairs. Only WeightedGraph checks edges.

A public module-level function, class or constant of lapsparse must be
referenced by other code in the package or be exported in
lapsparse.__all__. References are name loads and attribute reads; a name
referenced only from definitions that are themselves unreferenced counts as
unreferenced, repeated until nothing changes. core.eigvalsh is exempt: it
is the independent (scipy) reference solver. An exported name must also be
referenced by package code besides its definition and the re-export, so no
public helper exists that only tests call.
"""
import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lapsparse

SRC = Path(lapsparse.__file__).parent
# The reference solver: exempt from the use check, and the only function
# that may import scipy.
EXEMPT = {"core.eigvalsh"}


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


# Exported names that no package code calls. pencil_eigenvalues stays while
# the benchmark's output checks (perfbench/checks.py) read it.
EXPORTED_FOR_OUTSIDE_READERS = {"pencil_eigenvalues"}


def test_every_exported_name_is_used_by_the_package():
    # no public helper exists that only tests call: each name in __all__ is
    # referenced by package code other than its own definition and
    # __init__'s re-export
    used = set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            used |= _referenced(stmt) - set(_defined_names(stmt))
    unused = sorted(set(lapsparse.__all__) - used - EXPORTED_FOR_OUTSIDE_READERS)
    assert not unused, f"exported names that no other lapsparse code uses: {', '.join(unused)}"


def _referenced_or_imported(module: str) -> set:
    """Every name a module of the package loads, reads as an attribute or imports."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    return _referenced(tree) | {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names
    }


# Solvers and checks that only the library's measurement routines call.
SOLVER_NAMES = {
    "pencil_eigenvalues", "factor_laplacian", "_decompose", "_spectrum",
    "check_symmetric", "eigh", "eigvalsh",
}


def test_cli_calls_no_solver():
    # the library measures every output; the command line only checks that
    # the written file reads back as the measured graph, and references no
    # solver
    names = _referenced_or_imported("cli")
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


def test_no_module_reads_graphs_as_pair_sets():
    # WeightedGraph.edge_pairs builds a set of Python pairs for callers
    # outside the package, as .edges builds triples; inside it, candidates,
    # selections and their checks stay arrays
    offenders = [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "edge_pairs"
        or isinstance(node, ast.Name) and node.id == "edge_pairs"
    ]
    assert not offenders, "references to edge_pairs: " + "; ".join(offenders)


# The messages of WeightedGraph's edge checks, the one edge validator.
EDGE_FAULTS = ("out of range for n=", "positive finite weight")


def edge_fault_raises(src: Path = SRC) -> list:
    """"module.py:line" of every raise statement in the package whose
    message text names an edge fault of EDGE_FAULTS."""
    return [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise)
        and any(
            isinstance(sub, ast.Constant) and isinstance(sub.value, str) and fault in sub.value
            for sub in ast.walk(node)
            for fault in EDGE_FAULTS
        )
    ]


def test_only_weighted_graph_checks_edges():
    # graphs are built by WeightedGraph, which checks every edge and names
    # the first bad one; no module checks edges of its own again
    sites = edge_fault_raises()
    offenders = [site for site in sites if not site.startswith("core.py:")]
    assert not offenders, "edge checks outside core.py: " + "; ".join(offenders)
    assert sites  # the guard sees core's own checks


def _callee(call) -> str:
    return call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", "")


def _calls(node) -> set:
    return {_callee(sub) for sub in ast.walk(node) if isinstance(sub, ast.Call)}


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


def test_no_symmetry_scan_of_a_built_laplacian():
    # a Laplacian built from a WeightedGraph is finite and exactly symmetric
    # by construction, so check_symmetric only sees matrices that callers
    # pass in; and factors split graphs by their edges, so core slices no
    # n x n matrix into blocks
    builders = {"laplacian", "_edge_laplacian"}
    offenders = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
            built = {  # names the function binds to a built Laplacian
                target.id
                for node in ast.walk(function)
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) and _callee(node.value) in builders
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            for node in ast.walk(function):
                if isinstance(node, ast.Call) and _callee(node) == "check_symmetric" and any(
                    (isinstance(arg, ast.Call) and _callee(arg) in builders)
                    or (isinstance(arg, ast.Name) and arg.id in built)
                    for arg in node.args
                ):
                    offenders.add(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not offenders, "symmetry scans of built Laplacians: " + "; ".join(sorted(offenders))
    core = ast.parse((SRC / "core.py").read_text(encoding="utf-8"))
    slices = [node.lineno for node in ast.walk(core) if isinstance(node, ast.Attribute) and node.attr == "ix_"]
    assert not slices, f"core.py uses np.ix_ at lines {slices}"


def test_patch_builds_no_laplacian_of_its_own():
    # the factor of L_{G+W} hands patch one pencil matrix X_c per component,
    # whose traces are T_patch and on which the engine runs, so patch builds
    # no Laplacian and takes no trace by another route
    names = _referenced_or_imported("patch")
    banned = {"laplacian", "_edge_laplacian", "_block_laplacians", "trace_pinv"}
    assert not names & banned, f"patch references {sorted(names & banned)}"


def test_only_patch_builds_an_engine_instance():
    # one module turns a graph pair into an engine instance: the patch
    # sparsifier's pencil of L_G against L_{G+W}, which ultrasparsifiers and
    # the rounding of algconn reach through sparsify_patch. An import of the
    # class counts too, so a renamed import cannot hide a call.
    sites = sorted(
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "engine"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Call) and _callee(node) == "EngineProblem")
        or (isinstance(node, ast.ImportFrom) and any(alias.name == "EngineProblem" for alias in node.names))
    )
    assert sites and all(site.startswith("patch.py:") for site in sites), sites


def test_every_numpy_eigensolve_goes_through_core():
    # core._decompose and core._spectrum turn a LAPACK failure into
    # NumericalError (exit 4, with its JSON failure line); a numpy eigh or
    # eigvalsh called anywhere else would let LinAlgError escape as a
    # traceback (exit 1)
    solvers = {"eigh", "eigvalsh"}
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        wrappers = [
            node for node in tree.body
            if path.stem == "core" and isinstance(node, ast.FunctionDef) and node.name in ("_decompose", "_spectrum")
        ]
        allowed = {id(sub) for wrapper in wrappers for sub in ast.walk(wrapper)}
        for node in ast.walk(tree):
            direct = (
                isinstance(node, ast.Attribute)
                and node.attr in solvers
                and ast.unparse(node.value) in ("np.linalg", "numpy.linalg")
            )
            imported = isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
            if (direct or imported) and id(node) not in allowed:
                offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not offenders, "numpy eigensolves outside core._decompose/_spectrum: " + "; ".join(offenders)


def test_connectivity_solves_on_numpy_lapack_only():
    # scipy.linalg's solvers and factorizations (solve, solve_triangular,
    # cho_factor, cholesky, inv, eigh, ...) would start scipy's own OpenBLAS
    # copy, with its own threads, next to numpy's; the Helmert basis is built
    # by numpy too
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
    assert not used, f"connectivity.py uses scipy.linalg's {sorted(used)}"


def scipy_imports(src: Path = SRC) -> list:
    """(module, enclosing top-level function or None, line) of every import
    statement of scipy or a scipy submodule in the package, at module level
    or inside any function body."""
    found = []
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
            for node in ast.walk(stmt):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(name == "scipy" or name.startswith("scipy.") for name in names):
                    found.append((path.stem, owner, node.lineno))
    return found


def test_only_the_reference_solvers_import_scipy():
    # scipy costs a command line process about half a second to import, and
    # its linear algebra would start a second OpenBLAS; every command runs on
    # numpy alone, and only core.eigvalsh, the independent reference
    # solver, imports scipy, from inside its own body
    found = scipy_imports()
    offenders = [
        f"{module}.py:{line} (in {owner or 'module body'})"
        for module, owner, line in found
        if f"{module}.{owner}" not in EXEMPT
    ]
    assert not offenders, "scipy imports outside the reference solvers: " + "; ".join(offenders)
    assert {f"{module}.{owner}" for module, owner, _ in found} == EXEMPT  # the guard sees their imports


_RUN_COMMANDS = """
import json, sys
import numpy as np
from lapsparse.cli import main
from lapsparse.core import eigvalsh

def scipy_modules():
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))

codes = [main(argv) for argv in json.loads(sys.argv[1])]
before = scipy_modules()
eigvalsh(np.eye(2))
print(json.dumps([codes, before, scipy_modules()]))
"""


def _small_commands(tmp_path) -> list:
    """One small argv of each subcommand, on input files written to tmp_path."""
    from lapsparse.cli import write_graph
    from lapsparse.core import WeightedGraph

    def save(name, g):
        write_graph(str(tmp_path / name), g)
        return str(tmp_path / name)

    ring = save("ring.txt", WeightedGraph(6, [(i, (i + 1) % 6, 1.0 + i / 10) for i in range(6)]))
    chords = save("chords.txt", WeightedGraph(6, [(0, 2, 0.3), (1, 4, 0.2), (3, 5, 0.4), (0, 3, 0.1)]))
    path = save("path.txt", WeightedGraph(6, [(i, i + 1, 1.0) for i in range(5)]))
    candidates = save("candidates.txt", WeightedGraph(6, [(0, 5, 1.0), (1, 4, 1.0), (0, 3, 1.0)]))
    report, out = str(tmp_path / "report.json"), str(tmp_path / "out.txt")
    return [
        ["verify", ring, ring, "--report", report],
        ["sparsify-patch", ring, chords, out, "--k", "1", "--report", report],
        ["algconn", path, candidates, out, "--k", "1", "--report", report],
        ["ultra", ring, out, "--k", "1", "--report", report],
    ]


def _run_fresh(script: str, *args: str) -> list:
    """Run script in a new interpreter that imports lapsparse from SRC; its
    last output line, parsed as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    return json.loads(run.stdout.splitlines()[-1])


def test_no_command_loads_scipy(tmp_path):
    codes, loaded, after_reference = _run_fresh(_RUN_COMMANDS, json.dumps(_small_commands(tmp_path)))
    assert codes == [0, 0, 0, 0]
    assert loaded == [], f"verify, sparsify-patch, algconn and ultra loaded {loaded}"
    # the check is live: the reference solver's scipy shows up once it runs
    assert "scipy.linalg" in after_reference


_RUN_ONE_COMMAND = """
import json, sys

def loaded(prefixes):
    return sorted(name for name in sys.modules if any(name == p or name.startswith(p + ".") for p in prefixes))

import lapsparse
bare = loaded(["lapsparse"])
from lapsparse.cli import main
code = main(json.loads(sys.argv[1]))
print(json.dumps([bare, code, loaded(["lapsparse"]), loaded(["numpy.ma", "scipy"])]))
"""

# The modules of the package that each subcommand loads besides lapsparse,
# lapsparse.cli and lapsparse.core.
PIPELINE_MODULES = {
    "verify": set(),
    "sparsify-patch": {"engine", "patch"},
    "ultra": {"engine", "patch", "ultra"},
    "algconn": {"engine", "patch", "connectivity"},
}


def test_each_command_loads_only_its_own_pipeline(tmp_path):
    # a command line process pays for every module it imports: compiling
    # it (there may be no bytecode cache) and running its body. Each
    # subcommand imports only the modules it calls, and none loads
    # numpy.ma, which a plain np.unique call imports on numpy 2.x, or scipy
    commands = _small_commands(tmp_path)
    assert {argv[0] for argv in commands} == PIPELINE_MODULES.keys()
    for argv in commands:
        bare, code, package, unwanted = _run_fresh(_RUN_ONE_COMMAND, json.dumps(argv))
        assert bare == ["lapsparse"], f"import lapsparse loaded {bare}"
        assert code == 0, argv[0]
        want = {"lapsparse", "lapsparse.cli", "lapsparse.core"}
        want |= {f"lapsparse.{module}" for module in PIPELINE_MODULES[argv[0]]}
        assert set(package) == want, f"{argv[0]} loaded {package}"
        assert unwanted == [], f"{argv[0]} loaded {unwanted}"


def test_every_exported_name_resolves_to_its_own_definition():
    # the package resolves each exported name on first access; whatever the
    # mechanism, `from lapsparse import name` gives the object that the
    # module defining the name holds, and dir() lists every exported name
    defined_in = {}
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            for name in _defined_names(stmt):
                defined_in.setdefault(name, []).append(path.stem)
    for name in lapsparse.__all__:
        assert len(defined_in.get(name, [])) == 1, f"{name} is defined in {defined_in.get(name)}"
        namespace: dict = {}
        exec(f"from lapsparse import {name}", namespace)
        module = importlib.import_module(f"lapsparse.{defined_in[name][0]}")
        assert namespace[name] is getattr(module, name), name
    assert set(lapsparse.__all__) <= set(dir(lapsparse))
    assert "__version__" in dir(lapsparse)
    with pytest.raises(AttributeError, match="no_such_name"):
        lapsparse.no_such_name
    with pytest.raises(ImportError):
        exec("from lapsparse import no_such_name", {})


def test_every_command_takes_only_its_parsed_arguments():
    # build_parser states each flag and its default once; a command takes
    # the parsed namespace alone, so no signature can restate a default
    from lapsparse import cli

    commands = {name: getattr(cli, name) for name in dir(cli) if name.startswith("cmd_")}
    assert commands.keys() == {"cmd_sparsify_patch", "cmd_ultra", "cmd_algconn", "cmd_verify"}
    for name, command in commands.items():
        params = list(inspect.signature(command).parameters.values())
        assert len(params) == 1 and params[0].default is inspect.Parameter.empty, f"{name}{inspect.signature(command)}"
        assert params[0].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD, name


def _array_holding_results() -> list:
    """One instance of each dataclass that holds numpy arrays, directly or
    through another result, built afresh on every call."""
    from conftest import make_engine_instance, random_connected_graph
    from lapsparse.connectivity import ConnectivityInstance, round_solution, solve_fractional
    from lapsparse.core import WeightedGraph, _decompose, factor_laplacian, laplacian
    from lapsparse.engine import init_schedule, initial_state, run_engine
    from lapsparse.patch import sparsify_patch
    from lapsparse.ultra import SpanningTree, build_ultrasparsifier

    rng = np.random.default_rng(38)
    g = random_connected_graph(rng, 8, extra_edges=2)
    pool = sorted({(u, v) for u in range(8) for v in range(u + 1, 8)} - g.edge_pairs())
    cand = WeightedGraph(8, [pool[int(j)] + (1.0,) for j in rng.choice(len(pool), size=6, replace=False)])
    problem = make_engine_instance(8, n=10, m=40, k=1)
    dec_x = _decompose(problem.X)
    state = initial_state(problem, init_schedule(problem.k, problem.N, problem.T), dec_x, np.zeros((0, 40)))
    factor = factor_laplacian(g)
    # a circulant whose fractional optimum has more than 8k + 1 edges, so
    # the rounding runs the engine
    circulant = WeightedGraph(12, [(i, (i + j) % 12, 1.0) for j in (1, 2, 3) for i in range(12)])
    inst = ConnectivityInstance(WeightedGraph(12, []), circulant, 1)
    frac = solve_fractional(inst)
    rounded = round_solution(inst, frac)
    assert rounded.engine is not None
    tree = WeightedGraph(8, [(i, i + 1, 1.0) for i in range(7)])
    return [
        _decompose(laplacian(g)), factor.blocks[0], factor, problem, state, run_engine(problem),
        sparsify_patch(g, cand, 1), SpanningTree.build(tree), build_ultrasparsifier(g, 1), frac, rounded,
    ]


def test_array_holding_results_compare_by_identity_and_hash():
    # a generated __eq__ compares numpy fields with ==, which raises on
    # arrays of more than one element, and unsafe_hash would hash them; these
    # results compare and hash by identity, as their readers expect
    firsts, seconds = _array_holding_results(), _array_holding_results()
    assert len({type(obj) for obj in firsts}) == 11
    for a, b in zip(firsts, seconds):
        assert a == a and a != b and not a == b, type(a).__name__
        assert hash(a) == hash(a) and len({a, b}) == 2, type(a).__name__

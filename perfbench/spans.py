"""In-memory span recorder that instruments lapsparse from outside.

``Tracer.install`` wraps every public function of each lapsparse module
(plus the few private functions and methods listed in EXTRA_HOOKS) and the
kernel entry points in KERNELS. A wrapped function replaces the original in
every lapsparse module that holds a reference to it, so ``lapsparse.patch.
run_engine`` and ``lapsparse.engine.run_engine`` both record. ``restore``
puts every original back and ``unrestored`` lists any that are not.

Each call of a layer function records a span (name, layer, start, end,
parent, error, extra). Kernel calls record a span whose parent is the
innermost open layer span; that is the layer the kernel's time is charged
to. A span's self time is its duration minus its children's durations.
``layer_metrics`` turns a list of spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

LAYERS = ("cli", "core", "engine", "patch", "ultra", "connectivity")
# core's eigensolver and symmetry shims only forward to LAPACK: leaving them
# unwrapped charges their kernels to the layer that asked for the eigensolve.
TRANSPARENT = {"core": {"eigh", "eigvalsh", "symmetrize", "check_symmetric"}}
# Private functions and methods that a layer metric needs.
EXTRA_HOOKS = (
    ("cli", "_check_coherent"),
    ("engine", "EngineProblem.validate"),
    ("ultra", "SpanningTree.build"),
)
KERNELS = (
    ("numpy", "einsum"),
    ("numpy.linalg", "eigh"),
    ("scipy.linalg", "eigh"),
    ("scipy.linalg", "eigvalsh"),
)
EIG_KERNELS = frozenset({"numpy.linalg.eigh", "scipy.linalg.eigh", "scipy.linalg.eigvalsh"})

# Span fields, by position in the per-span list.
NAME, LAYER, START, END, PARENT, ERROR, EXTRA = range(7)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _einsum_flop(args, kwargs, result) -> float:
    """Multiply-add count of an explicit einsum from its argument shapes:
    operands times the product of every index extent."""
    if not args or not isinstance(args[0], str):
        return 0.0
    inputs = args[0].replace(" ", "").split("->")[0].split(",")
    extents = {}
    for subs, operand in zip(inputs, args[1:]):
        for letter, size in zip(subs, getattr(operand, "shape", ())):
            extents[letter] = size
    total = float(len(inputs))
    for size in extents.values():
        total *= size
    return total


# What a span's `extra` field holds, per span name: bytes, steps, iterations or flop.
OBSERVERS = {
    "cli.read_graph": lambda a, k, r: _file_size(a[0] if a else k.get("path")),
    "cli.sha256_file": lambda a, k, r: _file_size(a[0] if a else k.get("path")),
    "cli.write_graph": lambda a, k, r: _file_size(a[0] if a else k.get("path")),
    "cli.dumps_report": lambda a, k, r: len(r) if isinstance(r, str) else 0,
    "engine.run_engine": lambda a, k, r: getattr(a[0] if a else k.get("problem"), "N", 0),
    "connectivity.solve_fractional": lambda a, k, r: getattr(r, "iterations", 0),
    "kernel.numpy.einsum": _einsum_flop,
}


class Tracer:
    """Records spans while installed; holds every patch needed to undo itself."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._in_kernel = False
        self._patches: list = []

    # -- wrappers ---------------------------------------------------------

    def _layer_wrapper(self, fn, name: str, layer: str):
        observe = OBSERVERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, layer, time.perf_counter(), 0.0, stack[-1] if stack else None, False, 0]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[END] = time.perf_counter()
                span[ERROR] = True
                stack.pop()
                raise
            span[END] = time.perf_counter()
            stack.pop()
            if observe is not None:
                span[EXTRA] = observe(args, kwargs, result)
            return result

        return wrapper

    def _kernel_wrapper(self, fn, name: str):
        observe = OBSERVERS.get(name)
        spans, stack, tracer = self.spans, self._stack, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._in_kernel:
                return fn(*args, **kwargs)
            tracer._in_kernel = True
            span = [name, "kernel", time.perf_counter(), 0.0, stack[-1] if stack else None, False, 0]
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = time.perf_counter()
                tracer._in_kernel = False
                spans.append(span)
            if observe is not None:
                span[EXTRA] = observe(args, kwargs, result)
            return result

        return wrapper

    # -- install / restore -------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer function and kernel; raises if already installed."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {layer: importlib.import_module(f"lapsparse.{layer}") for layer in LAYERS}
        holders = [importlib.import_module("lapsparse")] + list(modules.values())
        replace: dict = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            skip = TRANSPARENT.get(layer, set())
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and attr not in skip
                ):
                    replace[id(obj)] = (obj, self._layer_wrapper(obj, f"{layer}.{attr}", layer))
        for layer, dotted in EXTRA_HOOKS:
            owner = modules[layer]
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                continue  # hook gone from the program; its metric reads 0
            if isinstance(raw, staticmethod):
                self._patch(owner, attr, staticmethod(self._layer_wrapper(raw.__func__, f"{layer}.{dotted}", layer)))
            elif path:
                self._patch(owner, attr, self._layer_wrapper(raw, f"{layer}.{dotted}", layer))
            else:
                replace[id(raw)] = (raw, self._layer_wrapper(raw, f"{layer}.{dotted}", layer))
        for modname, attr in KERNELS:
            owner = importlib.import_module(modname)
            original = vars(owner)[attr]
            wrapper = self._kernel_wrapper(original, f"kernel.{modname}.{attr}")
            self._patch(owner, attr, wrapper)
            replace[id(original)] = (original, wrapper)
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                entry = replace.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(holder, attr, entry[1])

    def restore(self) -> None:
        """Put back every original attribute, most recent patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched_targets(self) -> list:
        """(owner, attr, original) for every attribute currently replaced."""
        return list(self._patches)


def unrestored(targets) -> list:
    """Names among (owner, attr, original) whose attribute is not the original."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, original in targets
        if vars(owner).get(attr) is not original
    ]


# ---------------------------------------------------------------------------
# Aggregation


def _ancestors(spans, i):
    p = spans[i][PARENT]
    while p is not None:
        yield p
        p = spans[p][PARENT]


def covered(spans, names, exclude=frozenset()) -> float:
    """Seconds inside spans named in `names`, counting nested ones once and
    skipping any that run inside a span named in `exclude`."""
    total = 0.0
    for i, s in enumerate(spans):
        if s[NAME] in names and not any(
            spans[a][NAME] in names or spans[a][NAME] in exclude for a in _ancestors(spans, i)
        ):
            total += s[END] - s[START]
    return total


def charged_layer(spans, i) -> str:
    p = spans[i][PARENT]
    return spans[p][LAYER] if p is not None else "none"


def _coherence_seconds(spans, children) -> float:
    """Re-check window of each command: from the end of its output write
    (or, with no output file, its first pencil solve) to the end of its
    coherence check."""
    total = 0.0
    for i, s in enumerate(spans):
        if not s[NAME].startswith("cli.cmd_"):
            continue
        mark = None
        for c in children[i]:
            name = spans[c][NAME]
            if name == "cli.write_graph" or (name == "core.pencil_eigenvalues" and mark is None):
                mark = spans[c][END]
            elif name == "cli._check_coherent" and mark is not None:
                total += spans[c][END] - mark
                mark = None
    return total


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass; values are floats, counts exact."""
    n = len(spans)
    children = [[] for _ in range(n)]
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children[s[PARENT]].append(i)
    self_s = {layer: 0.0 for layer in LAYERS}
    errors = {layer: 0 for layer in LAYERS}
    count: dict = {}
    extra: dict = {}
    for i, s in enumerate(spans):
        count[s[NAME]] = count.get(s[NAME], 0) + 1
        extra[s[NAME]] = extra.get(s[NAME], 0) + s[EXTRA]
        if s[LAYER] in self_s:
            dur = s[END] - s[START]
            self_s[s[LAYER]] += dur - sum(spans[j][END] - spans[j][START] for j in children[i])
            errors[s[LAYER]] += int(s[ERROR])

    eig_calls = {layer: 0 for layer in LAYERS}
    eig_s = {layer: 0.0 for layer in LAYERS}
    score_s = score_flop = 0.0
    for i, s in enumerate(spans):
        if s[LAYER] != "kernel":
            continue
        layer = charged_layer(spans, i)
        kname = s[NAME][len("kernel."):]
        if kname in EIG_KERNELS and layer in eig_calls:
            eig_calls[layer] += 1
            eig_s[layer] += s[END] - s[START]
        elif kname == "numpy.einsum" and layer == "engine":
            score_s += s[END] - s[START]
            score_flop += s[EXTRA]

    def runs_inside(pred) -> int:
        return sum(
            1
            for i, s in enumerate(spans)
            if s[NAME] == "engine.run_engine" and any(pred(spans[a]) for a in _ancestors(spans, i))
        )

    def c(name: str) -> int:
        return count.get(name, 0)

    steps = extra.get("engine.run_engine", 0)
    patch_runs = runs_inside(lambda a: a[NAME] == "patch.sparsify_patch")
    m = {
        "cli.parse_s": covered(spans, {"cli.read_graph", "cli.parse_graph_text", "cli.parse_graph_json"}),
        "cli.parse.calls": c("cli.read_graph"),
        "cli.bytes_read": extra.get("cli.read_graph", 0) + extra.get("cli.sha256_file", 0),
        "cli.write_s": covered(spans, {"cli.write_graph"}),
        "cli.bytes_written": extra.get("cli.write_graph", 0) + extra.get("cli.dumps_report", 0),
        "cli.report_s": covered(spans, {"cli.dumps_report"}),
        "cli.coherence_s": _coherence_seconds(spans, children),
        "core.pencil.calls": c("core.pencil_eigenvalues"),
        "core.pencil_s": covered(spans, {"core.pencil_eigenvalues"}),
        "core.pinv.calls": c("core.pseudoinverse") + c("core.pinv_sqrt"),
        "core.laplacian.calls": c("core.laplacian"),
        "core.laplacian_s": covered(spans, {"core.laplacian"}),
        "engine.runs": c("engine.run_engine"),
        "engine.steps": steps,
        "engine.run_s": covered(spans, {"engine.run_engine"}),
        "engine.score_s": score_s,
        "engine.score_gflop": score_flop / 1e9,
        "engine.eig.calls": eig_calls["engine"],
        "engine.eig_per_step": eig_calls["engine"] / steps if steps else 0.0,
        "engine.potential_s": covered(spans, {"engine.upper_potential", "engine.lower_potential"}),
        "engine.setup_s": covered(spans, {"engine.EngineProblem.validate", "engine.compute_Z"}),
        "patch.calls": c("patch.sparsify_patch"),
        "patch.build.calls": c("patch.build_patch_problem"),
        "patch.build_per_run": c("patch.build_patch_problem") / patch_runs if patch_runs else 0.0,
        "patch.build_s": covered(spans, {"patch.build_patch_problem"}),
        "patch.verify_s": covered(spans, {"patch.verify_patch"}),
        "patch.eig.calls": eig_calls["patch"],
        "ultra.tree_s": covered(
            spans,
            {"ultra.low_stretch_tree", "ultra.candidate_trees", "ultra.tree_stretch"},
            exclude={"ultra.sw_trace_check"},
        ),
        "ultra.trees_built": c("ultra.SpanningTree.build"),
        "ultra.trace_check_s": covered(spans, {"ultra.sw_trace_check"}),
        "ultra.eig.calls": eig_calls["ultra"],
        "connectivity.solve_s": covered(spans, {"connectivity.solve_fractional"}),
        "connectivity.iterations": extra.get("connectivity.solve_fractional", 0),
        "connectivity.eig.calls": eig_calls["connectivity"],
        "connectivity.eig_s": eig_s["connectivity"],
        "connectivity.round_s": covered(spans, {"connectivity.round_solution"}),
        "connectivity.engine_runs": runs_inside(lambda a: a[LAYER] == "connectivity"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
        m[f"{layer}.errors"] = errors[layer]
    return m


# Counts that must repeat exactly between two traced runs of the same inputs.
EXACT_COUNTS = (
    "engine.steps",
    "engine.eig.calls",
    "core.pencil.calls",
    "patch.build.calls",
    "connectivity.iterations",
)

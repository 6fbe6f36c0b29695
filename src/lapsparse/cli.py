"""Command-line front end: parse graphs, run the pipelines, emit reports.

Four subcommands, each defined once in build_parser: sparsify-patch, ultra,
algconn, verify. Graphs travel as UTF-8 text edge lists, in lines as
str.splitlines breaks them (header "n <count>", lines "u v w", blank lines
and # comments allowed), or as JSON documents {"n": ..., "edges": [[u, v, w],
...]} chosen by file extension. Every command can emit a structured JSON
report (stdout by default; --report writes a file, checked before the
command runs and removed again if the command fails); all reals carry 17
significant digits, and every certified claim in a report is recomputed from
the files actually written before the report is emitted. Exit codes:
0 success, 2 parse error or a file that cannot be read, decoded or written,
3 precondition violation, 4 numerical failure or running out of memory;
exit 4 also prints one JSON line on stderr with the error's name and
message, the failing engine step q and the exception's diagnostics (null
and {} when the error carries none).

At import this module loads only core. Each command imports its pipeline
when it is called: patch for sparsify-patch, ultra and patch for ultra,
connectivity for algconn, each of them with the engine; verify needs only
core.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
import warnings

import numpy as np

from .core import (
    NumericalError,
    ParseError,
    PreconditionError,
    ToolkitError,
    WeightedGraph,
    _check_vertex_count,
    laplacian,
    numpy_blas_threads,
    pencil_range,
)

COHERENCE_TOL = 1e-9


# ---------------------------------------------------------------------------
# Graph file round-trip


_EDGE_ROW = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])


def parse_graph_text(text: str, name: str) -> WeightedGraph:
    """Parse the text edge-list format, reporting 1-based line numbers.

    str.splitlines breaks the text into lines, once. The header is the first
    line with content; one np.loadtxt call reads the lines after it, and if
    that call errors or warns, or its edges fail validation, the line scanner
    reads the same lines and names the one at fault."""
    lines = text.splitlines()
    for start, raw in enumerate(lines, 1):
        parts = raw.split("#", 1)[0].split()
        if parts:
            break
    else:
        raise ParseError(f"{name}: missing 'n <count>' header")
    if len(parts) != 2 or parts[0] != "n":
        raise ParseError(f"{name}:{start}: expected header 'n <count>', got {raw.strip()!r}")
    try:
        n = int(parts[1])
    except ValueError:
        raise ParseError(f"{name}:{start}: vertex count {parts[1]!r} is not an integer") from None
    try:
        _check_vertex_count(n)
    except PreconditionError as exc:
        raise ParseError(f"{name}:{start}: {exc}") from None
    body = lines[start:]
    try:
        with warnings.catch_warnings():
            # numpy 1.x reads "1.0" into an integer column with only a
            # DeprecationWarning, and an empty body warns as well
            warnings.simplefilter("error")
            rows = np.loadtxt(body, dtype=_EDGE_ROW, comments="#", ndmin=1)
        return WeightedGraph.from_arrays(n, rows["u"], rows["v"], rows["w"])
    except (ValueError, OverflowError, Warning, PreconditionError):
        return _scan_edges(n, body, start, name)


def _scan_edges(n: int, body: list, start: int, name: str) -> WeightedGraph:
    """The graph on n vertices whose edges are the lines `body` after the
    header on line `start`, read one line at a time to name a bad one."""
    edges = []
    for lineno, raw in enumerate(body, start + 1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) != 3:
            raise ParseError(f"{name}:{lineno}: expected 'u v w', got {raw.strip()!r}")
        try:
            u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ParseError(f"{name}:{lineno}: cannot parse edge line {raw.strip()!r}") from None
        edges.append((u, v, w, lineno))
    try:
        return WeightedGraph(n, [(u, v, w) for u, v, w, _ in edges])
    except PreconditionError as exc:
        # name the first line that is bad on its own, if one is
        for u, v, w, lineno in edges:
            try:
                WeightedGraph(max(n, 1), [(u, v, w)])
            except PreconditionError as line_exc:
                raise ParseError(f"{name}:{lineno}: {line_exc}") from None
        raise ParseError(f"{name}: {exc}") from None


def parse_graph_json(text: str, name: str) -> WeightedGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{name}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise ParseError(f"{name}: JSON graph needs keys 'n' and 'edges'")
    # exact types, not isinstance: JSON true and false load as bool, an int subclass
    if type(doc["n"]) is not int:
        raise ParseError(f"{name}: 'n' must be an integer")
    if not isinstance(doc["edges"], list):
        raise ParseError(f"{name}: 'edges' must be a list of [u, v, w]")
    edges = []
    for i, item in enumerate(doc["edges"]):
        if not isinstance(item, (list, tuple)) or len(item) != 3:
            raise ParseError(f"{name}: edges[{i}] must be [u, v, w]")
        u, v, w = item
        if type(u) is not int or type(v) is not int or type(w) not in (int, float):
            raise ParseError(f"{name}: edges[{i}] must be [int, int, number]")
        try:
            edges.append((u, v, float(w)))
        except OverflowError:  # an integer too large for a float
            raise ParseError(f"{name}: edges[{i}] weight does not fit in a float") from None
    try:
        return WeightedGraph(doc["n"], edges)
    except PreconditionError as exc:
        raise ParseError(f"{name}: {exc}") from None


def _read_graph_bytes(path: str) -> tuple[WeightedGraph, bytes]:
    """The graph in `path` and the bytes it was parsed from, read once and
    decoded as UTF-8 with CRLF and lone CR read as LF, as text mode reads."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: cannot read: {exc}") from None
    if "\r" in text:  # on a 250 KB input, a search for the two-character CRLF costs 100x this test
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    parse = parse_graph_json if path.endswith(".json") else parse_graph_text
    return parse(text, path), data


def read_graph(path: str) -> WeightedGraph:
    return _read_graph_bytes(path)[0]


def graph_to_text(g: WeightedGraph) -> str:
    rows = zip(g.u.tolist(), g.v.tolist(), map(format_float, g.w.tolist()))
    return "\n".join([f"n {g.n}", *(f"{u} {v} {w}" for u, v, w in rows)]) + "\n"


def graph_to_json(g: WeightedGraph) -> str:
    edges = [list(row) for row in zip(g.u.tolist(), g.v.tolist(), g.w.tolist())]
    return dumps_report({"n": g.n, "edges": edges}) + "\n"


def _write_text(path: str, text: str) -> None:
    """Write `text` to `path` as it is; a path that cannot be written raises
    ParseError (exit 2), as an unreadable input does."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ParseError(f"{path}: cannot write: {exc}") from None


def write_graph(path: str, g: WeightedGraph) -> None:
    _write_text(path, graph_to_json(g) if path.endswith(".json") else graph_to_text(g))


# ---------------------------------------------------------------------------
# Report serialization: JSON with 17-significant-digit reals


def format_float(x: float) -> str:
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


# Report keys come from a small fixed set; each is encoded once.
_key = functools.lru_cache(maxsize=1024)(json.dumps)


def _scalar(obj) -> str:
    """JSON text of one report value that holds no other."""
    if type(obj) is float:  # most values; the checks below cover the rest
        return format_float(obj)
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def _dumps(obj, indent: int) -> str:
    """Report JSON of obj at the given depth. Each dict or list is one join
    of its members' texts, and a member that holds no other value is
    formatted in place: a flat row, such as one potential-trace step, takes
    no recursive call per value."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        lines = [
            f"{pad}  {_key(str(key))}: "
            + (_dumps(val, indent + 1) if isinstance(val, (dict, list, tuple)) else _scalar(val))
            for key, val in obj.items()
        ]
        return "{\n" + ",\n".join(lines) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        lines = [
            f"{pad}  " + (_dumps(val, indent + 1) if isinstance(val, (dict, list, tuple)) else _scalar(val))
            for val in obj
        ]
        return "[\n" + ",\n".join(lines) + f"\n{pad}]"
    return _scalar(obj)


def dumps_report(report: dict) -> str:
    return _dumps(report, 0)


# ---------------------------------------------------------------------------
# Shared report plumbing


def _read_inputs(**paths: str) -> tuple:
    """The graph in each file, then the report's inputs block: each file is
    read once, before the command writes anything (an output may overwrite
    an input), and its hash is of the bytes parsed."""
    read = {name: _read_graph_bytes(path) for name, path in paths.items()}
    inputs = {name: {"path": paths[name], "sha256": hashlib.sha256(data).hexdigest()} for name, (_, data) in read.items()}
    return (*(graph for graph, _ in read.values()), inputs)


def _write_trace_csv(path: str, engine_results) -> None:
    """The trace as csv.writer writes it, one CRLF-terminated row per engine
    step: every field is a number or a plain name, so none needs quoting."""
    from .engine import StepRecord

    lines = [",".join(("engine", *StepRecord._fields))]
    for engine_idx, result in enumerate(engine_results):
        for rec in result.trace:
            fields = (str(val) if isinstance(val, int) else format_float(val) for val in rec)
            lines.append(",".join((str(engine_idx), *fields)))
    _write_text(path, "".join(line + "\r\n" for line in lines))


def _report_tail(engine_results, trace_csv, worst: float, t_start: float, t_solve: float) -> dict:
    """The closing blocks of an engine command's report: the potential
    trace, the coherence verdict and the timings. Writes the trace CSV first
    when one is asked for, so total_seconds includes it."""
    if trace_csv is not None:
        _write_trace_csv(trace_csv, engine_results)
    t_end = time.perf_counter()
    return {
        "potential_trace": [
            {"engine": i, "steps": [rec._asdict() for rec in res.trace]}
            for i, res in enumerate(engine_results)
        ],
        "coherence": {
            "recomputed_from_output": True,
            "max_relative_deviation": worst,
        },
        "timings": {
            "solve_seconds": t_solve - t_start,
            "total_seconds": t_end - t_start,
        },
    }


def _relative_deviation(a: float, b: float) -> float:
    """0 for equal values, two infinities of one sign included; inf when
    either is not finite otherwise, so that no NaN or infinity passes a
    coherence check."""
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _check_coherent(claims: list) -> float:
    """claims: (label, reported, recomputed) triples; raise if any disagree."""
    worst = 0.0
    for label, reported, recomputed in claims:
        dev = _relative_deviation(float(reported), float(recomputed))
        worst = max(worst, dev)
        if dev > COHERENCE_TOL:
            raise NumericalError(
                f"report-output coherence broken for {label}: reported {reported!r},"
                f" recomputed from the written output {recomputed!r}"
            )
    return worst


# ---------------------------------------------------------------------------
# Commands


def cmd_sparsify_patch(
    g_path: str,
    w_path: str,
    k: int,
    out_path: str,
    n_budget: int | None = None,
    trace_csv: str | None = None,
) -> dict:
    from .patch import measure_sandwich, sparsify_patch

    t_start = time.perf_counter()
    g, w, inputs = _read_inputs(g=g_path, w=w_path)
    result = sparsify_patch(g, w, k, n_budget)
    t_solve = time.perf_counter()
    write_graph(out_path, result.wk)

    wk_back = read_graph(out_path)
    re_lower, re_upper = measure_sandwich(
        g.union(wk_back), result.factor, result.certified_lower, result.certified_upper
    )
    worst = _check_coherent(
        [
            ("measured pencil lower", result.measured_lower, re_lower),
            ("measured pencil upper", result.measured_upper, re_upper),
            ("total selected weight", result.total_weight, wk_back.weight_sum()),
        ]
    )

    return {
        "command": "sparsify-patch",
        "inputs": inputs,
        "output": {"path": out_path, "edges": wk_back.num_edges},
        "parameters": {"k": k, "n_budget": result.n_budget},
        "patch": {
            "k": result.params.k,
            "t_patch": result.params.T_patch,
            "lambda_star": result.params.lambda_star,
        },
        "certified": {
            "pencil_lower": result.certified_lower,
            "pencil_upper": result.certified_upper,
            "weight_bound": result.weight_bound,
        },
        "measured": {
            "pencil_lower": result.measured_lower,
            "pencil_upper": result.measured_upper,
            "total_weight": result.total_weight,
            "support": result.wk.num_edges,
        },
        **_report_tail(result.engine_results, trace_csv, worst, t_start, t_solve),
    }


def cmd_ultra(
    g_path: str,
    k: int,
    out_path: str,
    seed: int = 0,
    trace_csv: str | None = None,
) -> dict:
    from .patch import measure_sandwich
    from .ultra import build_ultrasparsifier

    t_start = time.perf_counter()
    g, inputs = _read_inputs(g=g_path)
    result = build_ultrasparsifier(g, k, seed=seed)
    t_solve = time.perf_counter()
    write_graph(out_path, result.u)
    engine_results = result.patch.engine_results if result.patch is not None else ()

    u_back = read_graph(out_path)
    re_c, re_kappa = measure_sandwich(u_back, result.factor, 0.0, result.certified_upper)
    worst = _check_coherent(
        [
            ("pencil (U, G) lower", result.c, re_c),
            ("pencil (U, G) upper", result.kappa, re_kappa),
            ("measured kappa", result.kappa_measured, re_kappa / re_c),
            ("edge count", result.edge_count, u_back.num_edges),
        ]
    )

    report = {
        "command": "ultra",
        "inputs": inputs,
        "output": {"path": out_path, "edges": u_back.num_edges},
        "parameters": {"k": k, "seed": seed},
        "stretch": {
            "total": result.stretch.total,
            "trace_residual": result.trace_residual,
        },
        "certified": {
            "kappa_target": result.kappa_target,
            "pencil_lower_constant": result.certified_lower,
        },
        "measured": {
            "c": result.c,
            "kappa": result.kappa,
            "pencil_g_over_u_lower": result.gen_lower,
            "pencil_g_over_u_upper": result.gen_upper,
            "relative_condition_number": result.kappa_measured,
        },
        **_report_tail(engine_results, trace_csv, worst, t_start, t_solve),
    }
    if result.patch is not None:
        report["patch"] = {
            "k": result.patch.params.k,
            "t_patch": result.patch.params.T_patch,
            "lambda_star": result.patch.params.lambda_star,
            "certified_pencil_lower": result.patch.certified_lower,
            "certified_pencil_upper": result.patch.certified_upper,
        }
    return report


def cmd_algconn(
    base_path: str,
    cand_path: str,
    k: int,
    out_path: str,
    tol: float = 1e-4,
    oracle: bool = False,
    trace_csv: str | None = None,
) -> dict:
    from .connectivity import (
        ConnectivityInstance,
        brute_force_opt,
        certify_lambda2,
        round_solution,
        solve_fractional,
    )

    t_start = time.perf_counter()
    base, cand_graph, inputs = _read_inputs(base=base_path, candidates=cand_path)
    if cand_graph.n != base.n:
        raise PreconditionError(f"candidate file has {cand_graph.n} vertices, base has {base.n}")
    off_unit = np.flatnonzero(cand_graph.w != 1.0)
    if off_unit.size:
        i = off_unit[0]
        raise PreconditionError(
            f"candidate edge ({cand_graph.u[i]},{cand_graph.v[i]}) has weight"
            f" {float(cand_graph.w[i])!r}; candidates must be unit-weight"
        )
    inst = ConnectivityInstance(base, cand_graph.edge_pairs(), k)
    frac = solve_fractional(inst, tol=tol)
    rounded = round_solution(inst, frac)
    t_solve = time.perf_counter()
    selection = WeightedGraph(base.n, [(u, v, w) for (u, v), w in zip(rounded.selected, rounded.weights)])
    write_graph(out_path, selection)
    engine_results = (rounded.engine,) if rounded.engine is not None else ()

    sel_back = read_graph(out_path)
    re_lambda2 = certify_lambda2(laplacian(base) + laplacian(sel_back), rounded.floor)
    worst = _check_coherent(
        [
            ("achieved lambda_2 (weighted)", rounded.lambda2_weighted, re_lambda2),
            ("selected support", len(rounded.selected), sel_back.num_edges),
        ]
    )

    report = {
        "command": "algconn",
        "inputs": inputs,
        "output": {"path": out_path, "edges": sel_back.num_edges},
        "parameters": {"k": k, "tol": tol, "delta": inst.delta},
        "fractional": {
            "lambda_sdp": frac.lambda_sdp,
            "lambda_upper": frac.lambda_upper,
            "gap": frac.gap,
            "iterations": frac.iterations,
            "gradient_norm": frac.gradient_norm,
            "converged": frac.converged,
            "weights": [float(x) for x in frac.weights],
        },
        "rounded": {
            "selected": [[u, v] for u, v in rounded.selected],
            "weights": [float(x) for x in rounded.weights],
            "lambda2_weighted": rounded.lambda2_weighted,
            "lambda2_unweighted": rounded.lambda2_unweighted,
            "lambda_k2": rounded.lambda_k2,
            "floor": rounded.floor,
        },
        **_report_tail(engine_results, trace_csv, worst, t_start, t_solve),
    }
    if oracle:
        value, edges = brute_force_opt(inst)
        report["oracle"] = {
            "value": value,
            "edges": [[u, v] for u, v in edges],
            "within_sdp_upper": bool(value <= frac.lambda_upper + 1e-9),
            "within_lambda_k2_upper": bool(value <= rounded.lambda_k2 + 1e-9),
        }
    return report


def cmd_verify(g_path: str, h_path: str) -> dict:
    t_start = time.perf_counter()
    g, h, inputs = _read_inputs(g=g_path, h=h_path)
    c, kappa = pencil_range(h, g)
    t_end = time.perf_counter()
    return {
        "command": "verify",
        "inputs": inputs,
        "parameters": {},
        "measured": {
            "c": c,
            "kappa": kappa,
            "relative_condition_number": kappa / c if c > 0 else math.inf,
        },
        # verify writes no output, so nothing is recomputed; the block stays
        # because report readers expect it in every report.
        "coherence": {
            "recomputed_from_output": False,
            "max_relative_deviation": 0.0,
        },
        "timings": {"total_seconds": t_end - t_start},
    }


# ---------------------------------------------------------------------------
# Argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: each parse_args call fills a fresh namespace. Each subcommand
    sets `run`, which calls its cmd_* function by name at call time."""
    parser = argparse.ArgumentParser(
        prog="lapsparse",
        description="Spectral sparsification toolkit: patch sparsifiers,"
        " ultrasparsifiers, and algebraic-connectivity maximization.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("sparsify-patch", help="select few reweighted edges of W sandwiching G+W")
    p.add_argument("g", help="base graph file")
    p.add_argument("w", help="patch graph file")
    p.add_argument("out", help="output file for the selected edges")
    p.add_argument("--k", type=int, required=True, help="protected eigenvalue count")
    p.add_argument("--n-budget", type=int, default=None, help="edge budget N (default 8k+1)")
    p.set_defaults(run=lambda a: cmd_sparsify_patch(a.g, a.w, a.k, a.out, a.n_budget, a.trace_csv))

    p = sub.add_parser("ultra", help="build a spanning-tree-plus-few-edges approximation")
    p.add_argument("g", help="input graph file")
    p.add_argument("out", help="output file for the sparsifier")
    p.add_argument("--k", type=int, required=True, help="extra-edge budget parameter")
    p.add_argument("--seed", type=int, default=0, help="seed for the spanning-tree ensemble")
    p.set_defaults(run=lambda a: cmd_ultra(a.g, a.k, a.out, a.seed, a.trace_csv))

    p = sub.add_parser("algconn", help="maximize lambda_2 by adding at most k candidate edges")
    p.add_argument("base", help="base graph file")
    p.add_argument("candidates", help="candidate edges as a unit-weight graph file")
    p.add_argument("out", help="output file for the selected weighted edges")
    p.add_argument("--k", type=int, required=True, help="edge budget")
    p.add_argument("--tol", type=float, default=1e-4, help="certified gap at which the fractional solver stops")
    p.add_argument("--oracle", action="store_true", help="also run the exhaustive oracle")
    p.set_defaults(run=lambda a: cmd_algconn(a.base, a.candidates, a.k, a.out, a.tol, a.oracle, a.trace_csv))

    p = sub.add_parser("verify", help="measure the tightest c L_G <= L_H <= kappa L_G")
    p.add_argument("g", help="reference graph file")
    p.add_argument("h", help="graph to compare against the reference")
    p.set_defaults(run=lambda a: cmd_verify(a.g, a.h))

    for name, p in sub.choices.items():
        p.add_argument("--report", default=None, help="write the JSON report here instead of stdout")
        if name != "verify":
            p.add_argument("--trace-csv", default=None, help="write the per-step potential trace as CSV")
    return parser


def _keep_arrays_on_the_heap() -> None:
    """Free one 1 MiB array. glibc's malloc maps every array above its mmap
    threshold (128 KiB at start) from the kernel and unmaps it on free, so
    each such temporary faults in fresh zeroed pages; freeing a mapped block
    raises the threshold to that block's size, and the heap-trim threshold
    to twice it. Later arrays of up to 1 MiB (the engine's d x d and m x d
    temporaries at n = 120) then stay on the heap. Other allocators only
    free the array."""
    np.empty(1 << 17)


def _claim_report(path: str) -> bool:
    """Check before the command runs that the report can be written, by
    creating the file or opening it to append nothing; True if created."""
    try:
        try:
            open(path, "x").close()
            return True
        except FileExistsError:
            open(path, "a").close()
            return False
    except OSError as exc:
        raise ParseError(f"{path}: cannot write: {exc}") from None


def main(argv: list | None = None) -> int:
    args = build_parser().parse_args(argv)
    _keep_arrays_on_the_heap()
    created = False
    try:
        created = bool(args.report) and _claim_report(args.report)
        # Every solve and product here is at most a few hundred wide: a
        # second BLAS thread adds no speed there, only a spinning core whose
        # availability the command's time then depends on.
        with numpy_blas_threads(1):
            report = args.run(args)
        text = dumps_report(report) + "\n"
        if args.report:
            _write_text(args.report, text)
        else:
            sys.stdout.write(text)
    except (ToolkitError, MemoryError) as exc:
        if created:  # a failed command leaves no report file behind
            import os
            os.remove(args.report)
        print(f"error: {exc}", file=sys.stderr)
        code = 2 if isinstance(exc, ParseError) else 3 if isinstance(exc, PreconditionError) else 4
        if code == 4:
            diags = getattr(exc, "diagnostics", {})
            # numpy raises a private subclass of MemoryError
            error = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
            failure = {"error": error, "message": str(exc), "q": diags.get("q"), "diagnostics": diags}
            print(json.dumps(failure), file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())

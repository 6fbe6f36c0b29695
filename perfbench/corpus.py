"""Seeded input corpus for the benchmark workloads.

Every input is a graph file in lapsparse's text edge-list format, generated
from (seed, workload, input index) alone, so the same seed always yields
byte-identical files. Sizes are fixed per workload and only the random
structure and weights depend on the seed: run-to-run differences then come
from the machine, not from drawing a larger or smaller instance.

A workload is a list of commands, each an argv for ``lapsparse.cli.main``
with ``{out}`` and ``{report}`` placeholders filled in per execution, plus a
tiny warm-up command of the same subcommand that the worker runs untimed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

WORKLOAD_IDS = {"ultra": 1, "patch-split": 2, "algconn": 3, "verify": 4}

# (n, edges) per ultra input: about 3n edges. Six graphs of one size, because
# the measured condition number varies by about 13% from graph to graph.
ULTRA_SIZES = ((120, 360),) * 6
ULTRA_K = 8
# (components, vertices per component, W edges per component) for patch-split.
# Sixteen inputs, because the measured sandwich varies by about 15% between inputs.
PATCH_SHAPES = ((12, 30, 200),) * 16
PATCH_K = 6
# (n, candidates, k) for algconn. Mostly one shape, so that the median command
# falls inside one shape rather than between two: each command's wall time
# varies by about 15% on a shared 2-core machine.
ALGCONN_SHAPES = ((30, 40, 3),) * 5 + ((60, 150, 5),)
# (n, edges) per verify graph; each input is a pair with these edge counts.
VERIFY_N = 400
VERIFY_EDGES = (3000, 4800, 6600, 8400, 10200, 12000)

TINY = {
    "ultra": {"sizes": ((20, 50), (24, 60)), "k": 2},
    "patch-split": {"shapes": ((3, 8, 14),), "k": 1},
    "algconn": {"shapes": ((8, 6, 1),)},
    "verify": {"n": 30, "edges": (60, 120)},
}


@dataclass(frozen=True)
class Command:
    """One benchmark input: the argv template and the files it reads."""

    name: str
    argv: tuple
    inputs: dict
    params: dict


@dataclass(frozen=True)
class Corpus:
    workload: str
    warmup: Command
    commands: tuple


def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_IDS[workload], index])


def _format_weight(w: float) -> str:
    return format(float(w), ".17g")


def write_graph_text(path: str, n: int, edges) -> None:
    """Write the 'n <count>' header and one 'u v w' line per edge."""
    lines = [f"n {n}"]
    lines += [f"{u} {v} {_format_weight(w)}" for u, v, w in edges]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def random_tree(rng: np.random.Generator, n: int) -> list:
    """Random spanning tree: vertex order[i] attaches to a uniform earlier vertex."""
    order = rng.permutation(n)
    if n < 2:
        return []
    attach = order[rng.integers(0, np.arange(1, n))]
    return [(int(min(a, b)), int(max(a, b))) for a, b in zip(order[1:], attach)]


def extra_pairs(rng: np.random.Generator, n: int, count: int, exclude) -> list:
    """`count` distinct vertex pairs u < v, none of them in `exclude`."""
    rows, cols = np.triu_indices(n, 1)
    taken = set(exclude)
    if count > rows.size - len(taken):
        raise ValueError(f"cannot place {count} more edges on {n} vertices")
    picked = []
    for j in rng.permutation(rows.size):
        pair = (int(rows[j]), int(cols[j]))
        if pair not in taken:
            picked.append(pair)
            if len(picked) == count:
                break
    return picked


def connected_graph(rng: np.random.Generator, n: int, m: int) -> list:
    """Connected graph with m edges: a random tree plus m - n + 1 chords, weights U(0.5, 2)."""
    pairs = random_tree(rng, n)
    pairs += extra_pairs(rng, n, m - len(pairs), pairs)
    weights = rng.uniform(0.5, 2.0, size=len(pairs))
    return [(u, v, float(w)) for (u, v), w in zip(pairs, weights)]


def _ultra(rng, workdir, name, n, m, k) -> Command:
    g = os.path.join(workdir, f"{name}.g.txt")
    write_graph_text(g, n, connected_graph(rng, n, m))
    argv = ("ultra", g, "{out}", "--k", str(k), "--report", "{report}")
    return Command(name, argv, {"g": g}, {"n": n, "edges": m, "k": k})


def _patch_split(rng, workdir, name, comps, size, w_edges, k) -> Command:
    """G is a spanning tree per component, W adds w_edges chords inside each
    component, so G+W splits into exactly `comps` components."""
    g_edges, w_all = [], []
    for c in range(comps):
        off = c * size
        tree = random_tree(rng, size)
        chords = extra_pairs(rng, size, w_edges, tree)
        g_w = rng.uniform(0.5, 2.0, size=len(tree))
        w_w = rng.uniform(0.5, 2.0, size=len(chords))
        g_edges += [(u + off, v + off, float(w)) for (u, v), w in zip(tree, g_w)]
        w_all += [(u + off, v + off, float(w)) for (u, v), w in zip(chords, w_w)]
    n = comps * size
    g = os.path.join(workdir, f"{name}.g.txt")
    w = os.path.join(workdir, f"{name}.w.txt")
    write_graph_text(g, n, g_edges)
    write_graph_text(w, n, w_all)
    argv = ("sparsify-patch", g, w, "{out}", "--k", str(k), "--report", "{report}")
    params = {"components": comps, "size": size, "w_edges": w_edges, "k": k}
    return Command(name, argv, {"g": g, "w": w}, params)


def _algconn(rng, workdir, name, n, m, k) -> Command:
    """Base: random tree plus n/5 chords; candidates: m unit-weight non-edges."""
    base = connected_graph(rng, n, n - 1 + n // 5)
    cand = extra_pairs(rng, n, m, [(u, v) for u, v, _ in base])
    b = os.path.join(workdir, f"{name}.base.txt")
    c = os.path.join(workdir, f"{name}.cand.txt")
    write_graph_text(b, n, base)
    write_graph_text(c, n, [(u, v, 1.0) for u, v in cand])
    argv = ("algconn", b, c, "{out}", "--k", str(k), "--report", "{report}")
    return Command(name, argv, {"base": b, "candidates": c}, {"n": n, "m": m, "k": k})


def _verify(rng, workdir, name, n, m) -> Command:
    g = os.path.join(workdir, f"{name}.g.txt")
    h = os.path.join(workdir, f"{name}.h.txt")
    write_graph_text(g, n, connected_graph(rng, n, m))
    write_graph_text(h, n, connected_graph(rng, n, m))
    argv = ("verify", g, h, "--report", "{report}")
    return Command(name, argv, {"g": g, "h": h}, {"n": n, "edges": m})


def build(workload: str, seed: int, workdir: str, tiny: bool = False) -> Corpus:
    """Generate the workload's warm-up input and command inputs under workdir."""
    if workload not in WORKLOAD_IDS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(workdir, exist_ok=True)

    def rng(index: int) -> np.random.Generator:  # index 0 is the warm-up
        return _rng(seed, workload, index)

    if workload == "ultra":
        sizes, k = (TINY["ultra"]["sizes"], TINY["ultra"]["k"]) if tiny else (ULTRA_SIZES, ULTRA_K)
        warmup = _ultra(rng(0), workdir, "warmup", 20, 50, 2)
        cmds = [_ultra(rng(i + 1), workdir, f"u{i}", n, m, k) for i, (n, m) in enumerate(sizes)]
    elif workload == "patch-split":
        shapes, k = (TINY["patch-split"]["shapes"], TINY["patch-split"]["k"]) if tiny else (PATCH_SHAPES, PATCH_K)
        warmup = _patch_split(rng(0), workdir, "warmup", 2, 8, 12, 1)
        cmds = [_patch_split(rng(i + 1), workdir, f"p{i}", *s, k) for i, s in enumerate(shapes)]
    elif workload == "algconn":
        shapes = TINY["algconn"]["shapes"] if tiny else ALGCONN_SHAPES
        warmup = _algconn(rng(0), workdir, "warmup", 8, 6, 1)
        cmds = [_algconn(rng(i + 1), workdir, f"a{i}", *s) for i, s in enumerate(shapes)]
    else:
        n, edges = (TINY["verify"]["n"], TINY["verify"]["edges"]) if tiny else (VERIFY_N, VERIFY_EDGES)
        warmup = _verify(rng(0), workdir, "warmup", 20, 40)
        cmds = [_verify(rng(i + 1), workdir, f"v{i}", n, m) for i, m in enumerate(edges)]
    return Corpus(workload, warmup, tuple(cmds))

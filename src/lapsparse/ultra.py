"""Low-stretch spanning trees, stretch reports, and ultrasparsifiers.

The pipeline: pick a spanning tree T with small total stretch from a
candidate ensemble, scale W = G / kappa with kappa = C1 * st_T(G) / k,
sparsify W against T through the selection engine, and return U = T + W_k
together with the measured generalized-eigenvalue sandwich c L_G <= L_U <=
kappa L_G, the (L_U, L_G) pencil against the factor of L_G.

The tree ensemble, its rooting and the stretch queries are numpy code: no
routine here loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DisconnectedError,
    LaplacianFactor,
    NumericalError,
    PreconditionError,
    WeightedGraph,
    _integral,
    factor_laplacian,
)
from .patch import PatchSparsifier, measure_sandwich, sparsify_patch

# Thresholds t at which sw_trace_check tests the tail bound #{lambda > t} <= st/t.
TAIL_PROBES = (1.0, 2.0, 5.0, 10.0)
# kappa_target = C1 * st_T(G) / k, and the patch W = G / kappa_target.
C1 = 4.0


@dataclass(frozen=True)
class SpanningTree:
    """Rooted spanning tree with the structures stretch queries need.

    parent[v] is v's parent (-1 at the root, vertex 0); parent_weight[v] the
    weight of the edge to the parent; depth[v] the edge count to the root;
    resistance_to_root[v] the sum of 1/w along the root path. ancestors is
    the binary-lifting table for lowest-common-ancestor queries.
    """

    n: int
    parent: np.ndarray
    parent_weight: np.ndarray
    depth: np.ndarray
    resistance_to_root: np.ndarray
    ancestors: np.ndarray

    @staticmethod
    def build(n: int, u, v, w) -> "SpanningTree":
        """Root the n-1 tree edges (u[i], v[i]) of weight w[i], in either
        orientation, at vertex 0 and precompute tables.

        Raises PreconditionError for endpoints that are not integers, a
        wrong edge count, an endpoint outside 0..n-1 or a weight that is not
        finite and positive, and DisconnectedError when the edges do not
        span the n vertices.
        """
        u, v = np.asarray(u), np.asarray(v)
        if u.dtype.kind not in "iu" or v.dtype.kind not in "iu":
            raise PreconditionError(f"tree edge endpoints need integer vertex ids, got {u.dtype}, {v.dtype}")
        u, v, w = u.astype(np.int64, copy=False), v.astype(np.int64, copy=False), np.asarray(w, dtype=float)
        if not u.size == v.size == w.size == n - 1:
            raise PreconditionError(f"a spanning tree on {n} vertices needs {n - 1} edges, got {u.size}")
        outside = np.flatnonzero((u < 0) | (u >= n) | (v < 0) | (v >= n))
        if outside.size:
            i = outside[0]
            raise PreconditionError(f"tree edge ({u[i]},{v[i]}) out of range for n={n}")
        unweighted = np.flatnonzero(~((w > 0) & np.isfinite(w)))
        if unweighted.size:
            i = unweighted[0]
            raise PreconditionError(f"tree edge ({u[i]},{v[i]}) needs a positive finite weight, got {w[i]}")
        # breadth-first from vertex 0; each vertex's depth and resistance are
        # summed edge by edge from the root down, as it is reached
        _, ends, weights, start = _arcs(n, u, v, w)
        head, weight, first = ends.tolist(), weights.tolist(), start.tolist()
        up, up_weight, depth, resistance = [-2] * n, [0.0] * n, [0] * n, [0.0] * n
        up[0], order = -1, [0]
        for x in order:  # grows as vertices are reached
            for i in range(first[x], first[x + 1]):
                y = head[i]
                if up[y] == -2:
                    up[y], up_weight[y] = x, weight[i]
                    depth[y], resistance[y] = depth[x] + 1, resistance[x] + 1.0 / weight[i]
                    order.append(y)
        if len(order) < n:
            raise DisconnectedError("edge set does not span all vertices")
        parent = np.array(up)
        levels = max(1, int(math.ceil(math.log2(max(n, 2)))))
        anc = np.full((levels, n), -1, dtype=int)
        anc[0] = parent
        for j in range(1, levels):
            prev = anc[j - 1]
            anc[j] = np.where(prev >= 0, prev[prev], -1)
        return SpanningTree(
            n=n,
            parent=parent,
            parent_weight=np.array(up_weight),
            depth=np.array(depth),
            resistance_to_root=np.array(resistance),
            ancestors=anc,
        )

    def graph(self) -> WeightedGraph:
        child = np.flatnonzero(self.parent >= 0)
        return WeightedGraph.from_arrays(self.n, child, self.parent[child], self.parent_weight[child])

    def lca(self, u, v):
        """Lowest common ancestors of the pairs (u[i], v[i]) by binary
        lifting, all pairs at once; scalar u and v give an int."""
        u, v = np.asarray(u, dtype=int), np.asarray(v, dtype=int)
        if np.any((u < 0) | (u >= self.n) | (v < 0) | (v >= self.n)):
            raise PreconditionError(f"vertex pair outside the tree on {self.n} vertices")
        du, dv = self.depth[u], self.depth[v]
        deep, high = np.where(du >= dv, u, v), np.where(du >= dv, v, u)
        diff = np.abs(du - dv)
        for j in range(self.ancestors.shape[0]):
            deep = np.where((diff >> j) & 1 == 1, self.ancestors[j, deep], deep)
        # deep and high now sit at one depth, so their 2^j-th ancestors both
        # exist or both are -1.
        for j in range(self.ancestors.shape[0] - 1, -1, -1):
            a_deep, a_high = self.ancestors[j, deep], self.ancestors[j, high]
            step = a_deep != a_high
            deep, high = np.where(step, a_deep, deep), np.where(step, a_high, high)
        out = np.where(deep == high, deep, self.parent[deep])
        return int(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class StretchReport:
    """Per-edge and total stretch of G against a spanning tree."""

    per_edge: tuple
    total: float


def _arcs(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> tuple:
    """Both orientations (a, b) of every edge (u[i], v[i]) as arrays a, b
    and their weights, sorted by a and then b, with start[x] the first arc
    at a = x (start[n] is the arc count)."""
    a, b = np.concatenate([u, v]), np.concatenate([v, u])
    order = np.lexsort((b, a))
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(a, minlength=n), out=start[1:])
    return a[order], b[order], np.concatenate([w, w])[order], start


def _shortest_path_trees(g: WeightedGraph, roots: np.ndarray) -> tuple:
    """Parent and parent-edge weight of every vertex in the shortest-path
    tree from each root of a connected g, edge lengths 1/w; one row per
    root, with -1 as the root's parent (and an arbitrary weight).

    A label-correcting search from all roots at once. Each sweep offers
    every vertex the shortest dist[tail] + 1/w over its in-arcs, and the
    vertex takes it only if it is strictly shorter than its label; sweeps
    stop when no label improves. The labels end as the float sums Dijkstra's
    method forms. Ties: among in-arcs tying within one sweep the lowest tail
    index wins, and a tie found in a later sweep keeps the earlier parent.
    """
    heads, tails, weights, start = _arcs(g.n, g.u, g.v, g.w)
    with np.errstate(over="ignore"):  # a subnormal weight's arc is meant to be infinitely long
        lengths = 1.0 / weights
    arcs, starts = np.arange(heads.size), start[:-1]  # g connected: no vertex lacks arcs
    rows = np.arange(roots.size)
    dist = np.full((roots.size, g.n), np.inf)
    dist[rows, roots] = 0.0
    via = np.zeros((roots.size, g.n), dtype=np.int64)  # the in-arc each label came by
    while True:
        offered = dist[:, tails] + lengths
        shortest = np.minimum.reduceat(offered, starts, axis=1)
        better = shortest < dist
        if not better.any():
            break
        first = np.minimum.reduceat(np.where(offered == shortest[:, heads], arcs, arcs.size), starts, axis=1)
        dist[better], via[better] = shortest[better], first[better]
    parent = tails[via]
    parent[rows, roots] = -1
    return parent, weights[via]


def _maximum_spanning_tree(g: WeightedGraph) -> np.ndarray:
    """Indices of the edges of a maximum-weight spanning tree of a connected
    g: Kruskal's method, heaviest edge first and the lowest edge index first
    among equal weights, over a union-find with path halving."""
    root = list(range(g.n))
    picked = []
    order = np.argsort(-g.w, kind="stable")
    for i, a, b in zip(order.tolist(), g.u[order].tolist(), g.v[order].tolist()):
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        while root[b] != b:
            root[b] = root[root[b]]
            b = root[b]
        if a != b:
            root[a] = b
            picked.append(i)
            if len(picked) == g.n - 1:
                break
    return np.array(picked)


def candidate_trees(g: WeightedGraph, seed: int = 0) -> list:
    """The spanning-tree ensemble: shortest-path trees (lengths 1/w) from
    min(n, 16) seeded random roots, then the maximum-weight spanning tree.
    Ties break toward the lowest vertex or edge index, as
    `_shortest_path_trees` and `_maximum_spanning_tree` say. The seed must
    be a nonnegative integer."""
    if not _integral(type(seed)) or seed < 0:
        raise PreconditionError(f"seed must be a nonnegative integer (bools are not), got {seed!r}")
    if not g.is_connected():
        raise DisconnectedError("low-stretch tree needs a connected graph")
    if g.n < 2:
        raise PreconditionError("need at least 2 vertices")
    rng = np.random.default_rng(seed)
    roots = rng.choice(g.n, size=min(g.n, 16), replace=False)
    trees = []
    for parent, weight in zip(*_shortest_path_trees(g, roots)):
        child = np.flatnonzero(parent >= 0)
        trees.append(SpanningTree.build(g.n, child, parent[child], weight[child]))
    mst = _maximum_spanning_tree(g)
    trees.append(SpanningTree.build(g.n, g.u[mst], g.v[mst], g.w[mst]))
    return trees


def low_stretch_tree(g: WeightedGraph, seed: int = 0) -> tuple[SpanningTree, StretchReport]:
    """The ensemble member minimizing total stretch (first index on ties),
    with its stretch report."""
    best = None
    for tree in candidate_trees(g, seed):
        report = tree_stretch(g, tree)
        if best is None or report.total < best[1].total:
            best = (tree, report)
    return best


def tree_stretch(g: WeightedGraph, tree: SpanningTree) -> StretchReport:
    """Stretch of every edge of G over its unique tree path.

    st(e=(u,v)) = w_e * (R(u) + R(v) - 2 R(lca(u,v))) with R the root-path
    resistance prefix sums, so each edge costs one LCA query.
    """
    if tree.n != g.n:
        raise PreconditionError(f"tree spans {tree.n} vertices, graph has {g.n}")
    child = np.flatnonzero(tree.parent >= 0)
    lo, hi = np.minimum(child, tree.parent[child]), np.maximum(child, tree.parent[child])
    outside = np.flatnonzero(~np.isin(lo * g.n + hi, g.u * g.n + g.v))
    if outside.size:
        i = outside[0]
        raise PreconditionError(f"tree edge ({lo[i]},{hi[i]}) is not an edge of the graph")
    if not g.num_edges:
        return StretchReport(per_edge=(), total=0.0)
    u, v, w = g.u, g.v, g.w
    resistance = tree.resistance_to_root
    a = tree.lca(u, v)
    # w * path resistance; below 1 is possible when a light tree path
    # undercuts a heavy edge, so no lower bound is enforced here.
    per_edge = tuple((w * (resistance[u] + resistance[v] - 2.0 * resistance[a])).tolist())
    return StretchReport(per_edge=per_edge, total=float(sum(per_edge)))


def sw_trace_check(g: WeightedGraph, tree: SpanningTree, report: StretchReport) -> float:
    """Trace identity and eigenvalue tail of the (L_G, L_T) pencil.

    `report` is `tree_stretch(g, tree)`. Returns Tr(L_G L_T^+), the sum of
    the pencil's eigenvalues; raises unless it agrees with st_T(G) within
    1e-7 * stretch and the tail counts #{lambda > t} stay below st/t for
    every t in TAIL_PROBES.
    """
    (vals,) = factor_laplacian(tree.graph()).pencil_spectra(g)  # a spanning tree is one block
    trace = float(np.sum(vals))
    stretch = report.total
    if abs(trace - stretch) > 1e-7 * stretch:
        raise NumericalError(
            f"trace {trace!r} and total stretch {stretch!r} disagree beyond 1e-7 relative"
        )
    for t in TAIL_PROBES:
        count = int(np.sum(vals > t))
        if count > stretch / t + 1e-9:
            raise NumericalError(
                f"tail bound violated at t = {t}: {count} eigenvalues above t"
                f" but st/t = {stretch / t!r}"
            )
    return trace


@dataclass(frozen=True)
class UltraResult:
    """Ultrasparsifier U = T + W_k with its measured and certified sandwich.

    c and kappa are the extremes of the (L_U, L_G) pencil, c L_G <= L_U <=
    kappa L_G, measured by `measure_sandwich` against `factor`, the factor
    of L_G; kappa_measured = kappa / c is the relative condition number,
    and gen_lower = 1/kappa, gen_upper = 1/c bound the (L_G, L_U) pencil.
    certified_upper = theta_max (1 + 1/kappa_target) is the engine-backed
    ceiling on kappa, and certified_lower = 1 / certified_upper the floor
    on gen_lower. A tree input has no patch: U = G, certified_upper is
    inf and certified_lower is the measured gen_lower.
    """

    u: WeightedGraph
    kappa_target: float
    c: float
    kappa: float
    gen_lower: float
    gen_upper: float
    kappa_measured: float
    certified_lower: float
    certified_upper: float
    edge_count: int
    stretch: StretchReport
    trace_residual: float
    patch: PatchSparsifier | None
    tree: SpanningTree
    factor: LaplacianFactor


def build_ultrasparsifier(g: WeightedGraph, k: int, seed: int = 0) -> UltraResult:
    """Spanning tree plus at most 8k+1 reweighted edges approximating G.

    kappa = C1 * st_T(G) / k, W = G / kappa, W_k = sparsify_patch(T, W,
    k, 8k+1), U = T + W_k. A tree is its own low-stretch tree, so a tree
    input gives U = G with no patch. G must be connected with at least 2
    vertices (`candidate_trees` checks). A weight that W's scaling takes to
    zero or infinity raises NumericalError.
    """
    if not _integral(type(k)) or k < 1:
        raise PreconditionError(f"k must be an integer of at least 1 (bools are not), got {k!r}")

    tree, report = low_stretch_tree(g, seed)
    trace = sw_trace_check(g, tree, report)
    kappa_target = C1 * report.total / k
    scale = 1.0 / kappa_target
    t_graph = tree.graph()
    if g.num_edges == g.n - 1:  # G is a tree, so T = G and W_k is empty
        patch, u = None, g
    else:
        # a valid weight can still leave the floats when scaled: that is not the input's fault
        scaled = scale * g.w
        lost = np.flatnonzero(~((scaled > 0) & np.isfinite(scaled)))
        if lost.size:
            i = lost[0]
            raise NumericalError(
                f"scaling by 1/kappa_target, kappa_target = {kappa_target!r}, takes the weight"
                f" {float(g.w[i])!r} of edge ({g.u[i]},{g.v[i]}) to {float(scaled[i])!r}"
            )
        patch = sparsify_patch(t_graph, g.scale(scale), k, 8 * k + 1)
        u = t_graph.union(patch.wk)

    # the engine's floor 1 / ceiling on the (L_G, L_U) pencil caps kappa; a
    # tree has no engine floor: its certified constant is the measured one
    ceiling = math.inf if patch is None else patch.certified_upper * (1.0 + scale)
    factor = factor_laplacian(g)
    c, kappa = measure_sandwich(u, factor, 0.0, ceiling)
    return UltraResult(
        u=u,
        kappa_target=kappa_target,
        c=c,
        kappa=kappa,
        gen_lower=1.0 / kappa,
        gen_upper=1.0 / c,
        kappa_measured=kappa / c,
        certified_lower=1.0 / kappa if patch is None else 1.0 / ceiling,
        certified_upper=ceiling,
        edge_count=u.num_edges,
        stretch=report,
        trace_residual=abs(trace - report.total),
        patch=patch,
        tree=tree,
        factor=factor,
    )

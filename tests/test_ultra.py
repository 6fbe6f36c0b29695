"""Spanning trees, stretch accounting, and the tree-plus-patch sparsifier."""
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
from hypothesis import example, given, settings, strategies as st

from conftest import random_connected_graph, record_laplacian_factors
from lapsparse import engine
from lapsparse.core import (
    DisconnectedError,
    NumericalError,
    PreconditionError,
    WeightedGraph,
    laplacian,
    pencil_eigenvalues,
)
from lapsparse.patch import sparsify_patch
from lapsparse.ultra import (
    TAIL_PROBES,
    SpanningTree,
    _maximum_spanning_tree,
    _shortest_path_trees,
    build_ultrasparsifier,
    candidate_trees,
    low_stretch_tree,
    sw_trace_check,
    tree_stretch,
)


def build_tree(n: int, edges) -> SpanningTree:
    """SpanningTree from a list of (u, v, w) triples."""
    u, v, w = zip(*edges)
    return SpanningTree.build(n, u, v, w)


def cycle(n: int) -> WeightedGraph:
    return WeightedGraph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


# ---------------------------------------------------------------------------
# rooted tree structure


def test_tree_build_tables_on_a_branched_tree():
    #      0
    #     / \
    #    1   2
    #   / \
    #  3   4
    edges = [(0, 1, 1.0), (0, 2, 2.0), (1, 3, 1.0), (1, 4, 0.5)]
    t = build_tree(5, edges)
    assert t.parent[0] == -1
    assert t.parent[3] == 1 and t.parent[4] == 1
    assert t.depth[3] == 2 and t.depth[2] == 1
    assert t.resistance_to_root[4] == pytest.approx(1.0 + 2.0)
    assert t.lca(3, 4) == 1
    assert t.lca(3, 2) == 0
    assert t.lca(1, 3) == 1
    assert t.lca(0, 4) == 0
    back = t.graph()
    assert back.edges == WeightedGraph(5, edges).edges


def test_tree_build_rejects_wrong_edge_count_and_non_spanning_sets():
    with pytest.raises(PreconditionError):
        build_tree(4, [(0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(DisconnectedError):
        build_tree(4, [(0, 1, 1.0), (0, 1, 1.0), (2, 3, 1.0)])


def test_tree_build_rejects_an_out_of_range_vertex():
    with pytest.raises(PreconditionError, match="out of range") as caught:
        SpanningTree.build(3, [0, 1], [1, 5], [1.0, 1.0])
    assert type(caught.value) is PreconditionError
    with pytest.raises(PreconditionError, match="out of range"):
        SpanningTree.build(3, [-1, 1], [1, 2], [1.0, 1.0])
    # a non-integer id is no vertex at all, not the one it truncates to
    with pytest.raises(PreconditionError, match="integer vertex ids"):
        SpanningTree.build(2, [0.7], [1.2], [1.0])
    with pytest.raises(PreconditionError, match="integer vertex ids"):
        SpanningTree.build(2, [0], [True], [1.0])


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_tree_build_rejects_a_weight_that_is_not_finite_and_positive(bad):
    with pytest.raises(PreconditionError, match="positive finite weight") as caught:
        SpanningTree.build(3, [0, 1], [1, 2], [1.0, bad])
    assert type(caught.value) is PreconditionError


def test_tree_build_rejects_an_edge_set_with_a_cycle():
    # n - 1 edges that close a cycle leave a vertex out
    with pytest.raises(DisconnectedError):
        build_tree(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
    with pytest.raises(DisconnectedError):
        build_tree(4, [(1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0)])


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.integers(), st.booleans())
def test_tree_tables_follow_each_root_path(n, seed, chain):
    # vertex order[i] hangs off a random earlier vertex (or the previous one,
    # for a path of depth n - 1); edges arrive shuffled and either way round
    rng = np.random.default_rng(seed % (2**32))
    order = np.concatenate([[0], 1 + rng.permutation(n - 1)])
    up = {int(order[i]): int(order[i - 1] if chain else order[rng.integers(0, i)]) for i in range(1, n)}
    weight = {x: float(10.0 ** rng.uniform(-3, 3)) for x in up}
    edges = [(x, p, weight[x]) if rng.random() < 0.5 else (p, x, weight[x]) for x, p in up.items()]
    t = build_tree(n, [edges[i] for i in rng.permutation(n - 1)])
    assert t.parent[0] == -1 and t.depth[0] == 0 and t.resistance_to_root[0] == 0.0
    for x in range(1, n):
        path = [x]
        while path[-1] != 0:
            path.append(up[path[-1]])
        resistance = 0.0
        for y in reversed(path[:-1]):  # summed from the root down
            resistance += 1.0 / weight[y]
        assert (t.parent[x], t.parent_weight[x], t.depth[x]) == (up[x], weight[x], len(path) - 1)
        assert t.resistance_to_root[x] == resistance
        for j in range(t.ancestors.shape[0]):
            assert t.ancestors[j, x] == (path[2**j] if 2**j < len(path) else -1)


# ---------------------------------------------------------------------------
# the tree ensemble against scipy's graph routines


def _shaped_graph(shape: str, n: int, rng, weight) -> WeightedGraph:
    """A path, a star or a random connected graph on n relabelled vertices,
    with edge weights weight(count)."""
    if shape == "random":
        g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, 3 * n)))
        pairs = list(zip(g.u.tolist(), g.v.tolist()))
    else:
        label = rng.permutation(n).tolist()
        pairs = [(label[0 if shape == "star" else i - 1], label[i]) for i in range(1, n)]
    return WeightedGraph(n, [(a, b, x) for (a, b), x in zip(pairs, weight(len(pairs)).tolist())])


def _stretch_test_graphs() -> list:
    """Random connected graphs with weights over four decades, n = 2, 9, 40
    and 130 (test_vectorised_stretch_matches_the_scalar_loop_bit_for_bit's)."""
    rng = np.random.default_rng(53)
    return [random_connected_graph(rng, n, extra_edges=2 * n, wmin=0.01, wmax=100.0) for n in (2, 9, 40, 130)]


def _scipy_shortest_paths(g: WeightedGraph, roots):
    both = (np.concatenate([g.u, g.v]), np.concatenate([g.v, g.u]))
    lengths = scipy.sparse.csr_matrix((1.0 / np.concatenate([g.w, g.w]), both), shape=(g.n, g.n))
    dist, pred = scipy.sparse.csgraph.dijkstra(lengths, indices=roots, return_predecessors=True)
    return dist, np.where(pred < 0, -1, pred)


def _scipy_maximum_spanning_tree(g: WeightedGraph):
    flipped = scipy.sparse.csr_matrix((float(g.w.max()) + 1.0 - g.w, (g.u, g.v)), shape=(g.n, g.n))
    tree = scipy.sparse.csgraph.minimum_spanning_tree(flipped).tocoo()
    return {(min(a, b), max(a, b)) for a, b in zip(tree.row.tolist(), tree.col.tolist())}


def _tree_distances(parent: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Each vertex's distance to its root, summed from the root down along
    the parent edges (lengths 1/w), the sums a shortest-path search forms."""
    dist = np.where(parent < 0, 0.0, np.inf)
    while True:
        down = np.where(parent < 0, 0.0, dist[parent] + 1.0 / weight)
        if np.array_equal(down, dist):
            return dist
        dist = down


def _edge_weights(g: WeightedGraph, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """g's weights of the edges (a[i], b[i]), asserting each is an edge of g."""
    keys, wanted = g.u * g.n + g.v, np.minimum(a, b) * g.n + np.maximum(a, b)
    at = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
    assert np.array_equal(keys[at], wanted)
    return g.w[at]


def _assert_spanning_trees(g: WeightedGraph, trees) -> None:
    for u, v, w in trees:
        assert u.size == g.n - 1 and np.array_equal(w, _edge_weights(g, u, v))
        assert WeightedGraph.from_arrays(g.n, u, v, w).is_connected()


def _check_against_scipy(g: WeightedGraph, roots) -> None:
    """Exact agreement with scipy: shortest-path distances and predecessors
    from every root, and the maximum spanning tree's edge set."""
    parent, weight = _shortest_path_trees(g, roots)
    dist, pred = _scipy_shortest_paths(g, roots)
    assert np.array_equal(parent, pred)
    for row in range(roots.size):
        assert np.array_equal(_tree_distances(parent[row], weight[row]), dist[row])
        child = np.flatnonzero(parent[row] >= 0)
        assert np.array_equal(weight[row, child], _edge_weights(g, child, parent[row, child]))
    mst = _maximum_spanning_tree(g)
    assert set(zip(g.u[mst].tolist(), g.v[mst].tolist())) == _scipy_maximum_spanning_tree(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 60), st.integers(), st.sampled_from(("random", "path", "star")))
def test_tree_ensemble_matches_scipy_on_random_weights(n, seed, shape):
    # continuous weights over four decades: no two paths tie, so the
    # trees are unique and the numpy search must reproduce scipy exactly
    rng = np.random.default_rng(seed % (2**32))
    g = _shaped_graph(shape, n, rng, lambda m: 10.0 ** rng.uniform(-2, 2, size=m))
    _check_against_scipy(g, rng.choice(n, size=min(n, 16), replace=False))


def test_tree_ensemble_matches_scipy_on_the_stretch_test_graphs():
    for g in _stretch_test_graphs():
        # candidate_trees(g, seed=n) draws its roots this way
        _check_against_scipy(g, np.random.default_rng(g.n).choice(g.n, size=min(g.n, 16), replace=False))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 60), st.integers(), st.sampled_from(("random", "path", "star")), st.integers(1, 3))
def test_tree_ensemble_on_tied_weights_is_shortest_and_maximal(n, seed, shape, levels):
    # weights from {1, ..., levels} (levels = 1: unit weights) tie many
    # paths and edges, so a tree may differ from scipy's; it must still be
    # a shortest-path tree (every parent edge tight against scipy's
    # distances) and a maximum spanning tree (scipy's total weight)
    rng = np.random.default_rng(seed % (2**32))
    g = _shaped_graph(shape, n, rng, lambda m: rng.integers(1, levels + 1, size=m).astype(float))
    roots = rng.choice(n, size=min(n, 16), replace=False)
    parent, weight = _shortest_path_trees(g, roots)
    dist, _ = _scipy_shortest_paths(g, roots)
    trees = []
    for row, root in enumerate(roots):
        assert parent[row, root] == -1
        child = np.flatnonzero(parent[row] >= 0)
        up = parent[row, child]
        assert np.array_equal(dist[row, child], dist[row, up] + 1.0 / weight[row, child])
        trees.append((child, up, weight[row, child]))
    mst = _maximum_spanning_tree(g)
    trees.append((g.u[mst], g.v[mst], g.w[mst]))
    _assert_spanning_trees(g, trees)
    chosen = _scipy_maximum_spanning_tree(g)
    assert math.fsum(g.w[mst].tolist()) == math.fsum(x for a, b, x in g.edges if (a, b) in chosen)


def test_candidate_trees_are_spanning_trees_of_the_graph():
    rng = np.random.default_rng(41)
    g = random_connected_graph(rng, 15, extra_edges=20)
    trees = candidate_trees(g)
    assert trees
    for t in trees:
        tg = t.graph()
        assert tg.num_edges == g.n - 1
        assert tg.edge_pairs() <= g.edge_pairs()
        assert tg.is_connected()


def test_low_stretch_tree_minimizes_over_the_ensemble():
    rng = np.random.default_rng(43)
    g = random_connected_graph(rng, 12, extra_edges=14)
    best, report = low_stretch_tree(g)
    best_total = tree_stretch(g, best).total
    assert report == tree_stretch(g, best)
    for t in candidate_trees(g):
        assert best_total <= tree_stretch(g, t).total + 1e-9


def test_low_stretch_tree_of_a_tree_is_the_tree_itself():
    rng = np.random.default_rng(45)
    g = random_connected_graph(rng, 10, extra_edges=0)
    t, report = low_stretch_tree(g)
    assert t.graph().edges == g.edges
    assert report.total == pytest.approx(9.0, abs=1e-12)


# ---------------------------------------------------------------------------
# stretch


def test_tree_edges_have_unit_stretch():
    rng = np.random.default_rng(47)
    g = random_connected_graph(rng, 12, extra_edges=0, wmin=0.1, wmax=5.0)
    t = SpanningTree.build(g.n, g.u, g.v, g.w)
    report = tree_stretch(g, t)
    assert np.allclose(report.per_edge, 1.0, atol=1e-12)


def test_stretch_of_a_heavy_chord_over_two_unit_edges():
    g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 2.0)])
    t = build_tree(3, [(0, 1, 1.0), (1, 2, 1.0)])
    report = tree_stretch(g, t)
    by_pair = dict(zip([(u, v) for u, v, _ in g.edges], report.per_edge))
    assert by_pair[(0, 2)] == pytest.approx(4.0, abs=1e-12)
    assert report.total == pytest.approx(6.0, abs=1e-12)


def test_cycle_stretch_totals_twice_edges_minus_two():
    for n in (4, 10, 37):
        g = cycle(n)
        assert low_stretch_tree(g)[1].total == float(2 * n - 2)


def test_unit_weight_stretch_is_never_below_one():
    # With unit weights every tree path has at least one hop, so each edge
    # stretches by at least 1. Weighted graphs may dip below 1 legitimately.
    rng = np.random.default_rng(49)
    for _ in range(15):
        n = int(rng.integers(4, 25))
        g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, 2 * n)), wmin=1.0, wmax=1.0)
        report = low_stretch_tree(g)[1]
        assert min(report.per_edge) >= 1.0 - 1e-12


def test_weighted_stretch_may_dip_below_one():
    # heavy path 0-1-2 (w = 5 each) with a light chord (0,2): the chord's
    # stretch is 0.2 * (1/5 + 1/5) = 0.08.
    g = WeightedGraph(3, [(0, 1, 5.0), (1, 2, 5.0), (0, 2, 0.2)])
    t = build_tree(3, [(0, 1, 5.0), (1, 2, 5.0)])
    report = tree_stretch(g, t)
    by_pair = dict(zip([(u, v) for u, v, _ in g.edges], report.per_edge))
    assert by_pair[(0, 2)] == pytest.approx(0.08, abs=1e-12)


def _reference_lca(tree, u, v):
    """The scalar binary-lifting walk, one pair at a time."""
    du, dv = int(tree.depth[u]), int(tree.depth[v])
    if du < dv:
        u, v, du, dv = v, u, dv, du
    diff, j = du - dv, 0
    while diff:
        if diff & 1:
            u = int(tree.ancestors[j, u])
        diff >>= 1
        j += 1
    if u == v:
        return u
    for j in range(tree.ancestors.shape[0] - 1, -1, -1):
        au, av = int(tree.ancestors[j, u]), int(tree.ancestors[j, v])
        if au != av:
            u, v = au, av
    return int(tree.parent[u])


def test_vectorised_stretch_matches_the_scalar_loop_bit_for_bit():
    for g in _stretch_test_graphs():
        n = g.n
        for tree in candidate_trees(g, seed=n):
            pairs = [(u, v) for u in range(min(n, 40)) for v in range(n)]
            got = tree.lca([u for u, _ in pairs], [v for _, v in pairs])
            assert got.tolist() == [_reference_lca(tree, u, v) for u, v in pairs]
            res = tree.resistance_to_root
            per_edge = [
                w * float(res[u] + res[v] - 2.0 * res[_reference_lca(tree, u, v)])
                for u, v, w in g.edges
            ]
            report = tree_stretch(g, tree)
            assert report.per_edge == tuple(per_edge)
            assert report.total == float(sum(per_edge))
    t = build_tree(3, [(0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(PreconditionError):
        t.lca(0, 3)
    with pytest.raises(PreconditionError):
        t.lca([0, -1], [1, 2])


def test_tree_stretch_rejects_a_foreign_tree():
    star = WeightedGraph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
    path = build_tree(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    with pytest.raises(PreconditionError):
        tree_stretch(star, path)


# ---------------------------------------------------------------------------
# trace identity


def test_trace_of_a_tree_against_itself_counts_edges():
    rng = np.random.default_rng(51)
    g = random_connected_graph(rng, 11, extra_edges=0, wmin=0.2, wmax=3.0)
    t = SpanningTree.build(g.n, g.u, g.v, g.w)
    report = tree_stretch(g, t)
    trace, stretch = sw_trace_check(g, t, report), report.total
    assert stretch == pytest.approx(10.0, abs=1e-9)
    assert trace == pytest.approx(10.0, abs=1e-9)


def test_trace_identity_on_cycles():
    for n in (6, 12):
        g = cycle(n)
        t, report = low_stretch_tree(g)
        trace, stretch = sw_trace_check(g, t, report), report.total
        assert stretch == float(2 * n - 2)
        assert abs(trace - stretch) <= 1e-7 * stretch


def test_trace_identity_and_tail_on_random_graphs():
    rng = np.random.default_rng(53)
    for _ in range(5):
        n = int(rng.integers(10, 40))
        g = random_connected_graph(rng, n, extra_edges=int(rng.integers(5, 3 * n)))
        t, report = low_stretch_tree(g)
        trace, stretch = sw_trace_check(g, t, report), report.total
        assert abs(trace - stretch) <= 1e-7 * stretch
        vals = pencil_eigenvalues(laplacian(g), laplacian(t.graph()))
        for p in TAIL_PROBES:
            assert int(np.sum(vals > p)) <= stretch / p + 1e-9


# ---------------------------------------------------------------------------
# tree + patch


@settings(max_examples=20, deadline=None)
@given(st.integers(), st.floats(min_value=-9.0, max_value=8.0))
@example(seed=-355, exponent=1.75)
@example(seed=798192675, exponent=1.0)
def test_ultrasparsifier_is_invariant_under_uniform_scaling(seed, exponent):
    # Stretch, kappa_target and every pencil are unchanged when G is scaled
    # by c, so the tree and the picks stay put and U(cG) = c U(G) up to
    # rounding. Weights are continuous random draws, so exact ties between
    # trees have probability 0. Ties in the engine's bottom-k spectrum do
    # not: with one chord (the second example: 13 vertices, k = 2), W shares
    # T's directions and n - 2 eigenvalues of X tie, so the engine protects
    # only the directions below the tie. The engine's rounding is relative
    # to the largest weight: in the first example, a weight about 1/140 of
    # it moves by 1.5e-12 of itself.
    rng = np.random.default_rng(seed % (2**32))
    n = int(rng.integers(8, 25))
    g = random_connected_graph(rng, n, extra_edges=int(rng.integers(1, 2 * n)))
    k = int(rng.integers(1, 3))
    c = 10.0**exponent
    base, scaled = build_ultrasparsifier(g, k), build_ultrasparsifier(g.scale(c), k)
    assert scaled.u.edge_pairs() == base.u.edge_pairs()
    assert np.allclose(scaled.u.w / c, base.u.w, rtol=1e-12, atol=1e-12 * base.u.w.max())
    assert scaled.kappa_measured == pytest.approx(base.kappa_measured, rel=1e-12)


def test_build_on_a_tree_returns_the_graph_itself():
    rng = np.random.default_rng(55)
    g = random_connected_graph(rng, 9, extra_edges=0)
    r = build_ultrasparsifier(g, 1)
    assert r.u.edges == g.edges
    assert r.kappa_measured == pytest.approx(1.0, abs=1e-9)
    assert r.gen_lower == pytest.approx(1.0, abs=1e-9)
    assert r.gen_upper == pytest.approx(1.0, abs=1e-9)
    assert r.patch is None


def test_build_on_a_cycle_meets_budget_and_sandwich():
    g = cycle(10)
    r = build_ultrasparsifier(g, 1)
    assert r.edge_count <= 9 + 9
    assert r.gen_upper <= r.kappa_target + 1e-9
    assert r.gen_lower >= r.certified_lower - 1e-9
    assert r.stretch.total == 18.0
    assert r.trace_residual <= 1e-7 * r.stretch.total
    assert r.patch is not None
    assert r.patch.params.lambda_star >= 0.8 - 1e-6
    assert r.patch.params.T_patch <= 1.0 / 4.0 + 1e-6


def test_build_keeps_the_tree_and_respects_the_edge_budget():
    rng = np.random.default_rng(57)
    n, k = 40, 2
    g = random_connected_graph(rng, n, extra_edges=60)
    r = build_ultrasparsifier(g, k)
    assert r.tree.graph().edge_pairs() <= r.u.edge_pairs()
    assert r.u.edge_pairs() <= g.edge_pairs()
    assert r.edge_count <= (n - 1) + 8 * k + 1
    vals = pencil_eigenvalues(laplacian(g), laplacian(r.u))
    assert float(vals[0]) == pytest.approx(r.gen_lower, rel=1e-9)
    assert float(vals[-1]) == pytest.approx(r.gen_upper, rel=1e-9)
    assert r.kappa_measured == pytest.approx(r.gen_upper / r.gen_lower, rel=1e-12)


def test_build_is_deterministic_for_a_fixed_seed():
    rng = np.random.default_rng(59)
    g = random_connected_graph(rng, 25, extra_edges=40)
    r1 = build_ultrasparsifier(g, 2, seed=7)
    r2 = build_ultrasparsifier(g, 2, seed=7)
    assert r1.u.edges == r2.u.edges
    assert r1.gen_upper == r2.gen_upper


def test_build_rejects_bad_inputs():
    g = cycle(6)
    with pytest.raises(PreconditionError):
        build_ultrasparsifier(g, 0)
    with pytest.raises(DisconnectedError):
        build_ultrasparsifier(WeightedGraph(4, [(0, 1, 1.0)]), 1)
    with pytest.raises(PreconditionError):
        build_ultrasparsifier(WeightedGraph(1, []), 1)


def test_build_blames_its_own_scaling_for_a_weight_it_underflows():
    # 5e-324 is a valid weight; W = G / kappa_target rounds it to zero. The
    # tree search reads its length 1/w as infinite, without a warning.
    g = WeightedGraph(4, [(0, 1, 5e-324), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0), (0, 2, 1.0)])
    with pytest.raises(NumericalError, match=r"kappa_target = 20\.0, takes the weight 5e-324 of edge \(0,1\) to 0\.0"):
        build_ultrasparsifier(g, 1)


def test_build_blames_its_own_scaling_for_update_vectors_that_underflow():
    # W's chords (0,11) and (3,9) keep nonzero weights near 1.6e-302, but
    # their update vectors' squares underflow: the engine would read them as
    # zero updates and blame the input
    edges = [(i, i + 1, 1e300) for i in range(11)] + [(0, 11, 1e-300), (3, 9, 1e-300), (2, 7, 1e300), (1, 5, 1.0)]
    with pytest.raises(NumericalError, match=r"edge \(0,11\) of W, weight 1\.56\d*e-302: .* underflow"):
        build_ultrasparsifier(WeightedGraph(12, edges), 1)


@pytest.mark.parametrize("k", [1.5, 2.0, np.float64(1.0), True])
def test_build_rejects_a_k_that_is_not_an_integer(k):
    with pytest.raises(PreconditionError, match="integer"):
        build_ultrasparsifier(cycle(6), k)
    assert build_ultrasparsifier(cycle(6), np.int64(1)).edge_count <= 5 + 9


@pytest.mark.parametrize("seed", [-1, 1.0, np.float64(2.0), True, None])
def test_build_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    # numpy's default_rng would take None as "fresh entropy" and fail on -1
    with pytest.raises(PreconditionError, match="seed must be a nonnegative integer"):
        build_ultrasparsifier(cycle(6), 1, seed=seed)
    with pytest.raises(PreconditionError, match="seed must be a nonnegative integer"):
        candidate_trees(cycle(6), seed)
    assert build_ultrasparsifier(cycle(6), 1, seed=np.int64(3)).edge_count <= 5 + 9


def test_solve_budget_of_the_patch_and_ultra_pipelines(monkeypatch):
    # Every solve goes through numpy: one Cholesky factorization of the
    # grounded block per Laplacian, one spectrum per pencil, one
    # decomposition of X, and per engine step one
    # values-only solve of the d x d working space, d = n - 1, with a full
    # decomposition instead every REFRESH_EVERY steps.
    solves = []

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(a, *args, **kwargs):
            solves.append((f"{owner.__name__}.{name}", a.shape[0]))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for owner in (np.linalg, scipy.linalg):
        counting(owner, "eigh")
        counting(owner, "eigvalsh")
    factored = record_laplacian_factors(monkeypatch)

    rng = np.random.default_rng(55)
    n, k = 30, 2
    g = random_connected_graph(rng, n, extra_edges=2 * n)
    n_steps = 8 * k + 1
    refreshes = (n_steps - 1) // engine.REFRESH_EVERY  # none after the last step
    assert refreshes >= 1

    def count(name, sizes):
        return sum(1 for owner, d in solves if owner == f"numpy.linalg.{name}" and d in sizes)

    result = build_ultrasparsifier(g, k)
    assert result.patch is not None and len(result.patch.engine_results) == 1
    assert all(owner.startswith("numpy.linalg.") for owner, _ in solves)
    # factors, each of its (n - 1)-wide grounded block: of L_T (trace check),
    # of L_{T+W} (patch), of L_G (the final sandwich, which the CLI re-check
    # reuses); nothing factors L_U, and nothing is n wide
    assert factored == [n - 1] * 3
    assert max(d for _, d in solves) == n - 1
    # d x d with vectors: X (the patch certificate's, which the engine
    # reuses), then the engine's refreshes
    assert count("eigh", {n - 1}) == 1 + refreshes <= math.ceil(n_steps / engine.REFRESH_EVERY) + 1
    # d x d values only: the (G, T) pencil of the trace check, the engine's
    # other steps, the final sandwich of the patch, the (U, G) pencil
    assert count("eigvalsh", {n - 1}) == 1 + (n_steps - refreshes) + 1 + 1
    # k x k: B_S per step, and Z's restriction
    assert count("eigh", {k}) == n_steps + 1 and count("eigvalsh", {k}) == 0

    solves.clear()
    factored.clear()
    tree, _ = low_stretch_tree(g)
    sparsify_patch(tree.graph(), g.scale(0.01), k)
    assert all(owner.startswith("numpy.linalg.") for owner, _ in solves)
    # the factor of L_{G+W}, of its grounded block; X; the engine's
    # refreshes; nothing is n wide
    assert factored == [n - 1] and max(d for _, d in solves) == n - 1
    assert count("eigh", {n - 1}) == 1 + refreshes
    # the engine's other steps and the final sandwich
    assert count("eigvalsh", {n - 1}) == n_steps - refreshes + 1

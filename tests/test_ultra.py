"""Spanning trees, stretch accounting, and the tree-plus-patch sparsifier."""
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from conftest import random_connected_graph
from lapsparse.core import (
    DisconnectedError,
    PreconditionError,
    WeightedGraph,
    laplacian,
    pencil_eigenvalues,
)
from lapsparse.patch import sparsify_patch
from lapsparse.ultra import (
    TAIL_PROBES,
    SpanningTree,
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
    rng = np.random.default_rng(53)
    for n in (2, 9, 40, 130):
        g = random_connected_graph(rng, n, extra_edges=2 * n, wmin=0.01, wmax=100.0)
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
def test_ultrasparsifier_is_invariant_under_uniform_scaling(seed, exponent):
    # Stretch, kappa_target and every pencil are unchanged when G is scaled
    # by c, so the tree and the picks stay put and U(cG) = c U(G) up to
    # rounding. Weights are continuous random draws, so exact ties between
    # trees or in the engine's bottom-k spectrum have probability 0. The
    # engine's rounding is relative to the largest weight: in the example,
    # a weight about 1/140 of it moves by 1.5e-12 of itself.
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


def test_solve_budget_of_the_patch_and_ultra_pipelines(monkeypatch):
    # Every eigensolve goes through numpy: one factor per Laplacian, one
    # spectrum per pencil, and the engine's N + 3 solves of the d x d
    # working space, d = n - 1.
    solves = []

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(a, *args, **kwargs):
            solves.append((owner.__name__, a.shape[0]))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for owner in (np.linalg, scipy.linalg):
        counting(owner, "eigh")
        counting(owner, "eigvalsh")

    rng = np.random.default_rng(55)
    n, k = 30, 2
    g = random_connected_graph(rng, n, extra_edges=2 * n)
    n_steps = 8 * k + 1

    def big():
        return sum(1 for _, d in solves if d >= n - 1)

    result = build_ultrasparsifier(g, k)
    assert result.patch is not None and len(result.patch.engine_results) == 1
    assert all(owner == "numpy.linalg" for owner, _ in solves)
    # sw_trace_check: factor of L_T + pencil; patch: factor of L_{T+W},
    # verify pencil, validate (X, M*), compute_Z, N steps, final sandwich;
    # ultra: factor of L_U + pencil.
    assert big() == n_steps + 10
    assert sum(1 for _, d in solves if d == k) == n_steps + 1  # B_S per step, Z's restriction

    solves.clear()
    tree, _ = low_stretch_tree(g)
    sparsify_patch(tree.graph(), g.scale(0.01), k)
    assert all(owner == "numpy.linalg" for owner, _ in solves)
    assert big() == n_steps + 6

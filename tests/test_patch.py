"""Certifying a patch W against a base graph G and sparsifying it."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_connected_graph, verify_patch
from lapsparse import core, patch
from lapsparse.core import (
    BudgetTooSmallError,
    InvalidKError,
    NumericalError,
    PreconditionError,
    WeightedGraph,
    factor_laplacian,
    laplacian,
    pencil_eigenvalues,
)
from lapsparse.patch import _component_budgets, build_patch_problem, sparsify_patch


def test_verify_empty_patch_is_perfectly_conditioned():
    rng = np.random.default_rng(1)
    g = random_connected_graph(rng, 8, extra_edges=5)
    params = verify_patch(g, WeightedGraph(8, []), 2)
    assert params.lambda_star == pytest.approx(1.0, abs=1e-9)
    assert params.T_patch == pytest.approx(0.0, abs=1e-9)


def test_verify_patch_equal_to_base_halves_everything():
    rng = np.random.default_rng(2)
    n = 9
    g = random_connected_graph(rng, n, extra_edges=6)
    params = verify_patch(g, g, 1)
    assert params.lambda_star == pytest.approx(0.5, abs=1e-9)
    assert params.T_patch == pytest.approx((n - 1) / 2.0, abs=1e-8)


def test_verify_patch_rejects_bad_inputs():
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    with pytest.raises(PreconditionError):
        verify_patch(g, WeightedGraph(5, []), 1)
    with pytest.raises(PreconditionError):
        verify_patch(g, WeightedGraph(4, []), -1)
    with pytest.raises(InvalidKError):
        verify_patch(g, WeightedGraph(4, []), 3)  # image rank is 3, k must be < 3


def connected_problem(g, w, k, n_budget):
    """The engine instance of a connected G+W, from its one pencil matrix."""
    factor = factor_laplacian(g.union(w))
    ((x,), (block,)) = factor.pencil_matrices(g), factor.blocks
    return build_patch_problem(x, block, w.u, w.v, w.w, k, n_budget)


def test_problem_construction_sums_to_identity():
    rng = np.random.default_rng(4)
    g = random_connected_graph(rng, 10, extra_edges=4)
    w = random_connected_graph(rng, 10, extra_edges=12, wmin=0.1, wmax=0.8)
    problem = connected_problem(g, w, 2, 17)
    d = g.n - 1
    assert problem.X.shape == (d, d)
    recon = problem.X + problem.vectors @ problem.vectors.T
    assert np.max(np.abs(recon - np.eye(d))) <= 1e-8
    assert problem.costs.sum() == pytest.approx(1.0, abs=1e-15)
    assert float(np.linalg.eigvalsh(problem.Mstar)[-1]) == pytest.approx(1.0)
    problem.validate()


def test_problem_spectrum_matches_certificate():
    # The measured (lambda_star, T_patch) pair is exactly (lambda_{k+1}(X),
    # Tr(I - X)) of the constructed instance.
    rng = np.random.default_rng(6)
    g = random_connected_graph(rng, 9, extra_edges=3)
    w = random_connected_graph(rng, 9, extra_edges=9, wmin=0.2, wmax=1.0)
    k = 2
    params = verify_patch(g, w, k)
    problem = connected_problem(g, w, k, 8 * k + 1)
    x_vals = np.linalg.eigvalsh(problem.X)
    assert params.lambda_star == pytest.approx(float(x_vals[k]), abs=1e-8)
    assert params.T_patch == pytest.approx(float(np.trace(np.eye(g.n - 1) - problem.X)), abs=1e-8)


def test_problem_needs_the_block_of_a_connected_union():
    g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    w = WeightedGraph(4, [(0, 2, 0.5)])
    factor = factor_laplacian(g)  # two blocks: L_G, not L_{G+W}
    x = factor.pencil_matrices(g)[0]
    with pytest.raises(PreconditionError, match="connected"):
        build_patch_problem(x, factor.blocks[0], w.u, w.v, w.w, 0, 1)


_EMPTY = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda g, f: build_patch_problem(f.pencil_matrices(g)[0], f.blocks[0], *_EMPTY, 0, 1), PreconditionError,
         "W has no edges"),
        # the pencil of G against its own factor is [1, 1] up to rounding
        (lambda g, f: patch.measure_sandwich(g, f, 1.5, 2.0), NumericalError, r"leaves the certified \[1\.5, 2\.0\]"),
        (lambda g, f: patch.measure_sandwich(g.scale(2.0), f, 1.0, 1.5), NumericalError, "leaves the certified"),
    ],
    ids=["no-w-edges", "below-lower", "above-upper"],
)
def test_patch_problem_and_sandwich_check_their_inputs_and_certificate(call, error, message):
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0)])
    factor = factor_laplacian(g)
    with pytest.raises(error, match=message):
        call(g, factor)
    assert patch.measure_sandwich(g, factor, 1.0, 1.0) == pytest.approx((1.0, 1.0))


def test_certificate_splits_no_tie_between_components():
    # two copies of one component: every pencil eigenvalue ties its twin,
    # so the protected count stops at the start of the tie instead of
    # handing the lone smallest value to the component of lower index
    rng = np.random.default_rng(18)
    g1 = random_connected_graph(rng, 6, extra_edges=2)
    w1 = WeightedGraph(6, [(0, 3, 0.3), (1, 4, 0.2), (2, 5, 0.4)])
    g, w = (WeightedGraph(12, list(h.edges) + [(u + 6, v + 6, x) for u, v, x in h.edges]) for h in (g1, w1))
    factor = factor_laplacian(g.union(w))
    (a, b), lambda_star = factor.pencil_spectra(g), verify_patch(g, w, 1).lambda_star
    assert np.array_equal(a, b) and lambda_star == a[0]
    assert patch._certificate(1, factor.pencil_spectra(g))[1] == [0, 0]
    assert patch._certificate(2, factor.pencil_spectra(g))[1] == [1, 1]
    assert patch._certificate(3, factor.pencil_spectra(g))[1] == [1, 1]


def test_one_component_gets_the_whole_budget():
    # n * t / t can round to just below n; a lone component's share is n
    rng = np.random.default_rng(3)
    for _ in range(2000):
        t, n = float(rng.uniform(0.0, 50.0)), int(rng.integers(9, 200))
        assert _component_budgets([t], [1], n) == [n]
    assert _component_budgets([0.0], [1], 20) == [20]
    assert _component_budgets([3.0, 1.0, 0.0], [1, 0, 0], 40) == [30, 10, 1]


def test_sparsify_empty_patch_returns_empty_selection():
    rng = np.random.default_rng(8)
    g = random_connected_graph(rng, 7, extra_edges=3)
    result = sparsify_patch(g, WeightedGraph(7, []), 1)
    assert result.wk.num_edges == 0
    assert result.measured_lower == pytest.approx(1.0, abs=1e-9)
    assert result.measured_upper == pytest.approx(1.0, abs=1e-9)


def test_sparsify_rejects_undersized_budget():
    rng = np.random.default_rng(10)
    g = random_connected_graph(rng, 7, extra_edges=3)
    w = random_connected_graph(rng, 7, extra_edges=5, wmin=0.2, wmax=0.6)
    with pytest.raises(BudgetTooSmallError):
        sparsify_patch(g, w, 1, n_budget=8)


@pytest.mark.parametrize("k,n_budget", [(1.5, None), (True, None), (np.float64(1.0), 9), (1, 9.7), (1, np.float64(9.0)), (0, True)])
def test_sparsify_rejects_a_k_or_budget_that_is_not_an_integer(k, n_budget):
    # a float budget was truncated (9.7 ran as 9) and a float k failed as
    # an IndexError; numpy integers pass
    rng = np.random.default_rng(10)
    g = random_connected_graph(rng, 7, extra_edges=3)
    w = random_connected_graph(rng, 7, extra_edges=5, wmin=0.2, wmax=0.6)
    with pytest.raises(PreconditionError, match="integer"):
        sparsify_patch(g, w, k, n_budget)
    assert sparsify_patch(g, w, np.int64(1), np.int32(9)).n_budget == 9


def test_sparsify_selects_subset_within_budget_and_bounds():
    rng = np.random.default_rng(12)
    n, k = 30, 2
    g = random_connected_graph(rng, n, extra_edges=20)
    w_edges = []
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    take = rng.choice(len(pool), size=200, replace=False)
    for j in take:
        u, v = pool[int(j)]
        w_edges.append((u, v, float(rng.uniform(0.05, 0.4))))
    w = WeightedGraph(n, w_edges)
    result = sparsify_patch(g, w, k)

    assert result.n_budget == 8 * k + 1
    assert result.wk.num_edges <= result.n_budget
    assert result.wk.edge_pairs() <= w.edge_pairs()
    assert all(wt > 0 for _, _, wt in result.wk.edges)

    t_cap = max(result.params.T_patch, 1.0)
    weight_cap = min(1.0, result.n_budget / t_cap) * w.weight_sum()
    assert result.wk.weight_sum() <= result.weight_bound + 1e-9
    assert result.weight_bound <= weight_cap * (1.0 + 1e-9)

    # measured sandwich sits inside the certified one
    assert result.measured_lower >= result.certified_lower - 1e-9
    assert result.measured_upper <= result.certified_upper + 1e-9
    floor = min(result.n_budget / t_cap, 1.0) * result.params.lambda_star / 72.0
    assert result.measured_lower >= floor - 1e-9
    assert result.certified_upper <= 5.0 + 1e-9

    # independent dense verification of the sandwich factors
    l_sparse = laplacian(g.union(result.wk))
    l_full = laplacian(g.union(w))
    vals = pencil_eigenvalues(l_sparse, l_full)
    assert float(vals[0]) == pytest.approx(result.measured_lower, rel=1e-7)
    assert float(vals[-1]) == pytest.approx(result.measured_upper, rel=1e-7)


def test_sparsify_small_patch_is_kept_whole():
    rng = np.random.default_rng(14)
    g = random_connected_graph(rng, 8, extra_edges=4)
    w = WeightedGraph(8, [(0, 3, 0.3), (2, 5, 0.2)])
    result = sparsify_patch(g, w, 1)
    assert result.wk.num_edges <= result.n_budget
    assert result.measured_lower >= min(1.0, result.n_budget / max(result.params.T_patch, 1.0)) * (
        result.params.lambda_star / 72.0
    ) - 1e-9


def test_sparsify_splits_disconnected_union_by_component():
    # two components, each with its own patch; the protected eigenvalues land
    # per component and both sandwiches must hold globally.
    rng = np.random.default_rng(16)
    g1 = random_connected_graph(rng, 6, extra_edges=3)
    g2 = random_connected_graph(rng, 5, extra_edges=2)
    edges = list(g1.edges) + [(u + 6, v + 6, w) for u, v, w in g2.edges]
    g = WeightedGraph(11, edges)
    w_edges = [(0, 4, 0.3), (1, 5, 0.2), (2, 3, 0.25), (6, 9, 0.4), (7, 10, 0.35)]
    w = WeightedGraph(11, w_edges)
    assert not g.union(w).is_connected()
    result = sparsify_patch(g, w, 1)
    assert result.wk.edge_pairs() <= w.edge_pairs()
    assert result.measured_lower >= result.certified_lower - 1e-9
    assert result.measured_upper <= result.certified_upper + 1e-9
    vals = pencil_eigenvalues(laplacian(g.union(result.wk)), laplacian(g.union(w)))
    assert float(vals[0]) >= result.certified_lower - 1e-9
    assert float(vals[-1]) <= result.certified_upper + 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(), st.floats(min_value=-9.0, max_value=8.0), st.booleans())
def test_measured_sandwich_is_invariant_under_uniform_scaling(seed, exponent, split):
    # Scaling G and W by one factor c leaves every pencil unchanged, so the
    # selection and its measured sandwich must not move beyond rounding.
    # Weights are continuous random draws, so ties in the bottom-k spectrum
    # of X (where the selection may legitimately change) have probability 0.
    rng = np.random.default_rng(seed % (2**32))
    parts = 2 if split else 1
    size = 9
    g_edges, w_edges = [], []
    for p in range(parts):
        off = p * size
        g_p = random_connected_graph(rng, size, extra_edges=2)
        g_edges += [(u + off, v + off, w) for u, v, w in g_p.edges]
        pool = [(u, v) for u in range(size) for v in range(u + 1, size)]
        for j in rng.choice(len(pool), size=14, replace=False):
            u, v = pool[int(j)]
            w_edges.append((u + off, v + off, float(rng.uniform(0.05, 0.5))))
    g = WeightedGraph(parts * size, g_edges)
    w = WeightedGraph(parts * size, w_edges)
    c = 10.0**exponent
    base = sparsify_patch(g, w, 1)
    scaled = sparsify_patch(g.scale(c), w.scale(c), 1)
    assert scaled.wk.edge_pairs() == base.wk.edge_pairs()
    assert scaled.measured_lower == pytest.approx(base.measured_lower, rel=1e-9)
    assert scaled.measured_upper == pytest.approx(base.measured_upper, rel=1e-9)


def test_a_light_last_edge_keeps_every_cost_nonnegative():
    # costs are w / sum(w) as they are: fixing the last one up as
    # 1 - sum(the others) cancels below zero when that edge is light
    n = 8
    g = WeightedGraph(n, [(i, i + 1, 1.0) for i in range(n - 1)])
    pairs = [(u, v) for u in range(n) for v in range(u + 2, n)]
    weights = np.random.default_rng(5).uniform(0.1, 1.0, size=len(pairs))
    w = WeightedGraph(n, [(u, v, 1e-18 if (u, v) == (5, 7) else float(x)) for (u, v), x in zip(pairs, weights)])
    assert (int(w.u[-1]), int(w.v[-1])) == (5, 7)  # the light edge is the last one
    problem = connected_problem(g, w, 1, 9)
    assert np.all(problem.costs >= 0) and problem.costs[-1] > 0
    assert abs(float(problem.costs.sum()) - 1.0) <= 1e-9
    for k in (0, 1, 2):
        result = sparsify_patch(g, w, k)
        assert result.wk.edge_pairs() <= w.edge_pairs()
        assert result.measured_lower >= result.certified_lower - 1e-9


def split_patch_input(rng, components, size=8, chords=10):
    """G a random spanning tree on each of `components` blocks of `size`
    vertices, on shuffled ids; W `chords` random pairs inside each block."""
    n = components * size
    ids = rng.permutation(n)
    g_edges, w_edges = [], []
    for c in range(components):
        block = ids[c * size:(c + 1) * size]
        tree = random_connected_graph(rng, size, extra_edges=0)
        g_edges += [(int(block[u]), int(block[v]), w) for u, v, w in tree.edges]
        pool = [(u, v) for u in range(size) for v in range(u + 1, size)]
        for j in rng.choice(len(pool), size=chords, replace=False):
            u, v = pool[int(j)]
            w_edges.append((int(block[u]), int(block[v]), float(rng.uniform(0.05, 0.5))))
    return WeightedGraph(n, g_edges), WeightedGraph(n, w_edges)


@pytest.mark.parametrize("components", [12, 5])
def test_split_sparsify_builds_each_pencil_matrix_once(monkeypatch, components):
    # one pass over the components of G+W: three graphs (G+W, W_k and
    # G+W_k), four edge splits (the factor of L_{G+W}, the X_c of L_G, W's
    # candidates and the measured sandwich) and three Laplacian blocks per
    # component (the factor, X_c and the sandwich)
    g, w = split_patch_input(np.random.default_rng(23), components)
    assert len(set(g.union(w).component_labels().tolist())) == components
    counts = {"from_arrays": 0, "split": 0, "laplacian": 0}

    def counted(key, original):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        return wrapper

    from_arrays = counted("from_arrays", WeightedGraph.from_arrays.__func__)
    monkeypatch.setattr(WeightedGraph, "from_arrays", classmethod(from_arrays))
    split = counted("split", core._split_edges)
    monkeypatch.setattr(core, "_split_edges", split)
    monkeypatch.setattr(patch, "_split_edges", split)
    monkeypatch.setattr(core, "_edge_laplacian", counted("laplacian", core._edge_laplacian))
    result = sparsify_patch(g, w, 6)
    assert len(result.engine_results) == components
    assert counts == {"from_arrays": 3, "split": 4, "laplacian": 3 * components}

"""Fractional edge-addition solver, rounding, and the brute-force reference."""
import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_connected_graph, record_eigensolves, unit_graph
from lapsparse import connectivity
from lapsparse.core import (
    NumericalError,
    PreconditionError,
    TooLargeError,
    WeightedGraph,
    _edge_entries,
    _edge_laplacian,
    eigvalsh,
    laplacian,
)
from lapsparse.connectivity import (
    SOLVER_ITERATION_CAP,
    ConnectivityInstance,
    _dual_bound,
    brute_force_opt,
    round_solution,
    solve_fractional,
)
from lapsparse.patch import sparsify_patch


def path3() -> WeightedGraph:
    return WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])


def lambda2(g: WeightedGraph) -> float:
    return float(eigvalsh(laplacian(g))[1])


def lambda2_with(base: WeightedGraph, cand: WeightedGraph, weights) -> float:
    """lambda_2 of the base plus cand's edges at the given weights, by a loop."""
    lap = laplacian(base)
    for u, v, w in zip(cand.u.tolist(), cand.v.tolist(), weights):
        lap[u, u] += w
        lap[v, v] += w
        lap[u, v] -= w
        lap[v, u] -= w
    return float(np.linalg.eigvalsh(lap)[1])


def random_instance(rng, n: int, m_max: int, k_max: int, extra_edges: int = 2):
    """Connected random base on n vertices, up to m_max candidate non-edges, k in 1..k_max."""
    base = random_connected_graph(rng, n, extra_edges=extra_edges)
    pool = sorted({(u, v) for u in range(n) for v in range(u + 1, n)} - base.edge_pairs())
    m = int(rng.integers(1, min(len(pool), m_max) + 1))
    cand = [pool[int(j)] for j in rng.choice(len(pool), size=m, replace=False)]
    return ConnectivityInstance(base, unit_graph(n, cand), int(rng.integers(1, k_max + 1)))


# ---------------------------------------------------------------------------
# instance validation


def test_instance_canonicalizes_candidates_and_measures_delta():
    base = path3()
    inst = ConnectivityInstance(base, unit_graph(3, [(2, 0)]), 1)
    assert inst.candidates == WeightedGraph(3, [(0, 2, 1.0)])
    # max degree: vertex 1 has weighted degree 2 in the base; candidates give count 1
    assert inst.delta == pytest.approx(2.0)


def test_instance_rejects_malformed_candidates():
    # the instance checks the candidate graph as a whole: WeightedGraph has
    # already checked each row (test_core's rejection tests)
    base = path3()
    cases = [
        (unit_graph(4, [(0, 3)]), 1, "candidate graph has 4 vertices, base has 3"),
        (unit_graph(2, [(0, 1)]), 1, "candidate graph has 2 vertices, base has 3"),
        # a pair listed twice merges to weight 2, in either orientation
        (unit_graph(3, [(0, 2), (2, 0)]), 1, r"must have weight 1 \(a pair listed twice has 2\): \[\(0, 2\)\]"),
        (WeightedGraph(3, [(0, 2, 0.5)]), 1, r"must have weight 1 .*: \[\(0, 2\)\]"),
        (unit_graph(3, [(0, 2), (1, 0)]), 1, r"candidates overlap base edges: \[\(0, 1\)\]"),
        (unit_graph(3, [(0, 2)]), -1, "budget k must be nonnegative"),
        (unit_graph(3, [(0, 2)]), True, "bools are not"),
        (unit_graph(3, [(0, 2)]), False, "bools are not"),
    ]
    for cand, k, message in cases:
        with pytest.raises(PreconditionError, match=message):
            ConnectivityInstance(base, cand, k)


@pytest.mark.parametrize("which", ["base", "candidates"])
def test_instance_rejects_a_base_or_candidates_that_is_not_a_graph(which):
    # a list of (u, v) pairs is not a graph: the instance names the type it needs
    graphs = {"base": path3(), "candidates": unit_graph(3, [(0, 2)])}
    graphs[which] = [(0, 2)]
    with pytest.raises(PreconditionError, match=r"base and candidates must be WeightedGraphs, got .*list"):
        ConnectivityInstance(graphs["base"], graphs["candidates"], 1)


@pytest.mark.parametrize("k", [1.5, 2.0, np.float64(1.0), True, False])
def test_instance_rejects_a_budget_that_is_not_an_integer(k):
    # 1.5 and True were stored as k = 1
    with pytest.raises(PreconditionError, match="integer"):
        ConnectivityInstance(path3(), unit_graph(3, [(0, 2)]), k)
    assert ConnectivityInstance(path3(), unit_graph(3, [(0, 2)]), np.int64(1)).k == 1


def _loop_instance(base: WeightedGraph, pairs):
    """Candidate pairs and delta by a loop over (u, v) pairs of distinct
    vertices in range: duplicates first, then overlaps with the base."""
    pairs = [(int(min(u, v)), int(max(u, v))) for u, v in pairs]
    repeated = sorted({pair for pair in pairs if pairs.count(pair) > 1})
    if repeated:
        raise PreconditionError(f"candidates must have weight 1 (a pair listed twice has 2): {repeated}")
    overlap = set(pairs) & base.edge_pairs()
    if overlap:
        raise PreconditionError(f"candidates overlap base edges: {sorted(overlap)}")
    degrees = [0.0]
    if base.num_edges:
        degrees.append(float(np.max(base.weighted_degrees())))
    if pairs:
        counts = np.zeros(base.n)
        for u, v in pairs:
            counts[u] += 1.0
            counts[v] += 1.0
        degrees.append(float(np.max(counts)))
    return tuple(sorted(pairs)), max(degrees)


def _outcome(build):
    try:
        return build()
    except PreconditionError as exc:
        return str(exc)


def test_instance_matches_a_loop_over_the_pairs():
    # pairs that WeightedGraph rejects as rows (ids out of range or of
    # another type, self-loops, rows that are not pairs) are test_core's
    rng = np.random.default_rng(23)
    cases = [
        (path3(), []), (WeightedGraph(4, []), [(3, 1)]), (WeightedGraph(0, []), []),
        (path3(), [(0, 2), (2, 0)]), (path3(), [(1, 0), (2, 1)]), (path3(), np.array([[2, 0]])),
        (path3(), [(np.int64(2), np.uint8(0))]), (path3(), [(1, 0), (0, 2), (1, 0)]),
        (path3(), [(0, 2), (2, 0), (0, 2)]),
    ]
    for _ in range(40):
        n = int(rng.integers(2, 12))
        base = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, 4)))
        base = base.scale(float(rng.uniform(0.1, 10.0)))
        low, high = (-1, n + 1) if rng.random() < 0.2 else (0, n)  # sometimes out of range
        pairs = rng.integers(low, high, size=(int(rng.integers(0, 12)), 2)).tolist()
        if rng.random() < 0.5:  # a valid set: no self-loops, duplicates or base edges, either orientation
            valid = {(min(a, b), max(a, b)) for a, b in pairs if a != b} - base.edge_pairs()
            pairs = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in sorted(valid)]
        cases.append((base, [(a, b) for a, b in pairs if a != b and 0 <= min(a, b) and max(a, b) < n]))
    built = 0
    for base, cand in cases:
        want = _outcome(lambda: _loop_instance(base, cand))
        got = _outcome(lambda: ConnectivityInstance(base, unit_graph(base.n, cand), 1))
        if isinstance(want, str):
            assert got == want
            continue
        built += 1
        assert tuple(zip(got.candidates.u.tolist(), got.candidates.v.tolist())) == want[0]
        assert got.candidates.w.tolist() == [1.0] * len(want[0])
        assert got.delta.hex() == want[1].hex()
    assert built >= 20


def _round_two_weights_for_one_candidate():
    inst = ConnectivityInstance(path3(), unit_graph(3, [(0, 2)]), 1)
    return round_solution(inst, dataclasses.replace(solve_fractional(inst), weights=np.ones(2)))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: solve_fractional(ConnectivityInstance(path3(), unit_graph(3, []), 1)), PreconditionError,
         "need at least one candidate edge"),
        (_round_two_weights_for_one_candidate, PreconditionError, "has 2 weights for 1 candidates"),
        (lambda: brute_force_opt(ConnectivityInstance(WeightedGraph(1, []), unit_graph(1, []), 1)), PreconditionError,
         "at least 2 vertices"),
        # lambda_2 of the path 0-1-2 is 1
        (lambda: connectivity.certify_lambda2(laplacian(path3()), 1.5), NumericalError,
         "fell below the certified floor"),
    ],
    ids=["no-candidates", "weight-count", "one-vertex-oracle", "below-floor"],
)
def test_solver_rounding_and_oracle_check_their_inputs_and_certificate(call, error, message):
    with pytest.raises(error, match=message):
        call()
    assert connectivity.certify_lambda2(laplacian(path3()), 1.0) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# fractional solver


def test_single_candidate_takes_full_weight():
    inst = ConnectivityInstance(path3(), unit_graph(3, [(0, 2)]), 1)
    frac = solve_fractional(inst)
    assert frac.weights == pytest.approx([1.0], abs=1e-9)
    assert frac.lambda_sdp == pytest.approx(3.0, abs=1e-3)


def test_zero_budget_keeps_the_base_value():
    inst = ConnectivityInstance(path3(), unit_graph(3, [(0, 2)]), 0)
    frac = solve_fractional(inst)
    assert frac.weights == pytest.approx([0.0], abs=0.0)
    assert frac.lambda_sdp == pytest.approx(lambda2(path3()), abs=1e-9)
    # the only feasible point is w = 0, and the certificate finds that out
    assert frac.lambda_upper == pytest.approx(frac.lambda_sdp, rel=1e-12, abs=1e-14)
    assert frac.gap <= 1e-12 and frac.converged and frac.iterations == 0


def test_disconnected_base_and_candidates_certify_zero_without_iterating():
    # vertices {0,1,2} and {3,4} stay apart whatever the weights
    base = WeightedGraph(5, [(0, 1, 1.0), (3, 4, 2.0)])
    inst = ConnectivityInstance(base, unit_graph(5, [(1, 2), (0, 2)]), 1)
    frac = solve_fractional(inst)
    assert frac.lambda_sdp == 0.0 and frac.lambda_upper == 0.0 and frac.gap == 0.0
    assert frac.iterations == 0 and frac.converged
    assert brute_force_opt(inst)[0] == pytest.approx(0.0, abs=1e-12)
    rounded = round_solution(inst, frac)
    assert rounded.selection == WeightedGraph(5, [])
    assert rounded.lambda2_weighted == pytest.approx(0.0, abs=1e-12)


def test_fractional_value_never_falls_below_the_base():
    rng = np.random.default_rng(61)
    for _ in range(5):
        n = int(rng.integers(5, 10))
        base = random_connected_graph(rng, n, extra_edges=2)
        pool = sorted(
            {(u, v) for u in range(n) for v in range(u + 1, n)} - base.edge_pairs()
        )
        if not pool:
            continue
        m = min(len(pool), 6)
        cand = [pool[int(j)] for j in rng.choice(len(pool), size=m, replace=False)]
        inst = ConnectivityInstance(base, unit_graph(n, cand), 2)
        frac = solve_fractional(inst)
        assert frac.lambda_sdp >= lambda2(base) - 1e-9
        assert float(np.sum(frac.weights)) <= inst.k + 1e-8
        assert np.all(frac.weights >= -1e-12)
        assert np.all(frac.weights <= 1.0 + 1e-12)


def test_objective_is_concave_along_weight_averages():
    rng = np.random.default_rng(63)
    base = random_connected_graph(rng, 7, extra_edges=3)
    pool = sorted({(u, v) for u in range(7) for v in range(u + 1, 7)} - base.edge_pairs())
    cand = pool[:5]
    inst = ConnectivityInstance(base, unit_graph(7, cand), 2)

    def value(w):
        lap = laplacian(base).copy()
        for (u, v), wt in zip(cand, w):
            lap[u, u] += wt
            lap[v, v] += wt
            lap[u, v] -= wt
            lap[v, u] -= wt
        return float(np.linalg.eigvalsh(lap)[1])

    for _ in range(20):
        w1 = rng.uniform(0, 1, size=len(cand))
        w2 = rng.uniform(0, 1, size=len(cand))
        mid = value(0.5 * (w1 + w2))
        assert mid >= 0.5 * (value(w1) + value(w2)) - 1e-9


def test_expander_candidates_reach_the_uniform_value():
    # Candidate edges forming a 4-regular expander on an empty base: the
    # uniform fractional point w = k/m is feasible, so the solver must do at
    # least as well as its (known) objective value.
    import networkx as nx

    n, k = 20, 3
    h = nx.random_regular_graph(4, n, seed=11)
    cand = sorted(tuple(sorted(e)) for e in h.edges())
    base = WeightedGraph(n, [])
    inst = ConnectivityInstance(base, unit_graph(n, cand), k)
    uniform = k / len(cand)
    lap = np.zeros((n, n))
    for u, v in cand:
        lap[u, u] += uniform
        lap[v, v] += uniform
        lap[u, v] -= uniform
        lap[v, u] -= uniform
    uniform_value = float(np.linalg.eigvalsh(lap)[1])
    assert uniform_value > 0
    frac = solve_fractional(inst)
    assert frac.lambda_sdp >= uniform_value - 1e-6


def test_certificate_bounds_lambda2_for_any_basis_and_feasible_weights():
    # the bound holds for every basis V, eigenvectors or not, shifted along 1
    # or not, and every density p over its columns
    rng = np.random.default_rng(73)
    for _ in range(12):
        inst = random_instance(rng, int(rng.integers(4, 12)), m_max=10, k_max=3)
        n = inst.base.n
        lb = laplacian(inst.base)
        u, v, m = inst.candidates.u, inst.candidates.v, inst.candidates.num_edges
        k = min(inst.k, m)
        weights = [rng.uniform(0.0, 1.0, size=m) for _ in range(20)]
        weights = [w * min(1.0, k / float(w.sum())) for w in weights]
        weights += [np.array([1.0 if i in s else 0.0 for i in range(m)]) for s in itertools.combinations(range(m), k)]
        # near-eigenvector bases make the bound nearly tight: at the solver's
        # point and at a random feasible one, perturbed and shifted along 1
        bases = [rng.standard_normal((n, n - 1))]
        for w in (solve_fractional(inst).weights, weights[0]):
            lap = lb + _edge_laplacian(n, _edge_entries(n, u, v), w)
            vecs = np.linalg.eigh(lap)[1][:, 1:]
            bases.append(vecs + rng.uniform(-1.0, 1.0, size=n - 1))
            bases.append(vecs + 1e-3 * rng.standard_normal(vecs.shape))
        for basis in bases:
            for p in (np.eye(n - 1)[0], rng.dirichlet(np.full(n - 1, 0.5)), np.exp(-np.arange(n - 1.0) * 4.0)):
                upper, loads = _dual_bound(lb, u, v, basis, p / p.sum(), k)
                assert loads.shape == (m,) and np.all(loads >= 0.0)
                for w in weights:
                    assert lambda2_with(inst.base, inst.candidates, w) <= upper + 1e-12 * max(1.0, upper)


def test_certificate_bounds_the_solver_and_the_brute_force_optimum():
    rng = np.random.default_rng(79)
    for _ in range(15):
        inst = random_instance(rng, int(rng.integers(4, 9)), m_max=8, k_max=3, extra_edges=1)
        frac = solve_fractional(inst)
        brute_val, _ = brute_force_opt(inst)
        assert frac.lambda_sdp <= frac.lambda_upper
        assert frac.gap == pytest.approx(frac.lambda_upper - frac.lambda_sdp, abs=0.0)
        assert frac.converged == (frac.gap <= 1e-4)
        assert brute_val <= frac.lambda_upper + 1e-12
        w = rng.uniform(0.0, 1.0, size=inst.candidates.num_edges)
        w *= min(1.0, inst.k / float(w.sum()))
        assert lambda2_with(inst.base, inst.candidates, w) <= frac.lambda_upper + 1e-12


def random_sized_instance(seed: int, n: int, m: int, k: int) -> ConnectivityInstance:
    """The shape of the algconn benchmark's inputs: a random tree plus n/5
    chords as the base, and m random non-edges as candidates."""
    rng = np.random.default_rng(seed)
    base = random_connected_graph(rng, n, extra_edges=n // 5)
    pool = sorted({(u, v) for u in range(n) for v in range(u + 1, n)} - base.edge_pairs())
    cand = [pool[int(j)] for j in rng.choice(len(pool), size=m, replace=False)]
    return ConnectivityInstance(base, unit_graph(n, cand), k)


def benchmark_sized_instance() -> ConnectivityInstance:
    return random_sized_instance(41, 30, 40, 3)


def test_benchmark_sized_instance_certifies_before_the_cap():
    inst = benchmark_sized_instance()
    frac = solve_fractional(inst)
    assert frac.converged and frac.gap <= 1e-4
    assert frac.iterations < SOLVER_ITERATION_CAP
    assert frac.lambda_sdp >= lambda2(inst.base)
    # the certified point is the snapped, sparse one: rounding keeps it as it is
    assert 0 < np.count_nonzero(frac.weights) <= 8 * inst.k + 1


def test_a_hundred_vertex_instance_certifies_within_the_cap():
    # 400 candidates, k = 8: the Newton step count does not grow with m
    inst = random_sized_instance(43, 100, 400, 8)
    frac = solve_fractional(inst)
    assert frac.converged and frac.gap <= 1e-4
    assert frac.iterations < SOLVER_ITERATION_CAP
    assert frac.lambda_sdp >= lambda2(inst.base)
    assert float(np.sum(frac.weights)) <= inst.k + 1e-8


def test_the_solve_stops_at_the_first_certified_gap():
    # each solve stops as soon as its own gap is certified, so a loose
    # tolerance takes fewer Newton steps than the default one
    inst = benchmark_sized_instance()
    loose = solve_fractional(inst, tol=1e-1)
    default = solve_fractional(inst)
    for frac, tol in ((loose, 1e-1), (default, 1e-4)):
        assert frac.converged and frac.gap <= tol
    assert loose.iterations < default.iterations
    # the brackets of both solves contain the same fractional optimum
    assert loose.lambda_sdp <= default.lambda_upper and default.lambda_sdp <= loose.lambda_upper
    # on the path 0-1-2 the one candidate (0,2) at full weight makes a
    # triangle; a budget for every candidate needs no Newton step
    frac = solve_fractional(ConnectivityInstance(path3(), unit_graph(3, [(0, 2)]), 1))
    assert frac.iterations == 0
    assert frac.converged and frac.lambda_sdp == pytest.approx(3.0, rel=1e-12)


def test_edge_laplacians_are_exactly_symmetric():
    # the solver checks L_base once and adds these to it on every iterate
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(1, 200))
        u = rng.integers(0, n, size=m)
        v = (u + rng.integers(1, n, size=m)) % n
        u, v = np.concatenate((u, v[: m // 2])), np.concatenate((v, u[: m // 2]))  # repeat pairs both ways
        w = 10.0 ** rng.uniform(-6.0, 6.0, size=u.size)
        lap = _edge_laplacian(n, _edge_entries(n, u, v), w)
        assert np.array_equal(lap, lap.T)


@pytest.mark.parametrize("bad_call", [1, 2, 3, 6])
def test_a_non_finite_iterate_raises(monkeypatch, bad_call):
    # one snapped point's Laplacian gets a NaN: its values-only solve fails
    # in LAPACK or returns NaN eigenvalues, which the solver checks
    calls = []
    original = connectivity._edge_laplacian

    def poisoned(n, entries, w):
        lap = original(n, entries, w)
        calls.append(None)
        if len(calls) == bad_call:
            lap[0, 1] = lap[1, 0] = np.nan
        return lap

    monkeypatch.setattr(connectivity, "_edge_laplacian", poisoned)
    with pytest.raises(NumericalError, match="non-finite|did not converge"):
        solve_fractional(benchmark_sized_instance())
    assert len(calls) == bad_call


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_relabeled_instances_certify_overlapping_brackets(seed):
    # [lambda_sdp, lambda_upper] contains the fractional optimum, which a
    # vertex relabeling leaves unchanged, so the two brackets must meet
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, int(rng.integers(4, 9)), m_max=8, k_max=3)
    n = inst.base.n
    perm = rng.permutation(n)
    base = WeightedGraph(n, [(int(perm[u]), int(perm[v]), w) for u, v, w in inst.base.edges])
    cand = WeightedGraph.from_arrays(n, perm[inst.candidates.u], perm[inst.candidates.v], inst.candidates.w)
    a = solve_fractional(inst)
    b = solve_fractional(ConnectivityInstance(base, cand, inst.k))
    slack = 1e-12 * max(1.0, a.lambda_upper, b.lambda_upper)
    assert a.lambda_sdp <= b.lambda_upper + slack
    assert b.lambda_sdp <= a.lambda_upper + slack


# ---------------------------------------------------------------------------
# spectral ceiling


def ceiling(base: WeightedGraph, k: int) -> float:
    """The rounding's lambda_{k+2} of the base, with no candidate edges."""
    return round_solution(ConnectivityInstance(base, unit_graph(base.n, []), k), fractional([])).lambda_k2


def test_ceiling_is_the_k_plus_second_base_eigenvalue():
    n = 6
    complete = WeightedGraph(n, [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)])
    for k in range(0, n - 1):
        assert ceiling(complete, k) == pytest.approx(float(n), abs=1e-9)
    empty = WeightedGraph(5, [])
    assert ceiling(empty, 1) == pytest.approx(0.0, abs=1e-12)
    assert ceiling(empty, 4) == np.inf  # k+2 exceeds the dimension


# ---------------------------------------------------------------------------
# rounding


def test_rounding_the_triangle_closure():
    inst = ConnectivityInstance(path3(), unit_graph(3, [(0, 2)]), 1)
    frac = solve_fractional(inst)
    rounded = round_solution(inst, frac)
    assert rounded.selection.edge_pairs() == {(0, 2)}
    assert rounded.lambda2_unweighted == pytest.approx(3.0, abs=1e-9)
    assert rounded.lambda2_weighted >= rounded.floor - 1e-12


def test_rounding_zero_budget_selects_nothing():
    inst = ConnectivityInstance(path3(), unit_graph(3, [(0, 2)]), 0)
    rounded = round_solution(inst, solve_fractional(inst))
    assert rounded.selection == WeightedGraph(3, [])
    assert rounded.lambda2_weighted == pytest.approx(lambda2(path3()), abs=1e-9)


def test_rounding_respects_support_weight_and_floor_bounds():
    rng = np.random.default_rng(67)
    for trial in range(6):
        n = int(rng.integers(5, 9))
        base = random_connected_graph(rng, n, extra_edges=1)
        pool = sorted(
            {(u, v) for u in range(n) for v in range(u + 1, n)} - base.edge_pairs()
        )
        if len(pool) < 2:
            continue
        m = min(len(pool), 8)
        cand = [pool[int(j)] for j in rng.choice(len(pool), size=m, replace=False)]
        k = int(rng.integers(1, 4))
        inst = ConnectivityInstance(base, unit_graph(n, cand), k)
        frac = solve_fractional(inst)
        rounded = round_solution(inst, frac)
        sel = rounded.selection
        assert sel.num_edges <= 8 * k + 1
        assert sel.edge_pairs() <= set(cand)
        for w in sel.w:
            assert 0 < w <= 5.0 * 4.0 * inst.delta + 1e-9
        assert rounded.lambda2_weighted >= rounded.floor * (1 - 1e-6) - 1e-12
        # the reported weighted value matches a from-scratch eigensolve
        assert lambda2_with(base, sel, sel.w) == pytest.approx(rounded.lambda2_weighted, rel=1e-9, abs=1e-12)


def circulant_instance() -> ConnectivityInstance:
    # An empty base on 12 vertices and the circulant candidates {i, i + j},
    # j = 1, 2, 3, with k = 1. lambda_2 > 0 needs a connected support, so
    # every point that certifies a positive value has at least 11 > 8k + 1
    # positive weights, whatever the solver.
    n = 12
    cand = [(i, (i + j) % n) for j in (1, 2, 3) for i in range(n)]
    return ConnectivityInstance(WeightedGraph(n, []), unit_graph(n, cand), 1)


def test_rounding_runs_the_selection_engine_on_wide_supports():
    inst = circulant_instance()
    frac = solve_fractional(inst)
    assert frac.converged and frac.lambda_sdp > 0.0
    kept = int(np.sum(frac.weights > 1e-9 * max(float(np.sum(frac.weights)), 1e-300)))
    rounded = round_solution(inst, frac)
    assert rounded.selection.num_edges <= 8 * inst.k + 1
    assert rounded.lambda2_weighted >= rounded.floor * (1 - 1e-6) - 1e-12
    assert kept > 8 * inst.k + 1 and rounded.engine is not None


def test_rounding_takes_three_values_only_solves_or_four_with_the_engine(monkeypatch):
    # the spectrum of the base (its lambda_{k+2}, and lambda_2(G) for the
    # engine exit's floor), then lambda_2 of the base plus the selection,
    # weighted and unweighted, whichever way the selection was made; the
    # engine exit adds lambda_2(G + W*) for its floor, and the patch's own
    # solves are of the (n - 1)-dimensional image
    wide = circulant_instance()
    solves = record_eigensolves(monkeypatch)
    engines = []
    for inst in (ConnectivityInstance(path3(), unit_graph(3, [(0, 2)]), 0), ConnectivityInstance(path3(), unit_graph(3, [(0, 2)]), 1), wide):
        frac = solve_fractional(inst)
        solves.clear()
        rounded = round_solution(inst, frac)
        n = inst.base.n
        engines.append(rounded.engine is not None)
        assert [s[:2] for s in solves if s[1] == n] == [("eigvalsh", n)] * (3 + engines[-1])
    assert engines == [False, False, True]


def test_rounding_floor_is_at_least_the_connected_base_lambda_2(tmp_path):
    # L_{G+W_k} >= L_G, so lambda_2(G) is a floor too; on this connected base
    # it is about eight times c lambda_2(G + W*)
    from lapsparse.cli import graph_to_text, main

    inst = random_sized_instance(41, 24, 60, 2)
    frac = solve_fractional(inst)
    rounded = round_solution(inst, frac)
    assert rounded.engine is not None
    base_l2 = float(np.linalg.eigvalsh(laplacian(inst.base))[1])
    assert rounded.floor >= base_l2 > 0.0
    w_star, patch = patch_of_support(inst, frac.weights, inst.k)
    assert rounded.floor > 2.0 * patch.certified_lower * lambda2(inst.base.union(w_star))
    assert connectivity.certify_lambda2(laplacian(inst.base.union(rounded.selection)), rounded.floor) == pytest.approx(
        rounded.lambda2_weighted, rel=1e-12
    )
    # so does the floor the command line reports
    paths = [tmp_path / name for name in ("base.txt", "cand.txt", "sel.txt", "rep.json")]
    paths[0].write_text(graph_to_text(inst.base))
    paths[1].write_text(graph_to_text(inst.candidates))
    assert main(["algconn", *map(str, paths[:3]), "--k", "2", "--report", str(paths[3])]) == 0
    assert json.loads(paths[3].read_text())["rounded"]["floor"] >= base_l2


def fractional(weights) -> connectivity.FractionalSolution:
    """A fractional solution with the given weights; rounding reads only those."""
    w = np.asarray(weights, dtype=float)
    return connectivity.FractionalSolution(w, 0.0, 0.0, 0.0, 0, 0.0, True)


def test_rounding_keeps_a_fitting_support_and_certifies_its_own_lambda_2():
    inst = ConnectivityInstance(path3(), unit_graph(3, [(0, 2)]), 1)
    rounded = round_solution(inst, fractional([0.5]))
    assert rounded.selection == WeightedGraph(3, [(0, 2, 0.5)])
    assert rounded.floor == rounded.lambda2_weighted and rounded.engine is None


def patch_of_support(inst: ConnectivityInstance, weights: np.ndarray, k: int):
    """`sparsify_patch` of the positive weights against the base, with budget 8k+1."""
    kept = weights > 1e-9 * float(np.sum(weights))
    w_star = WeightedGraph.from_arrays(inst.base.n, inst.candidates.u[kept], inst.candidates.v[kept], weights[kept])
    return w_star, sparsify_patch(inst.base, w_star, k, 8 * inst.k + 1)


def test_rounding_the_circulant_support_sparsifies_it_against_the_base():
    # the engine exit is `sparsify_patch` of W* against the base: the same
    # edges, weights and engine run. An empty base has X = 0, so the floor
    # c lambda_2(G + W*) is 0 here.
    inst = circulant_instance()
    frac = solve_fractional(inst)
    rounded = round_solution(inst, frac)
    _, patch = patch_of_support(inst, frac.weights, inst.k)
    assert rounded.selection == patch.wk
    assert rounded.engine.weights.tolist() == patch.engine_results[0].weights.tolist()
    assert rounded.floor == patch.certified_lower == 0.0


def test_the_engine_exit_returns_the_patch_selection_itself(monkeypatch):
    # round_solution hands back sparsify_patch's W_k as it is, with no remap
    # to candidate indices, and an independent patch call gives the same graph
    inst = random_sized_instance(41, 24, 60, 2)
    frac = solve_fractional(inst)
    patches = []

    def recording(*args, _original=connectivity.sparsify_patch):
        patches.append(_original(*args))
        return patches[-1]

    monkeypatch.setattr(connectivity, "sparsify_patch", recording)
    rounded = round_solution(inst, frac)
    (patch,) = patches
    assert rounded.engine is patch.engine_results[0]
    assert rounded.selection is patch.wk
    assert rounded.selection == patch_of_support(inst, frac.weights, inst.k)[1].wk


def test_rounding_a_disconnected_wide_support_keeps_its_heaviest_weights():
    # two 12-vertex paths and 30 candidates inside the first: G + W* stays
    # disconnected, so lambda_2(G + W*) = 0 and no engine runs
    path = [(i, i + 1, 1.0) for i in range(11)]
    base = WeightedGraph(24, path + [(u + 12, v + 12, w) for u, v, w in path])
    cand = [(u, v) for u in range(12) for v in range(u + 2, 12)][:30]
    inst = ConnectivityInstance(base, unit_graph(24, cand), 1)
    weights = np.full(30, 1.0 / 30)
    weights[[4, 17]] = 0.05  # the two heaviest stay whatever the tie-breaking
    rounded = round_solution(inst, fractional(weights))
    assert rounded.selection.num_edges == 9 and rounded.engine is None
    assert {cand[4], cand[17]} <= rounded.selection.edge_pairs()
    assert rounded.floor == 0.0
    assert rounded.lambda2_weighted == pytest.approx(0.0, abs=1e-12)


def test_rounding_caps_k_below_the_image_rank():
    # k = n - 1 is at the image rank, which `sparsify_patch` rejects: the
    # rounding protects n - 2 directions and keeps the 8k+1 budget
    n = 20
    base = WeightedGraph(n, [(i, i + 1, 1.0) for i in range(n - 1)])
    cand = sorted({(u, v) for u in range(n) for v in range(u + 1, n)} - base.edge_pairs())
    k = n - 1
    inst = ConnectivityInstance(base, unit_graph(n, cand), k)
    weights = np.full(len(cand), k / len(cand))
    rounded = round_solution(inst, fractional(weights))
    assert rounded.engine is not None
    assert len(cand) > rounded.selection.num_edges > 0 and rounded.selection.num_edges <= 8 * k + 1
    assert rounded.selection.weight_sum() <= k * (1 + 1e-9)
    # the floor is the patch's certified factor times lambda_2(G + W*)
    w_star, patch = patch_of_support(inst, weights, n - 2)
    assert rounded.selection == patch.wk
    assert rounded.floor == pytest.approx(patch.certified_lower * lambda2(base.union(w_star)), rel=1e-12)
    assert rounded.floor > 0.0
    assert rounded.lambda2_weighted >= rounded.floor * (1 - 1e-6) - 1e-12


# ---------------------------------------------------------------------------
# brute force


def test_brute_force_on_empty_and_saturated_budgets():
    base = path3()
    val, chosen = brute_force_opt(ConnectivityInstance(base, unit_graph(3, []), 2))
    assert chosen == WeightedGraph(3, [])
    assert val == pytest.approx(lambda2(base), abs=1e-12)
    val_full, chosen_full = brute_force_opt(ConnectivityInstance(base, unit_graph(3, [(0, 2)]), 5))
    assert chosen_full == unit_graph(3, [(0, 2)])
    assert val_full == pytest.approx(3.0, abs=1e-9)


def test_brute_force_triangle():
    val, chosen = brute_force_opt(ConnectivityInstance(path3(), unit_graph(3, [(0, 2)]), 1))
    assert val == pytest.approx(3.0, abs=1e-9)
    assert chosen == unit_graph(3, [(0, 2)])


def test_brute_force_refuses_oversized_searches():
    n = 40
    base = WeightedGraph(n, [(i, i + 1, 1.0) for i in range(n - 1)])
    pool = sorted({(u, v) for u in range(n) for v in range(u + 1, n)} - base.edge_pairs())
    inst = ConnectivityInstance(base, unit_graph(n, pool[:60]), 10)
    with pytest.raises(TooLargeError):
        brute_force_opt(inst)

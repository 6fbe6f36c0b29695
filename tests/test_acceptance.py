"""End-to-end acceptance gate: one test per guaranteed property, run at the
stated tolerances on fixed seeds. Each test prints as its own pass/fail line
under `pytest -v`.
"""
import itertools
import json
import math
import time

import numpy as np
import pytest

from conftest import make_engine_instance, random_connected_graph, unit_graph, verify_patch
from lapsparse.core import WeightedGraph, laplacian, pencil_eigenvalues
from lapsparse.engine import _upper_phi, run_engine
from lapsparse.ultra import C1, TAIL_PROBES, build_ultrasparsifier, low_stretch_tree, sw_trace_check, tree_stretch
from lapsparse.connectivity import (
    ConnectivityInstance,
    brute_force_opt,
    round_solution,
    solve_fractional,
)
from lapsparse.cli import main, read_graph, write_graph


# ---------------------------------------------------------------------------
# 1 + 2: fifty random engine instances, shared between the two tests


@pytest.fixture(scope="module")
def engine_runs():
    runs = []
    for seed in range(50):
        k = seed % 3 + 1
        t0 = time.perf_counter()
        problem = make_engine_instance(seed, n=40, m=300, k=k)
        result = run_engine(problem)
        elapsed = time.perf_counter() - t0
        runs.append((problem, result, elapsed))
    return runs


def test_01_engine_certificate_on_fifty_random_instances(engine_runs):
    assert len(engine_runs) == 50
    for problem, result, elapsed in engine_runs:
        assert elapsed < 10.0
        assert len(result.trace) == problem.N  # exactly N selection steps
        assert result.lambda_max <= 5.0
        x_vals = np.linalg.eigvalsh(problem.X)
        mstar_vals = np.linalg.eigvalsh(problem.Mstar)
        floor = (
            min(problem.N / problem.T, 1.0)
            * float(x_vals[problem.k])
            * float(mstar_vals[0])
            / 72.0
        )
        assert result.lambda_min >= floor
        # the certified floor the engine returns holds and implies the /72 one
        assert result.lambda_min >= result.floor - 1e-9
        assert result.floor >= (72 / 62.2) * floor
        assert np.count_nonzero(result.weights) <= problem.N
        assert result.weights @ problem.costs <= min(1.0, problem.N / problem.T)


def test_02_potentials_never_increase_across_any_step(engine_runs):
    violations = 0
    worst = -np.inf
    for _, result, _ in engine_runs:
        for record in result.trace:
            worst = max(worst, record.upper_increase, record.lower_increase)
            if record.upper_increase > 1e-9 or record.lower_increase > 1e-9:
                violations += 1
    assert violations == 0
    assert worst <= 1e-9


# ---------------------------------------------------------------------------
# 3: rank-one update formulas and spectral compression inequalities


def test_03_rank_one_update_and_majorization_suites():
    rng = np.random.default_rng(2024)
    trials = 200

    def rel(err: float, scale: float) -> float:
        return err / max(scale, 1.0)

    worst = {"inverse": 0.0, "pseudoinverse": 0.0, "compression": 0.0,
             "potential": 0.0, "trace_product": 0.0}

    for _ in range(trials):
        # rank-one update of a true inverse
        d = int(rng.integers(2, 9))
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        a = (q * rng.uniform(0.5, 2.0, size=d)) @ q.T
        v = rng.standard_normal(d)
        ainv = np.linalg.inv(a)
        av = ainv @ v
        formula = ainv - np.outer(av, av) / (1.0 + float(v @ av))
        direct = np.linalg.inv(a + np.outer(v, v))
        worst["inverse"] = max(
            worst["inverse"],
            rel(float(np.linalg.norm(formula - direct)), float(np.linalg.norm(direct))),
        )

        # rank-one update of a pseudoinverse, direction projected onto the image
        r = int(rng.integers(1, d + 1))
        vals = np.concatenate([rng.uniform(0.5, 2.0, size=r), np.zeros(d - r)])
        s = (q * vals) @ q.T
        sdag = np.linalg.pinv(s)
        p = s @ sdag
        w = rng.standard_normal(d)
        sw = sdag @ w
        formula_p = sdag - np.outer(sw, sw) / (1.0 + float(w @ sw))
        ybar = p @ np.outer(w, w) @ p
        direct_p = np.linalg.pinv((s + ybar + (s + ybar).T) / 2.0)
        worst["pseudoinverse"] = max(
            worst["pseudoinverse"],
            rel(float(np.linalg.norm(formula_p - direct_p)), float(np.linalg.norm(direct_p))),
        )

        # compression by a projection weakly majorizes from above
        qb, _ = np.linalg.qr(rng.standard_normal((d, d)))
        b = (qb * rng.uniform(0.0, 2.0, size=d)) @ qb.T
        proj_rank = int(rng.integers(1, d + 1))
        qp, _ = np.linalg.qr(rng.standard_normal((d, d)))
        proj = qp[:, :proj_rank] @ qp[:, :proj_rank].T
        vb = np.sort(np.linalg.eigvalsh((b + b.T) / 2.0))[::-1]
        comp = proj @ b @ proj
        vc = np.sort(np.linalg.eigvalsh((comp + comp.T) / 2.0))[::-1]
        for top in range(1, d + 1):
            gap = float(vc[:top].sum() - vb[:top].sum())
            worst["compression"] = max(worst["compression"], rel(gap, abs(float(vb[:top].sum()))))

        # ... so the tracked upper potential can only drop under compression
        u = float(vb[0]) + rng.uniform(0.1, 1.0)
        t_bound = int(rng.integers(1, d + 1))
        gap = _upper_phi(np.linalg.eigvalsh((comp + comp.T) / 2.0), u, t_bound) - _upper_phi(
            np.linalg.eigvalsh((b + b.T) / 2.0), u, t_bound
        )
        worst["potential"] = max(worst["potential"], rel(gap, 1.0))

        # low-trace contractions cannot extract more than the top eigenvalues
        diag = rng.uniform(0.0, 1.0, size=d)
        slots = int(np.ceil(diag.sum())) or 1
        qa, _ = np.linalg.qr(rng.standard_normal((d, d)))
        contraction = (qa * diag) @ qa.T
        m = (qb * rng.uniform(0.0, 3.0, size=d)) @ qb.T
        top_sum = float(np.sort(np.linalg.eigvalsh((m + m.T) / 2.0))[::-1][:slots].sum())
        gap = float(np.sum(contraction * m)) - top_sum
        worst["trace_product"] = max(worst["trace_product"], rel(gap, abs(top_sum)))

    assert max(worst.values()) <= 1e-8, worst


# ---------------------------------------------------------------------------
# 4: the trace of the tree pencil is the total stretch


def test_04_tree_trace_identity_tails_and_cycle_exactness():
    rng = np.random.default_rng(404)
    for trial in range(30):
        n = int(rng.integers(12, 101))
        g = random_connected_graph(
            rng, n, extra_edges=int(rng.integers(0, 2 * n)), wmin=0.3, wmax=3.0
        )
        tree, report = low_stretch_tree(g)
        assert report == tree_stretch(g, tree)
        trace, stretch = sw_trace_check(g, tree, report), report.total
        assert abs(trace - stretch) <= 1e-7 * stretch
        vals = pencil_eigenvalues(laplacian(g), laplacian(tree.graph))
        for t in TAIL_PROBES:
            assert int(np.sum(vals > t)) <= stretch / t

    for n in (5, 10, 64, 100):
        cycle = WeightedGraph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])
        total = low_stretch_tree(cycle)[1].total
        assert total == float(2 * n - 2)


# ---------------------------------------------------------------------------
# 5: patch certificates for the scaled-graph inputs the sparsifier feeds it


def test_05_patch_certificates_for_scaled_inputs():
    for seed, k in itertools.product((0, 1, 2), (1, 2, 4)):
        rng = np.random.default_rng(500 + seed)
        g = random_connected_graph(rng, 60, extra_edges=90, wmin=0.5, wmax=2.0)
        tree, report = low_stretch_tree(g)
        stretch = report.total
        kappa = C1 * stretch / k
        w = g.scale(1.0 / kappa)
        params = verify_patch(tree.graph, w, k)
        assert params.lambda_star >= 4.0 / 5.0 - 1e-6
        assert params.T_patch <= k / C1 + 1e-6


# ---------------------------------------------------------------------------
# 6: full tree-plus-patch pipeline on 3-regular graphs


def test_06_sparsifier_pipeline_on_three_regular_graphs():
    import networkx as nx

    n = 100
    for seed in (0, 1, 2):
        h = nx.random_regular_graph(3, n, seed=seed)
        g = WeightedGraph(n, [(u, v, 1.0) for u, v in h.edges()])
        kappas = []
        for k in (2, 4, 8):
            t0 = time.perf_counter()
            r = build_ultrasparsifier(g, k)
            elapsed = time.perf_counter() - t0
            assert elapsed < 60.0
            assert r.u.num_edges <= (n - 1) + 8 * k + 1
            assert 1.0 / r.kappa >= r.certified_lower - 1e-9
            assert 1.0 / r.c <= r.kappa_target + 1e-9
            kappas.append(r.kappa / r.c)
        assert kappas[0] >= kappas[1] - 1e-9
        assert kappas[1] >= kappas[2] - 1e-9


# ---------------------------------------------------------------------------
# 7 + 8: connectivity maximization against the exhaustive reference


def test_07_exhaustive_oracle_brackets_solver_and_rounding():
    rng = np.random.default_rng(42)

    def random_instance():
        n = int(rng.integers(4, 9))
        while True:
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            keep = [p for p in pairs if rng.random() < 0.5]
            if not keep:
                continue
            g = WeightedGraph(n, [(u, v, float(rng.uniform(0.5, 2.0))) for u, v in keep])
            if g.is_connected():
                break
        non_edges = [p for p in pairs if p not in set(keep)]
        rng.shuffle(non_edges)
        m = int(rng.integers(1, min(10, max(2, len(non_edges))) + 1)) if non_edges else 0
        cand = non_edges[:m]
        if not cand:
            return None
        k = int(rng.integers(1, 4))
        return ConnectivityInstance(g, unit_graph(n, cand), k)

    done = 0
    while done < 25:
        inst = random_instance()
        if inst is None:
            continue
        done += 1
        frac = solve_fractional(inst, tol=1e-4)
        brute_val, _ = brute_force_opt(inst)
        rounded = round_solution(inst, frac)
        lam_k2 = rounded.lambda_k2

        assert frac.lambda_sdp <= frac.lambda_upper
        assert brute_val <= min(frac.lambda_upper + 1e-9, lam_k2 + 1e-9)
        assert frac.lambda_sdp >= brute_val - 1e-3
        assert rounded.selection.num_edges <= 8 * inst.k + 1
        if math.isfinite(lam_k2):
            floor = lam_k2 * frac.lambda_sdp / (72.0 * (4.0 * inst.delta) ** 2)
            assert rounded.lambda2_weighted >= floor * (1.0 - 1e-6) - 1e-12


def test_08_path_triangle_fixture():
    base = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    inst = ConnectivityInstance(base, unit_graph(3, [(0, 2)]), 1)
    frac = solve_fractional(inst)
    assert frac.lambda_sdp == pytest.approx(3.0, abs=1e-3)
    rounded = round_solution(inst, frac)
    assert rounded.selection.edge_pairs() == {(0, 2)}
    assert rounded.lambda2_unweighted == pytest.approx(3.0, abs=1e-9)


# ---------------------------------------------------------------------------
# 9: the verification command reproduces the builder's report


def test_09_cli_verification_round_trip_and_determinism(tmp_path):
    rng = np.random.default_rng(909)
    g = random_connected_graph(rng, 30, extra_edges=45)
    g_path = str(tmp_path / "G.txt")
    write_graph(g_path, g)
    u_path = str(tmp_path / "U.txt")
    rep_path = tmp_path / "ultra.json"
    argv = ["ultra", g_path, u_path, "--k", "2", "--report", str(rep_path)]

    assert main(argv) == 0
    first_text = rep_path.read_text()
    first = json.loads(first_text)
    first_u = read_graph(u_path)

    verify_rep = tmp_path / "verify.json"
    assert main(["verify", g_path, u_path, "--report", str(verify_rep)]) == 0
    verified = json.loads(verify_rep.read_text())["measured"]
    measured = first["measured"]
    assert abs(verified["c"] - measured["c"]) <= 1e-7 * max(1.0, abs(measured["c"]))
    assert abs(verified["kappa"] - measured["kappa"]) <= 1e-7 * max(1.0, abs(measured["kappa"]))

    # identical second invocation: identical report modulo timings
    assert main(argv) == 0
    second = json.loads(rep_path.read_text())
    assert read_graph(u_path).edges == first_u.edges
    del first["timings"]
    del second["timings"]
    assert first == second

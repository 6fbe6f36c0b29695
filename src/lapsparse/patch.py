"""Graph-level wrapper of the selection engine: patch certification and
few-edge patch sparsifiers.

A graph W is measured against a base G through the pencil of L_G with
L_{G+W}: lambda_star is the (k+1)-th smallest pencil eigenvalue on the image
and T_patch the trace of L_W L_{G+W}^+. Sparsification re-weights at most N
edges of W so that G + W_k spectrally sandwiches G + W.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BudgetTooSmallError,
    InvalidKError,
    LaplacianFactor,
    NumericalError,
    PreconditionError,
    WeightedGraph,
    factor_laplacian,
    laplacian,
    pencil_eigenvalues,
    pencil_range,
    symmetrize,
)
from .engine import EngineProblem, run_engine


@dataclass(frozen=True)
class PatchParams:
    """Measured certificate of W against G: the (k, T, lambda_star) triple."""

    k: int
    T_patch: float
    lambda_star: float


@dataclass(frozen=True)
class PatchSparsifier:
    """Reweighted few-edge subgraph W_k of W with its spectral sandwich.

    Factors refer to the pencil of L_{G+W_k} against L_{G+W}: certified
    bounds come from the engine certificate, measured ones from
    `measure_sandwich` with `factor`, the factor of L_{G+W} (of L_G when W
    has no edges).
    """

    wk: WeightedGraph
    certified_lower: float
    certified_upper: float
    measured_lower: float
    measured_upper: float
    total_weight: float
    weight_bound: float
    params: PatchParams
    n_budget: int
    engine_results: tuple
    factor: LaplacianFactor


def measure_sandwich(
    g: WeightedGraph,
    wk: WeightedGraph,
    factor: LaplacianFactor,
    certified_lower: float,
    certified_upper: float,
) -> tuple[float, float]:
    """Extremes of the (L_{G+W_k}, L_{G+W}) pencil, `factor` being the factor
    of L_{G+W}; raises NumericalError unless they lie inside the certified
    [certified_lower, certified_upper] within 1e-9."""
    lower, upper = pencil_range(g.union(wk), factor)
    if lower < certified_lower - 1e-9 or upper > certified_upper + 1e-9:
        raise NumericalError(
            f"measured sandwich [{lower!r}, {upper!r}] leaves the certified"
            f" [{certified_lower!r}, {certified_upper!r}]"
        )
    return lower, upper


def verify_patch(
    g: WeightedGraph, w: WeightedGraph, k: int, factor: LaplacianFactor | None = None
) -> PatchParams:
    """Measure (lambda_{k+1} of the (L_G, L_{G+W}) pencil, Tr(L_W L_{G+W}^+)).

    Both quantities live on the image of L_{G+W}; for disconnected G+W the
    pencil spectrum is the union over components, sorted globally. `factor`
    is the factor of L_{G+W}, built here when the caller holds none.
    """
    if w.n != g.n:
        raise PreconditionError(f"vertex count mismatch: G has {g.n}, W has {w.n}")
    if k < 0:
        raise PreconditionError(f"k must be nonnegative, got {k}")
    if factor is None:
        factor = factor_laplacian(g.union(w))
    vals = pencil_eigenvalues(laplacian(g), factor)
    if k >= vals.size:
        raise InvalidKError(f"k = {k} is at or above the image rank {vals.size}")
    return PatchParams(k=k, T_patch=factor.trace_pinv(laplacian(w)), lambda_star=float(vals[k]))


def build_patch_problem(
    g: WeightedGraph,
    w: WeightedGraph,
    k: int,
    n_budget: int,
    factor: LaplacianFactor,
) -> EngineProblem:
    """Engine instance for sparsifying W against G (G+W must be connected).

    Working space: im(L_{G+W}) in the eigenbasis of `factor`, the factor
    F = Q diag(lambda)^(-1/2) of L_{G+W}. X = F^T L_G F is the pencil
    matrix of L_G, edge e = (u, v) of W contributes the rank-one generator
    sqrt(w_e) F^T b_e = sqrt(w_e) (F[u] - F[v]), costs are w_e / sum(w),
    and M* is the identity on the working space.
    """
    if w.n != g.n:
        raise PreconditionError(f"vertex count mismatch: G has {g.n}, W has {w.n}")
    if not w.edges:
        raise PreconditionError("W has no edges; nothing to sparsify")
    if factor.components != 1:
        raise PreconditionError("G+W must be connected here; split by component upstream")
    f = factor.f
    x = symmetrize(f.T @ laplacian(g) @ f)
    u, v, we = (np.array(col) for col in zip(*w.edges))
    vectors = np.sqrt(we) * (f[u] - f[v]).T
    total = w.weight_sum()
    costs = we / total
    costs[-1] = 1.0 - float(costs[:-1].sum())
    d = f.shape[1]
    return EngineProblem(X=x, vectors=vectors, costs=costs, Mstar=np.eye(d), k=k, N=n_budget)


def _component_budgets(x_traces, k_bottom_counts, n_budget):
    """Per-component step budgets: proportional to each trace bound, floored
    at the engine minimum 8 k_c + 1."""
    total = sum(x_traces)
    budgets = []
    for t_c, k_c in zip(x_traces, k_bottom_counts):
        share = int(n_budget * t_c / total) if total > 0 else 0
        budgets.append(max(8 * k_c + 1, share))
    return budgets


def sparsify_patch(
    g: WeightedGraph, w: WeightedGraph, k: int, n_budget: int | None = None
) -> PatchSparsifier:
    """Select at most N reweighted edges of W so G+W_k sandwiches G+W.

    N defaults to 8k+1; an explicit budget below that is rejected.
    Disconnected G+W is split per component: each component gets the
    protected count k_c of globally-smallest X eigenvalues landing in it
    and a proportional share of the budget (floored at 8 k_c + 1, so the
    combined edge count can exceed N on adversarial splits; the realized
    budget is reported via n_budget).
    """
    if k < 0:
        raise PreconditionError(f"k must be nonnegative, got {k}")
    if n_budget is None:
        n_eff = 8 * k + 1
    elif n_budget < 8 * k + 1:
        raise BudgetTooSmallError(
            f"edge budget N = {n_budget} must be at least 8k+1 = {8 * k + 1} selection steps"
        )
    else:
        n_eff = int(n_budget)
    if not w.edges:
        # nothing to select; the sandwich of L_G against itself is exactly 1
        return PatchSparsifier(
            wk=WeightedGraph(g.n, []),
            certified_lower=1.0,
            certified_upper=1.0,
            measured_lower=1.0,
            measured_upper=1.0,
            total_weight=0.0,
            weight_bound=0.0,
            params=PatchParams(k=k, T_patch=0.0, lambda_star=1.0),
            n_budget=n_eff,
            engine_results=(),
            factor=factor_laplacian(g),
        )

    # One factor of L_{G+W} serves the measured certificate, the connected
    # problem, the final sandwich and, carried in the result, a re-check of
    # W_k read back from a file. Connected G+W is a one-part partition.
    factor = factor_laplacian(g.union(w))
    params = verify_patch(g, w, k, factor)
    if factor.components <= 1:
        parts = [(g, w, np.arange(g.n), factor, k, n_eff)]
    else:
        # Per-component split. Protected counts follow the global bottom-k of
        # the block-diagonal X; budgets follow the component trace bounds.
        # Each component's factor gives its X spectrum as a pencil and then
        # its problem, so the problem is built once.
        comps = []
        spectra = []
        for c in range(factor.components):
            verts = np.flatnonzero(factor.labels == c)
            g_c, old_ids = g.subgraph(verts)
            w_c, _ = w.subgraph(verts)
            if w_c.edges:
                factor_c = factor_laplacian(g_c.union(w_c))
                spectra.append(pencil_eigenvalues(laplacian(g_c), factor_c))
            else:
                factor_c = None
                spectra.append(np.ones(max(g_c.n - 1, 0)))
            comps.append((g_c, w_c, old_ids, factor_c))
        merged = sorted((val, ci) for ci, vals in enumerate(spectra) for val in vals)
        k_counts = [0] * len(comps)
        for _, ci in merged[:k]:
            k_counts[ci] += 1
        traces = [
            float(np.sum(np.clip(1.0 - vals, 0.0, None))) if vals.size else 0.0
            for vals in spectra
        ]
        budgets = _component_budgets(traces, k_counts, n_eff)
        parts = [comp + (k_c, n_c) for comp, k_c, n_c in zip(comps, k_counts, budgets)]

    wk_edges = []
    engine_results = []
    realized_budget = 0
    weight_bound = 0.0
    for g_c, w_c, old_ids, factor_c, k_c, n_c in parts:
        if not w_c.edges:
            continue
        realized_budget += n_c
        result = run_engine(build_patch_problem(g_c, w_c, k_c, n_c, factor_c))
        engine_results.append(result)
        weight_bound += result.cost_bound * w_c.weight_sum()
        for (u, v, we), rho in zip(w_c.edges, result.weights):
            if rho > 0:
                wk_edges.append((int(old_ids[u]), int(old_ids[v]), rho * we))
    # every edge of W lies in one component, so at least one engine ran
    certified_lower = min(result.explicit_floor for result in engine_results)
    certified_upper = max(result.theta_max for result in engine_results)

    wk = WeightedGraph(g.n, wk_edges)
    measured_lower, measured_upper = measure_sandwich(g, wk, factor, certified_lower, certified_upper)
    total_weight = wk.weight_sum()
    if total_weight > weight_bound + 1e-9 * max(1.0, weight_bound):
        raise NumericalError(
            f"total selected weight {total_weight!r} exceeds min(1, N/T) sum(w) = {weight_bound!r}"
        )
    return PatchSparsifier(
        wk=wk,
        certified_lower=certified_lower,
        certified_upper=certified_upper,
        measured_lower=measured_lower,
        measured_upper=measured_upper,
        total_weight=total_weight,
        weight_bound=weight_bound,
        params=params,
        n_budget=realized_budget,
        engine_results=tuple(engine_results),
        factor=factor,
    )

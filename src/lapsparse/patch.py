"""Graph-level wrapper of the selection engine: patch certification and
few-edge patch sparsifiers.

A graph W is measured against a base G through the pencil of L_G with
L_{G+W}, one component c of G+W at a time: X_c = F_c^T L_G F_c, built once
from the factor of L_{G+W}, gives lambda_star (the (k+1)-th smallest
eigenvalue over all c) and T_patch = Tr(L_W L_{G+W}^+) = sum_c Tr(I - X_c).
Sparsification runs the engine on the same X_c and re-weights at most N
edges of W so that G + W_k spectrally sandwiches G + W.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BudgetTooSmallError,
    FactorBlock,
    InvalidKError,
    LaplacianFactor,
    NumericalError,
    PreconditionError,
    SpectralDecomposition,
    WeightedGraph,
    _decompose,
    _integral,
    _split_edges,
    factor_laplacian,
    pencil_range,
)
from .engine import EngineProblem, _protected_count, run_engine


@dataclass(frozen=True)
class PatchParams:
    """Measured certificate of W against G: the (k, T, lambda_star) triple."""

    k: int
    T_patch: float
    lambda_star: float


@dataclass(frozen=True, eq=False)
class PatchSparsifier:
    """Reweighted few-edge subgraph W_k of W with its spectral sandwich.

    Factors refer to the pencil of L_{G+W_k} against L_{G+W}: certified
    bounds come from the engine certificate, measured ones from
    `measure_sandwich` against the factor of L_{G+W} (exactly 1 when W has
    no edges). W_k's total weight, wk.weight_sum(), is at most weight_bound.
    """

    wk: WeightedGraph
    certified_lower: float
    certified_upper: float
    measured_lower: float
    measured_upper: float
    weight_bound: float
    params: PatchParams
    n_budget: int
    engine_results: tuple


def measure_sandwich(
    h: WeightedGraph, factor: LaplacianFactor, certified_lower: float, certified_upper: float
) -> tuple[float, float]:
    """Extremes of the pencil of L_H against the Laplacian that `factor`
    factors (L_{G+W} for a patch G + W_k, L_G for an ultrasparsifier U);
    raises NumericalError unless they lie inside the certified
    [certified_lower, certified_upper] within 1e-9."""
    lower, upper = pencil_range(h, factor)
    if lower < certified_lower - 1e-9 or upper > certified_upper + 1e-9:
        raise NumericalError(
            f"measured sandwich [{lower!r}, {upper!r}] leaves the certified"
            f" [{certified_lower!r}, {certified_upper!r}]"
        )
    return lower, upper


def _certificate(k: int, spectra: list) -> tuple[PatchParams, list, list]:
    """The certificate of W against G from the ascending spectrum of the
    pencil matrix X_c = F_c^T L_G F_c of each component c of G+W (block c
    of the (L_G, L_{G+W}) pencil, F the factor of L_{G+W}).

    Since L_W = L_{G+W} - L_G, F_c^T L_W F_c = I - X_c, so T_patch is the
    sum of the trace bounds Tr(I - X_c). Also returns, per component, its
    protected count (how many of the globally smallest values it holds, the
    k of them shrunk to the start of a tied cluster) and Tr(I - X_c).
    """
    if k < 0:
        raise PreconditionError(f"k must be nonnegative, got {k}")
    vals = np.concatenate([np.zeros(0), *spectra])
    owner = np.repeat(np.arange(len(spectra)), [s.size for s in spectra])
    order = np.lexsort((owner, vals))  # by value, then by component
    if k >= vals.size:
        raise InvalidKError(f"k = {k} is at or above the image rank {vals.size}")
    protected = owner[order[: _protected_count(vals[order], k)]]
    k_counts = np.bincount(protected, minlength=len(spectra)).tolist()
    traces = [float(np.sum(np.clip(1.0 - s, 0.0, None))) for s in spectra]
    params = PatchParams(k=k, T_patch=float(sum(traces)), lambda_star=float(vals[order[k]]))
    return params, k_counts, traces


def build_patch_problem(
    x: np.ndarray,
    block: FactorBlock,
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    k: int,
    n_budget: int,
    dec_x: SpectralDecomposition | None = None,
) -> EngineProblem:
    """Engine instance for sparsifying W against G on one component of G+W.

    Working space: the component's share of im(L_{G+W}) in the basis of its
    factor block F = block.f, and X = F^T L_G F its pencil matrix of L_G,
    with dec_x its eigendecomposition when already solved. W's edges there
    are (u[i], v[i]) of weight w[i], on the block's vertex indices: edge e =
    (u, v) contributes the rank-one generator sqrt(w_e) (F[u] - F[v]); one
    whose squares all underflow raises NumericalError. Costs are w_e /
    sum(w), and M* is the identity on the working space.
    """
    if not w.size:
        raise PreconditionError("W has no edges; nothing to sparsify")
    if max(u.max(), v.max()) >= block.f.shape[0]:
        raise PreconditionError("W has an edge off the block: G+W must be connected here, split it upstream")
    vectors = np.sqrt(w) * (block.f[u] - block.f[v]).T
    lost = np.flatnonzero(np.linalg.norm(vectors, axis=0) == 0.0)
    if lost.size:  # a valid edge that the engine would reject as a zero update
        i = lost[0]
        raise NumericalError(
            f"edge ({block.vertices[u[i]]},{block.vertices[v[i]]}) of W, weight {float(w[i])!r}:"
            " the squares of its update vector's entries underflow to 0"
        )
    costs = w / float(sum(w.tolist()))
    return EngineProblem(
        X=x, vectors=vectors, costs=costs, Mstar=np.eye(block.f.shape[1]), k=k, N=n_budget, dec_x=dec_x
    )


def _component_budgets(x_traces, k_bottom_counts, n_budget):
    """Per-component step budgets: shares of n_budget proportional to each
    trace bound (equal shares when every bound is 0), floored at the engine
    minimum 8 k_c + 1. A single component's share is exactly n_budget."""
    total = sum(x_traces)
    shares = [t_c / total if total > 0 else 1.0 / len(x_traces) for t_c in x_traces]
    return [max(8 * k_c + 1, int(n_budget * s)) for s, k_c in zip(shares, k_bottom_counts)]


def sparsify_patch(
    g: WeightedGraph, w: WeightedGraph, k: int, n_budget: int | None = None
) -> PatchSparsifier:
    """Select at most N reweighted edges of W so G+W_k sandwiches G+W.

    N defaults to 8k+1; an explicit budget below that is rejected. Each
    component of G+W is sparsified on its own block of the factor of
    L_{G+W}: it gets the protected count k_c of globally-smallest X
    eigenvalues landing in it and a proportional share of the budget
    (floored at 8 k_c + 1, so the combined edge count can exceed N on
    adversarial splits; the realized budget is reported via n_budget).
    Connected G+W is the one-block case, with all of k and N.
    """
    if not _integral(type(k)) or k < 0:
        raise PreconditionError(f"k must be nonnegative and an integer (bools are not), got {k!r}")
    if n_budget is None:
        n_eff = 8 * k + 1
    elif not _integral(type(n_budget)):
        raise PreconditionError(f"edge budget N must be an integer (bools are not), got {n_budget!r}")
    elif n_budget < 8 * k + 1:
        raise BudgetTooSmallError(
            f"edge budget N = {n_budget} must be at least 8k+1 = {8 * k + 1} selection steps"
        )
    else:
        n_eff = int(n_budget)
    if w.n != g.n:
        raise PreconditionError(f"vertex count mismatch: {g.n} vs {w.n}")
    if not w.num_edges:
        # nothing to select; the sandwich of L_G against itself is exactly 1
        return PatchSparsifier(
            wk=WeightedGraph(g.n, []),
            certified_lower=1.0,
            certified_upper=1.0,
            measured_lower=1.0,
            measured_upper=1.0,
            weight_bound=0.0,
            params=PatchParams(k=k, T_patch=0.0, lambda_star=1.0),
            n_budget=n_eff,
            engine_results=(),
        )

    # One factor of L_{G+W} serves the measured certificate, each
    # component's problem and the final sandwich. Each component's X is
    # built and decomposed once, for the certificate, its protected count,
    # its budget and its engine run.
    factor = factor_laplacian(g.union(w))
    xs = factor.pencil_matrices(g)
    decs = [_decompose(x) for x in xs]
    params, k_counts, traces = _certificate(k, [dec.eigenvalues for dec in decs])
    budgets = _component_budgets(traces, k_counts, n_eff)
    picked = []  # per component, the (u, v, rho * w) arrays of its W_k edges
    engine_results = []
    realized_budget = 0
    weight_bound = 0.0
    w_parts = _split_edges(w, [block.vertices for block in factor.blocks])
    for block, x, dec, (u, v, we), k_c, n_c in zip(factor.blocks, xs, decs, w_parts, k_counts, budgets):
        if not we.size:
            continue
        realized_budget += n_c
        result = run_engine(build_patch_problem(x, block, u, v, we, k_c, n_c, dec))
        engine_results.append(result)
        weight_bound += result.cost_bound * float(sum(we.tolist()))
        keep = result.weights > 0
        picked.append((block.vertices[u[keep]], block.vertices[v[keep]], result.weights[keep] * we[keep]))
    # every edge of W lies in one component, so at least one engine ran
    certified_lower = min(result.floor for result in engine_results)
    certified_upper = max(result.theta_max for result in engine_results)

    wk = WeightedGraph.from_arrays(g.n, *(np.concatenate(column) for column in zip(*picked)))
    measured_lower, measured_upper = measure_sandwich(g.union(wk), factor, certified_lower, certified_upper)
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
        weight_bound=weight_bound,
        params=params,
        n_budget=realized_budget,
        engine_results=tuple(engine_results),
    )

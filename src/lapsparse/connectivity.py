"""Algebraic-connectivity maximization by adding k candidate edges.

Three layers: a fractional solver for the SDP relaxation, which maximizes
the concave map w -> lambda_2(L_base + sum_e w_e L_e) over
{0 <= w <= 1, sum w <= k} by a primal-dual interior-point method and
certifies the maximum from above with each iterate's dual matrix,
a rounding step that sparsifies the fractional edges against the base
(`patch.sparsify_patch`) to at most 8k+1 reweighted edges with a certified
lambda_2 floor, and an exhaustive oracle for small instances."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    NumericalError,
    PreconditionError,
    TooLargeError,
    WeightedGraph,
    _decompose,
    _edge_entries,
    _edge_laplacian,
    _integral,
    _spectrum,
    check_symmetric,
    laplacian,
    symmetrize,
)
from .engine import EngineResult
from .patch import sparsify_patch

# The solver stops at the first Newton step whose certified gap is within
# tol, or after this many steps. A gap of 1e-4 takes 6 to 14 steps on the
# benchmark's inputs and about 20 at (n, m) = (200, 2000); 1e-12 takes 30.
SOLVER_ITERATION_CAP = 50
WEIGHT_DROP_REL = 1e-9
# `_snap` moves a weight onto its bound when the affine-scaling step shrinks
# its distance to that bound below this fraction.
SNAP_RATIO = 0.1


@dataclass(frozen=True)
class ConnectivityInstance:
    """Base graph, disjoint unit-weight candidate edges, budget k, and the
    degree scale Delta = max degree over the base and candidate graphs
    (weighted degrees for the base, edge counts for the candidates)."""

    base: WeightedGraph
    candidates: tuple
    k: int
    delta: float

    def __init__(self, base: WeightedGraph, candidates, k: int):
        if not _integral(type(k)) or k < 0:
            raise PreconditionError(f"budget k must be nonnegative and an integer (bools are not), got {k!r}")
        rows = list(candidates)
        try:  # a row that is not a pair makes no (u, v, 1) triple, which WeightedGraph rejects
            graph = WeightedGraph(base.n, [(*row, 1) if np.iterable(row) else (row,) for row in rows])
        except PreconditionError as exc:
            raise PreconditionError(f"candidate {rows[exc.edge]!r}: {exc}", edge=exc.edge) from None
        overlap = np.isin(graph.u * base.n + graph.v, base.u * base.n + base.v)
        for bad, what in ((graph.w != 1, "duplicate candidate edges"), (overlap, "candidates overlap base edges")):
            if bad.any():
                raise PreconditionError(f"{what}: {list(zip(graph.u[bad].tolist(), graph.v[bad].tolist()))}")
        degrees = (float(g.weighted_degrees().max(initial=0.0)) for g in (base, graph))
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "candidates", tuple(zip(graph.u.tolist(), graph.v.tolist())))
        object.__setattr__(self, "k", int(k))
        object.__setattr__(self, "delta", max(0.0, *degrees))


@dataclass(frozen=True)
class FractionalSolution:
    """Fractional edge weights with the exact lambda_2 they achieve
    (lambda_sdp), a certified upper bound on the fractional maximum
    (lambda_upper) and the gap between the two."""

    weights: np.ndarray
    lambda_sdp: float
    lambda_upper: float
    gap: float
    iterations: int
    gradient_norm: float
    converged: bool


@dataclass(frozen=True)
class RoundedSolution:
    """At most 8k+1 reweighted candidate edges with a certified floor.

    lambda2_weighted is lambda_2 of base plus the reweighted selection
    (the certified quantity); lambda2_unweighted is lambda_2 of base plus
    the selected edges at unit weight (reported, not certified). The
    certificate is floor = max(c * lambda_2(base + W*), lambda_2(base)), c
    the certified lower factor of the patch sparsifier whose engine run is
    `engine` (floor = lambda2_weighted and no engine when W* is kept).
    lambda_k2 is lambda_{k+2}(base), the ceiling no k-edge addition can
    beat; +infinity when k + 2 > n (the ceiling is vacuous there).
    """

    selected: tuple
    weights: tuple
    lambda2_weighted: float
    lambda2_unweighted: float
    lambda_k2: float
    floor: float
    engine: EngineResult | None


def _helmert(n: int) -> np.ndarray:
    """The (n-1) x n Helmert matrix: orthonormal rows spanning the vectors
    that sum to zero. scipy.linalg.helmert's formula, so the same floats."""
    h = np.tril(np.ones((n, n)), -1) - np.diag(np.arange(n))
    return h[1:] / np.sqrt(np.arange(1, n) * np.arange(2, n + 1))[:, np.newaxis]


def _lambda2_of(lap: np.ndarray) -> float:
    """lambda_2 of a Laplacian, by the numpy LAPACK of `core._spectrum`."""
    return float(_spectrum(lap)[1])


def certify_lambda2(lap: np.ndarray, floor: float) -> float:
    """lambda_2 of `lap`, the Laplacian of a base graph plus a rounded
    selection; raises NumericalError when it falls below the certified floor
    by more than floor * 1e-6 + 1e-12."""
    lam2 = _lambda2_of(check_symmetric(lap))
    if lam2 < floor * (1.0 - 1e-6) - 1e-12:
        raise NumericalError(f"rounded lambda_2 {lam2!r} fell below the certified floor {floor!r}")
    return lam2


def _dual_bound(
    lb: np.ndarray, u: np.ndarray, v: np.ndarray, vecs: np.ndarray, p: np.ndarray, k: int
):
    """Certified upper bound on max lambda_2 over {0 <= w <= 1, sum w <= k},
    and the loads g_e = b_e^T Y b_e / tr Y it is built from, for the
    candidate edges e = (u[e], v[e]).

    Y = sum_i p_i q_i q_i^T, with q_i the columns of `vecs` with 1 projected
    out and p >= 0, is PSD with Y 1 = 0, so lambda_2(L) tr Y <= tr(Y L) for
    every Laplacian L. For feasible w that gives lambda_2(L(w)) tr Y <=
    tr(Y L_base) + (sum of the k largest loads). The bound holds for any
    columns and any p, however inaccurate they are. Projecting out 1
    changes neither the loads nor q^T L_base q, only tr Y. Columns of weight
    0 add nothing to Y.
    """
    keep = p > 0.0
    vecs, p = vecs[:, keep], p[keep]
    proj = vecs.take(u, axis=0) - vecs.take(v, axis=0)  # rows b_e^T vecs, by two gathers
    loads = (proj * proj) @ p
    top = float(np.sum(np.partition(loads, loads.size - k)[loads.size - k :])) if k else 0.0
    quad = np.sum(vecs * (lb @ vecs), axis=0)
    sq = np.sum(vecs * vecs, axis=0) - np.sum(vecs, axis=0) ** 2 / vecs.shape[0]
    trace = float(p @ sq)
    if not trace > 0.0:
        return math.inf, loads
    return (float(p @ quad) + top) / trace, loads / trace


def _step_to_boundary(inv_chol: np.ndarray, step: np.ndarray, x: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha (infinite when none) keeping M + alpha step PSD and
    x + alpha dx >= 0, for M = L L^T given inv_chol = L^-1."""
    scaled = symmetrize(inv_chol @ step @ inv_chol.T)
    lowest = min(float(_spectrum(scaled)[0]), float(np.min(dx / x)))
    return -1.0 / lowest if lowest < 0.0 else math.inf


def _snap(w: np.ndarray, target: np.ndarray, k: int) -> np.ndarray:
    """A sparse feasible point next to the interior point w, given the
    target w + dw of the affine-scaling step (the Newton step to mu = 0).

    target / w is the indicator of El-Bakry, Tapia & Zhang (1994): near 1
    for a weight that stays positive, near 0 for one whose bound is active.
    Weights it shrinks below SNAP_RATIO go to 0, weights whose distance to 1
    it shrinks as much go to 1, and the rest take their target, rescaled to
    fill the budget left and capped at 1 (raising weights never lowers
    lambda_2).
    """
    lo = target < SNAP_RATIO * w
    hi = (1.0 - target < SNAP_RATIO * (1.0 - w)) & ~lo
    if np.count_nonzero(hi) > k:  # more than k weights near 1: not yet settled
        hi[:] = False
    snapped = np.where(hi, 1.0, np.where(lo, 0.0, np.clip(target, 0.0, 1.0)))
    free = ~(lo | hi)
    total = float(snapped[free].sum())
    if total > 0.0:
        snapped[free] = np.minimum(1.0, snapped[free] * ((k - np.count_nonzero(hi)) / total))
    return snapped


def solve_fractional(inst: ConnectivityInstance, tol: float = 1e-4) -> FractionalSolution:
    """Maximize lambda_2(L_base + sum w_e L_e) over {0<=w<=1, sum w <= k}.

    This is the SDP max t subject to S = H (L_base + sum_e w_e L_e) H^T - t I
    >= 0 and 2m + 1 linear inequalities on w, with H the (n-1) x n Helmert
    basis of the complement of 1 (Ghosh & Boyd, "Growing well-connected
    graphs", IEEE CDC 2006). A primal-dual path-following method solves it:
    Mehrotra's predictor-corrector with the HKM direction (Helmberg, Rendl,
    Vanderbei & Wolkowicz 1996; Kojima, Shindoh & Hara 1997; Monteiro 1997)
    and an (m+1) x (m+1) Schur complement, solved by numpy's LAPACK. The
    (w, t) iterates stay strictly feasible; the multipliers (Z, x) reach
    feasibility as mu falls. Each Z gives the PSD matrix Y = H^T Z H with
    Y 1 = 0, which `_dual_bound` turns into a certified upper bound, and
    `_snap` gives a sparse feasible point. The solve stops at the first step
    whose certified gap lambda_upper - lambda_sdp is at most tol,
    lambda_sdp being the exact lambda_2 of the snapped point, or after
    SOLVER_ITERATION_CAP steps, or when rounding leaves no step inside the
    cone. L_base and the snapped points' `core._edge_laplacian` are exactly
    symmetric by construction, and a non-finite spectrum or Newton step
    raises NumericalError. With k = 0 or k >= m the
    best point is known and Y on its lambda_2 eigenvector certifies it.
    Deterministic. Returns the snapped point with the largest lambda_2, the
    smallest upper bound, the norm of that bound's loads, and
    converged = (gap <= tol).
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise PreconditionError(f"tol must be finite and positive, got {tol!r}")
    m = len(inst.candidates)
    if m < 1:  # a candidate joins two vertices, so then n >= 2
        raise PreconditionError("need at least one candidate edge")
    n = inst.base.n
    u, v = np.array(inst.candidates, dtype=np.int64).T

    def solution(w, lam, upper, iterations, loads):
        total_w = float(w.sum())
        if total_w > inst.k + 1e-8 or float(w.min()) < -1e-10 or float(w.max()) > 1.0 + 1e-10:
            raise NumericalError(f"solver left the feasible region: sum={total_w!r}")
        # Raising an upper bound keeps it one. Rounding can put the computed
        # lambda_2 a few ulps above a tight bound.
        upper = max(upper, lam)
        return FractionalSolution(
            weights=w,
            lambda_sdp=lam,
            lambda_upper=upper,
            gap=upper - lam,
            iterations=iterations,
            gradient_norm=float(np.linalg.norm(loads)),
            converged=upper - lam <= tol,
        )

    full = inst.base.union(WeightedGraph.from_arrays(n, u, v, np.ones(m)))
    if not full.is_connected():
        # every feasible w leaves the same components apart: lambda_2 is 0 on
        # the whole feasible set, and 0 is a supergradient there
        return solution(np.zeros(m), 0.0, 0.0, 0, np.zeros(m))
    lb = laplacian(inst.base)
    entries = _edge_entries(n, u, v)
    k = min(inst.k, m)

    def lambda_2_at(w):
        vals = _spectrum(lb + _edge_laplacian(n, entries, w))
        if not np.isfinite(vals).all():
            raise NumericalError("solver iterate has a non-finite spectrum")
        return float(vals[1])

    if k in (0, m):  # the best point is known: no weight, or every weight 1
        w = np.full(m, float(k > 0))
        dec = _decompose(lb + _edge_laplacian(n, entries, w))
        upper, loads = _dual_bound(lb, u, v, dec.eigenvectors[:, 1:2], np.ones(1), k)
        return solution(w, float(dec.eigenvalues[1]), upper, 0, loads)

    d = n - 1
    h = _helmert(n)
    a = h[:, u] - h[:, v]  # column e is H b_e, so H L_e H^T = a_e a_e^T
    a0 = symmetrize(h @ lb @ h.T)
    diag_d, diag_m = np.diag_indices(d), np.diag_indices(m)
    objective = np.zeros(m + 1)
    objective[m] = 1.0
    # Cone coordinates: d for S and Z, and 2m + 1 for the linear slacks
    # (w, 1 - w, k - sum w) and their multipliers x = (x_lo, x_hi, x_budget).
    size = d + 2 * m + 1

    def slacks(w, t):
        s = symmetrize(a0 + (a * w) @ a.T)
        s[diag_d] -= t
        return s, np.concatenate((w, 1.0 - w, [k - float(w.sum())]))

    def duality(zmat, smat, x, sl):  # mu, the mean complementarity product
        return (float(np.sum(zmat * smat)) + float(x @ sl)) / size

    def constraints(zmat, x):  # the multipliers' equality constraints; `objective` when met
        loads = np.sum(a * (zmat @ a), axis=0)
        return np.concatenate((x[m : 2 * m] - x[:m] + x[2 * m] - loads, [np.trace(zmat)]))

    # Start on the central path at (w, t) = (k / 2m, lambda_min / 2):
    # Z = mu S^-1 and x = mu / slacks, with mu making tr Z = 1.
    w = np.full(m, 0.5 * k / m)
    s, sl = slacks(w, 0.0)
    t = 0.5 * float(_spectrum(s)[0])
    s, sl = slacks(w, t)
    inv_s = np.linalg.inv(np.linalg.cholesky(s))
    z = inv_s.T @ inv_s
    z, x = z / float(np.trace(z)), 1.0 / (float(np.trace(z)) * sl)
    chol_z = np.linalg.cholesky(z)
    best_w, best_lam, upper, loads, steps = w, -math.inf, math.inf, np.zeros(m), 0
    while True:
        bound, bound_loads = _dual_bound(lb, u, v, h.T @ chol_z, np.ones(d), k)
        if bound < upper:
            upper, loads = bound, bound_loads
        p = inv_s.T @ inv_s  # S^-1
        inv_z = np.linalg.inv(chol_z)
        ratio = x / sl
        zp = z @ p
        schur = np.empty((m + 1, m + 1))
        schur[:m, :m] = (a.T @ z @ a) * (a.T @ p @ a) + ratio[2 * m]
        schur[diag_m] += ratio[:m] + ratio[m : 2 * m]
        schur[:m, m] = schur[m, :m] = -np.sum(a * (symmetrize(zp) @ a), axis=0)
        schur[m, m] = np.trace(zp)

        def direction(target_z, target_x):
            # the HKM Newton step with Z + dZ + sym(Z dS S^-1) = target_z and
            # x + dx + x dsl / sl = target_x, and the equality constraints met
            dy = np.linalg.solve(schur, objective - constraints(target_z, target_x))
            if not np.isfinite(dy).all():
                raise NumericalError("solver Newton step is not finite")
            ds = symmetrize((a * dy[:m]) @ a.T)
            ds[diag_d] -= dy[m]
            dsl = np.concatenate((dy[:m], -dy[:m], [-float(dy[:m].sum())]))
            dz = target_z - z - symmetrize(z @ ds @ p)
            dx = target_x - x - x * dsl / sl
            return dy, ds, dsl, dz, dx

        dy, ds, dsl, dz, dx = direction(np.zeros_like(z), np.zeros_like(x))  # affine scaling
        snapped = _snap(w, w + dy[:m], k)
        lam = lambda_2_at(snapped)
        if lam > best_lam:
            best_w, best_lam = snapped, lam
        if upper - best_lam <= tol or steps >= SOLVER_ITERATION_CAP:
            break
        # Mehrotra's corrector: centre by sigma = (mu after the affine step / mu)^3
        # and add the affine step's second-order term
        mu = duality(z, s, x, sl)
        alpha = min(1.0, _step_to_boundary(inv_z, dz, x, dx))
        beta = min(1.0, _step_to_boundary(inv_s, ds, sl, dsl))
        sigma = min(1.0, duality(z + alpha * dz, s + beta * ds, x + alpha * dx, sl + beta * dsl) / mu) ** 3
        fraction = 0.9 + 0.09 * min(alpha, beta)  # of the way to the boundary
        dy, ds, dsl, dz, dx = direction(sigma * mu * p - symmetrize(dz @ ds @ p), sigma * mu / sl - dx * dsl / sl)
        alpha = min(1.0, fraction * _step_to_boundary(inv_z, dz, x, dx))
        beta = min(1.0, fraction * _step_to_boundary(inv_s, ds, sl, dsl))
        z, x = symmetrize(z + alpha * dz), x + alpha * dx
        w, t = w + beta * dy[:m], t + beta * dy[m]
        s, sl = slacks(w, t)
        try:
            chol_z = np.linalg.cholesky(z)
            inv_s = np.linalg.inv(np.linalg.cholesky(s))
        except np.linalg.LinAlgError:
            break  # rounding put the new iterate on the cone's boundary
        steps += 1
    return solution(best_w, best_lam, upper, steps, loads)


def round_solution(inst: ConnectivityInstance, frac: FractionalSolution) -> RoundedSolution:
    """Sparsify the fractional edges W* against the base G to at most 8k+1
    reweighted edges W_k, with a certified floor on lambda_2(G + W_k).

    When more than 8k+1 weights survive and G + W* is connected, W_k is
    `patch.sparsify_patch(G, W*, min(k, n - 2), 8k + 1)`: c L_{G+W*} <= L_{G+W_k}
    and L_G <= L_{G+W_k} give floor = max(c lambda_2(G + W*), lambda_2(G)), 0
    if G splits G + W* into over k + 1 pieces. A fitting support is kept (c = 1);
    a disconnected G + W* keeps its 8k+1 heaviest weights with floor 0.
    """
    n = inst.base.n
    m = len(inst.candidates)
    if len(frac.weights) != m:
        raise PreconditionError(f"fractional solution has {len(frac.weights)} weights for {m} candidates")
    lb = laplacian(inst.base)
    # one spectrum of L_G gives lambda_{k+2} and the floor's lambda_2(G)
    base_vals = _spectrum(lb)
    lam_k2 = float(base_vals[inst.k + 1]) if inst.k + 2 <= n else math.inf
    u, v = np.array(inst.candidates, dtype=int).reshape(-1, 2).T
    kept = np.flatnonzero(frac.weights > WEIGHT_DROP_REL * max(float(np.sum(frac.weights)), 1e-300))
    if inst.k == 0:
        kept = kept[:0]  # no edge fits a zero budget, whatever the weights
    budget = 8 * inst.k + 1
    engine, floor = None, None
    if kept.size <= budget:
        selected, weights = kept, frac.weights[kept]  # nothing kept, or already within budget
    else:
        w_star = WeightedGraph.from_arrays(n, u[kept], v[kept], frac.weights[kept])
        full = inst.base.union(w_star)
        if full.is_connected():
            patch = sparsify_patch(inst.base, w_star, min(inst.k, n - 2), budget)
            (engine,) = patch.engine_results
            selected = kept[np.searchsorted(u[kept] * n + v[kept], patch.wk.u * n + patch.wk.v)]
            weights, floor = patch.wk.w, max(patch.certified_lower * _lambda2_of(laplacian(full)), float(base_vals[1]))
        else:  # lambda_2(G + W*) = 0, and a patch's per-component budgets could exceed 8k+1 edges
            selected = np.sort(kept[np.argsort(-frac.weights[kept], kind="stable")[:budget]])
            weights, floor = frac.weights[selected], 0.0

    entries = _edge_entries(n, u[selected], v[selected])
    lap = lb + _edge_laplacian(n, entries, weights)
    if floor is None:  # W_k = W*, so c = 1
        floor = lam2_weighted = _lambda2_of(lap)
    else:
        lam2_weighted = certify_lambda2(lap, floor)
    lam2_unweighted = _lambda2_of(lb + _edge_laplacian(n, entries, np.ones(selected.size)))
    return RoundedSolution(
        selected=tuple(inst.candidates[i] for i in selected),
        weights=tuple(weights.tolist()),
        lambda2_weighted=lam2_weighted,
        lambda2_unweighted=lam2_unweighted,
        lambda_k2=lam_k2,
        floor=floor,
        engine=engine,
    )


def brute_force_opt(inst: ConnectivityInstance):
    """Exact maximum of lambda_2 over all <=k-subsets of the candidates.

    Returns (best lambda_2, best edge set); ties keep the first subset in
    size-ascending, index-lexicographic order."""
    m = len(inst.candidates)
    k = min(inst.k, m)
    if math.comb(m, k) > 10**6:
        raise TooLargeError(f"C({m},{k}) subsets exceed the 1e6 enumeration cap")
    if inst.base.n < 2:
        raise PreconditionError("lambda_2 needs at least 2 vertices")
    # each subset adds an exactly symmetric `core._edge_laplacian` to the
    # exactly symmetric L_base
    lb = laplacian(inst.base)
    u, v = np.array(inst.candidates, dtype=int).reshape(-1, 2).T
    entries = _edge_entries(inst.base.n, u, v)
    best_val = -math.inf
    best_set: tuple = ()
    w = np.zeros(m)
    for size in range(0, k + 1):
        for subset in itertools.combinations(range(m), size):
            w[:] = 0.0
            w[list(subset)] = 1.0
            val = _lambda2_of(lb + _edge_laplacian(inst.base.n, entries, w))
            if val > best_val:
                best_val = val
                best_set = tuple(inst.candidates[i] for i in subset)
    return best_val, best_set

"""Algebraic-connectivity maximization by adding k candidate edges.

Three layers: a fractional solver maximizing the concave map
w -> lambda_2(L_base + sum_e w_e L_e) over {0 <= w <= 1, sum w <= k}
(accelerated gradient ascent on a smoothing of lambda_2 — a stand-in for
the SDP relaxation — whose gradient is the load vector of a dual matrix
that bounds the maximum from above),
a rounding step that funnels the fractional solution through the
selection engine to get at most 8k+1 reweighted edges with a certified
lambda_2 floor, and an exhaustive oracle for small instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import (
    NumericalError,
    PreconditionError,
    TooLargeError,
    WeightedGraph,
    _decompose,
    _edge_entries,
    _edge_laplacian,
    _spectrum,
    check_symmetric,
    laplacian,
    symmetrize,
)
from .engine import (
    LOWER_CONSTANT_DIVISOR,
    EngineProblem,
    EngineResult,
    run_engine,
)

# The solver stops at the first iteration whose certified gap is within tol,
# or at this cap. How soon the gap closes varies about fivefold between
# random inputs of one size (700 to 3,600 iterations with 40 candidates,
# 1,700 to 4,300 with 150), and so does the cost of a solve.
SOLVER_ITERATION_CAP = 5000
WEIGHT_DROP_REL = 1e-9
# The solver's Lipschitz estimate shrinks by this factor after every step,
# so that backtracking can find a smaller one again.
LIPSCHITZ_DECAY = 0.8


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
        if k < 0:
            raise PreconditionError(f"budget k must be nonnegative, got {k}")
        rows = list(candidates)
        try:
            ends = np.array(rows, dtype=np.int64).reshape(len(rows), 2)
        except OverflowError:  # an id beyond int64 is out of range for any n, and clamped it still is
            ends = np.array([[min(max(int(x), -1), base.n) for x in row] for row in rows], dtype=np.int64)
        lo, hi = np.sort(ends, axis=1).T
        bad = (lo == hi) | (lo < 0) | (hi >= base.n)
        if bad.any():  # the first bad pair in input order, reported with its own ids
            a, b = (int(x) for x in rows[int(np.argmax(bad))])
            if a == b:
                raise PreconditionError(f"candidate self-loop at vertex {a}")
            raise PreconditionError(f"candidate ({a},{b}) outside vertex range 0..{base.n - 1}")
        keys = np.unique(lo * base.n + hi)
        if keys.size != len(rows):
            raise PreconditionError("duplicate candidate edges")
        lo, hi = np.divmod(keys, base.n)
        overlap = np.isin(keys, base.u * base.n + base.v)
        if overlap.any():
            pairs = list(zip(lo[overlap].tolist(), hi[overlap].tolist()))
            raise PreconditionError(f"candidates overlap base edges: {pairs}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "candidates", tuple(zip(lo.tolist(), hi.tolist())))
        object.__setattr__(self, "k", int(k))
        object.__setattr__(self, "delta", _max_degree(base, lo, hi))


def _max_degree(base: WeightedGraph, lo: np.ndarray, hi: np.ndarray) -> float:
    counts = np.bincount(np.concatenate((lo, hi)), minlength=base.n)
    return max(0.0, float(base.weighted_degrees().max(initial=0.0)), float(counts.max(initial=0)))


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
    certificate is floor = lambda_k2 * lambda_sdp / (72 (4 Delta)^2),
    or lambda_sdp / 72 when k + 2 > n.
    """

    selected: tuple
    weights: tuple
    lambda2_weighted: float
    lambda2_unweighted: float
    lambda_k2: float
    floor: float
    engine: EngineResult | None


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


def _laplacian_at(lb: np.ndarray, entries: tuple, w: np.ndarray) -> np.ndarray:
    """L_base + sum_e w_e L_e, in O(m + n^2), for the edges located by
    `core._edge_entries`. The added Laplacian is exactly symmetric, so the
    sum is when L_base is."""
    return check_symmetric(lb + _edge_laplacian(lb.shape[0], entries, w))


def _project_capped_box(v: np.ndarray, cap: float) -> np.ndarray:
    """Exact Euclidean projection onto {0 <= w <= 1, sum w <= cap}.

    When clipping to the box overshoots the budget, the projection is
    clip(v - tau, 0, 1) with s(tau) = sum clip(v - tau, 0, 1) = cap. s falls
    piecewise linearly from m to 0, with breakpoints at v - 1 and v; tau is
    solved for on the segment where s crosses cap (Wang & Lu, "Projection
    onto the capped simplex", arXiv 1503.01002).
    """
    w = np.clip(v, 0.0, 1.0)
    if float(w.sum()) <= cap + 1e-12:
        return w
    m = v.shape[0]
    vs = np.sort(v)
    prefix = np.concatenate(([0.0], np.cumsum(vs)))
    t = np.sort(np.concatenate((vs - 1.0, vs)))
    zero = np.searchsorted(vs, t, side="right")  # v_i <= tau: clipped to 0
    free = np.searchsorted(vs, t + 1.0, side="left")  # v_i < tau + 1: below 1
    s = (m - free) + (prefix[free] - prefix[zero]) - (free - zero) * t
    j = max(int(np.argmax(s <= cap)), 1)  # s(t[j-1]) > cap >= s(t[j])
    # No breakpoint lies strictly inside (t[j-1], t[j]), so its midpoint
    # classifies every coordinate; tau comes from the coordinates themselves.
    mid = 0.5 * (t[j - 1] + t[j])
    inside = (v > mid) & (v < mid + 1.0)
    count = int(np.count_nonzero(inside))
    if count:
        tau = (np.count_nonzero(v >= mid + 1.0) + float(v[inside].sum()) - cap) / count
    else:  # s is flat at cap on the whole segment
        tau = t[j]
    w = np.clip(v - tau, 0.0, 1.0)
    # tau is rounded: raising it by doubling steps restores sum w <= cap as computed
    step = math.ulp(abs(tau) + cap / m)
    while float(w.sum()) > cap:
        tau += step
        step *= 2.0
        w = np.clip(v - tau, 0.0, 1.0)
    return w


def _dual_bound(
    lb: np.ndarray, u: np.ndarray, v: np.ndarray, vecs: np.ndarray, p: np.ndarray, k: int
):
    """Certified upper bound on max lambda_2 over {0 <= w <= 1, sum w <= k},
    and the loads g_e = b_e^T Y b_e it is built from, for the candidate
    edges e = (u[e], v[e]).

    Y = sum_i p_i q_i q_i^T, with q_i the columns of `vecs` with 1 projected
    out and p >= 0, is PSD with Y 1 = 0, so lambda_2(L) tr Y <= tr(Y L) for
    every Laplacian L. For feasible w that gives lambda_2(L(w)) tr Y <=
    tr(Y L_base) + (sum of the k largest loads). The bound holds for any
    columns and any p, however inaccurate the eigenvectors are. Projecting
    out 1 changes neither the loads nor q^T L_base q, only tr Y. Columns of
    weight 0, which a softmax at small mu gives most of, add nothing to Y.
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
    return (float(p @ quad) + top) / trace, loads


def _smoothed(vals: np.ndarray, mu: float):
    """f_mu = -mu log sum_i exp(-lambda_i / mu) over the nontrivial spectrum
    `vals` (ascending), and the softmax density p it weights the eigenvectors
    with. lambda_2 - mu log(n - 1) <= f_mu <= lambda_2."""
    z = np.exp((vals[0] - vals) / mu)
    total = float(z.sum())
    return float(vals[0]) - mu * math.log(total), z / total


def solve_fractional(inst: ConnectivityInstance, tol: float = 1e-4) -> FractionalSolution:
    """Maximize lambda_2(L_base + sum w_e L_e) over {0<=w<=1, sum w <= k}.

    Accelerated projected gradient ascent (FISTA, Beck & Teboulle 2009) on
    Nesterov's entropic smoothing f_mu of lambda_2 (Math. Program. 2005),
    with a backtracking Lipschitz estimate and a function-value restart
    (O'Donoghue & Candes, Found. Comput. Math. 2015). Each iteration takes
    one eigendecomposition at the extrapolated point y. Its softmax density
    p gives f_mu(y), the gradient g_e = sum_i p_i (b_e^T q_i)^2, which is
    the load of the dual matrix Y = sum_i p_i q_i q_i^T, the exact
    lambda_2(y), and with it the certified upper bound of `_dual_bound`.
    The backtracking test at each trial point needs eigenvalues only, and
    they give its lambda_2 too. mu is halved (and the Lipschitz estimate,
    which scales as 1/mu, doubled) whenever mu log(n - 1) exceeds a quarter
    of the gap. The ascent stops at the first iteration whose certified gap
    lambda_upper - lambda_sdp is at most tol, or at SOLVER_ITERATION_CAP.
    L_base is checked for symmetry once: every iterate adds an exactly
    symmetric `core._edge_laplacian` to it, and a non-finite iterate shows
    in its spectrum, which raises NumericalError. Deterministic. Returns the
    feasible point with the largest lambda_2 seen, the smallest upper bound
    found, the norm of the smoothed gradient there, and
    converged = (gap <= tol).
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise PreconditionError(f"tol must be finite and positive, got {tol!r}")
    m = len(inst.candidates)
    if m < 1:
        raise PreconditionError("need at least one candidate edge")
    n = inst.base.n
    if n < 2:
        raise PreconditionError("lambda_2 needs at least 2 vertices")
    u, v = np.array(inst.candidates, dtype=np.int64).T
    full = inst.base.union(WeightedGraph.from_arrays(n, u, v, np.ones(m)))
    if not full.is_connected():
        # every feasible w leaves the same components apart: lambda_2 is 0 on
        # the whole feasible set, and 0 is a supergradient there
        return FractionalSolution(
            weights=np.zeros(m),
            lambda_sdp=0.0,
            lambda_upper=0.0,
            gap=0.0,
            iterations=0,
            gradient_norm=0.0,
            converged=True,
        )
    lb = check_symmetric(laplacian(inst.base))
    entries = _edge_entries(n, u, v)
    k = min(inst.k, m)
    cap = float(k)

    def nontrivial(vals):
        if not np.isfinite(vals).all():
            raise NumericalError("solver iterate has a non-finite spectrum")
        return vals[1:]

    def decompose(w):
        dec = _decompose(lb + _edge_laplacian(n, entries, w))
        return nontrivial(dec.eigenvalues), dec.eigenvectors[:, 1:]

    def solution(w, lam, upper, iterations, grad):
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
            gradient_norm=float(np.linalg.norm(grad)),
            converged=upper - lam <= tol,
        )

    if inst.k == 0:
        # w = 0 is the only feasible point; Y on lambda_2's eigenvector bounds it
        w = np.zeros(m)
        vals, vecs = decompose(w)
        upper, grad = _dual_bound(lb, u, v, vecs[:, :1], np.ones(1), 0)
        return solution(w, float(vals[0]), upper, 0, grad)

    log_dim = math.log(max(n - 1, 2))
    x = y = best_w = np.full(m, min(1.0, cap / m))
    vals, vecs = decompose(y)
    best_lam, upper, t, iterations, f_prev = float(vals[0]), math.inf, 1.0, 1, -math.inf
    # the first mu comes from the gap of the uniform density's bound
    first, _ = _dual_bound(lb, u, v, vecs, np.full(n - 1, 1.0 / (n - 1)), k)
    mu = max(first - best_lam, tol) / (4.0 * log_dim)
    lip = 1.0 / mu
    eps = float(np.finfo(float).eps)
    while True:
        f_y, p = _smoothed(vals, mu)
        bound, grad = _dual_bound(lb, u, v, vecs, p, k)
        upper = min(upper, bound)
        gap = upper - best_lam
        if gap <= tol or iterations >= SOLVER_ITERATION_CAP:
            break
        if mu * log_dim > 0.25 * gap:
            mu, lip = 0.5 * mu, 2.0 * lip
            continue  # read the same decomposition again at the new mu
        noise = 64.0 * eps * float(vals[-1])  # two eigensolves of one matrix can differ by this much
        while True:
            x_new = _project_capped_box(y + grad / lip, cap)
            step = x_new - y
            vals_x = nontrivial(_spectrum(lb + _edge_laplacian(n, entries, x_new)))
            if float(vals_x[0]) > best_lam:
                best_w, best_lam = x_new, float(vals_x[0])
            f_x, _ = _smoothed(vals_x, mu)
            if f_x >= f_y + float(grad @ step) - 0.5 * lip * float(step @ step) - noise:
                break
            lip *= 2.0
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        if f_x < f_prev:
            y, t = x_new, 1.0  # the momentum overshot: restart from x_new
        else:
            y, t = x_new + ((t - 1.0) / t_new) * (x_new - x), t_new
        x, f_prev = x_new, f_x
        lip *= LIPSCHITZ_DECAY
        iterations += 1
        vals, vecs = decompose(y)
        # an extrapolated y can leave the feasible set; only feasible points count
        in_set = float(y.min()) >= 0.0 and float(y.max()) <= 1.0 and float(y.sum()) <= cap
        if float(vals[0]) > best_lam and in_set:
            best_w, best_lam = y, float(vals[0])

    # One more solve gives the returned point's gradient. Its lambda_2 can
    # round a few ulps below the value the loop certified the gap with.
    vals, vecs = decompose(best_w)
    bound, grad = _dual_bound(lb, u, v, vecs, _smoothed(vals, mu)[1], k)
    return solution(best_w, max(best_lam, float(vals[0])), min(upper, bound), iterations, grad)


def lambda_k2_bound(g: WeightedGraph, k: int) -> float:
    """lambda_{k+2}(L_G), the ceiling no k-edge addition can beat;
    +infinity when k + 2 > n (the ceiling is vacuous there)."""
    if k < 0:
        raise PreconditionError(f"k must be nonnegative, got {k}")
    if k + 2 > g.n:
        return math.inf
    return float(_spectrum(check_symmetric(laplacian(g)))[k + 1])


def round_solution(inst: ConnectivityInstance, frac: FractionalSolution) -> RoundedSolution:
    """Sparsify the fractional solution to at most 8k+1 reweighted edges.

    The engine runs on X = H L_base H^T / (4 Delta) with H an orthonormal
    basis of the all-ones complement, vectors sqrt(w_e/(4 Delta)) H b_e, and
    certifies lambda_2 of the reweighted solution against the floor
    lambda_{k+2}(L_base) * lambda_sdp / (72 (4 Delta)^2) (lambda_sdp / 72
    when k + 2 > n).
    """
    n = inst.base.n
    m = len(inst.candidates)
    if len(frac.weights) != m:
        raise PreconditionError(f"fractional solution has {len(frac.weights)} weights for {m} candidates")
    lam_k2 = lambda_k2_bound(inst.base, inst.k)
    four_delta = 4.0 * inst.delta
    if four_delta <= 0.0:
        raise PreconditionError("Delta must be positive to round (no edges anywhere)")
    if math.isfinite(lam_k2):
        floor = lam_k2 * frac.lambda_sdp / (LOWER_CONSTANT_DIVISOR * four_delta**2)
    else:
        floor = frac.lambda_sdp / LOWER_CONSTANT_DIVISOR

    lb = laplacian(inst.base)
    u, v = np.array(inst.candidates, dtype=int).reshape(-1, 2).T
    total_w = float(np.sum(frac.weights))
    kept = np.flatnonzero(frac.weights > WEIGHT_DROP_REL * max(total_w, 1e-300))
    if inst.k == 0:
        kept = kept[:0]  # no edge fits a zero budget, whatever the weights
    engine = None
    if kept.size <= 8 * inst.k + 1:
        # Nothing kept, or already within the support budget: keep the
        # fractional weights as they are. The floor holds outright because
        # lambda_{k+2} <= 2 Delta << 72 (4 Delta)^2, so lambda_sdp itself
        # clears it.
        selected, weights = kept, frac.weights[kept]
    else:
        h = scipy.linalg.helmert(n)
        kept_w = frac.weights[kept]
        x = symmetrize(h @ lb @ h.T / four_delta)
        vectors = np.sqrt(kept_w / four_delta) * (h[:, u[kept]] - h[:, v[kept]])
        lap_frac = _laplacian_at(lb, _edge_entries(n, u[kept], v[kept]), kept_w)
        mstar = symmetrize(h @ lap_frac @ h.T / four_delta)
        costs = kept_w / float(kept_w.sum())
        costs[-1] = 1.0 - float(costs[:-1].sum())
        engine = run_engine(
            EngineProblem(X=x, vectors=vectors, costs=costs, Mstar=mstar, k=inst.k, N=8 * inst.k + 1)
        )
        support = engine.support_indices
        selected, weights = kept[support], engine.weights[support] * kept_w[support]

    entries = _edge_entries(n, u[selected], v[selected])
    lam2_weighted = certify_lambda2(lb + _edge_laplacian(n, entries, weights), floor)
    lam2_unweighted = _lambda2_of(_laplacian_at(lb, entries, np.ones(selected.size)))
    if engine is not None:
        agreement = abs(lam2_weighted - four_delta * engine.lambda_min)
        if agreement > 1e-6 * max(1.0, lam2_weighted):
            raise NumericalError(
                f"graph-level lambda_2 {lam2_weighted!r} and engine lambda_min disagree by {agreement!r}"
            )
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
            val = _lambda2_of(_laplacian_at(lb, entries, w))
            if val > best_val:
                best_val = val
                best_set = tuple(inst.candidates[i] for i in subset)
    return best_val, best_set

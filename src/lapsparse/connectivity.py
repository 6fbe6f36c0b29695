"""Algebraic-connectivity maximization by adding k candidate edges.

Three layers: a fractional solver maximizing the concave map
w -> lambda_2(L_base + sum_e w_e L_e) over {0 <= w <= 1, sum w <= k}
(projected supergradient ascent — a stand-in for the SDP relaxation — with
a dual certificate bounding its maximum from above),
a rounding step that funnels the fractional solution through the
selection engine to get at most 8k+1 reweighted edges with a certified
lambda_2 floor, and an exhaustive oracle for small instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .core import (
    NumericalError,
    PreconditionError,
    TooLargeError,
    WeightedGraph,
    _add_edges,
    _decompose,
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

SOLVER_ITERATION_CAP = 5000
DEGENERACY_TOL = 1e-8
WEIGHT_DROP_REL = 1e-9
# Dual certificate: Y on at most CERTIFICATE_RANK nontrivial eigenvectors,
# tuned for CERTIFICATE_STEPS steps per check. Besides every phase end, it
# is checked once after CERTIFICATE_FIRST_CHECK iterations, where instances
# whose starting point is already optimal can stop.
CERTIFICATE_RANK = 5
CERTIFICATE_STEPS = 60
CERTIFICATE_FIRST_CHECK = 25


@dataclass(frozen=True)
class ConnectivityInstance:
    """Base graph, disjoint unit-weight candidate edges, budget k, and the
    degree scale Delta = max degree over the base and candidate graphs
    (weighted degrees for the base, edge counts for the candidates)."""

    base: WeightedGraph
    candidates: tuple
    k: int
    delta: float = field(default=0.0)

    def __init__(self, base: WeightedGraph, candidates, k: int, delta: float | None = None):
        if k < 0:
            raise PreconditionError(f"budget k must be nonnegative, got {k}")
        pairs = []
        for u, v in candidates:
            u, v = int(u), int(v)
            if u == v:
                raise PreconditionError(f"candidate self-loop at vertex {u}")
            if not (0 <= u < base.n and 0 <= v < base.n):
                raise PreconditionError(f"candidate ({u},{v}) outside vertex range 0..{base.n - 1}")
            pairs.append((min(u, v), max(u, v)))
        if len(set(pairs)) != len(pairs):
            raise PreconditionError("duplicate candidate edges")
        overlap = set(pairs) & set(base.edge_pairs())
        if overlap:
            raise PreconditionError(f"candidates overlap base edges: {sorted(overlap)}")
        pairs = tuple(sorted(pairs))
        measured = _max_degree(base, pairs)
        if delta is None:
            delta = measured
        elif delta < measured - 1e-9:
            raise PreconditionError(f"delta {delta} below the measured max degree {measured}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "candidates", pairs)
        object.__setattr__(self, "k", int(k))
        object.__setattr__(self, "delta", float(delta))


def _max_degree(base: WeightedGraph, pairs) -> float:
    degrees = [0.0]
    if base.num_edges:
        degrees.append(float(np.max(base.weighted_degrees())))
    if pairs:
        counts = np.zeros(base.n)
        for u, v in pairs:
            counts[u] += 1.0
            counts[v] += 1.0
        degrees.append(float(np.max(counts)))
    return max(degrees)


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
    lambda_sdp: float
    lambda_k2: float
    floor: float
    engine: EngineResult | None


def _lambda2_of(lap: np.ndarray) -> float:
    """lambda_2 of a Laplacian, by the numpy LAPACK of `core._spectrum`."""
    return float(_spectrum(check_symmetric(lap))[1])


def _graph_lambda2_with(base: WeightedGraph, pairs, weights) -> float:
    """lambda_2 of base plus the given weighted edges."""
    u, v = np.array(pairs, dtype=int).reshape(-1, 2).T
    lap = _add_edges(laplacian(base), u, v, np.array(weights, dtype=float))
    return _lambda2_of(symmetrize(lap))


def _incidence_rows(n: int, pairs) -> np.ndarray:
    rows = np.zeros((len(pairs), n))
    for i, (u, v) in enumerate(pairs):
        rows[i, u] = 1.0
        rows[i, v] = -1.0
    return rows


def _laplacian_at(lb: np.ndarray, inc: np.ndarray, w: np.ndarray) -> np.ndarray:
    return check_symmetric(symmetrize(lb + inc.T @ (w[:, None] * inc)))


def _lambda2_with_gradient(lb: np.ndarray, inc: np.ndarray, w: np.ndarray):
    """Exact lambda_2 at w, a supergradient over the candidates, and the
    eigendecomposition both come from.

    Near-degenerate eigenvalues (within 1e-8 of lambda_2) are handled by
    averaging (x_u - x_v)^2 over an orthonormal basis of the cluster."""
    dec = _decompose(_laplacian_at(lb, inc, w))
    vals = dec.eigenvalues
    cluster = int(np.count_nonzero(vals[1:] - vals[1] <= DEGENERACY_TOL))
    diffs = inc @ dec.eigenvectors[:, 1 : 1 + cluster]
    return float(vals[1]), np.mean(diffs * diffs, axis=1), dec


def _lambda2(lb: np.ndarray, inc: np.ndarray, w: np.ndarray) -> float:
    return _lambda2_of(_laplacian_at(lb, inc, w))


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
    # tau is rounded; the next floats up restore sum w <= cap as computed
    while float(w.sum()) > cap:
        tau = np.nextafter(tau, math.inf)
        w = np.clip(v - tau, 0.0, 1.0)
    return w


def _fill_budget(w: np.ndarray, cap: float) -> np.ndarray:
    """Spread any unused budget over unsaturated coordinates; lambda_2 is
    nondecreasing in every weight, so this never hurts the objective."""
    w = np.clip(w, 0.0, 1.0)
    for _ in range(len(w) + 1):
        slack = cap - float(w.sum())
        if slack <= 1e-12:
            break
        free = w < 1.0 - 1e-12
        if not free.any():
            break
        w[free] = np.minimum(w[free] + slack / int(free.sum()), 1.0)
    return w


def _greedy_integral(lb: np.ndarray, inc: np.ndarray, k: int) -> np.ndarray:
    """Indicator of the greedy one-at-a-time unit-weight selection."""
    m = inc.shape[0]
    w = np.zeros(m)
    for _ in range(min(k, m)):
        best_i, best_val = -1, -math.inf
        for i in range(m):
            if w[i] > 0.0:
                continue
            w[i] = 1.0
            val = _lambda2(lb, inc, w)
            w[i] = 0.0
            if val > best_val:
                best_i, best_val = i, val
        w[best_i] = 1.0
    return w


class _DualCertificate:
    """Certified upper bound on max lambda_2 over {0 <= w <= 1, sum w <= k}.

    For PSD Y with Y 1 = 0, lambda_2(L) tr Y <= tr(Y L) for every Laplacian
    L, so for every feasible w, lambda_2(L(w)) tr Y <= tr(Y L_base) + (sum of
    the k largest loads b_e^T Y b_e). Each check takes Y = V D V^T, with V
    the given columns with 1 projected out and D an r x r density matrix.
    The bound holds for any such V and D, however accurate the eigenvectors
    are. A check evaluates the single-vector bound (D on V's first column),
    carries the previous check's D into the new basis, and refines it by
    CERTIFICATE_STEPS steps of matrix-exponentiated gradient descent on the
    bound, stopping once it is at most `target`. `upper` is the smallest
    bound found so far.
    """

    def __init__(self, lb: np.ndarray, inc: np.ndarray, k: int):
        self.lb, self.inc, self.k = lb, inc, k
        self.upper = math.inf
        self._basis = None  # V of the previous check
        self._log_d = None  # log D of the previous check, in V's coordinates

    def check(self, vecs: np.ndarray, target: float) -> float:
        v = vecs - vecs.mean(axis=0)
        a, c, gram = v.T @ self.lb @ v, self.inc @ v, v.T @ v
        k = self.k

        def bound(q, p):
            """The bound at D = Q diag(p) Q^T, and its numerator's gradient in D."""
            proj = c @ q
            loads = (proj * proj) @ p
            top = np.argsort(loads)[loads.size - k :]
            numerator = p @ np.einsum("ji,jl,li->i", q, a, q) + float(loads[top].sum())
            value = float(numerator / (p @ np.einsum("ji,jl,li->i", q, gram, q)))
            return value, a + c[top].T @ c[top]

        def exp_bound(log_d):
            vals, q = np.linalg.eigh(log_d)
            p = np.exp(vals - vals[-1])
            return bound(q, p / p.sum())

        r = v.shape[1]
        best, grad = bound(np.eye(r), np.eye(r)[0])
        if self._log_d is None:
            log_d = np.zeros((r, r))
        else:
            carry = v.T @ self._basis
            log_d = carry @ self._log_d @ carry.T
            value, grad = exp_bound(log_d)
            best = min(best, value)
        spread = np.ptp(np.linalg.eigvalsh(grad))
        if r > 1 and spread > 0.0:
            # a multiple of I added to log D or to a gradient leaves D unchanged
            for step in range(1, CERTIFICATE_STEPS + 1):
                if best <= target:
                    break
                log_d = log_d - grad * (0.5 / (spread * math.sqrt(step)))
                value, grad = exp_bound(log_d)
                best = min(best, value)
        self._basis, self._log_d = v, log_d
        self.upper = min(self.upper, best)
        return self.upper


def solve_fractional(inst: ConnectivityInstance, tol: float = 1e-4) -> FractionalSolution:
    """Maximize lambda_2(L_base + sum w_e L_e) over {0<=w<=1, sum w <= k}.

    Projected supergradient ascent with step a/sqrt(iter) over a few step
    scales, restarting each phase from the best iterate, under a global
    iteration cap. A dual certificate (`_DualCertificate`, on the best
    iterate's eigenvectors) bounds the maximum from above. It is checked after
    iteration 25, at every phase end and at the end, and the ascent stops
    once lambda_upper - lambda_sdp <= tol. Deterministic. Returns the best
    iterate with its exact lambda_2, the smallest upper bound found, and
    converged = (gap <= tol); hitting the cap with a larger gap sets
    converged=False rather than raising.
    """
    m = len(inst.candidates)
    if m < 1:
        raise PreconditionError("need at least one candidate edge")
    if inst.base.n < 2:
        raise PreconditionError("lambda_2 needs at least 2 vertices")
    full = inst.base.union(WeightedGraph(inst.base.n, [(u, v, 1.0) for u, v in inst.candidates]))
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
    lb = laplacian(inst.base)
    inc = _incidence_rows(inst.base.n, inst.candidates)
    k = min(inst.k, m)
    cap = float(k)
    rank = min(CERTIFICATE_RANK, inst.base.n - 1)
    certificate = _DualCertificate(lb, inc, k)

    def certify(lam: float, dec) -> float:
        return certificate.check(dec.eigenvectors[:, 1 : 1 + rank], lam + tol)

    if inst.k == 0:
        w = np.zeros(m)
        lam, grad, dec = _lambda2_with_gradient(lb, inc, w)
        upper = max(certify(lam, dec), lam)
        return FractionalSolution(
            weights=w,
            lambda_sdp=lam,
            lambda_upper=upper,
            gap=upper - lam,
            iterations=0,
            gradient_norm=float(np.linalg.norm(grad)),
            converged=upper - lam <= tol,
        )

    inits = [_fill_budget(np.full(m, min(1.0, cap / m)), cap)]
    if m * inst.k <= 20000:
        inits.append(_greedy_integral(lb, inc, inst.k))

    best_w = inits[0].copy()
    best_val = -math.inf
    best_dec = None
    upper = math.inf
    total = 0
    phase_budget = max(1, SOLVER_ITERATION_CAP // (len(inits) * 4))
    phases = [(w0, a) for w0 in inits for a in (2.0, 0.5, 0.1, 0.02)]
    for index, (w0, a) in enumerate(phases):
        # each start opens from its own point; later phases restart from the best iterate
        w = (w0 if index % 4 == 0 else best_w).copy()
        for it in range(1, phase_budget + 1):
            if total >= SOLVER_ITERATION_CAP:
                break
            total += 1
            val, grad, dec = _lambda2_with_gradient(lb, inc, w)
            if val > best_val:
                best_val, best_w, best_dec = val, w.copy(), dec
            if total == CERTIFICATE_FIRST_CHECK or it == phase_budget:
                upper = min(upper, certify(best_val, best_dec))
                if upper - best_val <= tol:
                    break
            gnorm = float(np.linalg.norm(grad))
            if gnorm < 1e-14:
                break
            w = _project_capped_box(w + (a / math.sqrt(it)) * grad / gnorm, cap)
        if upper - best_val <= tol or total >= SOLVER_ITERATION_CAP:
            break

    filled = _fill_budget(best_w.copy(), cap)
    filled_val = _lambda2(lb, inc, filled)
    if filled_val >= best_val:
        best_w, best_val = filled, filled_val
    lam, grad, dec = _lambda2_with_gradient(lb, inc, best_w)
    if lam >= best_val:
        best_val = lam
    if upper - best_val > tol:
        upper = min(upper, certify(best_val, dec))
    total_w = float(best_w.sum())
    if total_w > inst.k + 1e-8 or float(best_w.min()) < -1e-10 or float(best_w.max()) > 1.0 + 1e-10:
        raise NumericalError(f"solver left the feasible region: sum={total_w!r}")
    # Raising an upper bound keeps it one. Rounding can put the computed
    # lambda_2 of the best iterate a few ulps above a tight bound.
    upper = max(upper, best_val)
    return FractionalSolution(
        weights=best_w,
        lambda_sdp=float(best_val),
        lambda_upper=float(upper),
        gap=float(upper - best_val),
        iterations=total,
        gradient_norm=float(np.linalg.norm(grad)),
        converged=upper - best_val <= tol,
    )


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
    lam2_base = _lambda2_of(laplacian(inst.base))
    if math.isfinite(lam_k2):
        floor = lam_k2 * frac.lambda_sdp / (LOWER_CONSTANT_DIVISOR * four_delta**2)
    else:
        floor = frac.lambda_sdp / LOWER_CONSTANT_DIVISOR

    total_w = float(np.sum(frac.weights))
    kept = [i for i in range(m) if frac.weights[i] > WEIGHT_DROP_REL * max(total_w, 1e-300)]
    if inst.k == 0 or not kept:
        return RoundedSolution(
            selected=(),
            weights=(),
            lambda2_weighted=lam2_base,
            lambda2_unweighted=lam2_base,
            lambda_sdp=frac.lambda_sdp,
            lambda_k2=lam_k2,
            floor=floor,
            engine=None,
        )

    if len(kept) <= 8 * inst.k + 1:
        # Already within the support budget: keep the fractional weights as
        # they are. The floor holds outright because lambda_{k+2} <= 2 Delta
        # << 72 (4 Delta)^2, so lambda_sdp itself clears it.
        selected = tuple(inst.candidates[i] for i in kept)
        weights = tuple(float(frac.weights[i]) for i in kept)
        lam2_weighted = _graph_lambda2_with(inst.base, selected, weights)
        lam2_unweighted = _graph_lambda2_with(inst.base, selected, (1.0,) * len(selected))
        if lam2_weighted < floor * (1.0 - 1e-6) - 1e-12:
            raise NumericalError(
                f"sparse-support lambda_2 {lam2_weighted!r} fell below the floor {floor!r}"
            )
        return RoundedSolution(
            selected=selected,
            weights=weights,
            lambda2_weighted=lam2_weighted,
            lambda2_unweighted=lam2_unweighted,
            lambda_sdp=frac.lambda_sdp,
            lambda_k2=lam_k2,
            floor=floor,
            engine=None,
        )

    h = scipy.linalg.helmert(n)
    lb = laplacian(inst.base)
    x = symmetrize(h @ lb @ h.T / four_delta)
    vectors = np.zeros((n - 1, len(kept)))
    for j, i in enumerate(kept):
        u, v = inst.candidates[i]
        vectors[:, j] = math.sqrt(float(frac.weights[i]) / four_delta) * (h[:, u] - h[:, v])
    kept_w = np.array([frac.weights[i] for i in kept])
    kept_u, kept_v = np.array([inst.candidates[i] for i in kept]).T
    lap_frac = _add_edges(lb.copy(), kept_u, kept_v, kept_w)
    mstar = symmetrize(h @ lap_frac @ h.T / four_delta)
    costs = kept_w / float(kept_w.sum())
    costs[-1] = 1.0 - float(costs[:-1].sum())
    problem = EngineProblem(
        X=x,
        vectors=vectors,
        costs=costs,
        Mstar=mstar,
        k=inst.k,
        N=8 * inst.k + 1,
    )
    result = run_engine(problem)

    selected = []
    weights = []
    for j in result.support_indices:
        i = kept[j]
        selected.append(inst.candidates[i])
        weights.append(float(result.weights[j] * frac.weights[i]))
    lam2_weighted = _graph_lambda2_with(inst.base, selected, weights)
    lam2_unweighted = _graph_lambda2_with(inst.base, selected, (1.0,) * len(selected))

    if lam2_weighted < floor * (1.0 - 1e-6) - 1e-12:
        raise NumericalError(
            f"rounded lambda_2 {lam2_weighted!r} fell below the certified floor {floor!r}"
        )
    agreement = abs(lam2_weighted - four_delta * result.lambda_min)
    if agreement > 1e-6 * max(1.0, lam2_weighted):
        raise NumericalError(
            f"graph-level lambda_2 {lam2_weighted!r} and engine lambda_min disagree by {agreement!r}"
        )
    return RoundedSolution(
        selected=tuple(selected),
        weights=tuple(weights),
        lambda2_weighted=lam2_weighted,
        lambda2_unweighted=lam2_unweighted,
        lambda_sdp=frac.lambda_sdp,
        lambda_k2=lam_k2,
        floor=floor,
        engine=result,
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
    inc = _incidence_rows(inst.base.n, inst.candidates)
    best_val = -math.inf
    best_set: tuple = ()
    w = np.zeros(m)
    for size in range(0, k + 1):
        for subset in itertools.combinations(range(m), size):
            w[:] = 0.0
            w[list(subset)] = 1.0
            val = _lambda2(lb, inc, w)
            if val > best_val:
                best_val = val
                best_set = tuple(inst.candidates[i] for i in subset)
    return best_val, best_set

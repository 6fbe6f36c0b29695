"""Two-barrier rank-one update selection.

Given PSD X, rank-one candidates Y_i = v_i v_i^T with costs summing to one,
and M* = X + sum_i Y_i with lambda_max(M*) <= 1, pick N weighted updates so
that M = X + sum_i w_i Y_i keeps its whole spectrum below a fixed ceiling
while the restriction to S — the span of X's k smallest eigenvectors, or
of fewer where the k-th ties the next (`_protected_count`) — is lifted
towards lambda_min(M*). Two potential functions steer the choice: a
floating upper barrier u over the T largest eigenvalues of A, and a lower
barrier l under the spectrum of B = Z(A - X)Z restricted to S, where
Z = ((P_S (M* - X) P_S)^+)^(1/2) normalizes the reachable mass on S.
The result certifies lambda_max(M) <= theta_max and one lambda_min(M) floor (`_certify`).

Cost per step, for d = dim X, m candidates and k = dim S: one values-only
d x d eigensolve of A (a full decomposition every REFRESH_EVERY steps), one
k x k eigendecomposition of B_S = S^T B S, and the scores. A's spectrum
serves the barrier check and potential after the update, the next step's
normalization and, after the last step, the certificate. The upper scores
read the resolvent (u'I - A)^-1 off the last full decomposition
Q_0 diag(lambda_0) Q_0^T, with W_0 = Q_0^T V (d x d x m) formed at each
refresh, plus a Woodbury term in O(r d m) for the r updates made since
(`_pending_resolvent_forms`). The lower scores are R^T (S^T Z V) (k x k x m)
in the eigenbasis R of B_S; B itself is never formed. Once per run come
X's decomposition and M*'s spectrum (validate; the first is not solved
when the caller passes it in, the second when M* = I), the spectrum of
M* - X (compute_Z; 1 - lambda(X) when M* = I), the decomposition of its
k x k restriction, and the k x d x m product S^T V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (
    BarrierViolationError,
    BudgetTooSmallError,
    DegenerateGradientError,
    InfeasibleStepError,
    NumericalError,
    PreconditionError,
    SpectralDecomposition,
    _decompose,
    _integral,
    _spectrum,
    check_symmetric,
    symmetrize,
)

# Steps between full eigendecompositions of A; the steps between take its
# spectrum only and score through `_pending_resolvent_forms`. Engine CPU
# over the 12 `ultra` runs of benchmark corpus seeds 2-3 (d = 119, m = 360,
# N = 65; one OpenBLAS thread, median of 6 rounds on a 2-core x86 machine)
# read 1.35 s at 8, 1.37 s at 10, 1.39 s at 12 and 1.44 s at 16, against
# 1.58 s at 4 and about 2.4 s with a full decomposition every step; the
# smallest of the flat range keeps the fewest updates in the Woodbury term.
REFRESH_EVERY = 8


def integer_trace_bound(trace: float) -> int:
    """ceil(trace) with a 1e-9 guard against float noise at integer boundaries,
    floored at 1 so schedules stay defined for sub-unit update mass."""
    return max(1, int(math.ceil(trace - 1e-9)))


def _protected_count(vals: np.ndarray, k: int) -> int:
    """min(k, d) for the ascending spectrum `vals` of size d, shrunk to the
    start of a tied cluster: while 0 < k_eff < d and
    vals[k_eff] - vals[k_eff - 1] <= 1e-9 * max(1, lambda_max), k_eff drops
    by one. The protected directions then never split a tie, so they are a
    function of the matrix, not of the solver's order within a tie."""
    k_eff, tol = min(k, vals.size), 1e-9 * float(np.max(vals, initial=1.0))
    while 0 < k_eff < vals.size and vals[k_eff] - vals[k_eff - 1] <= tol:
        k_eff -= 1
    return k_eff


@dataclass(frozen=True, eq=False)
class EngineProblem:
    """One selection instance on a working space of dimension d.

    X: (d, d) PSD matrix; vectors: (d, m) with column i generating
    Y_i = v_i v_i^T; costs: (m,) nonnegative, summing to one; Mstar = X + sum Y_i
    with lambda_max <= 1; k: size of the protected bottom eigenspace of X;
    N: number of selection steps; dec_x: X's eigendecomposition, when the
    caller has already solved it; T: ceil(Tr(Mstar - X)) and unit_mstar:
    whether Mstar is exactly the identity, both computed here.
    """

    X: np.ndarray
    vectors: np.ndarray
    costs: np.ndarray
    Mstar: np.ndarray
    k: int
    N: int
    dec_x: SpectralDecomposition | None = field(default=None, repr=False)
    T: int = field(init=False)
    unit_mstar: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "X", check_symmetric(np.asarray(self.X, dtype=float)))
        object.__setattr__(self, "Mstar", check_symmetric(np.asarray(self.Mstar, dtype=float)))
        object.__setattr__(self, "vectors", np.asarray(self.vectors, dtype=float))
        object.__setattr__(self, "costs", np.asarray(self.costs, dtype=float))
        tr = float(np.trace(self.Mstar - self.X))
        object.__setattr__(self, "T", integer_trace_bound(tr))
        object.__setattr__(self, "unit_mstar", np.array_equal(self.Mstar, np.eye(self.dim)))

    @property
    def dim(self) -> int:
        return self.X.shape[0]

    @property
    def num_updates(self) -> int:
        return self.vectors.shape[1]

    def validate(self) -> tuple[SpectralDecomposition, np.ndarray]:
        """Check every precondition; return the eigendecomposition of X and
        the ascending spectrum of Mstar that the spectral checks used. X is
        decomposed here unless the caller passed dec_x, and the spectrum of
        Mstar = I is known without a solve."""
        d, m = self.dim, self.num_updates
        if self.vectors.shape != (d, m):
            raise PreconditionError(f"vectors must be (d, m) = ({d}, {m}), got {self.vectors.shape}")
        if self.costs.shape != (m,):
            raise PreconditionError(f"costs must have shape ({m},), got {self.costs.shape}")
        if m == 0:
            raise PreconditionError("need at least one candidate update")
        if not _integral(type(self.k)) or self.k < 0:
            raise PreconditionError(f"k must be nonnegative and an integer (bools are not), got {self.k!r}")
        if not _integral(type(self.N)):
            raise PreconditionError(f"budget N must be an integer (bools are not), got {self.N!r}")
        if self.N <= 8 * self.k:
            raise BudgetTooSmallError(f"budget N = {self.N} must exceed 8k = {8 * self.k}")
        if np.any(self.costs < 0):
            raise PreconditionError("costs must be nonnegative")
        cost_sum = float(self.costs.sum())
        if abs(cost_sum - 1.0) > 1e-9:
            raise PreconditionError(f"costs must sum to 1 within 1e-9, got {cost_sum!r}")
        norms = np.linalg.norm(self.vectors, axis=0)
        if np.any(norms == 0.0):
            raise PreconditionError("zero update vectors are not allowed; drop them upstream")
        recon = self.X + self.vectors @ self.vectors.T
        dev = float(np.max(np.abs(recon - self.Mstar)))
        if dev > 1e-8:
            raise PreconditionError(f"X + sum Y_i must equal Mstar entrywise within 1e-8, got {dev:g}")
        mstar_vals = np.ones(d) if self.unit_mstar else _spectrum(self.Mstar)
        lam_max = float(mstar_vals[-1]) if d else 0.0
        if lam_max > 1.0 + 1e-9:
            raise PreconditionError(f"lambda_max(Mstar) = {lam_max!r} exceeds 1 + 1e-9")
        dec_x = _decompose(self.X) if self.dec_x is None else self.dec_x
        if dec_x.eigenvectors.shape != (d, d):
            raise PreconditionError(f"dec_x must decompose the ({d}, {d}) X, got {dec_x.eigenvectors.shape}")
        x_min = float(dec_x.eigenvalues[0]) if d else 0.0
        if x_min < -1e-9:
            raise PreconditionError(f"X must be PSD, got lambda_min = {x_min:g}")
        return dec_x, mstar_vals


@dataclass(frozen=True)
class EngineSchedule:
    """Barrier shift sizes, the cap eps on both starting potentials, the
    starting barrier positions, and mx = max(N, T), which scales the costs."""

    delta_l: float
    delta_u: float
    eps: float
    l0: float
    u0: float
    mx: int


def init_schedule(k: int, n_budget: int, t_bound: int) -> EngineSchedule:
    """Schedule from (k, N, T): delta_l = 1/(2 max(N,T)), delta_u = 4 delta_l,
    eps = 1/(4 delta_l), l0 = -4k delta_l, u0 = 4T delta_l + 1."""
    if n_budget <= 8 * k:
        raise BudgetTooSmallError(f"budget N = {n_budget} must exceed 8k = {8 * k}")
    if t_bound < 1:
        raise PreconditionError(f"trace bound T must be >= 1, got {t_bound}")
    mx = max(n_budget, t_bound)
    delta_l = 1.0 / (2.0 * mx)
    return EngineSchedule(
        delta_l=delta_l,
        delta_u=4.0 * delta_l,
        eps=1.0 / (4.0 * delta_l),
        l0=-4.0 * k * delta_l,
        u0=4.0 * t_bound * delta_l + 1.0,
        mx=mx,
    )


@dataclass(eq=False)
class EngineState:
    """Mutable iteration state.

    A = X + sum_i w_i Y_i with a_vals, its ascending spectrum; dec_ref =
    (lambda_0, Q_0), the last full eigendecomposition of A, with w_ref =
    Q_0^T V, its entrywise square w_ref_sq and the (index, t) of each update
    made since (`pending`), all four set by `refresh`; b_s = S^T B S, the
    k x k restriction of B = Z(A - X)Z to S, with its eigendecomposition
    dec_b; the barriers l, u; and the fixed k x m matrix szv = S^T Z V =
    Z_S S^T V, in S's own coordinates, whose column i generates the
    restriction of Z Y_i Z.
    """

    q: int
    weights: np.ndarray
    A: np.ndarray
    b_s: np.ndarray
    dec_b: SpectralDecomposition
    l: float
    u: float
    szv: np.ndarray
    a_vals: np.ndarray = field(init=False)
    dec_ref: SpectralDecomposition = field(init=False)
    w_ref: np.ndarray = field(init=False)
    w_ref_sq: np.ndarray = field(init=False)
    pending: list = field(init=False)

    @property
    def k_eff(self) -> int:
        return self.szv.shape[0]

    def refresh(self, dec: SpectralDecomposition, vectors: np.ndarray) -> None:
        """Take `dec` as the full decomposition of the current A."""
        self.a_vals, self.dec_ref, self.pending = dec.eigenvalues, dec, []
        self.w_ref = dec.eigenvectors.T @ vectors
        self.w_ref_sq = self.w_ref * self.w_ref


def initial_state(
    problem: EngineProblem, schedule: EngineSchedule, dec_x: SpectralDecomposition, szv: np.ndarray
) -> EngineState:
    """State before step 1: A = X (decomposed as dec_x), B_S = 0, barriers at l0, u0."""
    k_eff = szv.shape[0]
    state = EngineState(
        q=0,
        weights=np.zeros(problem.num_updates),
        A=symmetrize(problem.X),
        b_s=np.zeros((k_eff, k_eff)),
        dec_b=SpectralDecomposition(np.zeros(k_eff), np.eye(k_eff)),
        l=schedule.l0,
        u=schedule.u0,
        szv=szv,
    )
    state.refresh(dec_x, problem.vectors)
    return state


class StepRecord(NamedTuple):
    """Per-step trace row (values after the update and barrier shift), in
    report and CSV column order.

    upper_gap = u - lambda_max(A) and lower_gap = lambda_min(B|S) - l (inf
    for an empty S) are the barrier distances; feasible_candidates counts
    the indices that satisfied the selection inequality at this step.
    """

    q: int
    index: int
    t: float
    slack: float
    l: float
    u: float
    lower_potential: float
    upper_potential: float
    lower_increase: float
    upper_increase: float
    upper_gap: float
    lower_gap: float
    feasible_candidates: int


@dataclass(frozen=True, eq=False)
class EngineResult:
    """Final weights and the certificate for M = X + sum w_i Y_i (`_certify`).
    The trace holds each step's potential increases, none above 1e-9."""

    weights: np.ndarray
    theta_max: float
    lambda_min: float
    lambda_max: float
    lambda_star: float
    floor: float
    lambda_min_b_restricted: float
    cost_bound: float
    trace: tuple


def compute_Z(
    x: np.ndarray, mstar: np.ndarray, basis: np.ndarray, gap_vals: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """Z_S = (S^T (M* - X) S + eps I)^(-1/2), the k x k operator on S in the
    coordinates of the orthonormal columns S of the d x k array `basis`, and
    the eps applied. Z = S Z_S S^T, ((P_S (M* - X) P_S)^+)^(1/2) when eps = 0,
    is the ambient normalizer; it is not formed. `gap_vals` is the ascending
    spectrum of M* - X when the caller knows it; it is solved here otherwise.

    eps is 0.0 unless S^T (M* - X) S is numerically singular; then it is
    1e-8 * lambda_max(M* - X). An empty S gives a 0 x 0 Z_S before M* - X is
    formed. M* - X is symmetrized, not checked: X and M* each passed
    `check_symmetric`.
    """
    if basis.shape[1] == 0:
        return np.zeros((0, 0)), 0.0
    d = symmetrize(mstar - x)
    dvals = _spectrum(d) if gap_vals is None else gap_vals
    if float(dvals[0]) < -1e-8 * max(1.0, float(dvals[-1])):
        raise PreconditionError(f"Mstar - X must be PSD, got lambda_min = {float(dvals[0]):g}")
    r = symmetrize(basis.T @ d @ basis)
    dec_r = _decompose(r)
    rvals, rvecs = dec_r.eigenvalues, dec_r.eigenvectors
    lam_scale = float(dvals[-1])
    perturbation = 0.0
    if float(rvals[0]) <= 1e-12 * max(lam_scale, 1e-300):
        perturbation = 1e-8 * lam_scale if lam_scale > 0 else 1e-8
        rvals = rvals + perturbation
    return (rvecs * (1.0 / np.sqrt(rvals))) @ rvecs.T, perturbation


def _upper_phi(vals: np.ndarray, u: float, t_bound: int) -> float:
    """Sum of 1/(u - lambda) over the T largest of the ascending `vals`;
    raises if the largest is at or above u."""
    if vals.size == 0:
        return 0.0
    if float(vals[-1]) >= u:
        raise BarrierViolationError(
            f"upper barrier crossed: lambda_max = {float(vals[-1])!r} >= u = {u!r}"
        )
    top = vals[-min(t_bound, vals.size):]
    return float(np.sum(1.0 / (u - top)))


def _lower_phi(vals: np.ndarray, l: float) -> float:
    """Sum of 1/(lambda - l) over the ascending `vals`; raises if the
    smallest is at or below l."""
    if vals.size == 0:
        return 0.0
    if float(vals[0]) <= l:
        raise BarrierViolationError(
            f"lower barrier crossed: min restricted eigenvalue {float(vals[0])!r} <= l = {l!r}"
        )
    return float(np.sum(1.0 / (vals - l)))


def _upper_gradient_diag(gap: np.ndarray, dphi: float) -> np.ndarray:
    """Eigenvalues 1/(gap^2 dphi) + 1/gap of U_A, for the barrier gaps
    gap = u + delta_u - lambda of A's eigenvalues lambda."""
    return (1.0 / gap**2) / dphi + 1.0 / gap


def _lower_gradient_diag(rvals: np.ndarray, l: float, delta_l: float, phi_l: float) -> np.ndarray:
    """Eigenvalues of L_B on S, in the order of B_S's ascending eigenvalues
    `rvals`, whose lower potential at l is phi_l."""
    mu = rvals - (l + delta_l)
    if float(mu.min()) <= 0:
        raise BarrierViolationError(
            f"lower barrier too close: min restricted eigenvalue {float(rvals.min())!r}"
            f" <= l + delta_l = {l + delta_l!r}"
        )
    dphi = float(np.sum(1.0 / mu)) - phi_l
    if dphi <= 1e-14:
        raise DegenerateGradientError(f"lower potential difference {dphi:g} too small to normalize")
    return (1.0 / mu**2) / dphi - 1.0 / mu


def _selection_scores(
    problem: EngineProblem, state: EngineState, schedule: EngineSchedule, phi_u: float, phi_l: float
) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic forms of every candidate against both gradients, given the
    state's potentials phi_u = Phi^u(A) and phi_l = Phi_l(B).

    Returns (upper side U_A.Y_i + max(N,T) cost_i, lower side L_B.(Z Y_i Z)).
    U_A.Y_i = v_i^T R^2 v_i / dphi + v_i^T R v_i, for the resolvent
    R = (u'I - A)^-1 at u' = u + delta_u and dphi = phi_u - Phi^u'(A). With
    A = Q_0 diag(lambda_0) Q_0^T (the last full decomposition) and no update
    pending, it is sum_j g_u(lambda_0j) (q_j^T v_i)^2: one GEMV of the
    entrywise square of W_0 = Q_0^T V, carried from the last refresh.
    Updates made since add `_pending_resolvent_forms`. The lower side is the
    same in k coordinates: L_B.(Z Y_i Z) = sum_j g_l(b_j) (r_j^T S^T Z v_i)^2
    with B_S = R diag(b) R^T.
    """
    u_next = state.u + schedule.delta_u
    dphi = phi_u - _upper_phi(state.a_vals, u_next, problem.T)
    if dphi <= 1e-14:
        raise DegenerateGradientError(f"upper potential difference {dphi:g} too small to normalize")
    gap = u_next - state.dec_ref.eigenvalues
    quad_u = _upper_gradient_diag(gap, dphi) @ state.w_ref_sq
    if state.pending:
        r_forms, r2_forms = _pending_resolvent_forms(state, gap)
        quad_u += r2_forms / dphi + r_forms
    if state.k_eff > 0:
        r = state.dec_b.eigenvectors.T @ state.szv
        quad_l = _lower_gradient_diag(state.dec_b.eigenvalues, state.l, schedule.delta_l, phi_l) @ (r * r)
    else:
        quad_l = np.zeros(problem.num_updates)
    return quad_u + schedule.mx * problem.costs, quad_l


def _pending_resolvent_forms(state: EngineState, gap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What the pending updates add to every candidate's v_i^T R v_i and
    v_i^T R^2 v_i, by the Woodbury identity on the last full decomposition.

    With D = diag(1/gap), W_0 = Q_0^T V and P = Q_0^T [v_j] the pending
    updates of step sizes t_j: R = Q_0 (D + D P K P^T D) Q_0^T for the r x r
    K = (diag(1/t) - P^T D P)^-1. K^-1 = L L^T is positive definite exactly
    while u' > lambda_max(A); a failed Cholesky factorization raises.
    With B = D P L^-T and F = B^T W_0, v_i^T R v_i gains |f_i|^2 and
    v_i^T R^2 v_i = |D w_i + B f_i|^2 gains 2 (D B)^T w_i . f_i + f_i^T B^T B f_i.
    Cost O(r d m) for the r pending updates.
    """
    idx, t = zip(*state.pending)
    r = len(idx)
    p = state.w_ref[:, idx]
    dp = p / gap[:, None]
    try:
        chol = np.linalg.cholesky(np.diag(1.0 / np.array(t)) - p.T @ dp)
    except np.linalg.LinAlgError:
        raise BarrierViolationError(
            f"upper barrier crossed: u + delta_u is not above lambda_max(A), {r} updates"
            " after its last full decomposition"
        ) from None
    b = np.linalg.solve(chol, dp.T).T
    f = np.concatenate([b, b / gap[:, None]], axis=1).T @ state.w_ref
    f1, f2 = f[:r], f[r:]
    return np.sum(f1 * f1, axis=0), np.sum((2.0 * f2 + (b.T @ b) @ f1) * f1, axis=0)


def _select(
    problem: EngineProblem, state: EngineState, schedule: EngineSchedule, phi_u: float, phi_l: float
) -> tuple[int, float, float, int]:
    """Pick the update index and step size for the current state (potentials
    phi_u, phi_l); return them with the selection slack and feasible count.

    Feasible indices satisfy U_A.Y_i + max(N,T) cost_i <= L_B.(Z Y_i Z); among
    them the one with maximum slack (lowest index on ties) is chosen, with
    t = 1/(L_B.(Z Y_i Z)). With an empty S the lower side vanishes identically
    and the step becomes t = 1/(U_A.Y_i + max(N,T) cost_i) at the index
    minimizing that quantity. Either way cost_i * t <= 1/max(N,T).
    """
    lhs, rhs = _selection_scores(problem, state, schedule, phi_u, phi_l)
    if state.k_eff == 0:
        idx = int(np.argmin(lhs))
        if lhs[idx] <= 0:
            raise InfeasibleStepError(
                "degenerate candidate: U_A.Y + max(N,T) cost vanished",
                {"q": state.q, "lhs_min": float(lhs[idx])},
            )
        return idx, 1.0 / float(lhs[idx]), float(-lhs[idx]), int(np.count_nonzero(lhs > 0))
    slack = rhs - lhs
    idx = int(np.argmax(slack))
    if slack[idx] < 0:
        raise InfeasibleStepError(
            "no candidate satisfies U_A.Y_i + max(N,T) cost_i <= L_B.(Z Y_i Z)",
            {
                "q": state.q,
                "max_slack": float(slack[idx]),
                "upper_potential": phi_u,
                "lower_potential": phi_l,
                "sum_lhs": float(lhs.sum()),
                "sum_rhs": float(rhs.sum()),
            },
        )
    return idx, 1.0 / float(rhs[idx]), float(slack[idx]), int(np.count_nonzero(slack >= 0))


def run_engine(problem: EngineProblem) -> EngineResult:
    """Run exactly N selection steps and certify the outcome.

    Each step picks (i, t) via _select, adds t Y_i to A (and
    t (S^T Z v_i)(S^T Z v_i)^T to B_S), then shifts both barriers:
    l += delta_l, u += delta_u. Then A gets one LAPACK solve, its spectrum
    (a full decomposition every REFRESH_EVERY updates), and B_S one
    decomposition; they give the barrier checks and potentials, which must
    not increase beyond 1e-9, and the next step's scores, which take those
    potentials. The final certificate is checked on A's last spectrum.
    """
    dec_x, mstar_vals = problem.validate()
    # S: the span of X's k smallest eigenvectors, or fewer where the k-th
    # ties the next; theta_min stays computed from problem.k
    k_eff = _protected_count(dec_x.eigenvalues, problem.k)
    basis = dec_x.eigenvectors[:, :k_eff]
    # with M* = I (every patch run) M* - X has the spectrum 1 - lambda(X)
    gap_vals = 1.0 - dec_x.eigenvalues[::-1] if problem.unit_mstar else None
    z_s, _ = compute_Z(problem.X, problem.Mstar, basis, gap_vals)
    schedule = init_schedule(problem.k, problem.N, problem.T)
    state = initial_state(problem, schedule, dec_x, z_s @ (basis.T @ problem.vectors))

    phi_u = _upper_phi(state.a_vals, state.u, problem.T)
    phi_l = _lower_phi(state.dec_b.eigenvalues, state.l)
    if phi_u > schedule.eps + 1e-9:
        raise NumericalError(f"starting upper potential {phi_u!r} exceeds eps = {schedule.eps!r}")
    if phi_l > schedule.eps + 1e-9:
        raise NumericalError(f"starting lower potential {phi_l!r} exceeds eps = {schedule.eps!r}")

    trace = []
    for q in range(1, problem.N + 1):
        state.q = q
        idx, t, slack, feasible = _select(problem, state, schedule, phi_u, phi_l)
        v, s_i = problem.vectors[:, idx], state.szv[:, idx]
        state.weights[idx] += t
        # t v_i v_j and t v_j v_i are the same float: A and B_S stay exactly symmetric
        state.A += t * np.outer(v, v)
        state.b_s += t * np.outer(s_i, s_i)
        state.l += schedule.delta_l
        state.u += schedule.delta_u

        state.pending.append((idx, t))
        if len(state.pending) == REFRESH_EVERY and q < problem.N:
            state.refresh(_decompose(state.A), problem.vectors)
        else:
            state.a_vals = _spectrum(state.A)
        state.dec_b = _decompose(state.b_s)
        new_phi_u = _upper_phi(state.a_vals, state.u, problem.T)
        new_phi_l = _lower_phi(state.dec_b.eigenvalues, state.l)
        upper_inc = new_phi_u - phi_u
        lower_inc = new_phi_l - phi_l
        if upper_inc > 1e-9 or lower_inc > 1e-9:
            raise NumericalError(
                f"potential increased at step {q}: upper by {upper_inc:g}, lower by {lower_inc:g}"
            )
        trace.append(
            StepRecord(
                q=q,
                index=idx,
                t=t,
                slack=slack,
                l=state.l,
                u=state.u,
                lower_potential=new_phi_l,
                upper_potential=new_phi_u,
                lower_increase=lower_inc,
                upper_increase=upper_inc,
                upper_gap=state.u - float(state.a_vals[-1]),
                lower_gap=float(state.dec_b.eigenvalues[0]) - state.l if k_eff else math.inf,
                feasible_candidates=feasible,
            )
        )
        phi_u, phi_l = new_phi_u, new_phi_l

        cost_so_far = float(state.weights @ problem.costs)
        if cost_so_far > q / schedule.mx + 1e-9:
            raise NumericalError(
                f"running cost {cost_so_far!r} exceeds q/max(N,T) = {q / schedule.mx!r} at step {q}"
            )

    return _certify(problem, state, schedule, dec_x, mstar_vals, tuple(trace))


def _certify(
    problem: EngineProblem,
    state: EngineState,
    schedule: EngineSchedule,
    dec_x: SpectralDecomposition,
    mstar_vals: np.ndarray,
    trace: tuple,
) -> EngineResult:
    """Check the certificate from the decompositions the loop carried out.

    The barriers (Batson, Spielman and Srivastava's, "Twice-Ramanujan
    Sparsifiers", STOC 2009, here on two sides) give lambda_max(M) <=
    theta_max = 2(N+T)/max(N,T) + 1, lambda_min(B|S) >= theta_min =
    (N/2 - 2k)/max(N,T) and one floor lambda_min(M) >= theta_min lambda*
    lambda_min(M*) / (sqrt lambda* + sqrt theta_max + sqrt(theta_min
    lambda_min(M*)))^2, lambda* the smallest eigenvalue of X off S. The
    floor implies the paper's explicit min(1, N/T) lambda* lambda_min(M*)/72:
    N > 8k gives theta_min > min(1, N/T)/4, and as lambda*, lambda_min(M*)
    <= lambda_max(M*) <= 1, theta_max <= 5 and theta_min <= 1/2, the
    denominator (at least theta_max >= 3) is at most (1 + sqrt 5 +
    sqrt 0.5)^2 < 15.55, so the floor is over 72/62.2 = 1.157 times it.
    """
    d = problem.dim
    k_eff = state.k_eff
    theta_max = 2.0 * (problem.N + problem.T) / schedule.mx + 1.0
    theta_min = (problem.N / 2.0 - 2.0 * problem.k) / schedule.mx

    m_final = symmetrize(problem.X + (problem.vectors * state.weights) @ problem.vectors.T)
    dev = float(np.max(np.abs(m_final - state.A)))
    if dev > 1e-8:
        raise NumericalError(f"A drifted from X + sum w_i Y_i by {dev:g}")
    mvals = state.a_vals
    lam_min_m, lam_max_m = float(mvals[0]), float(mvals[-1])

    if lam_max_m > theta_max + 1e-9:
        raise NumericalError(f"lambda_max(M) = {lam_max_m!r} exceeds theta_max = {theta_max!r}")

    lam_min_b = float(state.dec_b.eigenvalues[0]) if k_eff > 0 else math.inf
    if lam_min_b < theta_min - 1e-9:
        raise NumericalError(f"lambda_min(B|S) = {lam_min_b!r} below theta_min = {theta_min!r}")

    lam_min_mstar = float(mstar_vals[0])
    if k_eff < d:
        lam_star = float(dec_x.eigenvalues[k_eff])
        lam_pos = max(lam_star, 0.0)  # LAPACK can put lambda* of a PSD X with a kernel a few ulps below 0
        root = math.sqrt(lam_pos) + math.sqrt(theta_max) + math.sqrt(max(theta_min * lam_min_mstar, 0.0))
        floor = theta_min * lam_pos * lam_min_mstar / root**2
    else:
        # S is the whole working space: M >= X + theta_min (M* - X) >= theta_min M*.
        lam_star, floor = math.inf, theta_min * lam_min_mstar
    if lam_min_m < floor - 1e-9:
        raise NumericalError(f"lambda_min(M) = {lam_min_m!r} below certified floor {floor!r}")

    total_cost = float(state.weights @ problem.costs)
    cost_fraction = min(1.0, problem.N / problem.T)
    if total_cost > cost_fraction + 1e-9:
        raise NumericalError(f"total cost {total_cost!r} exceeds min(1, N/T) = {cost_fraction!r}")
    support = int(np.count_nonzero(state.weights))
    if support > problem.N:
        raise NumericalError(f"support {support} exceeds N = {problem.N}")

    return EngineResult(
        weights=state.weights.copy(),
        theta_max=theta_max,
        lambda_min=lam_min_m,
        lambda_max=lam_max_m,
        lambda_star=lam_star,
        floor=floor,
        lambda_min_b_restricted=lam_min_b,
        cost_bound=cost_fraction,
        trace=trace,
    )

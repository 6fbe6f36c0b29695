"""Barrier schedule, potentials, gradients, and the full selection loop."""
import dataclasses

import numpy as np
import pytest

import lapsparse.engine as engine

from conftest import eigh, make_engine_instance, random_psd
from lapsparse.core import (
    BarrierViolationError,
    BudgetTooSmallError,
    InfeasibleStepError,
    NumericalError,
    PreconditionError,
    SpectralDecomposition,
    eigvalsh,
    symmetrize,
)
from lapsparse.engine import (
    EngineProblem,
    _lower_gradient_diag,
    _protected_count,
    _lower_phi,
    _select,
    _selection_scores,
    _upper_gradient_diag,
    _upper_phi,
    compute_Z,
    init_schedule,
    initial_state,
    integer_trace_bound,
    run_engine,
)


# Dense gradients from their definitions, an independent reference for the
# engine's eigenbasis scoring. With u' = u + delta_u and l' = l + delta_l:
#   U_A = (u'I - A)^-2 / (Phi^u(A) - Phi^u'(A)) + (u'I - A)^-1,
#   L_B = (P_S(B - l'I)P_S)^+2 / (Phi_l'(B) - Phi_l(B)) - (P_S(B - l'I)P_S)^+,
# where Phi^u sums 1/(u - lambda) over the T largest eigenvalues of A, Phi_l
# sums 1/(lambda - l) over the spectrum of B on S, and L_B = 0 for an empty S.


def dense_upper_gradient(a, u, delta_u, t_bound):
    vals, vecs = np.linalg.eigh(a)
    top = vals[-min(t_bound, vals.size):]
    dphi = np.sum(1.0 / (u - top)) - np.sum(1.0 / (u + delta_u - top))
    gap = u + delta_u - vals
    return symmetrize((vecs * ((1.0 / gap**2) / dphi + 1.0 / gap)) @ vecs.T)


def dense_lower_gradient(b, l, delta_l, basis):
    if basis.shape[1] == 0:
        return np.zeros_like(b)
    rvals, rvecs = np.linalg.eigh(symmetrize(basis.T @ b @ basis))
    mu = rvals - (l + delta_l)
    dphi = np.sum(1.0 / mu) - np.sum(1.0 / (rvals - l))
    g_s = (rvecs * ((1.0 / mu**2) / dphi - 1.0 / mu)) @ rvecs.T
    return symmetrize(basis @ g_s @ basis.T)


def engine_upper_gradient(a, u, delta_u, t_bound):
    """U_A with the eigenvalues and the normalizer the engine scores with."""
    vals, vecs = np.linalg.eigh(a)
    dphi = _upper_phi(vals, u, t_bound) - _upper_phi(vals, u + delta_u, t_bound)
    diag = _upper_gradient_diag(u + delta_u - vals, dphi)
    return symmetrize((vecs * diag) @ vecs.T)


def engine_lower_gradient(b, l, delta_l, basis):
    """L_B with the eigenvalues the engine scores with, on B_S = S^T B S."""
    rvals, rvecs = np.linalg.eigh(symmetrize(basis.T @ b @ basis))
    g_s = (rvecs * _lower_gradient_diag(rvals, l, delta_l, _lower_phi(rvals, l))) @ rvecs.T
    return symmetrize(basis @ g_s @ basis.T)


def potentials(problem, state):
    """(Phi^u(A), Phi_l(B)) of the state, as run_engine hands them to the scoring."""
    return _upper_phi(state.a_vals, state.u, problem.T), _lower_phi(state.dec_b.eigenvalues, state.l)


def upper_potential(a, u, t_bound):
    return _upper_phi(np.linalg.eigvalsh(a), u, t_bound)


def lower_potential(b, l, basis):
    return _lower_phi(np.linalg.eigvalsh(symmetrize(basis.T @ b @ basis)), l)


# ---------------------------------------------------------------------------
# schedule


def test_schedule_values_for_budget_nine_trace_four():
    s = init_schedule(1, 9, 4)
    assert s.delta_l == pytest.approx(1.0 / 18.0, rel=1e-15)
    assert s.delta_u == pytest.approx(2.0 / 9.0, rel=1e-15)
    assert s.eps == pytest.approx(4.5, rel=1e-15)
    assert s.l0 == pytest.approx(-2.0 / 9.0, rel=1e-15)
    assert s.u0 == pytest.approx(17.0 / 9.0, rel=1e-15)
    assert s.mx == 9


def test_schedule_uses_larger_of_budget_and_trace():
    assert init_schedule(1, 16, 16).delta_l == pytest.approx(1.0 / 32.0, rel=1e-15)
    assert init_schedule(1, 9, 40).delta_l == pytest.approx(1.0 / 80.0, rel=1e-15)


def test_schedule_rejects_budget_at_or_below_eight_k():
    with pytest.raises(BudgetTooSmallError):
        init_schedule(1, 8, 4)
    with pytest.raises(PreconditionError):
        init_schedule(1, 9, 0)


def test_integer_trace_bound_rounds_up_and_floors_at_one():
    assert integer_trace_bound(2.3) == 3
    assert integer_trace_bound(2.0) == 2
    assert integer_trace_bound(0.0) == 1


# ---------------------------------------------------------------------------
# protected subspace and normalizer


def test_normalizer_inverts_the_restricted_gap():
    # Z_S is the k x k operator in the coordinates of S's basis
    rng = np.random.default_rng(9)
    d = 6
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    s = q[:, :2]
    p = s @ s.T
    x = np.zeros((d, d))

    z, eps = compute_Z(x, p, s)  # M* - X = P_S
    assert eps == 0.0 and z.shape == (2, 2)
    assert np.allclose(z, np.eye(2), atol=1e-9)

    z4, eps4 = compute_Z(x, 4.0 * p, s)  # M* - X = 4 P_S
    assert eps4 == 0.0
    assert np.allclose(z4, np.eye(2) / 2.0, atol=1e-9)

    gap = random_psd(rng, d, lo=0.5, hi=2.0)
    zg, _ = compute_Z(x, symmetrize(p @ gap @ p), s)
    ident = zg @ (s.T @ gap @ s) @ zg
    assert np.allclose(ident, np.eye(2), atol=1e-7)


@pytest.mark.parametrize("singular", [False, True])
def test_normalizer_is_the_inverse_root_of_the_perturbed_restriction(singular):
    # Z_S (S^T (M* - X) S + eps I) Z_S = I, with eps = 0 for a regular
    # restriction and eps = 1e-8 lambda_max(M* - X) for a singular one
    rng = np.random.default_rng(10)
    d, k = 7, 3
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    s = q[:, :k]
    gap_vals = np.array([0.0 if singular else 0.3, 0.7, 1.1, 1.3, 1.6, 1.9, 2.5])
    gap = symmetrize((q * gap_vals) @ q.T)  # S holds the eigenvector of the 0 when singular
    x = random_psd(rng, d, lo=0.0, hi=1.0)
    z_s, eps = compute_Z(x, symmetrize(x + gap), s)
    assert z_s.shape == (k, k)
    assert eps == (pytest.approx(1e-8 * 2.5, rel=1e-6) if singular else 0.0)
    restricted = s.T @ (symmetrize(x + gap) - x) @ s + eps * np.eye(k)
    assert np.allclose(z_s @ restricted @ z_s, np.eye(k), atol=1e-8 if singular else 1e-12)


def test_normalizer_on_an_empty_subspace_is_zero_by_zero():
    # returned before M* - X is formed, so even an indefinite one is not read
    z_s, eps = compute_Z(np.eye(3), np.zeros((3, 3)), np.zeros((3, 0)))
    assert z_s.shape == (0, 0) and eps == 0.0


def test_normalizer_rejects_indefinite_gap():
    with pytest.raises(PreconditionError):
        compute_Z(np.eye(3), np.zeros((3, 3)), np.eye(3)[:, :1])


def test_normalizer_reports_a_lapack_failure_as_a_numerical_error(monkeypatch):
    # NumericalError exits 4 with the JSON failure line; LinAlgError would
    # escape as a traceback
    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(NumericalError, match="failed to converge"):
        compute_Z(np.zeros((3, 3)), np.eye(3), np.eye(3)[:, :1])


# ---------------------------------------------------------------------------
# potentials


def test_lower_potential_at_start_equals_its_budget():
    for k, n_budget, t_bound in [(1, 9, 4), (2, 17, 6), (3, 25, 25)]:
        s = init_schedule(k, n_budget, t_bound)
        phi = _lower_phi(np.zeros(k), s.l0)
        assert phi == pytest.approx(s.eps, rel=1e-12)


def test_lower_potential_identity_block_is_dimension():
    assert _lower_phi(np.ones(3), 0.0) == pytest.approx(3.0, rel=1e-12)
    assert _lower_phi(np.zeros(0), 0.0) == 0.0


def test_lower_potential_matches_eigensum_oracle():
    rng = np.random.default_rng(21)
    b = random_psd(rng, 7, lo=1.0, hi=3.0)
    q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    b_s = symmetrize(q[:, :4].T @ b @ q[:, :4])
    l = 0.5
    want = float(np.sum(1.0 / (eigvalsh(b_s) - l)))
    assert _lower_phi(np.linalg.eigvalsh(b_s), l) == pytest.approx(want, rel=1e-9)


def test_lower_potential_raises_past_the_barrier():
    with pytest.raises(BarrierViolationError):
        _lower_phi(np.zeros(2), 0.0)


def test_upper_potential_at_start_stays_within_budget():
    for k, n_budget, t_bound in [(1, 9, 4), (2, 17, 17)]:
        s = init_schedule(k, n_budget, t_bound)
        phi = _upper_phi(np.zeros(6), s.u0, t_bound)
        assert phi <= s.eps + 1e-12


def test_upper_potential_counts_trace_slots():
    # A = 0, u = 1: each of the T tracked slots contributes 1/(1 - 0) = 1,
    # and T clamps to the dimension.
    assert _upper_phi(np.zeros(4), 1.0, 4) == pytest.approx(4.0, rel=1e-12)
    assert _upper_phi(np.zeros(2), 1.0, 7) == pytest.approx(2.0, rel=1e-12)
    assert _upper_phi(np.array([0.0, 0.5]), 1.0, 1) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(BarrierViolationError):
        _upper_phi(np.ones(3), 1.0, 3)


# ---------------------------------------------------------------------------
# gradients


def test_upper_gradient_scalar_case():
    # one dimension, A = 0, u = 2, delta_u = 1, T = 1:
    # (1/9) / (1/2 - 1/3) + 1/3 = 2/3 + 1/3 = 1
    g = engine_upper_gradient(np.zeros((1, 1)), 2.0, 1.0, 1)
    assert g.shape == (1, 1)
    assert g[0, 0] == pytest.approx(1.0, rel=1e-12)


def test_lower_gradient_scalar_case():
    # B = 1 on a one-dimensional S, l = 0, delta_l = 1/2:
    # (1/(1/2)^2) / (1/(1/2) - 1/1) - 1/(1/2) = 4 - 2 = 2
    g = engine_lower_gradient(np.ones((1, 1)), 0.0, 0.5, np.eye(1))
    assert g[0, 0] == pytest.approx(2.0, rel=1e-12)


def test_lower_gradient_vanishes_off_the_subspace():
    rng = np.random.default_rng(31)
    d = 6
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    basis = q[:, :2]
    p = basis @ basis.T
    b = symmetrize(p @ random_psd(rng, d, lo=1.0, hi=2.0) @ p)
    g = engine_lower_gradient(b, -0.25, 0.05, basis)
    perp = np.eye(d) - p
    assert np.max(np.abs(perp @ g @ perp)) <= 1e-9


def test_upper_gradient_certifies_a_safe_step_size():
    # Adding t Y with t = 1/(U_A . Y) must not raise the potential even after
    # the barrier shifts to u + delta_u; smaller steps inherit the guarantee.
    rng = np.random.default_rng(33)
    for trial in range(30):
        d = int(rng.integers(2, 7))
        t_bound = int(rng.integers(1, d + 1))
        a = random_psd(rng, d, lo=0.0, hi=0.5)
        u, delta_u = 2.0, float(rng.uniform(0.05, 0.5))
        g = engine_upper_gradient(a, u, delta_u, t_bound)
        v = rng.standard_normal(d)
        y = np.outer(v, v) / (v @ v)
        t = 1.0 / float(np.sum(g * y))
        before = upper_potential(a, u, t_bound)
        for step in (t, 0.5 * t):
            after = upper_potential(symmetrize(a + step * y), u + delta_u, t_bound)
            assert after <= before + 1e-9


def test_lower_gradient_certifies_a_sufficient_step_size():
    # Adding t Y with t = 1/(L_B . Y) restores the shifted lower potential to
    # at most its previous value; larger steps only help.
    rng = np.random.default_rng(37)
    for trial in range(30):
        d = int(rng.integers(2, 7))
        r = int(rng.integers(1, d + 1))
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        basis = q[:, :r]
        p = basis @ basis.T
        b = symmetrize(p @ random_psd(rng, d, lo=1.0, hi=2.0) @ p)
        l, delta_l = 0.25, float(rng.uniform(0.02, 0.2))
        g = engine_lower_gradient(b, l, delta_l, basis)
        v = p @ rng.standard_normal(d)
        y = np.outer(v, v) / (v @ v)
        score = float(np.sum(g * y))
        if score <= 1e-12:
            continue
        t = 1.0 / score
        before = lower_potential(b, l, basis)
        for step in (t, 2.0 * t):
            after = lower_potential(symmetrize(b + step * y), l + delta_l, basis)
            assert after <= before + 1e-9


# ---------------------------------------------------------------------------
# selection


def _single_update_problem():
    x = np.diag([0.25, 0.5])
    v = np.array([[0.5], [0.5]])
    mstar = symmetrize(x + v @ v.T)
    return EngineProblem(X=x, vectors=v, costs=np.array([1.0]), Mstar=mstar, k=0, N=1)


def test_select_update_single_candidate_gets_index_zero():
    p = _single_update_problem()
    schedule = init_schedule(p.k, p.N, p.T)
    state = initial_state(p, schedule, eigh(p.X), np.zeros((0, 1)))
    idx, t, _, _ = _select(p, state, schedule, *potentials(p, state))
    assert idx == 0
    assert t > 0
    assert p.costs[0] * t <= 1.0 / max(p.N, p.T) + 1e-12


def _start_state(problem):
    """Initial state built the way run_engine builds it: S from X's k smallest
    eigenvectors, Z_S, and S^T Z V = Z_S S^T V; also the ambient Z = S Z_S S^T."""
    schedule = init_schedule(problem.k, problem.N, problem.T)
    dec_x = eigh(problem.X)
    s = dec_x.eigenvectors[:, : min(problem.k, problem.dim)]
    z_s, _ = compute_Z(problem.X, problem.Mstar, s)
    state = initial_state(problem, schedule, dec_x, z_s @ (s.T @ problem.vectors))
    return state, schedule, s, s @ z_s @ s.T


def test_selection_scores_balance_on_covered_instances():
    # Feasibility of each step comes from the averaging bound: the total
    # upper-side score cannot exceed the total lower-side score.
    problem = make_engine_instance(3, n=12, m=60, k=1)
    state, schedule, _, _ = _start_state(problem)
    upper_scores, lower_scores = _selection_scores(problem, state, schedule, *potentials(problem, state))
    assert float(upper_scores.sum()) <= float(lower_scores.sum()) + 1e-8


@pytest.mark.parametrize("seed,n,m,k", [(41, 10, 50, 0), (42, 12, 60, 1), (43, 15, 80, 3), (44, 4, 30, 6)])
def test_selection_scores_match_einsum_against_the_gradients(seed, n, m, k):
    # The eigenbasis scores equal U_A.Y_i + max(N,T) cost_i and L_B.(Z Y_i Z)
    # formed from the dense gradients, at a mid-run state with B != 0.
    problem = make_engine_instance(seed, n=n, m=m, k=k)
    _, schedule, s, z = _start_state(problem)
    w = np.random.default_rng(seed).uniform(0.0, 1.0, size=m)
    a = symmetrize(problem.X + (problem.vectors * w) @ problem.vectors.T)
    zv = z @ problem.vectors
    b = symmetrize((zv * w) @ zv.T)
    szv = s.T @ zv
    b_s = symmetrize((szv * w) @ szv.T)
    state = initial_state(problem, schedule, eigh(a), szv)
    state.A, state.b_s = a, b_s
    state.dec_b = SpectralDecomposition(*np.linalg.eigh(b_s))

    upper, lower = _selection_scores(problem, state, schedule, *potentials(problem, state))

    mx = max(problem.N, problem.T)
    u_a = dense_upper_gradient(a, state.u, schedule.delta_u, problem.T)
    want_upper = np.einsum("ij,jm,im->m", u_a, problem.vectors, problem.vectors) + mx * problem.costs
    l_b = dense_lower_gradient(b, state.l, schedule.delta_l, s)
    want_lower = np.einsum("ij,jm,im->m", l_b, zv, zv)
    assert np.max(np.abs(upper - want_upper)) <= 1e-12 * np.max(np.abs(want_upper))
    if s.shape[1] == 0:
        assert not np.any(lower) and not np.any(want_lower)
    else:
        assert np.max(np.abs(lower - want_lower)) <= 1e-12 * np.max(np.abs(want_lower))


@pytest.mark.parametrize("seed,d", [(51, 5), (52, 12), (53, 30), (54, 60)])
@pytest.mark.parametrize("gap", [1e-2, 1.0])
def test_low_rank_scores_match_a_fresh_decomposition(seed, d, gap):
    # Between refreshes the upper scores come from the last full
    # decomposition of A plus a Woodbury term for the pending updates. They
    # must equal the scores of a fresh decomposition of the same A, with
    # u' = u + delta_u at `gap` above lambda_max(A): 1e-2 is the closest the
    # barrier allows for max(N,T) up to 400 (u' - lambda_max >= 4/max(N,T)).
    problem = make_engine_instance(seed, n=d, m=4 * d, k=1)
    state, schedule, _, _ = _start_state(problem)
    rng = np.random.default_rng(seed)
    for pending in range(engine.REFRESH_EVERY):
        if pending:
            i = int(rng.integers(problem.num_updates))
            v = problem.vectors[:, i]
            t = float(rng.uniform(0.05, 0.2)) / float(v @ v)
            state.A = symmetrize(state.A + t * np.outer(v, v))
            state.pending.append((i, t))
        assert len(state.pending) == pending
        fresh = eigh(state.A)
        state.a_vals = fresh.eigenvalues
        state.u = float(fresh.eigenvalues[-1]) + gap / 2
        at_gap = dataclasses.replace(schedule, delta_u=gap / 2)

        upper, lower = _selection_scores(problem, state, at_gap, *potentials(problem, state))

        reference = initial_state(problem, at_gap, fresh, state.szv)
        reference.u = state.u
        want_upper, want_lower = _selection_scores(problem, reference, at_gap, *potentials(problem, reference))
        assert np.max(np.abs(upper - want_upper)) <= 1e-12 * np.max(np.abs(want_upper))
        assert np.array_equal(lower, want_lower)


def test_infeasible_step_carries_the_potentials_of_the_failing_state(monkeypatch):
    problem = make_engine_instance(17, n=14, m=70, k=1)
    clean = run_engine(problem)
    real_scores = engine._selection_scores

    def no_feasible_candidate_at_step_three(problem, state, schedule, phi_u, phi_l):
        lhs, rhs = real_scores(problem, state, schedule, phi_u, phi_l)
        if state.q == 3:
            lhs = lhs + np.max(rhs - lhs) + 1.0
        return lhs, rhs

    monkeypatch.setattr(engine, "_selection_scores", no_feasible_candidate_at_step_three)
    with pytest.raises(InfeasibleStepError) as info:
        run_engine(problem)
    diag = info.value.diagnostics
    assert diag["q"] == 3
    assert diag["max_slack"] < 0
    # the state at step 3's selection is the state after step 2
    assert diag["upper_potential"] == pytest.approx(clean.trace[1].upper_potential, rel=1e-12)
    assert diag["lower_potential"] == pytest.approx(clean.trace[1].lower_potential, rel=1e-12)


# ---------------------------------------------------------------------------
# the full loop


def test_run_engine_identity_scaling_with_no_protected_directions():
    d = 4
    x = np.eye(d) / 2.0
    vectors = np.eye(d) / np.sqrt(2.0)
    p = EngineProblem(
        X=x, vectors=vectors, costs=np.full(d, 0.25), Mstar=np.eye(d), k=0, N=4
    )
    assert p.T == 2
    res = run_engine(p)
    assert res.lambda_max <= res.theta_max + 1e-9
    assert res.theta_max == pytest.approx(4.0)
    assert res.lambda_star == pytest.approx(0.5, abs=1e-12)
    assert res.lambda_min >= res.floor - 1e-12
    assert res.support <= 4
    assert res.total_cost <= res.cost_bound + 1e-9
    assert res.max_potential_increase <= 1e-9


def _slightly_asymmetric_problem():
    """d = 6: X and M* each pass check_symmetric, with 1e-13 asymmetries in
    different entries, while M* - X is only about 1e-5 in size, so their
    difference is far from symmetric relative to itself."""
    rng = np.random.default_rng(0)
    d, m = 6, 12
    x = symmetrize(random_psd(rng, d, lo=0.2, hi=0.8))
    v = rng.standard_normal((d, m)) * np.sqrt(1e-5 / m)
    mstar = x + v @ v.T
    x[0, 1] += 1e-13
    mstar[2, 3] += 1e-13
    return EngineProblem(X=x, vectors=v, costs=np.full(m, 1 / m), Mstar=mstar, k=1, N=9)


def test_run_engine_accepts_inputs_that_each_pass_the_symmetry_check():
    p = _slightly_asymmetric_problem()
    assert not np.array_equal(p.X, p.X.T) and not np.array_equal(p.Mstar, p.Mstar.T)
    assert 1e-6 < np.max(np.abs(p.Mstar - p.X)) < 1e-4
    res = run_engine(p)
    assert len(res.trace) == p.N
    assert res.floor - 1e-12 <= res.lambda_min <= res.lambda_max <= res.theta_max


@pytest.mark.parametrize(
    "build",
    [lambda: make_engine_instance(8, n=20, m=120, k=2), _slightly_asymmetric_problem],
    ids=["random", "asymmetric_inputs"],
)
def test_a_and_b_s_stay_exactly_symmetric_after_every_step(monkeypatch, build):
    # each step adds t v v^T in place, with no re-symmetrization
    checked = []
    real_select, real_certify = engine._select, engine._certify

    def check(state):
        checked.append(state.q)
        assert np.array_equal(state.A, state.A.T)
        assert np.array_equal(state.b_s, state.b_s.T)

    def select(problem, state, *args):
        if state.q > 1:  # the state after step q - 1
            check(state)
        return real_select(problem, state, *args)

    def certify(problem, state, *args):
        check(state)  # the state after the last step
        return real_certify(problem, state, *args)

    monkeypatch.setattr(engine, "_select", select)
    monkeypatch.setattr(engine, "_certify", certify)
    p = build()
    run_engine(p)
    assert checked == [*range(2, p.N + 1), p.N]


def test_each_step_evaluates_each_potential_once(monkeypatch):
    # Phi^u(A) and Phi_l(B) are evaluated, with their barrier checks, once
    # at the start and once after every update, and handed to the next
    # step's scoring, which adds only Phi^u'(A) at u' = u + delta_u
    calls = {"upper": 0, "lower": 0}
    real_upper, real_lower = engine._upper_phi, engine._lower_phi

    def upper(*args):
        calls["upper"] += 1
        return real_upper(*args)

    def lower(*args):
        calls["lower"] += 1
        return real_lower(*args)

    monkeypatch.setattr(engine, "_upper_phi", upper)
    monkeypatch.setattr(engine, "_lower_phi", lower)
    p = make_engine_instance(12, n=16, m=90, k=2)
    run_engine(p)
    assert calls == {"upper": 2 * p.N + 1, "lower": p.N + 1}


def test_protected_count_stops_at_the_start_of_a_tie():
    vals = np.array([0.1, 0.5, 0.5 + 1e-12, 0.5 + 2e-12, 0.9])
    assert [_protected_count(vals, k) for k in range(7)] == [0, 1, 1, 1, 4, 5, 5]
    assert _protected_count(np.full(3, 0.7), 2) == 0
    assert _protected_count(np.zeros(0), 3) == 0
    # ties are judged relative to lambda_max once it exceeds one
    assert _protected_count(np.array([1.0, 1.0 + 1e-7, 1e3]), 1) == 0
    assert _protected_count(np.array([1.0, 1.0 + 1e-7, 1.0 + 1e-6]), 1) == 1


def test_run_engine_protects_no_direction_of_a_tied_cluster():
    # X = I/2 ties all of its eigenvalues, so no k-dimensional bottom
    # eigenspace exists: k = 1 protects nothing and picks what k = 0 picks
    d = 4
    x, vectors, costs = np.eye(d) / 2.0, np.eye(d) / np.sqrt(2.0), np.full(d, 0.25)
    tied = run_engine(EngineProblem(X=x, vectors=vectors, costs=costs, Mstar=np.eye(d), k=1, N=9))
    free = run_engine(EngineProblem(X=x, vectors=vectors, costs=costs, Mstar=np.eye(d), k=0, N=9))
    assert np.array_equal(tied.weights, free.weights)
    assert tied.lambda_min_b_restricted == np.inf
    assert tied.lambda_star == pytest.approx(0.5, abs=1e-12)


def test_run_engine_is_deterministic():
    p = make_engine_instance(8, n=20, m=120, k=2)
    r1 = run_engine(p)
    r2 = run_engine(p)
    assert np.array_equal(r1.weights, r2.weights)
    assert r1.lambda_min == r2.lambda_min
    assert r1.lambda_max == r2.lambda_max


def test_run_engine_takes_exactly_budget_many_steps_with_positive_steps():
    p = make_engine_instance(12, n=16, m=90, k=1)
    res = run_engine(p)
    assert len(res.trace) == p.N
    assert all(rec.t > 0 for rec in res.trace)
    assert all(rec.q == i + 1 for i, rec in enumerate(res.trace))
    # barriers advance linearly
    sch = res.schedule
    assert res.trace[-1].l == pytest.approx(sch.l0 + p.N * sch.delta_l, rel=1e-12)
    assert res.trace[-1].u == pytest.approx(sch.u0 + p.N * sch.delta_u, rel=1e-12)


def test_run_engine_certificate_matches_independent_eigensolves():
    p = make_engine_instance(15, n=18, m=100, k=2)
    res = run_engine(p)
    m_rebuilt = p.X + (p.vectors * res.weights) @ p.vectors.T
    vals = np.linalg.eigvalsh(symmetrize(m_rebuilt))
    assert vals[0] == pytest.approx(res.lambda_min, rel=1e-9, abs=1e-12)
    assert vals[-1] == pytest.approx(res.lambda_max, rel=1e-9, abs=1e-12)
    assert res.support == int(np.count_nonzero(res.weights))
    assert res.support <= p.N
    assert res.total_cost == pytest.approx(float(res.weights @ p.costs), rel=1e-12)
    x_vals = np.linalg.eigvalsh(p.X)
    mstar_vals = np.linalg.eigvalsh(p.Mstar)
    floor = min(p.N / p.T, 1.0) * x_vals[p.k] * mstar_vals[0] / 72.0
    assert res.lambda_min >= floor - 1e-12


def test_problem_validation_rejects_mismatched_mass():
    rng = np.random.default_rng(2)
    x = random_psd(rng, 4, lo=0.1, hi=0.4)
    v = rng.standard_normal((4, 6)) / 6.0
    with pytest.raises(PreconditionError):
        EngineProblem(
            X=x, vectors=v, costs=np.full(6, 1 / 6), Mstar=np.eye(4), k=1, N=9
        ).validate()


def test_problem_validation_rejects_bad_costs_and_budget():
    d = 4
    x = np.eye(d) / 2.0
    v = np.eye(d) / np.sqrt(2.0)
    mstar = np.eye(d)
    bad = EngineProblem(X=x, vectors=v, costs=np.full(d, 0.5), Mstar=mstar, k=0, N=4)
    with pytest.raises(PreconditionError):
        bad.validate()
    with pytest.raises(BudgetTooSmallError):
        run_engine(
            EngineProblem(X=x, vectors=v, costs=np.full(d, 0.25), Mstar=mstar, k=1, N=8)
        )


@pytest.mark.parametrize("k,n_budget", [(0.5, 9), (True, 9), (np.float64(1.0), 9), (0, 4.5), (0, np.float64(9.0)), (0, True)])
def test_problem_validation_rejects_a_k_or_budget_that_is_not_an_integer(k, n_budget):
    # numpy integers are integers; bools and integral floats are not, and
    # neither reaches an index or a step count as one
    problem = make_engine_instance(61, n=6, m=30, k=1)
    fields = dict(X=problem.X, vectors=problem.vectors, costs=problem.costs, Mstar=problem.Mstar)
    with pytest.raises(PreconditionError, match="integer"):
        run_engine(EngineProblem(**fields, k=k, N=n_budget))
    result = run_engine(EngineProblem(**fields, k=np.int64(1), N=np.int32(9)))
    assert result.weights.shape == (30,)


# Reference picks recorded with the dense formulation of the loop (d x d B,
# ambient gradients, einsum scores, fresh eigensolves for every potential):
# (make_engine_instance arguments (seed, n, m, k, n_budget), the index
# picked at every step, the final nonzero weights). The eigenbasis scoring
# must reproduce them: same indices, weights within 1e-12 relative.
PINNED_PICKS = [
    ((0, 20, 80, 0, 12), [28, 65, 16, 43, 4, 28, 60, 18, 39, 64, 65, 28], {
        4: 12.25303843704281,
        16: 11.486961698291902,
        18: 11.403186073661852,
        28: 37.15158086145482,
        39: 11.54630603897882,
        43: 11.895329397820015,
        60: 11.151556177660911,
        64: 11.779774013045945,
        65: 24.52264436621513,
    }),
    ((1, 20, 80, 1, None), [62, 62, 62, 62, 62, 62, 62, 48, 62], {
        48: 0.7750074484426801,
        62: 7.5690132261454925,
    }),
    ((2, 24, 120, 2, None), [117, 2, 2, 117, 103, 117, 2, 117, 103, 117, 2, 2, 117, 103, 117, 2, 117], {
        2: 5.538470866832401,
        103: 3.136137188178317,
        117: 6.521161757874942,
    }),
    ((3, 30, 200, 3, None), [114, 49, 75, 173, 114, 75, 49, 75, 49, 114, 160, 49, 75, 114, 173, 49, 75, 114, 75, 49, 114, 160, 49, 75, 114], {
        49: 8.969006593209457,
        75: 7.990804189934373,
        114: 8.169589091803157,
        160: 2.682273358984806,
        173: 2.7016977404114866,
    }),
    ((4, 16, 60, 1, 20), [12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12], {
        12: 4.050590995414653,
    }),
    ((5, 5, 40, 6, None), [39, 15, 34, 11, 35, 15, 9, 32, 39, 36, 11, 9, 14, 15, 36, 32, 9, 36, 32, 15, 9, 11, 39, 35, 34, 29, 32, 36, 9, 15, 32, 36, 9, 39, 11, 35, 15, 9, 32, 36, 39, 9, 37, 11, 15, 34, 36, 32, 9], {
        9: 2.3380624840054027,
        11: 1.8823139515749965,
        14: 0.28441991946597345,
        15: 2.0769636843818065,
        29: 0.4332075870517988,
        32: 1.9816731147868227,
        34: 0.7939722050082285,
        35: 1.1163891465464972,
        36: 2.0989929490417008,
        37: 0.29218956849457006,
        39: 1.140940869269081,
    }),
    ((6, 30, 150, 2, 30), [94, 133, 44, 133, 44, 94, 133, 6, 133, 44, 94, 133, 6, 133, 94, 6, 133, 44, 94, 97, 133, 44, 133, 94, 6, 133, 44, 133, 94, 6], {
        6: 3.0448592986838428,
        44: 3.9510043779634545,
        94: 5.082429969810013,
        97: 0.5836223347041097,
        133: 7.61081993085666,
    }),
    # d = 72: a larger instance, with steps that revisit the same candidates
    ((7, 72, 300, 2, None), [121, 103, 136, 121, 103, 121, 103, 121, 103, 121, 136, 121, 103, 103, 121, 136, 121], {
        103: 8.957140229109518,
        121: 11.585749951501368,
        136: 4.200480695452057,
    }),
]


@pytest.mark.parametrize("case,sequence,weights", PINNED_PICKS)
def test_run_engine_reproduces_pinned_picks(case, sequence, weights):
    seed, n, m, k, n_budget = case
    res = run_engine(make_engine_instance(seed, n=n, m=m, k=k, n_budget=n_budget))
    assert [rec.index for rec in res.trace] == sequence
    assert res.support_indices.tolist() == sorted(weights)
    for i, w in weights.items():
        assert abs(res.weights[i] - w) <= 1e-12 * max(1.0, abs(w))


def test_trace_reports_barrier_distances_and_feasible_counts():
    for k in (0, 2):
        p = make_engine_instance(19, n=16, m=80, k=k, n_budget=12 if k == 0 else None)
        res = run_engine(p)
        for rec in res.trace:
            assert rec.upper_gap > 0
            assert rec.lower_gap > 0
            assert 1 <= rec.feasible_candidates <= p.num_updates
        last = res.trace[-1]
        assert last.upper_gap == pytest.approx(last.u - res.lambda_max, rel=1e-12)
        if k:
            assert last.lower_gap == pytest.approx(res.lambda_min_b_restricted - last.l, rel=1e-12)
        else:
            assert last.lower_gap == float("inf")

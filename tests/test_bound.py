"""Objective, gradient, and Newton maximizer tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdperm import bound
from psdperm import (
    GAMMA,
    GramFactor,
    NotHermitianError,
    NotPositiveDefiniteError,
    PDPoint,
    SolverOptions,
    ZeroRowError,
    apply_unitary,
    bound_permanent,
    gen_instance,
    gradient,
    gram_factor,
    objective,
    permanent_ryser,
    random_unitary,
    solve,
)
from helpers import newton_from_identity, random_factor, random_hermitian, random_pd


def factor_of(matrix):
    rows = np.asarray(matrix, dtype=complex)
    return GramFactor(
        matrix=rows,
        row_norms_sq=np.sum(np.abs(rows) ** 2, axis=1),
    )


# ---------------------------------------------------------------- objective


def test_objective_scalar_identity():
    assert objective(factor_of([[1.0]]), np.eye(1)) == pytest.approx(0.0, abs=1e-15)


def test_objective_identity_pair():
    val = objective(factor_of(np.eye(2)), 2.0 * np.eye(2))
    assert val == pytest.approx(4 * math.log(2) - 2, abs=1e-14)


def test_objective_ones_column():
    val = objective(factor_of([[1.0], [1.0]]), np.array([[3.0]]))
    assert val == pytest.approx(3 * math.log(3) - 2, abs=1e-14)


def test_objective_accepts_pdpoint():
    factor = random_factor(5, 3, seed=0)
    X = random_pd(3, seed=1)
    assert objective(factor, X) == objective(factor, PDPoint.from_matrix(X))


def test_pdpoint_rebuilds_matrix_and_factor_exactly():
    X = random_pd(4, seed=2)
    point = PDPoint.from_matrix(X)
    Xh = (X + X.conj().T) / 2.0
    assert point.d == 4
    assert point.matrix.tobytes() == Xh.tobytes()
    assert point.chol.tobytes() == np.linalg.cholesky(Xh).tobytes()
    assert point.packed.size == 16


def test_objective_underflow_sentinel():
    # v^H X v = 1e-400 underflows to exactly 0 -> -inf, not an exception
    val = objective(factor_of([[1e-100]]), np.array([[1e-200]]))
    assert val == float("-inf")


def test_objective_rejects_non_pd():
    factor = factor_of([[1.0]])
    with pytest.raises(NotPositiveDefiniteError):
        objective(factor, np.array([[-1.0]]))
    with pytest.raises(NotHermitianError):
        objective(factor, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_objective_zero_row_raises():
    bad = factor_of([[1.0], [0.0]])
    with pytest.raises(ZeroRowError):
        objective(bad, np.eye(1))
    with pytest.raises(ZeroRowError):
        gradient(bad, np.eye(1))
    with pytest.raises(ZeroRowError):
        solve(bad)


# ----------------------------------------------------------------- gradient


def test_gradient_identity_at_identity():
    G = gradient(factor_of(np.eye(2)), np.eye(2))
    np.testing.assert_allclose(G, np.eye(2), atol=1e-14)


def test_gradient_vanishes_at_optimum():
    G = gradient(factor_of(np.eye(2)), 2.0 * np.eye(2))
    np.testing.assert_allclose(G, np.zeros((2, 2)), atol=1e-14)
    G1 = gradient(factor_of([[1.0]]), np.array([[2.0]]))
    np.testing.assert_allclose(G1, [[0.0]], atol=1e-14)


def test_gradient_is_hermitian():
    factor = random_factor(6, 4, seed=3)
    G = gradient(factor, random_pd(4, seed=4))
    np.testing.assert_array_equal(G, G.conj().T)


@pytest.mark.parametrize("seed", range(10))
def test_gradient_matches_finite_differences(seed):
    n = 3 + seed % 5
    d = 1 + seed % n
    factor = random_factor(n, d, seed=seed)
    X = random_pd(d, seed=seed, jitter=0.5)
    G = gradient(factor, X)
    h = 1e-6
    for k in range(5):
        H = random_hermitian(d, seed=100 * seed + k)
        H = H / np.linalg.norm(H)
        analytic = float(np.real(np.trace(G @ H)))
        fd = (objective(factor, X + h * H) - objective(factor, X - h * H)) / (2 * h)
        assert abs(fd - analytic) <= 1e-6 * max(1.0, abs(analytic))


# -------------------------------------------------------------------- solve


def test_solve_identity_closed_form():
    for n in range(1, 7):
        res = solve(gram_factor(gen_instance(n, n, ensemble="identity")))
        assert res.converged
        assert res.phi == pytest.approx(n * (2 * math.log(2) - 1), abs=1e-10)
        np.testing.assert_allclose(res.x_star.matrix, 2.0 * np.eye(n), atol=1e-8)


def test_solve_all_ones_closed_form():
    for n in range(1, 7):
        res = solve(gram_factor(gen_instance(n, 1, ensemble="all-ones")))
        assert res.converged
        assert res.phi == pytest.approx((n + 1) * math.log(n + 1) - n, abs=1e-10)
        np.testing.assert_allclose(res.x_star.matrix, [[n + 1.0]], atol=1e-8)


@pytest.mark.parametrize("seed", range(15))
def test_solve_random_instances(seed):
    n = 2 + seed % 10
    d = 1 + (3 * seed) % n
    res = solve(random_factor(n, d, seed=seed))
    assert res.converged and res.status == "converged"
    assert res.grad_norm <= 1e-9
    # first-order optimality forces tr X* = n + d
    assert res.trace_residual <= 1e-6 * (n + d)
    assert res.log_lower == pytest.approx(res.phi - GAMMA * n)
    assert res.log_upper - res.phi == res.duality_gap


def test_solve_history_is_monotone():
    res = solve(random_factor(9, 5, seed=42))
    diffs = np.diff(res.objective_history)
    assert np.all(diffs >= -1e-12)
    assert res.objective_history[-1] == res.phi


def test_solve_identity_init_agrees():
    factor = random_factor(7, 3, seed=8)
    a = solve(factor)
    b, _, status, _ = newton_from_identity(factor)
    assert a.converged and status == "converged"
    assert a.phi == pytest.approx(b.phi, abs=1e-9)


def test_solve_iteration_budget():
    factor = random_factor(10, 6, seed=17)
    res = solve(factor, SolverOptions(max_iters=1))
    assert not res.converged
    assert res.status == "max_iters"
    assert res.iterations == 1
    # the best iterate is still returned with a usable objective
    assert np.isfinite(res.phi)
    full = solve(factor)
    assert full.phi >= res.phi - 1e-12


def _run_oracle(oracle_cls, factor):
    V = factor.matrix
    n, d = V.shape
    oracle = oracle_cls(V)
    X0 = ((n + d) / d) * np.eye(d, dtype=complex)
    return bound._newton(oracle, oracle.start(X0), SolverOptions())


@pytest.mark.parametrize("n, d", [(3, 2), (8, 3), (9, 3), (12, 3), (15, 4), (16, 4), (30, 4)])
def test_primal_and_dual_oracles_agree(n, d):
    # both sides of n = d^2, through the one driver, on the same factor
    factor = random_factor(n, d, seed=n + d)
    phis = {}
    for oracle_cls in (bound._PrimalOracle, bound._DualOracle):
        best, _, status, _ = _run_oracle(oracle_cls, factor)
        assert status == "converged" and best.grad_norm <= 1e-9
        phis[oracle_cls] = best.phi
    assert abs(phis[bound._PrimalOracle] - phis[bound._DualOracle]) <= 1e-10
    # solve picks the dual exactly when n < d^2, and reports the norm of
    # the public gradient at x_star
    res = solve(factor)
    chosen = bound._DualOracle if n < d * d else bound._PrimalOracle
    assert res.phi == phis[chosen]
    assert float(np.linalg.norm(gradient(factor, res.x_star))) == res.grad_norm


def test_bound_permanent_identity_beyond_primal_reach():
    # n = d = 64: the primal Hessian would have 4096^2 entries
    res = bound_permanent(gen_instance(64, 64, ensemble="identity").matrix)
    assert res.converged
    assert res.phi == pytest.approx(64 * (2 * math.log(2) - 1), abs=1e-8)
    assert res.trace_residual <= 1e-6


GAP_SHAPES = [
    (16, 8, 5), (9, 5, 1), (7, 3, 2), (12, 3, 0), (30, 5, 2), (40, 6, 0), (100, 8, 1), (22, 5, 3),
]


def assert_gap_bounds(res):
    assert res.duality_gap >= 0.0
    assert res.log_upper - res.phi == res.duality_gap
    if res.converged:
        assert res.duality_gap <= 1e-9
    if res.n < res.d * res.d:
        # the dual iterate is always dual feasible
        assert np.isfinite(res.duality_gap)


@pytest.mark.parametrize("n, d, seed", GAP_SHAPES)
@pytest.mark.parametrize("max_iters", [1, 2, 3, 5, 500])
def test_duality_gap_bounds(n, d, seed, max_iters):
    assert_gap_bounds(solve(random_factor(n, d, seed=seed), SolverOptions(max_iters=max_iters)))


@pytest.mark.parametrize("max_iters", [1, 2, 3, 5, 500])
def test_duality_gap_bounds_all_ones(max_iters):
    # all-ones n = 23 converges with its dual value a few ulps under phi
    factor = gram_factor(gen_instance(23, 1, ensemble="all-ones"))
    assert_gap_bounds(solve(factor, SolverOptions(max_iters=max_iters)))


@pytest.mark.parametrize("n, d, seed", GAP_SHAPES)
def test_dual_value_bounds_phi_after_early_stop(n, d, seed):
    factor = random_factor(n, d, seed=seed)
    full = solve(factor)
    for max_iters in (1, 2, 3, 5):
        res = solve(factor, SolverOptions(max_iters=max_iters))
        assert res.log_upper >= full.phi - 1e-12


@pytest.mark.parametrize(
    "kwargs",
    [
        {"grad_tol": 0.0},
        {"grad_tol": -1e-9},
        {"grad_tol": -0.0},
        {"grad_tol": -math.inf},
        {"grad_tol": 0.0, "max_iters": 0},
        {"max_iters": -1},
        {"max_iters": 0},
    ],
)
def test_solver_options_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SolverOptions(**kwargs)


@pytest.mark.parametrize("grad_tol", [math.nan, math.inf])
def test_solver_options_rejects_non_finite_grad_tol(grad_tol):
    # grad_tol = inf would label the untouched starting point converged
    with pytest.raises(ValueError):
        SolverOptions(grad_tol=grad_tol)


def test_solver_is_deterministic():
    factor = random_factor(8, 4, seed=23)
    a = solve(factor)
    b = solve(factor)
    assert a.phi == b.phi
    assert a.x_star.matrix.tobytes() == b.x_star.matrix.tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_concavity_midpoint(seed):
    n = 4 + seed
    d = 2 + seed % 3
    factor = random_factor(n, d, seed=seed)
    for k in range(20):
        X = random_pd(d, seed=1000 * seed + k)
        Y = random_pd(d, seed=2000 * seed + k)
        mid = objective(factor, (X + Y) / 2.0)
        avg = 0.5 * (objective(factor, X) + objective(factor, Y))
        assert mid >= avg - 1e-9


def test_unitary_invariance_small():
    for seed in range(3):
        factor = random_factor(6, 3, seed=seed)
        phi = solve(factor).phi
        for u_seed in range(3):
            rotated = solve(apply_unitary(factor, random_unitary(3, seed=u_seed)))
            assert abs(rotated.phi - phi) <= 1e-7


# --------------------------------------------------------------- invariance


@st.composite
def instances(draw):
    """A gaussian-gram instance with n <= 10, drawn as (n, d, seed)."""
    n = draw(st.integers(1, 10))
    d = draw(st.integers(1, n))
    return gen_instance(n, d, seed=draw(st.integers(0, 2**32 - 1))).matrix


@settings(max_examples=25, deadline=None)
@given(data=st.data(), A=instances())
def test_row_scaling_shifts_phi_and_scales_per(data, A):
    # q_i scales by |d_i|^2 and nothing else moves, so Phi shifts by
    # sum log|d_i|^2; per(D A D^H) = prod |d_i|^2 per(A) for any A
    n = A.shape[0]
    mags = np.array(data.draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))
    phases = np.array(data.draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=n, max_size=n)))
    D = mags * np.exp(1j * phases)
    scaled = D[:, None] * A * D.conj()[None, :]
    base, moved = bound_permanent(A), bound_permanent(scaled)
    assert base.converged and moved.converged
    assert abs(moved.phi - (base.phi + float(np.sum(np.log(mags**2))))) <= 1e-8
    per, per_scaled = permanent_ryser(A).value, permanent_ryser(scaled).value
    want = float(np.prod(mags**2)) * per
    assert abs(per_scaled - want) <= 1e-10 * abs(want)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), A=instances())
def test_permutation_leaves_phi_unchanged(data, A):
    perm = data.draw(st.permutations(range(A.shape[0])))
    base, moved = bound_permanent(A), bound_permanent(A[np.ix_(perm, perm)])
    assert base.converged and moved.converged
    assert abs(moved.phi - base.phi) <= 1e-8


# ----------------------------------------------------------------- pipeline


def test_bound_permanent_pipeline():
    psd = gen_instance(7, 4, seed=13)
    res = bound_permanent(psd.matrix)
    direct = solve(gram_factor(psd))
    assert res.converged
    assert res.phi == pytest.approx(direct.phi, abs=1e-12)
    assert res.n == 7 and res.d == 4


def test_bound_permanent_zero_diagonal_sentinel():
    res = bound_permanent([[1.0, 0.0], [0.0, 0.0]])
    assert res.status == "zero_diagonal"
    assert res.converged
    assert res.phi == float("-inf")
    assert res.log_lower == float("-inf")
    assert res.log_upper == float("-inf")
    assert res.x_star is None
    assert res.iterations == 0
    assert res.duality_gap == 0.0

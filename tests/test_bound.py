"""Objective, gradient, and Newton maximizer tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdperm import bound
from psdperm import (
    GAMMA,
    NonFiniteError,
    NotHermitianError,
    NotPositiveDefiniteError,
    NotSquareError,
    PDPoint,
    SolverOptions,
    ZeroRowError,
    bound_permanent,
    estimate_permanent,
    gen_instance,
    gradient,
    gram_factor,
    objective,
    permanent_ryser,
    solve,
)
from psdperm.gram import unit_rows
from helpers import (
    apply_unitary,
    newton_from_identity,
    random_factor,
    random_hermitian,
    random_pd,
    random_unitary,
)


# ---------------------------------------------------------------- objective


def test_objective_scalar_identity():
    assert objective([[1.0]], np.eye(1)) == pytest.approx(0.0, abs=1e-15)


def test_objective_identity_pair():
    val = objective(np.eye(2), 2.0 * np.eye(2))
    assert val == pytest.approx(4 * math.log(2) - 2, abs=1e-14)


def test_objective_ones_column():
    val = objective([[1.0], [1.0]], np.array([[3.0]]))
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
    assert point.packed.size == 16


def test_objective_underflow_sentinel():
    # objective works on the unit row and adds log|v|^2 back, so the
    # v^H X v = 1e-400 that underflows on the raw row does no harm
    val = objective([[1e-100]], np.array([[1e-200]]))
    assert val == pytest.approx(3 * math.log(1e-200) + 1.0, rel=1e-14)
    # on the raw row q underflows to exactly 0: phi = -inf and a NaN
    # gradient, with no division by zero
    X = np.array([[1e-200 + 0j]])
    q, _, G, phi = bound._evaluate(np.array([[1e-100 + 0j]]), X, np.linalg.cholesky(X))
    assert q[0] == 0.0 and phi == float("-inf") and np.isnan(G).all()


def test_objective_rejects_non_pd():
    factor = [[1.0]]
    with pytest.raises(NotPositiveDefiniteError):
        objective(factor, np.array([[-1.0]]))
    with pytest.raises(NotHermitianError):
        objective(factor, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_objective_zero_row_raises():
    bad = [[1.0], [0.0]]
    with pytest.raises(ZeroRowError):
        objective(bad, np.eye(1))
    with pytest.raises(ZeroRowError):
        gradient(bad, np.eye(1))
    # solve turns the zero row into the exact answer per(A) = 0
    res = solve(bad)
    assert res.status == "zero_diagonal" and res.converged
    assert res.phi == res.log_lower == res.log_upper == float("-inf")
    assert (res.n, res.d) == (2, 1)


ENTRY_POINTS = {
    "solve": solve,
    "estimate_permanent": lambda V: estimate_permanent(V, 100, seed=0),
    "objective": lambda V: objective(V, np.eye(1)),
    "gradient": lambda V: gradient(V, np.eye(1)),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("V, error", [
    pytest.param([[np.nan]], NonFiniteError, id="nan"),
    pytest.param([[np.inf, 1.0]], NonFiniteError, id="inf"),
    pytest.param([1.0, 2.0], NotSquareError, id="1-d"),
])
def test_bad_factor_raises_at_every_entry_point(entry, V, error):
    with pytest.raises(error):
        ENTRY_POINTS[entry](V)


@pytest.mark.parametrize("entry", [objective, gradient])
@pytest.mark.parametrize("size", [2, 4])
@pytest.mark.parametrize("wrap", [np.asarray, PDPoint.from_matrix], ids=["raw", "pdpoint"])
def test_point_of_the_wrong_size_raises(entry, size, wrap):
    # a (6, 3) factor needs a 3 x 3 point; the error names both shapes
    factor = random_factor(6, 3, seed=0)
    with pytest.raises(NotSquareError, match=rf"\({size}, {size}\).*\(6, 3\)"):
        entry(factor, wrap(np.eye(size)))


# ----------------------------------------------------------------- gradient


def test_gradient_identity_at_identity():
    G = gradient(np.eye(2), np.eye(2))
    np.testing.assert_allclose(G, np.eye(2), atol=1e-14)


def test_gradient_vanishes_at_optimum():
    G = gradient(np.eye(2), 2.0 * np.eye(2))
    np.testing.assert_allclose(G, np.zeros((2, 2)), atol=1e-14)
    G1 = gradient([[1.0]], np.array([[2.0]]))
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


def test_solve_identity_init_agrees():
    factor = random_factor(7, 3, seed=8)
    a = solve(factor)
    b, _, status = newton_from_identity(factor)
    assert a.converged and status == "converged"
    assert a.phi == pytest.approx(b.phi + unit_rows(factor)[1], abs=1e-9)


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


def _start(factor, dual=None):
    # solve's problem and start point on the unit rows, or the one `dual` forces
    V = unit_rows(factor)[0]
    n, d = V.shape
    return bound._newton_problem(V, ((n + d) / d) * np.eye(d, dtype=complex), dual)


def _run_oracle(oracle_cls, factor):
    oracle, z0 = _start(factor, dual=oracle_cls is bound._DualOracle)
    assert type(oracle) is oracle_cls
    return bound._newton(oracle, z0, SolverOptions())


@pytest.mark.parametrize("n, d", [(3, 2), (8, 3), (9, 3), (12, 3), (15, 4), (16, 4), (30, 4)])
def test_primal_and_dual_oracles_agree(n, d):
    # both sides of n = d^2, through the one driver, on the same factor
    factor = random_factor(n, d, seed=n + d)
    phis = {}
    for oracle_cls in (bound._PrimalOracle, bound._DualOracle):
        best, _, status = _run_oracle(oracle_cls, factor)
        assert status == "converged" and best.grad_norm <= 1e-9
        phis[oracle_cls] = best.phi
    assert abs(phis[bound._PrimalOracle] - phis[bound._DualOracle]) <= 1e-10
    # solve picks the dual exactly when n < d^2, and reports the norm of
    # the public gradient at x_star
    res = solve(factor)
    chosen = bound._DualOracle if n < d * d else bound._PrimalOracle
    assert type(_start(factor)[0]) is chosen
    assert res.phi == unit_rows(factor)[1] + phis[chosen]
    assert float(np.linalg.norm(gradient(factor, res.x_star))) == res.grad_norm


def hard_factor(kind, n, d, seed):
    """A complex gaussian n x d factor made ill-conditioned in one of three ways."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 55], dtype=np.uint64)))
    g = gen.standard_normal((n, d, 2))
    V = (g[..., 0] + 1j * g[..., 1]) / np.sqrt(2.0)
    if kind == "scaled-columns":
        V = V * np.logspace(0.0, -3.0, d)
    elif kind == "near-duplicate-rows":
        V[1::2] = V[0::2] + 1e-6 * V[1::2]
    elif kind == "half-near-axis":
        V[: n // 2] *= 1e-3
        V[: n // 2, 0] = 1.0
    return V


@pytest.mark.parametrize("kind", ["scaled-columns", "near-duplicate-rows", "half-near-axis"])
@pytest.mark.parametrize("n, d", [(60, 8), (100, 8)])
def test_primal_and_dual_oracles_agree_on_hard_factors(kind, n, d):
    factor = hard_factor(kind, n, d, seed=n)
    phis = []
    for oracle_cls in (bound._PrimalOracle, bound._DualOracle):
        best, _, status = _run_oracle(oracle_cls, factor)
        assert status == "converged"
        phis.append(best.phi)
    assert abs(phis[0] - phis[1]) <= 1e-10


def _primal_iterate(factor, X):
    oracle = bound._PrimalOracle(unit_rows(factor)[0])
    return oracle, oracle.evaluate(X)


@pytest.mark.parametrize("d", [1, 3, 6])
def test_primal_hessian_product_is_minus_gradient_difference(d):
    factor = random_factor(2 * d + 3, d, seed=d)
    X = PDPoint.from_matrix(random_pd(d, seed=d)).matrix
    D = random_hermitian(d, seed=d)
    oracle, it = _primal_iterate(factor, X)
    eps = 1e-5
    want = -(gradient(factor, X + eps * D) - gradient(factor, X - eps * D)) / (2 * eps)
    got = oracle.apply_hessian(it, D)
    assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(got)


@pytest.mark.parametrize("d", [1, 3, 6])
def test_primal_direction_meets_forcing_tolerance_and_descends(d):
    factor = random_factor(2 * d + 3, d, seed=d)
    X = PDPoint.from_matrix(random_pd(d, seed=d + 50)).matrix
    oracle, it = _primal_iterate(factor, X)
    G = gradient(factor, X)
    np.testing.assert_array_equal(it.grad, -G)
    D = oracle.direction(it)
    g = float(np.linalg.norm(G))
    residual = float(np.linalg.norm(oracle.apply_hessian(it, D) - G))
    assert residual <= min(0.5, g) * g + 1e-12 * g
    assert np.vdot(it.grad, D).real < 0.0


def test_bound_permanent_identity_beyond_primal_reach():
    # n = d = 64 < d^2 runs the dual, whose Newton system is 64 x 64; a
    # primal Hessian in d^2 real coordinates would have 4096^2 entries,
    # while the primal's CG works on 64 x 64 matrices
    res = bound_permanent(gen_instance(64, 64, ensemble="identity").matrix)
    assert res.converged
    assert res.phi == pytest.approx(64 * (2 * math.log(2) - 1), abs=1e-8)
    assert res.trace_residual <= 1e-6


def test_bound_permanent_all_ones_blocks_on_the_primal_path():
    # A = J_20 (+) J_21 (+) ... (+) J_49: d = 30 and n = 1035 >= d^2, so
    # the primal runs; Phi adds (m + 1) log(m + 1) - m over the blocks
    sizes = np.arange(20, 50)
    V = np.repeat(np.eye(sizes.size), sizes, axis=0)
    res = bound_permanent(V @ V.T)
    assert res.converged and (res.n, res.d) == (1035, 30)
    want = sum((m + 1) * math.log(m + 1) - m for m in sizes.tolist())
    assert abs(res.phi - want) <= 1e-8
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
        {"max_iters": 1.5},
        {"max_iters": True},
        {"max_iters": 2.0},
        {"max_iters": "5"},
        {"max_iters": np.float64(3.0)},
        {"max_iters": -1},
        {"max_iters": 0},
    ],
)
def test_solver_options_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SolverOptions(**kwargs)


@pytest.mark.parametrize("max_iters", [math.nan, math.inf])
def test_solver_options_rejects_non_finite_max_iters(max_iters):
    with pytest.raises(ValueError):
        SolverOptions(max_iters=max_iters)


def test_solver_options_accepts_numpy_integers():
    res = solve(random_factor(6, 3, seed=4), SolverOptions(max_iters=np.int64(1)))
    assert res.iterations == 1


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
    exps = data.draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n))
    mags = 10.0 ** np.array(exps)
    phases = np.array(data.draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=n, max_size=n)))
    D = mags * np.exp(1j * phases)
    scaled = D[:, None] * A * D.conj()[None, :]
    base, moved = bound_permanent(A), bound_permanent(scaled)
    assert base.converged and moved.converged
    assert abs(moved.phi - (base.phi + float(np.sum(np.log(mags**2))))) <= 1e-8
    per, per_scaled = permanent_ryser(A).log_abs, permanent_ryser(scaled).log_abs
    want = per + float(np.sum(np.log(mags**2)))
    assert abs(per_scaled - want) <= 1e-10 * max(1.0, abs(want))


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


@pytest.mark.parametrize("t", [1e-323, 2e-323])
def test_bound_permanent_at_the_bottom_of_the_float_range(t):
    # the last diagonal entry t is subnormal and its Gram row ~1e-162: on
    # the raw rows 1/q_i overflows; on the unit rows the bracket holds
    c = math.sqrt(t) / math.sqrt(2.0)
    A = np.array([[1.0, 0.0, c], [0.0, 1.0, c], [c, c, t]])
    res = bound_permanent(A)
    assert res.converged
    log_per = permanent_ryser(A).log_abs
    assert math.isfinite(res.log_lower) and math.isfinite(res.log_upper)
    assert res.log_lower <= log_per <= res.log_upper


@pytest.mark.parametrize("matrix, d", [
    pytest.param([[1.0, 0.0], [0.0, 0.0]], 1, id="zero-row"),
    pytest.param(np.zeros((3, 3)), 0, id="zero-matrix"),
])
def test_bound_permanent_zero_diagonal_sentinel(matrix, d):
    res = bound_permanent(matrix)
    assert res.status == "zero_diagonal"
    assert res.n == len(matrix) and res.d == d
    assert res.converged
    assert res.phi == float("-inf")
    assert res.log_lower == float("-inf")
    assert res.log_upper == float("-inf")
    assert res.x_star is None
    assert res.iterations == 0
    assert res.duality_gap == 0.0

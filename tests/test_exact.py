"""Exact oracle tests: naive expansion vs Ryser, plus structural identities."""

import math

import numpy as np
import pytest

from psdperm import (
    NAIVE_LIMIT,
    RYSER_LIMIT,
    NonFiniteError,
    NotSquareError,
    TooLargeError,
    gen_instance,
    permanent_naive,
    permanent_ryser,
)

ORACLES = [permanent_naive, permanent_ryser]


def rand_complex(n, seed):
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 5], dtype=np.uint64)))
    return gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))


@pytest.mark.parametrize("per", ORACLES)
def test_two_by_two(per):
    # per([[1,2],[3,4]]) = 1*4 + 2*3 = 10
    assert per([[1.0, 2.0], [3.0, 4.0]]).value == 10.0 + 0.0j


@pytest.mark.parametrize("per", ORACLES)
def test_identity(per):
    assert per(np.eye(3)).value == 1.0 + 0.0j


@pytest.mark.parametrize("per", ORACLES)
def test_ones_is_factorial(per):
    # exact integers: no roundoff for the all-ones matrix at these sizes
    for n in range(1, 9):
        assert per(np.ones((n, n))).value == complex(math.factorial(n))


@pytest.mark.parametrize("n", range(9, RYSER_LIMIT + 1))
def test_ryser_ones_is_factorial_past_block(n):
    # n - 1 > BLOCK_BITS = 11 from n = 13 on: the blocked outer loop runs
    expected = math.factorial(n)
    assert abs(permanent_ryser(np.ones((n, n))).value - expected) <= 1e-11 * expected


@pytest.mark.parametrize("per", ORACLES)
def test_zero_row_gives_exact_zero(per):
    M = np.ones((4, 4), dtype=complex)
    M[2, :] = 0.0
    cases = [M]
    # a Hermitian input whose last row and column vanish; Ryser reads column n - 1
    for n in (5, 22):
        if per is permanent_ryser or n <= NAIVE_LIMIT:
            A = gen_instance(n, 4, seed=n).matrix.copy()
            A[-1, :] = A[:, -1] = 0.0
            cases.append(A)
    for A in cases:
        assert per(A).value == 0.0 + 0.0j
        assert per(A).log_abs == float("-inf")


@pytest.mark.parametrize("seed", range(30))
def test_oracles_agree_on_random_matrices(seed):
    n = 2 + seed % 6
    M = rand_complex(n, seed)
    a = permanent_naive(M).value
    b = permanent_ryser(M).value
    assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_rank_one_closed_form():
    # per(g g^H) = n! * prod |g_i|^2; n = 16 and 22 run the blocked outer loop
    for n in (6, 16, 22):
        gen = np.random.Generator(np.random.Philox(key=np.array([3, 5], dtype=np.uint64)))
        g = gen.standard_normal(n) + 1j * gen.standard_normal(n)
        A = np.outer(g, g.conj())
        expected = math.factorial(n) * np.prod(np.abs(g) ** 2)
        got = permanent_ryser(A).value
        assert abs(got - expected) <= 1e-12 * expected


def test_permutation_invariance():
    M = rand_complex(5, 99)
    perm = [3, 0, 4, 1, 2]
    P = np.eye(5)[perm]
    ref = permanent_ryser(M).value
    same = permanent_ryser(P @ M @ P.T).value
    assert abs(same - ref) <= 1e-11 * max(1.0, abs(ref))


def test_conjugate_matrix():
    M = rand_complex(4, 7)
    a = permanent_naive(M).value
    b = permanent_naive(M.conj()).value
    assert abs(b - a.conjugate()) <= 1e-12 * max(1.0, abs(a))


def test_psd_permanent_is_near_real_nonnegative():
    for seed in range(10):
        psd = gen_instance(6, 1 + seed % 6, seed=seed)
        val = permanent_ryser(psd.matrix).value
        assert val.real >= -1e-8 * max(1.0, abs(val))
        assert abs(val.imag) <= 1e-8 * max(1.0, abs(val))


def test_size_guards():
    with pytest.raises(TooLargeError, match="9"):
        permanent_naive(np.eye(10))
    with pytest.raises(TooLargeError, match="22"):
        permanent_ryser(np.eye(23))


def test_rejects_malformed_input():
    for per in ORACLES:
        with pytest.raises(NotSquareError):
            per(np.ones((2, 3)))
        with pytest.raises(NonFiniteError):
            per(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_result_fields():
    res = permanent_ryser(np.ones((3, 3)))
    assert res.method == "ryser"
    assert res.n == 3
    assert res.log_abs == pytest.approx(math.log(6))
    naive = permanent_naive(np.eye(2))
    assert naive.method == "naive"
    assert naive.log_abs == 0.0

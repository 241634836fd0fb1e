"""Exact oracle tests: naive expansion vs Ryser vs low rank, plus structural identities."""

import math
import re

import numpy as np
import pytest

from psdperm import (
    LOWRANK_LIMIT,
    NAIVE_LIMIT,
    RYSER_LIMIT,
    NonFiniteError,
    NotSquareError,
    TooLargeError,
    gen_instance,
    gram_factor,
    permanent_lowrank,
    permanent_naive,
    permanent_ryser,
    validate_hermitian_psd,
)
from psdperm.exact import lowrank_size, permanent_exact

from helpers import apply_unitary, random_unitary

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
    # n - 1 > BLOCK_BITS = 13 from n = 15 on, so n = 15...22 run the blocked outer loop
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


def test_ryser_value_when_the_diagonal_product_overflows_midway():
    # prod a_ii = 1 here, but a running product of the diagonal passes
    # 1e308 after two factors; the value must not read inf
    A = gen_instance(8, 3, seed=2).matrix
    s = np.array((1e100,) * 4 + (1e-100,) * 4)
    scaled = permanent_ryser(s[:, None] * A * s)
    want = permanent_ryser(A).value
    assert abs(scaled.value - want) <= 1e-12 * abs(want)
    assert scaled.log_abs == pytest.approx(math.log(abs(want)), abs=1e-12)


# ------------------------------------------------------------ low rank


LOWRANK_CASES = [(n, d, seed) for n in (1, 2, 5, 9, 14, 19, 22)
                 for d in range(1, min(n, 5) + 1) for seed in range(3 if n < 22 else 2)]


@pytest.mark.parametrize("n, d, seed", LOWRANK_CASES)
def test_lowrank_agrees_with_ryser(n, d, seed):
    psd = gen_instance(n, d, seed=seed)
    got = permanent_lowrank(gram_factor(psd))
    assert got.log_abs == pytest.approx(permanent_ryser(psd.matrix).log_abs, abs=1e-12)
    if n < NAIVE_LIMIT or (n == NAIVE_LIMIT and seed == 0):  # naive takes 0.4 s at n = 9
        assert got.log_abs == pytest.approx(permanent_naive(psd.matrix).log_abs, abs=1e-12)


def test_lowrank_result_fields():
    res = permanent_lowrank(np.ones((3, 1)))
    assert (res.method, res.n) == ("lowrank", 3)
    assert res.value == pytest.approx(6.0, rel=1e-14)
    assert res.log_abs == pytest.approx(math.log(6.0), abs=1e-14)


@pytest.mark.parametrize("n", [1, 7, 22, 60, 170])
def test_lowrank_rank_one_closed_form(n):
    # per(g g^H) = n! prod |g_i|^2
    gen = np.random.Generator(np.random.Philox(key=np.array([n, 9], dtype=np.uint64)))
    g = gen.standard_normal((n, 1)) + 1j * gen.standard_normal((n, 1))
    want = math.lgamma(n + 1) + float(np.sum(np.log(np.abs(g) ** 2)))
    assert permanent_lowrank(g).log_abs == pytest.approx(want, abs=1e-12 * max(1.0, abs(want)))


@pytest.mark.parametrize("blocks, d, seed", [((100, 100), 2, 1), ((1500, 1500), 2, 1),
                                             ((30, 20, 10), 3, 0), ((14, 14, 14, 14), 4, 2)])
def test_lowrank_all_ones_blocks_in_a_rotated_gauge(blocks, d, seed):
    # per(J_a (+) J_b (+) ...) = a! b! ...; in a rotated gauge every
    # coefficient is a sum with cancellation, and in block order the
    # later blocks amplify the first block's roundoff (J_100 (+) J_100
    # read 52 nats high); 1500 + 1500 needs the orthonormal basis
    V = np.zeros((sum(blocks), d), dtype=complex)
    start = 0
    for k, size in enumerate(blocks):
        V[start : start + size, k] = 1.0
        start += size
    want = sum(math.lgamma(size + 1) for size in blocks)
    got = permanent_lowrank(apply_unitary(V, random_unitary(d, seed=seed))).log_abs
    assert got == pytest.approx(want, abs=1e-14 * want)


@pytest.mark.parametrize("n, d", [(12, 3), (22, 5), (40, 3)])
def test_lowrank_row_scaling_shifts_the_log(n, d):
    V = np.array(gram_factor(gen_instance(n, d, seed=4)))
    gen = np.random.Generator(np.random.Philox(key=np.array([n, d], dtype=np.uint64)))
    a = np.exp(gen.uniform(-3.0, 3.0, n) + 1j * gen.uniform(0.0, 2 * math.pi, n))
    base = permanent_lowrank(V).log_abs
    scaled = permanent_lowrank(a[:, None] * V).log_abs
    assert scaled == pytest.approx(base + float(np.sum(np.log(np.abs(a) ** 2))), abs=1e-11)


@pytest.mark.parametrize("n, d", [(12, 3), (22, 5), (50, 4)])
def test_lowrank_unitary_gauge_invariance(n, d):
    V = gram_factor(gen_instance(n, d, seed=6))
    base = permanent_lowrank(V).log_abs
    for seed in range(3):
        rotated = permanent_lowrank(apply_unitary(V, random_unitary(d, seed=seed))).log_abs
        assert rotated == pytest.approx(base, abs=1e-12 * max(1.0, abs(base)))


def test_lowrank_row_permutation_invariance():
    V = np.array(gram_factor(gen_instance(22, 4, seed=8)))
    base = permanent_lowrank(V).log_abs
    perm = np.random.Generator(np.random.Philox(key=np.array([1, 1], dtype=np.uint64))).permutation(22)
    assert permanent_lowrank(V[perm]).log_abs == pytest.approx(base, abs=1e-12)


def test_lowrank_zero_row_gives_exact_zero():
    V = np.array(gram_factor(gen_instance(9, 3, seed=1)))
    V[4] = 0.0
    res = permanent_lowrank(V)
    assert res.value == 0.0 + 0.0j
    assert res.log_abs == float("-inf")
    # the zero matrix has an (n, 0) factor
    assert permanent_lowrank(np.zeros((3, 0))).log_abs == float("-inf")


def test_lowrank_wide_diagonal_range_stays_finite():
    # A_ii of 1e+150 and 1e-150: the sum runs on unit rows and adds sum log A_ii back
    psd = gen_instance(22, 4, seed=3)
    V = np.array(gram_factor(psd))
    scale = np.where(np.arange(22) % 2 == 0, 1e75, 1e-75)
    res = permanent_lowrank(scale[:, None] * V)
    assert math.isfinite(res.log_abs)
    want = permanent_ryser(psd.matrix).log_abs + 2.0 * float(np.sum(np.log(scale)))
    assert res.log_abs == pytest.approx(want, abs=1e-11)


def test_lowrank_size_guard():
    assert lowrank_size(27, 5) <= LOWRANK_LIMIT < lowrank_size(28, 5)
    permanent_lowrank(np.ones((27, 5)))
    with pytest.raises(TooLargeError, match=str(LOWRANK_LIMIT)):
        permanent_lowrank(np.ones((28, 5)))


def test_lowrank_rejects_malformed_factors():
    with pytest.raises(NotSquareError):
        permanent_lowrank(np.ones(3))
    with pytest.raises(NonFiniteError):
        permanent_lowrank(np.array([[1.0, np.nan]]))


# ------------------------------------------------------------ oracle choice


@pytest.mark.parametrize("n, d, method", [(22, 5, "lowrank"), (22, 6, "ryser"), (19, 3, "lowrank"),
                                          (9, 5, "ryser"), (4, 1, "lowrank")])
def test_exact_picks_the_cheaper_oracle(n, d, method):
    # low rank where C(n+d-1, d-1) <= LOWRANK_LIMIT and d times it is below 2^(n-1);
    # the result is the chosen oracle's own, bit for bit
    psd = gen_instance(n, d, seed=2)
    res = permanent_exact(psd)
    assert res.method == method
    direct = permanent_lowrank(psd.factor) if method == "lowrank" else permanent_ryser(psd.matrix)
    assert res == direct
    assert [x.hex() for x in (res.value.real, res.value.imag, res.log_abs)] == \
        [x.hex() for x in (direct.value.real, direct.value.imag, direct.log_abs)]


def test_exact_zero_diagonal_keeps_ryser():
    # (6, 2) is within the low-rank oracle's reach, but the zero Gram row is the claim
    # that certify tests, so the oracle must read the matrix
    M = np.array(gen_instance(6, 2, seed=1).matrix)
    assert permanent_exact(validate_hermitian_psd(M)).method == "lowrank"
    M[2, :] = M[:, 2] = 0.0
    res = permanent_exact(validate_hermitian_psd(M))
    assert (res.method, res.value, res.log_abs) == ("ryser", 0j, -math.inf)


def test_exact_too_large():
    message = (f"no exact oracle reaches n=23, d=23: Ryser needs n <= {RYSER_LIMIT}, the low-rank "
               f"oracle C(n+d-1, d-1) <= {LOWRANK_LIMIT} terms (here {lowrank_size(23, 23)}) "
               "and no zero diagonal entry")
    with pytest.raises(TooLargeError, match=f"^{re.escape(message)}$"):
        permanent_exact(gen_instance(23, 23, ensemble="diagonal"))
    # all-ones n = 30 is within the low-rank oracle's reach, with a zero row it is not
    assert permanent_exact(gen_instance(30, 1, ensemble="all-ones")).method == "lowrank"
    M = np.ones((30, 30))
    M[3, :] = M[:, 3] = 0.0
    with pytest.raises(TooLargeError, match="zero diagonal entry"):
        permanent_exact(validate_hermitian_psd(M))

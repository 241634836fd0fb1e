"""Validation and Gram factorization tests."""

import math

import numpy as np
import pytest

from psdperm import (
    NonFiniteError,
    NotHermitianError,
    NotPSDError,
    NotSquareError,
    gen_instance,
    gram_factor,
    validate_hermitian_psd,
)
from psdperm import gram
from psdperm.gram import _symmetrize, unit_rows
from helpers import NotUnitaryError, apply_unitary, random_unitary


def test_validate_diagonal_example():
    psd = validate_hermitian_psd([[2.0]])
    assert psd.n == 1
    assert psd.rank == 1
    np.testing.assert_allclose(psd.factor, [[math.sqrt(2.0)]])


def test_validate_rank_one_complex():
    # [[1, i], [-i, 1]] has eigenvalues {2, 0}
    A = np.array([[1.0, 1j], [-1j, 1.0]])
    psd = validate_hermitian_psd(A)
    assert psd.rank == 1
    V = psd.factor
    np.testing.assert_allclose(V @ V.conj().T, A, atol=1e-15)


def test_rejects_indefinite():
    with pytest.raises(NotPSDError):
        validate_hermitian_psd([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues {3, -1}


def test_rejects_negative_definite():
    with pytest.raises(NotPSDError):
        validate_hermitian_psd(-np.eye(3))


def test_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        validate_hermitian_psd([[1.0, 1.0], [0.0, 1.0]])


def test_rejects_non_square():
    with pytest.raises(NotSquareError):
        validate_hermitian_psd(np.ones((2, 3)))
    with pytest.raises(NotSquareError):
        validate_hermitian_psd(np.ones(4))
    with pytest.raises(NotSquareError):
        validate_hermitian_psd(np.zeros((0, 0)))


def test_rejects_non_finite():
    A = np.eye(2, dtype=complex)
    A[0, 1] = np.nan
    A[1, 0] = np.nan
    with pytest.raises(NonFiniteError):
        validate_hermitian_psd(A)
    B = np.eye(2, dtype=complex)
    B[0, 0] = np.inf
    with pytest.raises(NonFiniteError):
        validate_hermitian_psd(B)


def near_duplicate_rows(gap: float) -> np.ndarray:
    # unit-diagonal Gram matrix of two unit vectors; the second pivot is gap^2
    u = np.array([1.0, 0.0])
    w = np.array([math.sqrt(1.0 - gap**2), gap])
    V = np.array([u, w])
    return V @ V.T


def test_eigenvalue_clipping():
    # the second pivot 1e-15 (and so the small eigenvalue) is below
    # RANK_TOL and is not taken; the remainder passes the reconstruction check
    psd = validate_hermitian_psd(near_duplicate_rows(math.sqrt(1e-15)))
    assert psd.rank == 1
    assert psd.factor.shape == (2, 1)


def test_near_psd_within_tolerance_accepted():
    # a remaining pivot of -1e-12, within PSD_TOL, passes and is not taken
    A = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-12]])
    psd = validate_hermitian_psd(A)
    assert psd.rank == 1
    np.testing.assert_allclose(psd.factor, [[1.0], [1.0]])


def test_zero_diagonal_detection():
    psd = validate_hermitian_psd([[1.0, 0.0], [0.0, 0.0]])
    assert psd.zero_diagonal_indices == (1,)
    full = validate_hermitian_psd(np.eye(3))
    assert full.zero_diagonal_indices == ()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_zero_diagonal_row_is_small(seed):
    # an exactly zero Gram row is a zero diagonal entry, and its factor
    # row is exactly zero; the other rows factor as before
    rng = np.random.Generator(np.random.Philox(key=[seed, 7]))
    V = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    V[2] = 0.0
    psd = validate_hermitian_psd(V @ V.conj().T)
    assert psd.zero_diagonal_indices == (2,)
    assert psd.rank == 3
    assert np.all(psd.factor[2] == 0.0)
    W = psd.factor
    assert np.linalg.norm(W @ W.conj().T - psd.matrix) <= 1e-12 * np.linalg.norm(psd.matrix)


def test_zero_diagonal_row_with_off_diagonal_mass_rejected():
    for off in (1e-3, 1e-6j):
        with pytest.raises(NotPSDError):
            validate_hermitian_psd(1e-12 * np.array([[0.0, off], [np.conj(off), 1.0]]))
        with pytest.raises(NotPSDError):
            validate_hermitian_psd([[0.0, off], [np.conj(off), 0.0]])


def test_tiny_positive_diagonal_is_not_zero():
    # A_ii > 0 never gives a zero claim, however small against the rest:
    # the unit-diagonal matrix is the identity, and the factor full rank
    for tiny in (1e-11, 1e-13, 1e-15, 1e-300, 5e-324):
        diag = [1.0, 0.5, tiny]
        psd = validate_hermitian_psd(np.diag(diag))
        assert psd.zero_diagonal_indices == ()
        np.testing.assert_array_equal(psd.factor, np.diag(np.sqrt(diag)))


def test_entries_at_both_ends_of_the_float_range():
    # (A + A^H)/2 would overflow here, and halving first would round
    # 5e-324 to zero
    for diag in ([1.5e308, 1.5e308], [1.5e308, 5e-324]):
        psd = validate_hermitian_psd(np.diag(diag))
        assert psd.rank == 2 and psd.zero_diagonal_indices == ()
        assert np.all(np.isfinite(psd.factor))
        np.testing.assert_array_equal(np.diag(psd.matrix).real, diag)


@pytest.mark.parametrize("scale", [1e-300, 1e-12, 1.0, 1e12, 1e300])
def test_validation_is_scale_free(scale):
    # the indefinite and the non-Hermitian matrix fail at every scale
    with pytest.raises(NotPSDError):
        validate_hermitian_psd(scale * np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotHermitianError):
        validate_hermitian_psd(scale * np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(NotPSDError):
        validate_hermitian_psd(scale * np.diag([1.0, -1e-6]))
    A = gen_instance(6, 3, seed=4).matrix
    psd = validate_hermitian_psd(scale * A)
    assert psd.rank == 3
    assert psd.zero_diagonal_indices == ()


def test_validation_deterministic():
    A = gen_instance(7, 4, seed=5).matrix
    p1 = validate_hermitian_psd(A)
    p2 = validate_hermitian_psd(A)
    assert p1.rank == p2.rank == 4
    assert p1.factor.tobytes() == p2.factor.tobytes()


def test_custom_tolerances_respected(monkeypatch):
    # the second pivot 1e-9 is taken at RANK_TOL = 1e-10; validation reads
    # the module constant on each call, so a cutoff of 1e-8 drops it
    A = near_duplicate_rows(math.sqrt(1e-9))
    assert validate_hermitian_psd(A).rank == 2
    monkeypatch.setattr(gram, "RANK_TOL", 1e-8)
    assert validate_hermitian_psd(A).rank == 1


def row_norms_sq(V):
    """``|v_i|^2`` per row of a Gram factor: the diagonal of ``A = V V^dagger``."""
    return np.sum(np.abs(V) ** 2, axis=1)


def test_gram_factor_scalar():
    V = gram_factor(validate_hermitian_psd([[4.0]]))
    np.testing.assert_allclose(V, [[2.0]])
    np.testing.assert_allclose(row_norms_sq(V), [4.0])


def test_gram_factor_rank_one_ones():
    V = gram_factor(validate_hermitian_psd(np.ones((2, 2))))
    assert V.shape[1] == 1
    # the pivot entry L_pp = sqrt(pivot) is real positive
    assert np.all(V.real > 0)
    np.testing.assert_allclose(np.abs(V), 1.0, atol=1e-12)


def test_gram_factor_identity():
    V = gram_factor(validate_hermitian_psd(np.eye(2)))
    assert V.shape[1] == 2
    np.testing.assert_allclose(V @ V.conj().T, np.eye(2), atol=1e-12)


def test_gram_factor_zero_matrix():
    V = gram_factor(validate_hermitian_psd(np.zeros((3, 3))))
    assert V.shape == (3, 0)
    np.testing.assert_array_equal(row_norms_sq(V), np.zeros(3))


def test_gram_factor_is_the_validated_factor():
    psd = gen_instance(5, 3, seed=2)
    assert gram_factor(psd) is psd.factor


def test_gram_factor_keeps_zero_rows():
    # a zero diagonal entry forces per(A) = 0, and its Gram row is exactly zero
    V = gram_factor(validate_hermitian_psd([[1.0, 0.0], [0.0, 0.0]]))
    np.testing.assert_array_equal(V, [[1.0], [0.0]])
    np.testing.assert_array_equal(row_norms_sq(V), [1.0, 0.0])
    assert unit_rows(V) == (None, -math.inf)
    # |v_1|^2 = 1e-340 underflows to 0, but the row is not zero
    tiny = np.array([[1.0], [1e-170]], dtype=complex)
    assert row_norms_sq(tiny)[1] == 0.0
    U, shift = unit_rows(tiny)
    np.testing.assert_array_equal(U, [[1.0], [1.0]])
    assert shift == 2.0 * math.log(1e-170)


@pytest.mark.parametrize("V, error", [
    ([[np.nan]], NonFiniteError),
    ([[np.inf, 1.0]], NonFiniteError),
    ([[1.0, complex(0.0, -np.inf)]], NonFiniteError),
    ([1.0, 2.0], NotSquareError),
    (np.ones((2, 2, 1)), NotSquareError),
    (np.zeros((0, 2)), NotSquareError),
])
def test_unit_rows_rejects_bad_factor(V, error):
    with pytest.raises(error):
        unit_rows(V)


def test_unit_rows_takes_real_and_list_factors():
    U, shift = unit_rows([[3.0, 4.0], [0.0, 2.0]])
    assert U.dtype == complex
    np.testing.assert_allclose(U, [[0.6, 0.8], [0.0, 1.0]])
    assert shift == pytest.approx(math.log(25.0) + math.log(4.0))


@pytest.mark.parametrize("d", [1, 20, 31])
def test_symmetrize_is_half_the_hermitian_sum(d):
    gen = np.random.Generator(np.random.Philox(key=np.array([d, 5], dtype=np.uint64)))
    g = gen.standard_normal((d, d, 2))
    M = g[..., 0] + 1j * g[..., 1]
    H = _symmetrize(M)
    assert H.tobytes() == ((M + M.conj().T) / 2.0).tobytes()
    np.testing.assert_array_equal(H, H.conj().T)


@pytest.mark.parametrize("seed", range(20))
def test_reconstruction_sweep(seed):
    n = 2 + seed % 9
    d = 1 + seed % n
    psd = gen_instance(n, d, seed=seed)
    V = gram_factor(psd)
    assert V.shape[1] == d
    err = np.linalg.norm(V @ V.conj().T - psd.matrix)
    assert err <= 1e-8 * max(1.0, np.linalg.norm(psd.matrix))


def test_rank_matches_eigenvalue_count():
    for seed in range(8):
        psd = gen_instance(8, 1 + seed, seed=seed)
        w = np.linalg.eigvalsh(psd.matrix)
        count = int(np.count_nonzero(w > 1e-10 * w[-1]))
        assert psd.factor.shape == (8, psd.rank)
        assert psd.rank == count == 1 + seed


def test_row_norms_match_diagonal():
    psd = gen_instance(9, 4, seed=3)
    np.testing.assert_allclose(
        row_norms_sq(gram_factor(psd)), np.real(np.diag(psd.matrix)), atol=1e-10
    )


def test_factor_deterministic():
    psd = gen_instance(6, 3, seed=11)
    again = gen_instance(6, 3, seed=11)
    assert gram_factor(psd).tobytes() == gram_factor(again).tobytes()


def test_apply_unitary_identity():
    V = gram_factor(gen_instance(5, 3, seed=0))
    np.testing.assert_array_equal(apply_unitary(V, np.eye(3)), V)


def test_apply_unitary_preserves_product():
    V = gram_factor(gen_instance(6, 4, seed=2))
    A = V @ V.conj().T
    for seed in range(5):
        W = apply_unitary(V, random_unitary(4, seed=seed))
        B = W @ W.conj().T
        assert np.linalg.norm(A - B) <= 1e-8 * np.linalg.norm(A)
        np.testing.assert_allclose(row_norms_sq(W), row_norms_sq(V), atol=1e-10)


def test_apply_unitary_permutation():
    V = gram_factor(gen_instance(4, 3, seed=9))
    P = np.eye(3)[:, [2, 0, 1]]
    np.testing.assert_allclose(apply_unitary(V, P), V[:, [2, 0, 1]])


def test_apply_unitary_rejects_bad_input():
    factor = gram_factor(gen_instance(4, 2, seed=1))
    with pytest.raises(NotUnitaryError):
        apply_unitary(factor, np.ones((2, 2)))
    with pytest.raises(NotUnitaryError):
        apply_unitary(factor, np.eye(3))  # wrong shape
    with pytest.raises(NotUnitaryError):
        apply_unitary(factor, np.full((2, 2), np.nan))


def test_random_unitary_is_unitary():
    for d in (1, 3, 6):
        U = random_unitary(d, seed=4)
        assert np.linalg.norm(U.conj().T @ U - np.eye(d)) <= 1e-12 * max(1, d)
    np.testing.assert_array_equal(random_unitary(4, seed=8), random_unitary(4, seed=8))

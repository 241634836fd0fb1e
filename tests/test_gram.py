"""Validation and Gram factorization tests."""

import math

import numpy as np
import pytest

from psdperm import (
    NonFiniteError,
    NotHermitianError,
    NotPSDError,
    NotSquareError,
    NotUnitaryError,
    Tolerances,
    ZeroMatrixError,
    apply_unitary,
    gen_instance,
    gram_factor,
    random_unitary,
    validate_hermitian_psd,
)
from psdperm import gram
from helpers import random_hermitian


def test_validate_diagonal_example():
    psd = validate_hermitian_psd([[2.0]])
    assert psd.n == 1
    assert psd.rank == 1
    np.testing.assert_allclose(psd.eigenvalues, [2.0])


def test_validate_rank_one_complex():
    # [[1, i], [-i, 1]] has eigenvalues {2, 0}
    A = np.array([[1.0, 1j], [-1j, 1.0]])
    psd = validate_hermitian_psd(A)
    np.testing.assert_allclose(psd.eigenvalues, [2.0, 0.0], atol=1e-12)
    assert psd.rank == 1


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


def test_eigenvalue_clipping():
    # the tiny eigenvalue is below rank_tol * lambda_max and must clip to exact 0
    psd = validate_hermitian_psd(np.diag([1.0, 1e-15]))
    assert psd.rank == 1
    assert psd.eigenvalues[1] == 0.0


def test_near_psd_within_tolerance_accepted():
    # slightly negative eigenvalue within psd_tol passes and clips to 0
    psd = validate_hermitian_psd(np.diag([1.0, -1e-12]))
    assert psd.rank == 1
    assert psd.eigenvalues[1] == 0.0


def test_zero_diagonal_detection():
    psd = validate_hermitian_psd([[1.0, 0.0], [0.0, 0.0]])
    assert psd.zero_diagonal_indices == (1,)
    full = validate_hermitian_psd(np.eye(3))
    assert full.zero_diagonal_indices == ()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_zero_diagonal_row_is_small(seed):
    # Cauchy-Schwarz: |A_ij|^2 <= A_ii A_jj, so a diagonal entry at or
    # below diag_tol pins its whole row under sqrt(diag_tol * lmax).
    rng = np.random.Generator(np.random.Philox(key=[seed, 7]))
    V = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    V[2] *= 3e-7 / np.linalg.norm(V[2])  # row norm^2 = 9e-14 < diag_tol
    psd = validate_hermitian_psd(V @ V.conj().T)
    assert 2 in psd.zero_diagonal_indices
    lmax = float(psd.eigenvalues[0])
    cap = math.sqrt(psd.tolerances.diag_tol * lmax)
    for i in psd.zero_diagonal_indices:
        assert np.max(np.abs(psd.matrix[i])) <= cap


def test_validation_deterministic():
    A = gen_instance(7, 4, seed=5).matrix
    p1 = validate_hermitian_psd(A)
    p2 = validate_hermitian_psd(A)
    assert p1.eigenvectors.tobytes() == p2.eigenvectors.tobytes()
    assert p1.eigenvalues.tobytes() == p2.eigenvalues.tobytes()


def test_custom_tolerances_respected():
    tol = Tolerances(rank_tol=1e-2)
    psd = validate_hermitian_psd(np.diag([1.0, 1e-3]), tolerances=tol)
    assert psd.rank == 1


def test_gram_factor_scalar():
    factor = gram_factor(validate_hermitian_psd([[4.0]]))
    np.testing.assert_allclose(factor.matrix, [[2.0]])
    np.testing.assert_allclose(factor.row_norms_sq, [4.0])


def test_gram_factor_rank_one_ones():
    factor = gram_factor(validate_hermitian_psd(np.ones((2, 2))))
    assert factor.d == 1
    # phase convention: the largest-modulus entry is real positive
    assert np.all(factor.matrix.real > 0)
    np.testing.assert_allclose(np.abs(factor.matrix), 1.0, atol=1e-12)


def _fix_phases_by_column(U):
    """Column-by-column reference for `gram._fix_phases`."""
    U = U.copy()
    for k in range(U.shape[1]):
        pivot = U[int(np.argmax(np.abs(U[:, k]))), k]
        U[:, k] = U[:, k] * (pivot.conj() / abs(pivot))
    return U


@pytest.mark.parametrize("seed", range(5))
def test_fix_phases_matches_column_loop(seed):
    U = np.linalg.eigh(random_hermitian(12, seed=seed))[1]
    np.testing.assert_array_equal(gram._fix_phases(U), _fix_phases_by_column(U))


def test_gram_factor_identity():
    factor = gram_factor(validate_hermitian_psd(np.eye(2)))
    assert factor.d == 2
    np.testing.assert_allclose(factor.matrix @ factor.matrix.conj().T, np.eye(2), atol=1e-12)


def test_gram_factor_zero_matrix():
    with pytest.raises(ZeroMatrixError):
        gram_factor(validate_hermitian_psd(np.zeros((3, 3))))


def test_gram_factor_drops_zero_rows():
    psd = validate_hermitian_psd([[1.0, 0.0], [0.0, 0.0]])
    factor = gram_factor(psd)
    assert factor.kept_rows == (0,)
    assert factor.matrix.shape == (1, 1)
    np.testing.assert_allclose(np.abs(factor.matrix), [[1.0]])


@pytest.mark.parametrize("seed", range(20))
def test_reconstruction_sweep(seed):
    n = 2 + seed % 9
    d = 1 + seed % n
    psd = gen_instance(n, d, seed=seed)
    factor = gram_factor(psd)
    assert factor.d == d
    err = np.linalg.norm(factor.matrix @ factor.matrix.conj().T - psd.matrix)
    assert err <= 1e-8 * max(1.0, np.linalg.norm(psd.matrix))


def test_rank_matches_eigenvalue_count():
    for seed in range(8):
        psd = gen_instance(8, 1 + seed, seed=seed)
        lam_max = psd.eigenvalues[0]
        count = int(np.count_nonzero(psd.eigenvalues > 1e-10 * lam_max))
        assert gram_factor(psd).d == count == 1 + seed


def test_row_norms_match_diagonal():
    psd = gen_instance(9, 4, seed=3)
    factor = gram_factor(psd)
    np.testing.assert_allclose(
        factor.row_norms_sq, np.real(np.diag(psd.matrix)), atol=1e-10
    )


def test_factor_deterministic():
    psd = gen_instance(6, 3, seed=11)
    f1 = gram_factor(psd)
    f2 = gram_factor(psd)
    assert f1.matrix.tobytes() == f2.matrix.tobytes()


def test_apply_unitary_identity():
    factor = gram_factor(gen_instance(5, 3, seed=0))
    same = apply_unitary(factor, np.eye(3))
    np.testing.assert_array_equal(same.matrix, factor.matrix)


def test_apply_unitary_preserves_product():
    factor = gram_factor(gen_instance(6, 4, seed=2))
    A = factor.matrix @ factor.matrix.conj().T
    for seed in range(5):
        rotated = apply_unitary(factor, random_unitary(4, seed=seed))
        B = rotated.matrix @ rotated.matrix.conj().T
        assert np.linalg.norm(A - B) <= 1e-8 * np.linalg.norm(A)
        np.testing.assert_allclose(rotated.row_norms_sq, factor.row_norms_sq, atol=1e-10)


def test_apply_unitary_permutation():
    factor = gram_factor(gen_instance(4, 3, seed=9))
    P = np.eye(3)[:, [2, 0, 1]]
    rotated = apply_unitary(factor, P)
    np.testing.assert_allclose(rotated.matrix, factor.matrix[:, [2, 0, 1]])


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

"""Validation and Gram factorization of Hermitian PSD matrices.

Every computation in this package starts from a Gram factorization
``A = V V^dagger`` with ``V`` of shape ``(n, d)`` and full column rank,
where ``d`` is the numerical rank of ``A``.  The rows ``v_i`` of ``V``
are the Gram vectors; all downstream quantities (the concave bound, the
Monte Carlo estimator) are expressed in terms of them.

The factorization is computed from a spectral decomposition.  Columns of
the eigenvector matrix are phase-normalized (largest-modulus entry made
real and nonnegative) so that identical input bytes always produce an
identical factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NonFiniteError,
    NotHermitianError,
    NotPSDError,
    NotSquareError,
    NotUnitaryError,
    ReconstructionError,
    ZeroMatrixError,
)

__all__ = [
    "Tolerances",
    "HermitianPSD",
    "GramFactor",
    "as_complex_matrix",
    "hermitian_part",
    "validate_hermitian_psd",
    "gram_factor",
    "apply_unitary",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used during validation and factorization.

    Attributes
    ----------
    herm_tol : float
        Maximum allowed entrywise deviation ``|A - A^dagger|``, relative
        to ``max(1, max|A_ij|)``.
    psd_tol : float
        Eigenvalues below ``-psd_tol * max(1, lambda_max)`` reject the
        matrix as not positive semidefinite.
    rank_tol : float
        Eigenvalues at or below ``rank_tol * lambda_max`` are clipped to
        zero and do not count toward the rank.
    diag_tol : float
        Diagonal entries at or below this absolute threshold are treated
        as exact zeros (which forces the permanent to be zero).
    recon_tol : float
        Relative Frobenius error allowed in ``V V^dagger`` against the
        validated matrix.
    """

    herm_tol: float = 1e-10
    psd_tol: float = 1e-9
    rank_tol: float = 1e-10
    diag_tol: float = 1e-12
    recon_tol: float = 1e-8


DEFAULT_TOLERANCES = Tolerances()


def as_complex_matrix(matrix) -> np.ndarray:
    """Coerce input to a square, finite, complex 2-D array.

    Raises
    ------
    NotSquareError
        If the input is not 2-D square, or is empty.
    NonFiniteError
        If any entry is NaN or infinite.
    """
    A = np.asarray(matrix, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {A.shape}")
    if A.shape[0] == 0:
        raise NotSquareError("matrix is empty")
    if not np.all(np.isfinite(A.real)) or not np.all(np.isfinite(A.imag)):
        raise NonFiniteError("matrix contains NaN or infinite entries")
    return A


@dataclass(frozen=True)
class HermitianPSD:
    """A validated Hermitian positive semidefinite matrix.

    Attributes
    ----------
    matrix : np.ndarray
        The Hermitized matrix ``(A + A^dagger)/2``, shape ``(n, n)``.
        This differs from the raw input by at most ``herm_tol`` per
        entry and is exactly Hermitian.
    eigenvalues : np.ndarray
        Real eigenvalues in descending order; values at or below the
        clip threshold ``rank_tol * lambda_max`` are set to exactly 0.
    eigenvectors : np.ndarray
        Unitary matrix whose columns match ``eigenvalues``; each column
        is phase-fixed (largest-modulus entry real nonnegative).
    rank : int
        Number of eigenvalues strictly above the clip threshold.
    zero_diagonal_indices : tuple
        Indices ``i`` with ``A_ii <= diag_tol``.  Any such index forces
        ``per(A) = 0``, since PSD structure makes the whole row
        negligible.
    tolerances : Tolerances
        The thresholds used for this validation.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    rank: int
    zero_diagonal_indices: tuple
    tolerances: Tolerances = field(default=DEFAULT_TOLERANCES)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


def hermitian_part(matrix, herm_tol: float) -> np.ndarray:
    """Check that a square matrix is Hermitian and return ``(A + A^dagger)/2``.

    Raises `NotHermitianError` if ``max|A - A^dagger|`` exceeds
    ``herm_tol * max(1, max|A_ij|)``, and what `as_complex_matrix` raises.
    """
    A = as_complex_matrix(matrix)
    scale = float(np.max(np.abs(A)))
    defect = float(np.max(np.abs(A - A.conj().T)))
    if defect > herm_tol * max(1.0, scale):
        raise NotHermitianError(
            f"Hermitian defect {defect:.3e} exceeds tolerance "
            f"{herm_tol:.1e} * max(1, {scale:.3e})"
        )
    return (A + A.conj().T) / 2.0


def _fix_phases(U: np.ndarray) -> np.ndarray:
    """Rotate each unit column so its largest-modulus entry is real and nonnegative."""
    pivots = U[np.argmax(np.abs(U), axis=0), np.arange(U.shape[1])].conj()
    # hypot: numpy's vectorized complex abs may differ in the last bit
    return U * (pivots * (1.0 / np.hypot(pivots.real, pivots.imag)))


def validate_hermitian_psd(matrix, tolerances: Tolerances | None = None) -> HermitianPSD:
    """Validate a matrix as Hermitian PSD and compute its spectral data.

    Parameters
    ----------
    matrix : array_like
        Square complex matrix, ``n >= 1``.
    tolerances : Tolerances, optional
        Thresholds; defaults to `DEFAULT_TOLERANCES`.

    Returns
    -------
    HermitianPSD
        Frozen record with the Hermitized matrix, clipped descending
        spectrum, phase-fixed eigenvectors, rank, and zero-diagonal
        index list.

    Raises
    ------
    NotSquareError, NonFiniteError, NotHermitianError, NotPSDError
    """
    tol = tolerances if tolerances is not None else DEFAULT_TOLERANCES
    Ah = hermitian_part(matrix, tol.herm_tol)

    w, U = np.linalg.eigh(Ah)
    w = w[::-1].copy()

    lam_max = float(w[0])
    if w[-1] < -tol.psd_tol * max(1.0, lam_max):
        raise NotPSDError(
            f"minimum eigenvalue {w[-1]:.3e} below -{tol.psd_tol:.1e} "
            f"* max(1, {lam_max:.3e})"
        )

    # Clip the tail of the spectrum to exact zeros.
    clip = tol.rank_tol * max(lam_max, 0.0)
    small = w <= clip
    w[small] = 0.0
    rank = int(np.count_nonzero(~small))

    U = _fix_phases(U[:, ::-1])
    diag = np.real(np.diag(Ah))
    zero_diag = tuple(int(i) for i in np.nonzero(diag <= tol.diag_tol)[0])

    _freeze(Ah, w, U)
    return HermitianPSD(
        matrix=Ah,
        eigenvalues=w,
        eigenvectors=U,
        rank=rank,
        zero_diagonal_indices=zero_diag,
        tolerances=tol,
    )


@dataclass(frozen=True)
class GramFactor:
    """Gram factor ``V`` with ``A = V V^dagger``.

    Attributes
    ----------
    matrix : np.ndarray
        Shape ``(n, d)`` with full column rank; row ``i`` is the Gram
        vector of index ``i`` of the (possibly row-reduced) matrix.
    row_norms_sq : np.ndarray
        ``|v_i|^2`` per row; agrees with the source diagonal.
    kept_rows : tuple
        Original indices retained after dropping zero-diagonal rows.
    """

    matrix: np.ndarray
    row_norms_sq: np.ndarray
    kept_rows: tuple

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def d(self) -> int:
        return self.matrix.shape[1]


def _spectral_factor(Asub: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Phase-fixed V = U_d sqrt(w_d) from the spectrum of `Asub`."""
    w, U = np.linalg.eigh(Asub)
    w = w[::-1]
    U = U[:, ::-1]
    lam_max = float(w[0])
    rank = int(np.count_nonzero(w > tol.rank_tol * max(lam_max, 0.0)))
    if rank == 0:
        raise ZeroMatrixError("matrix is numerically zero; no Gram factor")
    return _fix_phases(U[:, :rank]) * np.sqrt(w[:rank])


def gram_factor(psd: HermitianPSD) -> GramFactor:
    """Compute the rank-revealing Gram factor of a validated matrix.

    Rows whose diagonal entry is a numerical zero are dropped first
    (they force ``per(A) = 0`` and are handled upstream); the factor
    covers the remaining principal submatrix.

    Returns
    -------
    GramFactor

    Raises
    ------
    ZeroMatrixError
        If the matrix (after dropping zero rows) is numerically zero.
    ReconstructionError
        If ``V V^dagger`` fails to match the source within
        ``recon_tol`` (relative Frobenius), or the row norms disagree
        with the diagonal.
    """
    tol = psd.tolerances
    n = psd.n

    if psd.zero_diagonal_indices:
        keep = [i for i in range(n) if i not in psd.zero_diagonal_indices]
        if not keep:
            raise ZeroMatrixError("all diagonal entries are numerically zero")
        Asub = psd.matrix[np.ix_(keep, keep)]
        V = _spectral_factor(Asub, tol)
        kept = tuple(keep)
    else:
        if psd.rank == 0:
            raise ZeroMatrixError("matrix is numerically zero; no Gram factor")
        d = psd.rank
        V = psd.eigenvectors[:, :d] * np.sqrt(psd.eigenvalues[:d])
        Asub = psd.matrix
        kept = tuple(range(n))

    recon = V @ V.conj().T
    ref_norm = float(np.linalg.norm(Asub))
    err = float(np.linalg.norm(recon - Asub))
    if err > tol.recon_tol * max(1.0, ref_norm):
        raise ReconstructionError(
            f"||V V^H - A||_F = {err:.3e} exceeds {tol.recon_tol:.1e} "
            f"* max(1, {ref_norm:.3e})"
        )

    row_norms_sq = np.sum(np.abs(V) ** 2, axis=1)
    diag = np.real(np.diag(Asub))
    if float(np.max(np.abs(row_norms_sq - diag))) > tol.recon_tol * max(1.0, ref_norm):
        raise ReconstructionError("Gram row norms disagree with the diagonal")

    _freeze(V, row_norms_sq)
    return GramFactor(matrix=V, row_norms_sq=row_norms_sq, kept_rows=kept)


def apply_unitary(factor: GramFactor, unitary, recon_tol: float = 1e-8) -> GramFactor:
    """Right-multiply the Gram factor by a unitary: ``W = V U``.

    ``W W^dagger = V V^dagger``, so the factored matrix is unchanged;
    this is the gauge freedom of the factorization and is useful for
    invariance checks.

    Raises
    ------
    NotUnitaryError
        If `unitary` is not ``d x d`` or fails ``U^dagger U = I``
        within `recon_tol` (Frobenius).
    """
    d = factor.d
    U = np.asarray(unitary, dtype=complex)
    if U.shape != (d, d):
        raise NotUnitaryError(f"expected shape ({d}, {d}), got {U.shape}")
    if not np.all(np.isfinite(U.real)) or not np.all(np.isfinite(U.imag)):
        raise NotUnitaryError("unitary contains non-finite entries")
    defect = float(np.linalg.norm(U.conj().T @ U - np.eye(d)))
    if defect > recon_tol * d:
        raise NotUnitaryError(
            f"||U^H U - I||_F = {defect:.3e} exceeds {recon_tol:.1e} * {d}"
        )
    W = factor.matrix @ U
    row_norms_sq = np.sum(np.abs(W) ** 2, axis=1)
    _freeze(W, row_norms_sq)
    return GramFactor(matrix=W, row_norms_sq=row_norms_sq, kept_rows=factor.kept_rows)

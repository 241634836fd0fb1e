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

from dataclasses import dataclass

import numpy as np

from .errors import (
    NonFiniteError,
    NotHermitianError,
    NotPSDError,
    NotSquareError,
    NotUnitaryError,
    ReconstructionError,
    ZeroMatrixError,
    ZeroRowError,
)

__all__ = [
    "HERM_TOL",
    "PSD_TOL",
    "RANK_TOL",
    "DIAG_TOL",
    "RECON_TOL",
    "HermitianPSD",
    "GramFactor",
    "as_complex_matrix",
    "hermitian_part",
    "validate_hermitian_psd",
    "gram_factor",
    "apply_unitary",
]


#: Maximum entrywise deviation ``|A - A^dagger|``, relative to
#: ``max(1, max|A_ij|)``.
HERM_TOL = 1e-10
#: Eigenvalues below ``-PSD_TOL * max(1, lambda_max)`` reject the matrix
#: as not positive semidefinite.
PSD_TOL = 1e-9
#: Default of `validate_hermitian_psd`'s ``rank_tol``: eigenvalues at or
#: below ``rank_tol * lambda_max`` are clipped to zero and do not count
#: toward the rank.
RANK_TOL = 1e-10
#: Diagonal entries at or below this absolute threshold are exact zeros,
#: which force the permanent to be zero.
DIAG_TOL = 1e-12
#: Relative Frobenius error allowed in ``V V^dagger`` against the
#: validated matrix; ``RECON_TOL * d`` bounds ``||U^dagger U - I||_F`` in
#: `apply_unitary`.
RECON_TOL = 1e-8


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
        This differs from the raw input by at most `HERM_TOL` per entry
        (relative) and is exactly Hermitian.
    eigenvalues : np.ndarray
        Real eigenvalues in descending order; values at or below the
        clip threshold ``rank_tol * lambda_max`` are set to exactly 0.
    eigenvectors : np.ndarray
        Unitary matrix whose columns match ``eigenvalues``; each column
        is phase-fixed (largest-modulus entry real nonnegative).
    rank : int
        Number of eigenvalues strictly above the clip threshold.
    zero_diagonal_indices : tuple
        Indices ``i`` with ``A_ii <= DIAG_TOL``.  Any such index forces
        ``per(A) = 0``, since PSD structure makes the whole row
        negligible.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    rank: int
    zero_diagonal_indices: tuple

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


def hermitian_part(matrix) -> np.ndarray:
    """Check that a square matrix is Hermitian and return ``(A + A^dagger)/2``.

    Raises `NotHermitianError` if ``max|A - A^dagger|`` exceeds
    ``HERM_TOL * max(1, max|A_ij|)``, and what `as_complex_matrix` raises.
    """
    A = as_complex_matrix(matrix)
    scale = float(np.max(np.abs(A)))
    defect = float(np.max(np.abs(A - A.conj().T)))
    if defect > HERM_TOL * max(1.0, scale):
        raise NotHermitianError(
            f"Hermitian defect {defect:.3e} exceeds tolerance "
            f"{HERM_TOL:.1e} * max(1, {scale:.3e})"
        )
    return (A + A.conj().T) / 2.0


def _fix_phases(U: np.ndarray) -> np.ndarray:
    """Rotate each unit column so its largest-modulus entry is real and nonnegative."""
    pivots = U[np.argmax(np.abs(U), axis=0), np.arange(U.shape[1])].conj()
    # hypot: numpy's vectorized complex abs may differ in the last bit
    return U * (pivots * (1.0 / np.hypot(pivots.real, pivots.imag)))


def validate_hermitian_psd(matrix, rank_tol: float = RANK_TOL) -> HermitianPSD:
    """Validate a matrix as Hermitian PSD and compute its spectral data.

    Parameters
    ----------
    matrix : array_like
        Square complex matrix, ``n >= 1``.
    rank_tol : float, optional
        Eigenvalues at or below ``rank_tol * lambda_max`` are clipped to
        zero and do not count toward the rank; must lie in ``[0, 1)``.

    Returns
    -------
    HermitianPSD
        Frozen record with the Hermitized matrix, clipped descending
        spectrum, phase-fixed eigenvectors, rank, and zero-diagonal
        index list.

    Raises
    ------
    ValueError
        If `rank_tol` is negative, not finite, or at least 1.
    NotSquareError, NonFiniteError, NotHermitianError, NotPSDError
    """
    if not 0.0 <= rank_tol < 1.0:
        raise ValueError(f"rank_tol must lie in [0, 1), got {rank_tol!r}")
    Ah = hermitian_part(matrix)

    w, U = np.linalg.eigh(Ah)
    w = w[::-1].copy()

    lam_max = float(w[0])
    if w[-1] < -PSD_TOL * max(1.0, lam_max):
        raise NotPSDError(
            f"minimum eigenvalue {w[-1]:.3e} below -{PSD_TOL:.1e} "
            f"* max(1, {lam_max:.3e})"
        )

    # Clip the tail of the spectrum to exact zeros.
    clip = rank_tol * max(lam_max, 0.0)
    small = w <= clip
    w[small] = 0.0
    rank = int(np.count_nonzero(~small))

    U = _fix_phases(U[:, ::-1])
    diag = np.real(np.diag(Ah))
    zero_diag = tuple(int(i) for i in np.nonzero(diag <= DIAG_TOL)[0])

    _freeze(Ah, w, U)
    return HermitianPSD(
        matrix=Ah,
        eigenvalues=w,
        eigenvectors=U,
        rank=rank,
        zero_diagonal_indices=zero_diag,
    )


@dataclass(frozen=True)
class GramFactor:
    """Gram factor ``V`` with ``A = V V^dagger``.

    Attributes
    ----------
    matrix : np.ndarray
        Shape ``(n, d)`` with full column rank; row ``i`` is the Gram
        vector of index ``i``.
    row_norms_sq : np.ndarray
        ``|v_i|^2`` per row; agrees with the source diagonal.
    """

    matrix: np.ndarray
    row_norms_sq: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def d(self) -> int:
        return self.matrix.shape[1]


def gram_factor(psd: HermitianPSD) -> GramFactor:
    """Compute the rank-revealing Gram factor of a validated matrix.

    ``V = U_d sqrt(w_d)`` from the validated spectrum.  A zero diagonal
    entry forces ``per(A) = 0``; callers handle that case before
    factoring (see `bound.zero_diagonal_result`).

    Returns
    -------
    GramFactor

    Raises
    ------
    ZeroMatrixError
        If the matrix is numerically zero (rank 0).
    ZeroRowError
        If the matrix has a zero diagonal entry.
    ReconstructionError
        If ``V V^dagger`` fails to match the source within `RECON_TOL`
        (relative Frobenius), or the row norms disagree with the
        diagonal; NaN in the factor fails both checks.  When the rank
        cutoff truncated the factor, the message says how many
        eigenvalues it dropped.
    """
    if psd.rank == 0:
        raise ZeroMatrixError("matrix is numerically zero; no Gram factor")
    if psd.zero_diagonal_indices:
        raise ZeroRowError(
            f"diagonal entries {list(psd.zero_diagonal_indices)} are numerically zero; "
            "the permanent is exactly zero and must be short-circuited by the caller"
        )
    d = psd.rank
    V = psd.eigenvectors[:, :d] * np.sqrt(psd.eigenvalues[:d])
    A = psd.matrix

    recon = V @ V.conj().T
    ref_norm = float(np.linalg.norm(A))
    bound = RECON_TOL * max(1.0, ref_norm)
    err = float(np.linalg.norm(recon - A))
    if not err <= bound:
        dropped = psd.n - d
        cutoff = (
            f"; the rank cutoff dropped {dropped} of {psd.n} eigenvalues, "
            "and a smaller rank_tol (--rank-tol) keeps more of them"
            if dropped else ""
        )
        raise ReconstructionError(
            f"||V V^H - A||_F = {err:.3e} exceeds {RECON_TOL:.1e} "
            f"* max(1, {ref_norm:.3e}){cutoff}"
        )

    row_norms_sq = np.sum(np.abs(V) ** 2, axis=1)
    diag = np.real(np.diag(A))
    if not float(np.max(np.abs(row_norms_sq - diag))) <= bound:
        raise ReconstructionError("Gram row norms disagree with the diagonal")

    _freeze(V, row_norms_sq)
    return GramFactor(matrix=V, row_norms_sq=row_norms_sq)


def apply_unitary(factor: GramFactor, unitary) -> GramFactor:
    """Right-multiply the Gram factor by a unitary: ``W = V U``.

    ``W W^dagger = V V^dagger``, so the factored matrix is unchanged;
    this is the gauge freedom of the factorization and is useful for
    invariance checks.

    Raises
    ------
    NotUnitaryError
        If `unitary` is not ``d x d`` or fails ``U^dagger U = I``
        within ``RECON_TOL * d`` (Frobenius).
    """
    d = factor.d
    U = np.asarray(unitary, dtype=complex)
    if U.shape != (d, d):
        raise NotUnitaryError(f"expected shape ({d}, {d}), got {U.shape}")
    if not np.all(np.isfinite(U.real)) or not np.all(np.isfinite(U.imag)):
        raise NotUnitaryError("unitary contains non-finite entries")
    defect = float(np.linalg.norm(U.conj().T @ U - np.eye(d)))
    if defect > RECON_TOL * d:
        raise NotUnitaryError(
            f"||U^H U - I||_F = {defect:.3e} exceeds {RECON_TOL:.1e} * {d}"
        )
    W = factor.matrix @ U
    row_norms_sq = np.sum(np.abs(W) ** 2, axis=1)
    _freeze(W, row_norms_sq)
    return GramFactor(matrix=W, row_norms_sq=row_norms_sq)

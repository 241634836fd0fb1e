"""Validation and Gram factorization of Hermitian PSD matrices.

Every computation in this package starts from a Gram factorization
``A = V V^dagger`` with ``V`` of shape ``(n, d)`` and full column rank,
where ``d`` is the numerical rank of ``A``.  The rows ``v_i`` of ``V``
are the Gram vectors; all downstream quantities (the concave bound, the
Monte Carlo estimator) are expressed in terms of them.

Validation and factorization are one pass.  ``A`` is scaled to the unit
diagonal matrix ``C = D^{-1/2} A D^{-1/2}``, ``D = diag(A)``, which moves
``log per`` and ``Phi`` by the same ``sum log a_ii``.  Diagonally pivoted
Cholesky (Higham 1990) factors ``C ~ L L^dagger`` in ``O(n d^2)``, taking
the first largest remaining pivot until none exceeds ``rank_tol``, and
``V = D^{1/2} L``.  The remainder ``C - L L^dagger`` is then checked, in
``O(n^2 d)``.  Every tolerance is relative to the input's own scale, and
identical input bytes always produce an identical factor.

The factor is a plain ``(n, d)`` array, and `unit_rows` is the one
reader of a factor that a caller passes to the solver or the sampler:
it checks it, spots an exactly zero row, and scales the rows to unit
norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NonFiniteError,
    NotHermitianError,
    NotPSDError,
    NotSquareError,
    ReconstructionError,
)

__all__ = [
    "HERM_TOL",
    "PSD_TOL",
    "RANK_TOL",
    "RECON_TOL",
    "HermitianPSD",
    "as_complex_matrix",
    "hermitian_part",
    "validate_hermitian_psd",
    "gram_factor",
    "unit_rows",
    "exp_or_inf",
]


#: Maximum entrywise deviation ``|A - A^dagger|``, relative to ``max|A_ij|``.
HERM_TOL = 1e-10
#: A diagonal entry below ``-PSD_TOL * max_j A_jj``, or a remaining pivot
#: of the unit-diagonal matrix below ``-PSD_TOL``, rejects the matrix as
#: not positive semidefinite.
PSD_TOL = 1e-9
#: Default of `validate_hermitian_psd`'s ``rank_tol``: pivoted Cholesky of
#: the unit-diagonal matrix stops when no remaining pivot exceeds it.
RANK_TOL = 1e-10
#: Frobenius norm of the remainder ``C - L L^dagger`` allowed, relative
#: to that of the unit-diagonal matrix ``C``.
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
    """A validated Hermitian positive semidefinite matrix and its Gram factor.

    Attributes
    ----------
    matrix : np.ndarray
        The Hermitized matrix ``(A + A^dagger)/2``, shape ``(n, n)``.
        This differs from the raw input by at most `HERM_TOL` per entry
        (relative) and is exactly Hermitian.
    factor : np.ndarray
        ``V = D^{1/2} L``, shape ``(n, rank)``: column ``k`` comes from
        the ``k``-th pivot, and the row of a zero diagonal entry is 0.
    """

    matrix: np.ndarray
    factor: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        """Number of pivots above the rank cutoff."""
        return self.factor.shape[1]

    @property
    def zero_diagonal_indices(self) -> tuple:
        """Indices ``i`` with ``A_ii <= 0``: the exactly zero rows of `factor`.

        Any such index forces ``per(A) = 0``, since PSD structure makes
        the whole row zero.
        """
        return tuple(np.flatnonzero(_zero_rows(self.factor)).tolist())


def _zero_rows(V: np.ndarray) -> np.ndarray:
    """Whether each row of `V` is exactly zero, read from the entries.

    A row of entries near 1e-162 is not zero, though its squared norm
    underflows to 0.
    """
    return ~V.any(axis=1)


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


def hermitian_part(matrix) -> np.ndarray:
    """Check that a square matrix is Hermitian and return ``(A + A^dagger)/2``.

    Raises `NotHermitianError` if ``max|A - A^dagger|`` exceeds
    ``HERM_TOL * max|A_ij|``, and what `as_complex_matrix` raises.
    """
    A = as_complex_matrix(matrix)
    scale = float(np.max(np.abs(A)))
    defect = float(np.max(np.abs(A - A.conj().T)))
    if defect > HERM_TOL * scale:
        raise NotHermitianError(
            f"Hermitian defect {defect:.3e} exceeds tolerance {HERM_TOL:.1e} * {scale:.3e}"
        )
    return _symmetrize(A)


def _symmetrize(M: np.ndarray) -> np.ndarray:
    """``(M + M^dagger)/2``, exactly Hermitian, with the real part of ``M``'s diagonal.

    Halving before adding keeps entries near the float maximum from
    overflowing, and taking the diagonal as it is keeps a subnormal
    ``M_ii`` from rounding to zero; both sums are the same, so the
    result is Hermitian.  ``conj`` copies, so ``H`` is not read while
    it is written.
    """
    H = M * 0.5
    H += H.conj().T
    H.flat[:: M.shape[0] + 1] = M.diagonal().real
    return H


def validate_hermitian_psd(matrix, rank_tol: float = RANK_TOL) -> HermitianPSD:
    """Validate a matrix as Hermitian PSD and compute its Gram factor.

    Parameters
    ----------
    matrix : array_like
        Square complex matrix, ``n >= 1``.
    rank_tol : float, optional
        Pivoted Cholesky of the unit-diagonal matrix stops when no
        remaining pivot exceeds ``rank_tol``; must lie in ``[0, 1)``.

    Returns
    -------
    HermitianPSD
        Frozen record with the Hermitized matrix and its Gram factor,
        whose row is zero exactly where ``A_ii <= 0``.

    Raises
    ------
    ValueError
        If `rank_tol` is negative, not finite, or at least 1.
    NotSquareError, NonFiniteError, NotHermitianError
    NotPSDError
        If a diagonal entry is below ``-PSD_TOL * max_j A_jj``, a
        remaining pivot below ``-PSD_TOL``, or the remainder ``S = C - L
        L^dagger`` larger in Frobenius norm than its trace, which no PSD
        ``S`` is; off-diagonal mass in a zero-diagonal row fails here.
    ReconstructionError
        If ``||S||_F`` exceeds ``RECON_TOL * ||C||_F``; the message says
        where the rank cutoff stopped.  NaN fails every check.
    """
    if not 0.0 <= rank_tol < 1.0:
        raise ValueError(f"rank_tol must lie in [0, 1), got {rank_tol!r}")
    A = hermitian_part(matrix)
    n = A.shape[0]
    diag = A.diagonal().real
    top = float(diag.max())
    if diag.min() < -PSD_TOL * top:
        raise NotPSDError(
            f"diagonal entry {diag.min():.3e} below -{PSD_TOL:.1e} * max_j A_jj = {top:.3e}"
        )
    zero = diag <= 0.0
    # a zero-diagonal row is scaled by the largest diagonal entry, so its
    # off-diagonal mass shows in the remainder at the matrix's own scale
    s = 1.0 / np.sqrt(np.where(zero, top if top > 0.0 else 1.0, diag))
    C = A * s[:, None]
    C *= s
    r = np.where(zero, C.diagonal().real, 1.0)  # remaining pivots; those <= 0 are never taken
    C.flat[:: n + 1] = r  # exact ones, so that ties go to the first index
    Lt = np.empty((n, n), dtype=complex)  # row k is column k of L; unused rows stay untouched
    for k in range(n + 1):
        p = r.argmax()
        if not r[p] > rank_tol:
            break
        col = Lt[k]
        np.conjugate(C[p], out=col)  # column p of the Hermitian C
        col -= Lt[:k, p].conj() @ Lt[:k]
        col *= 1.0 / math.sqrt(r[p])
        r -= (col * col.conj()).real
        r[p] = 0.0
    L = Lt[:k].T.copy()
    L[zero] = 0.0

    norm = float(np.linalg.norm(C))
    S = C  # the remainder, in place: C is not read again
    S -= L @ L.conj().T
    rest = S.diagonal().real
    err = float(np.linalg.norm(S))
    if not rest.min() >= -PSD_TOL:
        raise NotPSDError(f"remaining pivot {rest.min():.3e} below -{PSD_TOL:.1e}")
    if not err <= rest.sum() + PSD_TOL * norm:
        raise NotPSDError(
            f"remainder ||C - L L^H||_F = {err:.3e} exceeds its trace {rest.sum():.3e}, "
            "which no PSD remainder does"
        )
    if not err <= RECON_TOL * norm:
        cutoff = (
            f"; the rank cutoff stopped after {k} of {n} pivots, "
            "and a smaller rank_tol (--rank-tol) keeps more"
            if k < n else ""
        )
        raise ReconstructionError(
            f"||C - L L^H||_F = {err:.3e} exceeds {RECON_TOL:.1e} * ||C||_F = {norm:.3e}{cutoff}"
        )

    V = L * np.sqrt(np.where(zero, 0.0, diag))[:, None]
    _freeze(A, V)
    return HermitianPSD(matrix=A, factor=V)


def gram_factor(psd: HermitianPSD) -> np.ndarray:
    """The Gram factor ``V`` of a validated matrix, which validation computed.

    The row of a zero diagonal entry is zero, which makes ``per(A) = 0``;
    `bound.solve` and `montecarlo.estimate_permanent` return that exact
    answer.  The zero matrix has an ``(n, 0)`` factor.
    """
    return psd.factor


def unit_rows(V) -> tuple:
    """Check a Gram factor ``V``; return its rows ``v_i / |v_i|`` and ``sum_i log |v_i|^2``.

    This is the one reader of a caller's factor: `bound.solve`,
    `bound.objective`, `bound.gradient` and
    `montecarlo.estimate_permanent` see ``V`` only through it.  ``V`` is
    taken as a complex ``(n, d)`` array.  When a row is exactly zero, so
    that ``per(A) = 0``, it returns ``(None, -inf)``.

    Each row is divided by its largest entry modulus before its norm is
    taken, so neither the norm nor its logarithm leaves the float range.
    Scaling row ``i`` by ``a_i`` scales ``A_ii`` by ``|a_i|^2``: it
    leaves the maximizer ``X*`` where it is and moves ``log per``, ``phi``
    and both endpoints by ``sum_i log |a_i|^2``, so the solver and the
    sampler work on the unit rows and add the returned shift back.

    Raises
    ------
    NotSquareError
        If ``V`` is not a 2-D array, or has no row.
    NonFiniteError
        If an entry is NaN or infinite.
    """
    V = np.asarray(V, dtype=complex)
    if V.ndim != 2 or V.shape[0] == 0:
        raise NotSquareError(f"expected an (n, d) Gram factor with n >= 1, got shape {V.shape}")
    if not np.isfinite(V).all():
        raise NonFiniteError("Gram factor contains NaN or infinite entries")
    if _zero_rows(V).any():
        return None, -math.inf
    top = np.abs(V).max(axis=1)
    U = V / top[:, None]
    norms = np.linalg.norm(U, axis=1)
    U /= norms[:, None]
    return U, 2.0 * float(np.sum(np.log(top) + np.log(norms)))


def exp_or_inf(x: float) -> float:
    """``e^x``, or ``inf`` where it passes the float range, to add a log scale back."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf

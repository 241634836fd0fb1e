"""Shared builders for the test suite (seeded, deterministic)."""

from __future__ import annotations

import numpy as np

from psdperm import (
    SolverOptions,
    bound,
    gen_instance,
    gram_factor,
    philox_generator,
    sample_standard_complex_gaussian,
)
from psdperm.gram import unit_rows


class NotUnitaryError(ValueError):
    """Matrix fails the unitarity check U^dagger U = I."""


def random_factor(n: int, d: int, seed: int) -> np.ndarray:
    """Gram factor ``V``, shape ``(n, d)``, of a random gaussian-gram instance."""
    return gram_factor(gen_instance(n, d, seed=seed))


def random_unitary(d: int, seed: int = 0) -> np.ndarray:
    """Haar-ish random unitary from the QR of a complex Gaussian matrix.

    Columns are phase-fixed by the R diagonal, so the result is exactly
    unitary (up to roundoff) and deterministic per seed.
    """
    Z = sample_standard_complex_gaussian(philox_generator(seed), d, size=d)
    Q, R = np.linalg.qr(Z)
    diag = np.diag(R)
    return Q * (diag / np.abs(diag))


def apply_unitary(V: np.ndarray, unitary) -> np.ndarray:
    """Right-multiply the Gram factor by a unitary: ``W = V U``.

    ``W W^dagger = V V^dagger``, so the factored matrix is unchanged;
    this is the gauge freedom of the factorization.  Raises
    `NotUnitaryError` unless `unitary` is ``d x d``, finite, and
    satisfies ``||U^dagger U - I||_F <= 1e-8 d``.
    """
    d = V.shape[1]
    U = np.asarray(unitary, dtype=complex)
    if U.shape != (d, d):
        raise NotUnitaryError(f"expected shape ({d}, {d}), got {U.shape}")
    if not np.all(np.isfinite(U)):
        raise NotUnitaryError("unitary contains non-finite entries")
    defect = float(np.linalg.norm(U.conj().T @ U - np.eye(d)))
    if defect > 1e-8 * d:
        raise NotUnitaryError(f"||U^H U - I||_F = {defect:.3e} exceeds 1e-8 * {d}")
    return V @ U


def random_pd(d: int, seed: int, jitter: float = 0.1) -> np.ndarray:
    """Random Hermitian positive definite d x d matrix."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 77], dtype=np.uint64)))
    g = gen.standard_normal((d, d, 2))
    B = (g[..., 0] + 1j * g[..., 1]) / np.sqrt(2.0)
    return B @ B.conj().T + jitter * np.eye(d)


def random_hermitian(d: int, seed: int) -> np.ndarray:
    """Random Hermitian (not necessarily definite) direction."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 99], dtype=np.uint64)))
    g = gen.standard_normal((d, d, 2))
    H = g[..., 0] + 1j * g[..., 1]
    return (H + H.conj().T) / 2.0


def newton_from_identity(factor: np.ndarray):
    """`solve`'s Newton driver and oracle choice, started at ``X0 = I``.

    Returns ``(best, iterations, status)`` as `bound._newton`; like
    `solve`, it runs on the unit rows, so ``best.phi`` lacks their
    ``gram.unit_rows`` shift.
    """
    V = unit_rows(factor)[0]
    n, d = V.shape
    X0 = np.eye(d, dtype=complex)
    if n < d * d:
        return bound._newton(bound._DualOracle(V), bound._dual_start(V, X0), SolverOptions())
    return bound._newton(bound._PrimalOracle(V), X0, SolverOptions())

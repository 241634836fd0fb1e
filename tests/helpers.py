"""Shared builders for the test suite (seeded, deterministic)."""

from __future__ import annotations

import numpy as np

from psdperm import GramFactor, SolverOptions, bound, gen_instance, gram_factor


def random_factor(n: int, d: int, seed: int) -> GramFactor:
    """Gram factor of a random gaussian-gram instance."""
    return gram_factor(gen_instance(n, d, seed=seed))


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


def newton_from_identity(factor: GramFactor):
    """`solve`'s Newton driver and oracle choice, started at ``X0 = I``.

    Returns ``(best, iterations, status, history)`` as `bound._newton`.
    """
    V = factor.matrix
    n, d = V.shape
    oracle = (bound._DualOracle if n < d * d else bound._PrimalOracle)(V)
    return bound._newton(oracle, oracle.start(np.eye(d, dtype=complex)), SolverOptions())

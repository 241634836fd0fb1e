"""Exact permanent oracles: naive expansion and Ryser's formula.

Both are exponential-time reference implementations.  The naive
expansion is the ground truth (the definition, guarded to ``n <= 9``);
Ryser's formula in Nijenhuis-Wilf form, 2^(n-1) Gray-code ordered terms
whose products are built row by row, covers ``n <= 22``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TooLargeError
from .gram import as_complex_matrix

__all__ = ["NAIVE_LIMIT", "RYSER_LIMIT", "ExactResult", "permanent_naive", "permanent_ryser"]

NAIVE_LIMIT = 9
RYSER_LIMIT = 22

#: Ryser sums the subsets of its low ``BLOCK_BITS`` columns as one
#: ``(n, 2^BLOCK_BITS)`` array per subset of the other columns.
BLOCK_BITS = 11


@dataclass(frozen=True)
class ExactResult:
    """Exact permanent value with its log magnitude."""

    value: complex
    log_abs: float
    method: str
    n: int


def _result(value: complex, method: str, n: int) -> ExactResult:
    mag = abs(value)
    log_abs = math.log(mag) if mag > 0.0 else float("-inf")
    return ExactResult(value=complex(value), log_abs=log_abs, method=method, n=n)


def permanent_naive(matrix) -> ExactResult:
    """Permanent by recursive Laplace-style expansion, n <= 9.

    Expands along rows, sharing prefixes and skipping exact zero
    entries; the iteration order is fixed, so results are deterministic
    down to the last bit.
    """
    M = as_complex_matrix(matrix)
    n = M.shape[0]
    if n > NAIVE_LIMIT:
        raise TooLargeError(f"naive oracle limited to n <= {NAIVE_LIMIT}, got {n}")
    rows = [[complex(x) for x in row] for row in M]

    def expand(r: int, cols: tuple, acc: complex) -> complex:
        if r == n:
            return acc
        row = rows[r]
        total = 0.0 + 0.0j
        for k, j in enumerate(cols):
            a = row[j]
            if a != 0.0:
                total += expand(r + 1, cols[:k] + cols[k + 1 :], acc * a)
        return total

    value = expand(0, tuple(range(n)), 1.0 + 0.0j)
    return _result(value, "naive", n)


def _gray_sums(block: np.ndarray) -> np.ndarray:
    """Row sums over all subsets of a column block, in Gray-code order.

    ``out[i, k] = sum_{j in subset(k)} block[i, j]`` where ``subset(k)``
    is the Gray code of ``k``; the reflected code doubles column by
    column, each new half mirroring the old one plus one column.
    """
    n, b = block.shape
    out = np.zeros((n, 1 << b), dtype=complex)
    for j in range(b):
        h = 1 << j
        np.add(out[:, h - 1 :: -1], block[:, j : j + 1], out=out[:, h : 2 * h])
    return out


def permanent_ryser(matrix) -> ExactResult:
    """Permanent by Ryser's formula in Nijenhuis-Wilf form, n <= 22.

        per(M) = (-1)^(n-1) * 2 * sum_{S in [n-1]} (-1)^{|S|} prod_i (x_i + sum_{j in S} M_ij)

    with ``x_i = M_{i,n-1} - sum_j M_ij / 2`` (Nijenhuis & Wilf, 1978):
    2^(n-1) terms, whose centred factors lose fewer digits to cancellation
    than the plain formula's.  The low `BLOCK_BITS` columns' subset sums
    form an ``(n, 2^b)`` array, one contiguous row per matrix row, swept
    against each Gray-code subset of the other columns and multiplied
    row by row in place.
    """
    M = as_complex_matrix(matrix)
    n = M.shape[0]
    if n > RYSER_LIMIT:
        raise TooLargeError(f"Ryser oracle limited to n <= {RYSER_LIMIT}, got {n}")

    m = n - 1
    b = min(BLOCK_BITS, m)
    lo = _gray_sums(M[:, :b]) + (M[:, m] - 0.5 * M.sum(axis=1))[:, None]

    hi_sum = np.zeros(n, dtype=complex)
    prod, term = np.empty((2, 1 << b), dtype=complex)
    total = 0.0 + 0.0j
    for k in range(1 << (m - b)):
        if k:
            j = (k & -k).bit_length() - 1
            # Gray step k adds column j when bit j + 1 of k is clear
            hi_sum = hi_sum + (-1.0) ** ((k >> (j + 1)) & 1) * M[:, b + j]
        h = hi_sum.tolist()
        np.add(lo[0], h[0], out=prod)
        for i in range(1, n):
            np.add(lo[i], h[i], out=term)
            np.multiply(prod, term, out=prod)
        # parity(popcount(gray(k))) == parity(k), so |S| signs come for free
        total += (-1) ** k * (prod[::2].sum() - prod[1::2].sum())

    value = 2 * (-1) ** m * total
    return _result(value, "ryser", n)

"""Exact permanent oracles: naive expansion, Ryser's formula, low rank.

The naive expansion is the ground truth (the definition, guarded to
``n <= 9``); Ryser's formula in Nijenhuis-Wilf form, 2^(n-1) Gray-code
ordered terms whose products are built row by row, covers ``n <= 22``.
Both read the matrix and take exponential time whatever its rank.

The low-rank oracle reads the Gram factor ``V`` of ``A = V V^dagger``
instead.  For ``z`` a standard complex Gaussian vector in C^d, Wick's
formula gives ``per(A) = E|prod_i v_i^dagger z|^2 = sum_{|m|=n} m! |c_m|^2``,
where ``c_m`` are the coefficients of the polynomial ``prod_i v_i^dagger z``
and ``m! = prod_k m_k!`` (Barvinok 1996).  There are
``C(n+d-1, d-1)`` of them, polynomially many in ``n`` for fixed ``d``,
and the sum has only nonnegative terms.  It covers every input with at
most `LOWRANK_LIMIT` coefficients, whatever ``n``: at n = 22 it takes
milliseconds up to d = 5, where Ryser takes ~0.08 s at every d.

`permanent_exact` chooses between them for a validated matrix, and a new
exact route belongs there; past every oracle it raises `TooLargeError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TooLargeError
from .gram import HermitianPSD, as_complex_matrix, exp_or_inf, unit_rows

__all__ = [
    "NAIVE_LIMIT",
    "RYSER_LIMIT",
    "LOWRANK_LIMIT",
    "ExactResult",
    "lowrank_size",
    "permanent_naive",
    "permanent_ryser",
    "permanent_lowrank",
    "permanent_exact",
]

NAIVE_LIMIT = 9
RYSER_LIMIT = 22
#: Most coefficients `permanent_lowrank` holds.  Its arrays take at most about
#: ``N * (64 + 6(d-1))`` bytes for ``N`` coefficients; at the limit they
#: peak at 2.8 MB for (n, d) = (11, 8) and 3.0 MB for (27, 5), below the
#: 3.3 MB of Ryser's blocks at n = 22.
LOWRANK_LIMIT = 1 << 15
#: ``2^64 / phi``, odd: `permanent_lowrank` takes the rows in the order of
#: ``i * GOLDEN mod 2^64``, the fractional parts of ``i / phi``.
GOLDEN = np.uint64(0x9E3779B97F4A7C15)

#: Ryser sums the subsets of its low ``BLOCK_BITS`` columns as one
#: ``(n, 2^BLOCK_BITS)`` array per subset of the other columns (2.9 MB
#: at n = 22); larger blocks mean fewer Python-level outer steps.
BLOCK_BITS = 13


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

    The sum runs on ``D M D``, ``D = diag(s)`` with ``s_i = |M_ii|^{-1/2}``
    for each nonzero diagonal entry and 1 elsewhere, whose permanent is
    ``per(M) / prod |M_ii|``; ``log_abs`` adds ``sum log|M_ii|`` back, so
    it holds for diagonals far outside the float range of the product.
    For PSD ``M`` every entry of ``D M D`` is at most 1 in modulus.
    """
    M = as_complex_matrix(matrix)
    n = M.shape[0]
    if n > RYSER_LIMIT:
        raise TooLargeError(f"Ryser oracle limited to n <= {RYSER_LIMIT}, got {n}")
    mags = np.abs(M.diagonal())
    mags[mags == 0.0] = 1.0
    s = 1.0 / np.sqrt(mags)
    M = s[:, None] * M * s

    m = n - 1
    b = min(BLOCK_BITS, m)
    lo = _gray_sums(M[:, :b])
    lo += (M[:, m] - 0.5 * M.sum(axis=1))[:, None]

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

    per = complex(2 * (-1) ** m * total)
    if per == 0:
        return _result(0j, "ryser", n)
    log_scale = float(np.log(mags).sum())
    scale = exp_or_inf(log_scale)  # inf or 0 past the float range; log_abs is not
    value = complex(per.real * scale if per.real else 0.0, per.imag * scale if per.imag else 0.0)
    log_abs = math.log(abs(per)) + log_scale
    return ExactResult(value=value, log_abs=log_abs, method="ryser", n=n)


def lowrank_size(n: int, d: int) -> int:
    """``C(n+d-1, d-1)``: the coefficients of a product of ``n`` linear forms in ``d`` variables.

    This is the number of exponent vectors ``m`` with ``|m| = n``, the
    size of `permanent_lowrank`'s sum.
    """
    return math.comb(n + d - 1, d - 1) if d > 0 else 0


def _lowrank_tables(n: int, k: int) -> tuple:
    """Index maps and creation factors over the exponents of ``k`` variables of degree below ``n``.

    An exponent ``m`` of the first ``k`` variables stands for ``(m, i -
    |m|)`` in all ``k + 1`` after ``i`` rows.  With suffix sums ``s_l =
    m_l + ... + m_k``, the exponents are ranked in lex order of ``(s_1,
    ..., s_k)``, so ``rank(m) = sum_l C(s_l + k - l, k - l + 1)`` (stars
    and bars) and the ``C(D + k, k)`` exponents of degree at most ``D``
    come first.  Adding ``e_j`` raises ``s_1 ... s_j`` by one, which by
    Pascal's rule raises the rank by ``sum_{l <= j} C(s_l + k - l, k -
    l)``.

    For the ``P`` exponents of degree below ``n`` it returns ``maps`` and
    ``raised`` of shape ``(k, P)``, with ``maps[j][rank(m)] = rank(m +
    e_{j+1})`` and ``raised[j][rank(m)] = m_{j+1} + 1``, the degree
    ``|m|`` of each, and the prefix sizes ``C(D + k, k)`` for ``D = 0 ...
    n``.  Exponents are ``int16``: with at most `LOWRANK_LIMIT` terms no
    exponent passes 2^15.
    """
    prefix = np.array([math.comb(D + k, k) for D in range(n + 1)])
    P = int(prefix[-2])
    maps = np.empty((k, P), dtype=np.int32)
    raised = np.empty((k, P), dtype=np.int16)
    rank = np.arange(P, dtype=np.int32)  # rank of the tail (s_l, ..., s_k) among its own kind
    shifted = rank.copy()
    degrees = np.arange(n, dtype=np.int32)
    degree = upper = None
    for l in range(k):
        r = k - l  # variables left in the tail
        # exponents of degree exactly D in r variables, and of degree below D
        count = np.array([math.comb(D + r - 1, r - 1) for D in range(n)], dtype=np.int32)
        below = np.cumsum(count, dtype=np.int32) - count
        s = np.repeat(degrees, count)[rank]
        rank -= below[s]
        shifted += count[s]
        maps[l] = shifted
        if upper is None:
            degree = s
        else:
            np.subtract(upper + 1, s, out=raised[l - 1], casting="unsafe")  # m_l = s_l - s_{l+1}
        upper = s
    if k:
        np.add(upper, 1, out=raised[k - 1], casting="unsafe")  # m_k = s_k
    else:
        degree = np.zeros(P, dtype=np.int32)
    return maps, raised, degree, prefix


def permanent_lowrank(V) -> ExactResult:
    """Exact ``per(V V^dagger)`` from the ``(n, d)`` Gram factor `V`, in time polynomial in ``n``.

    Builds ``prod_i u_i^dagger z`` for the unit rows ``u_i`` of
    `gram.unit_rows` in the basis ``z^m / sqrt(m!)``, orthonormal for
    the Gaussian measure, where its coefficients are ``b_m = c_m
    sqrt(m!)``: ``per = sum_m |b_m|^2``, its squared norm, to which the
    shift ``sum_i log |v_i|^2`` is added back.  In that basis a row acts
    as the creation operator ``sum_j u_j a_j^dagger``, which moves
    ``b_m`` to ``m + e_j`` with the factor ``u_j sqrt(m_j + 1)``.  The
    polynomial is kept with its last variable set to 1: after ``i`` rows
    it has degree at most ``i`` in the other ``d - 1``, a prefix of
    `_lowrank_tables`' order, and the last variable's exponent is ``i``
    minus that degree.  After each row the coefficients are divided by
    their norm, whose log is kept, so nothing over- or underflows and
    ``log per`` is twice the sum of those logs plus the shift.  The work
    is ``O(d * C(n+d, d))``, against Ryser's ``O(n * 2^n)``.

    The orthonormal basis keeps coefficients of one size where the
    plain ``c_m`` spread as far as ``sqrt(m!)`` does: ``J_1500 (+)
    J_1500`` in a rotated gauge lost its largest terms to underflow and
    read 0.67 nats low with ``c_m`` and lgamma weights.  The rows are
    multiplied in the order of the fractional parts of ``i / phi``
    (`GOLDEN`), so that each prefix samples every stretch of rows
    evenly.  The sum does not depend on the order, but its roundoff
    does: ``J_100 (+) J_100`` in a rotated gauge read 52 nats high in
    block order, where the second block's rows amplify the roundoff of
    the first block's product more than the product itself, and agreed
    to 1e-13 in this order.

    A zero row of `V` gives an exact 0.

    Raises
    ------
    TooLargeError
        If the sum has more than `LOWRANK_LIMIT` terms (`lowrank_size`).
    NotSquareError, NonFiniteError
        What `gram.unit_rows` raises for a malformed factor.
    """
    U, shift = unit_rows(V)
    n, d = np.shape(V)
    if U is None:
        return _result(0j, "lowrank", n)
    if lowrank_size(n, d) > LOWRANK_LIMIT:
        raise TooLargeError(
            f"low-rank oracle limited to C(n+d-1, d-1) <= {LOWRANK_LIMIT} terms, "
            f"got {lowrank_size(n, d)} at n={n}, d={d}"
        )
    k = d - 1
    maps, raised, degree, prefix = _lowrank_tables(n, k)
    root = np.sqrt(np.arange(n + 1.0))
    coef, work = np.zeros((2, int(prefix[-1])), dtype=complex)
    term = np.empty(maps.shape[1], dtype=complex)
    factor = np.empty(maps.shape[1])
    coef[0] = 1.0
    log_scale = 0.0
    rows = U[np.argsort(np.arange(n, dtype=np.uint64) * GOLDEN, kind="stable")].tolist()
    for i, u in enumerate(rows):
        size = int(prefix[i])
        old, new, t, f = coef[:size], work[: prefix[i + 1]], term[:size], factor[:size]
        np.take(root, i + 1 - degree[:size], out=f)
        np.multiply(old, f, out=new[:size])
        new[:size] *= u[k]
        new[size:] = 0.0
        for j in range(k):
            np.take(root, raised[j, :size], out=f)
            np.multiply(old, f, out=t)
            t *= u[j]
            np.add.at(new, maps[j, :size], t)
        norm = math.sqrt(np.vdot(new, new).real)
        new *= 1.0 / norm
        log_scale += math.log(norm)
        coef, work = work, coef
    log_abs = 2.0 * log_scale + shift
    return ExactResult(value=complex(exp_or_inf(log_abs)), log_abs=log_abs, method="lowrank", n=n)


def permanent_exact(psd: HermitianPSD) -> ExactResult:
    """Exact ``per(A)`` of a validated matrix from the cheaper oracle that reaches it.

    The low-rank oracle on the Gram factor where it has at most
    `LOWRANK_LIMIT` terms and ``d`` times that is below Ryser's ``2^(n-1)``
    (it then takes a few ms at n = 22, Ryser ~0.08 s); otherwise Ryser on
    the matrix up to `RYSER_LIMIT`.  A zero diagonal entry keeps Ryser:
    its zero Gram row is the claim that ``certify`` tests, and Ryser never
    reads the factor.  Past both oracles it raises `TooLargeError`, naming
    both limits.
    """
    n, d = psd.n, psd.rank
    size = lowrank_size(n, d)
    if not psd.zero_diagonal_indices and size <= LOWRANK_LIMIT and size * d < 2 ** (n - 1):
        return permanent_lowrank(psd.factor)
    if n <= RYSER_LIMIT:
        return permanent_ryser(psd.matrix)
    raise TooLargeError(
        f"no exact oracle reaches n={n}, d={d}: Ryser needs n <= {RYSER_LIMIT}, the low-rank "
        f"oracle C(n+d-1, d-1) <= {LOWRANK_LIMIT} terms (here {size}) and no zero diagonal entry"
    )

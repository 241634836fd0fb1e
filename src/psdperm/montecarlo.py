"""Monte Carlo permanent estimation via the Gaussian product formula.

For ``A = V V^dagger``, with ``V`` an ``(n, d)`` array of rows ``v_i``
checked by `gram.unit_rows`, and ``Z`` a standard complex Gaussian
vector (``E[Z Z^dagger] = I_d``),

    per(A) = E[ prod_i |v_i^dagger Z|^2 ],

so averaging the product over independent draws gives an unbiased
estimator.  The sample variance grows quickly with ``n`` (each factor
``log|g|^2`` of a standard complex Gaussian ``g`` has mean ``-gamma``
and variance ``pi^2/6``), which is exactly the gap the deterministic
bound closes; the estimator is kept as an independent statistical check
at small ``n`` and as the calibration tool for ``gamma`` itself.

Randomness comes from the counter-based Philox generator keyed by the
seed, so results are reproducible bit for bit across runs.  The sampling
loop fills one ``(BATCH_SIZE, d, 2)`` buffer of real standard normals at
a time and hands the raw draws to a statistic that works in real
arithmetic in buffers of its own, so memory stays fixed whatever the
sample count: about ``b * (2d + 2n) * 8`` bytes per batch of ``b`` draws
for the permanent estimator, 3.9 MB at n = 22, d = 8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gram import check_integer, exp_or_inf, unit_rows

__all__ = [
    "philox_generator",
    "MomentAccumulator",
    "EstimateResult",
    "sample_standard_complex_gaussian",
    "estimate_permanent",
    "calibrate_gamma",
]

_MASK64 = (1 << 64) - 1
_SQRT2 = np.sqrt(2.0)

#: Gaussian draws held in memory at once by the sampling loop; a batch
#: of the permanent estimator takes ``BATCH_SIZE * (2d + 2n) * 8`` bytes
#: (3.9 MB at n = 22, d = 8).
BATCH_SIZE = 1 << 13


def philox_generator(seed: int) -> np.random.Generator:
    """A fresh Philox-4x64 Generator keyed ``[seed mod 2^64, 0]``.

    `seed` is an integer, not a bool.  Each call replays the same
    sequence; pass the Generator itself to continue a sequence across
    calls.
    """
    check_integer("seed", seed)
    key = np.array([int(seed) & _MASK64, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class MomentAccumulator:
    """Streaming mean and variance.

    `update` folds in a batch of values with the pairwise (Chan et al.)
    update; `sum_sq_dev` carries ``sum (x - mean)^2``.
    """

    count: int = 0
    mean: float = 0.0
    sum_sq_dev: float = 0.0

    def update(self, values) -> None:
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0:
            return
        bmean = float(arr.mean())
        bssd = float(np.sum((arr - bmean) ** 2))
        total = self.count + arr.size
        delta = bmean - self.mean
        self.mean += delta * arr.size / total
        self.sum_sq_dev += bssd + delta * delta * self.count * arr.size / total
        self.count = total

    @property
    def variance(self) -> float:
        """Unbiased sample variance; NaN with fewer than two values."""
        if self.count < 2:
            return float("nan")
        return self.sum_sq_dev / (self.count - 1)

    @property
    def std_error(self) -> float:
        if self.count < 2:
            return float("nan")
        return float(np.sqrt(self.variance / self.count))


@dataclass(frozen=True)
class EstimateResult:
    """Monte Carlo estimate with its standard error and provenance."""

    mean: float
    std_error: float
    samples: int
    seed: int

    @property
    def relative_std_error(self) -> float:
        if self.mean == 0.0:
            return float("inf")
        return abs(self.std_error / self.mean)


def sample_standard_complex_gaussian(gen: np.random.Generator, d: int,
                                     size: int | None = None) -> np.ndarray:
    """Draw standard complex Gaussian vectors with E[Z Z^dagger] = I_d.

    Coordinates are ``(g1 + i*g2)/sqrt(2)`` with ``g1, g2`` independent
    real standard normals, so ``E|z_a|^2 = 1``.  `gen` is consumed in
    place.  Returns shape ``(d,)`` or ``(size, d)``.
    """
    shape = (d, 2) if size is None else (size, d, 2)
    g = gen.standard_normal(shape)
    return (g[..., 0] + 1j * g[..., 1]) / _SQRT2


def _sample_mean(statistic, d: int, samples: int, seed: int) -> EstimateResult:
    """Mean and standard error of ``statistic`` over `samples` draws of ``Z`` in C^d.

    `statistic` maps a ``(b, d, 2)`` batch of real standard normals
    ``g``, the draws ``Z = (g[..., 0] + i g[..., 1]) / sqrt(2)`` of
    `sample_standard_complex_gaussian`, to ``b`` values.  The batch is a
    view of one buffer that the next batch overwrites.
    """
    gen = philox_generator(seed)
    acc = MomentAccumulator()
    draws = np.empty((min(BATCH_SIZE, samples), d, 2))
    remaining = samples
    while remaining > 0:
        b = min(BATCH_SIZE, remaining)
        remaining -= b
        batch = draws[:b]
        gen.standard_normal(out=batch)
        acc.update(statistic(batch))
    return EstimateResult(mean=acc.mean, std_error=acc.std_error, samples=samples, seed=seed)


def _row_product_statistic(rows: np.ndarray, batch: int):
    """The statistic ``prod_i |v_i^dagger Z|^2`` for the rows ``v_i`` of `rows`.

    Builds the real ``(2n, 2d)`` matrix ``R`` with ``R[i] . g`` and
    ``R[n + i] . g`` the real and imaginary parts of ``v_i^dagger Z`` for
    ``Z`` drawn as ``g``, so one ``matmul`` per batch into a ``(2n, b)``
    buffer, sized for at most `batch` draws, gives all n factors.
    """
    n, d = rows.shape
    c = rows.conj() / _SQRT2
    R = np.empty((2, n, d, 2))
    # (c.real + i c.imag)(g0 + i g1) = (c.real g0 - c.imag g1) + i (c.imag g0 + c.real g1)
    R[0, :, :, 0], R[0, :, :, 1] = c.real, -c.imag
    R[1, :, :, 0], R[1, :, :, 1] = c.imag, c.real
    R = R.reshape(2 * n, 2 * d)
    buf = np.empty(2 * n * batch)

    def statistic(g: np.ndarray) -> np.ndarray:
        b = g.shape[0]
        w = buf[: 2 * n * b].reshape(2 * n, b)
        np.matmul(R, g.reshape(b, 2 * d).T, out=w)
        np.square(w, out=w)
        np.add(w[:n], w[n:], out=w[:n])
        prod = w[0]
        for i in range(1, n):
            np.multiply(prod, w[i], out=prod)
        return prod

    return statistic


def estimate_permanent(V, samples: int, seed: int) -> EstimateResult:
    """Unbiased Monte Carlo estimate of ``per(A)`` from its ``(n, d)`` Gram factor `V`.

    `samples` is an integer (not a bool) of at least 2, and `seed` an
    integer.  `V` is checked and read by `gram.unit_rows`.  A zero Gram row makes the permanent
    exactly zero; that case returns the exact answer without sampling.
    The product runs on the unit rows, so it stays in the float range
    whatever the diagonal's; the mean and the standard error are scaled
    back by ``e^shift = prod_i |v_i|^2``.
    """
    check_integer("samples", samples, 2)
    check_integer("seed", seed)
    U, shift = unit_rows(V)
    if U is None:
        return EstimateResult(mean=0.0, std_error=0.0, samples=samples, seed=seed)
    statistic = _row_product_statistic(U, min(BATCH_SIZE, samples))
    est = _sample_mean(statistic, U.shape[1], samples, seed)
    scale = exp_or_inf(shift)
    return EstimateResult(mean=est.mean * scale, std_error=est.std_error * scale,
                          samples=samples, seed=seed)


def calibrate_gamma(samples: int, seed: int) -> EstimateResult:
    """Estimate ``E[log|g|^2]`` for a standard complex Gaussian ``g``.

    The exact value is ``-gamma`` (Euler-Mascheroni) with variance
    ``pi^2/6``; this doubles as an end-to-end check of the sampler and
    of the constant used in the lower bound.
    """
    check_integer("samples", samples, 2)
    # |g|^2 = (g0^2 + g1^2) / 2 for g = (g0 + i g1) / sqrt(2)
    return _sample_mean(lambda g: np.log(np.square(g[:, 0]).sum(axis=1) / 2.0), 1, samples, seed)

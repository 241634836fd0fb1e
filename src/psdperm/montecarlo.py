"""Monte Carlo permanent estimation via the Gaussian product formula.

For ``A = V V^dagger`` with rows ``v_i`` and ``Z`` a standard complex
Gaussian vector (``E[Z Z^dagger] = I_d``),

    per(A) = E[ prod_i |v_i^dagger Z|^2 ],

so averaging the product over independent draws gives an unbiased
estimator.  The sample variance grows quickly with ``n`` (each factor
``log|g|^2`` of a standard complex Gaussian ``g`` has mean ``-gamma``
and variance ``pi^2/6``), which is exactly the gap the deterministic
bound closes; the estimator is kept as an independent statistical check
at small ``n`` and as the calibration tool for ``gamma`` itself.

Randomness comes from the counter-based Philox generator keyed by the
seed, so results are reproducible bit for bit across runs.  Draws are
taken and averaged in batches of `BATCH_SIZE` to bound memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gram import GramFactor

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

#: Gaussian draws held in memory at once by the sampling loop.
BATCH_SIZE = 1 << 16


def philox_generator(seed: int) -> np.random.Generator:
    """A fresh Philox-4x64 Generator keyed ``[seed mod 2^64, 0]``.

    Each call replays the same sequence; pass the Generator itself to
    continue a sequence across calls.
    """
    key = np.array([seed & _MASK64, 0], dtype=np.uint64)
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


def _check_samples(samples: int) -> None:
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")


def _sample_mean(statistic, d: int, samples: int, seed: int) -> EstimateResult:
    """Mean and standard error of ``statistic(Z)`` over `samples` draws of ``Z`` in C^d.

    `statistic` maps a ``(b, d)`` batch of draws to ``b`` values.
    """
    gen = philox_generator(seed)
    acc = MomentAccumulator()
    remaining = samples
    while remaining > 0:
        b = min(BATCH_SIZE, remaining)
        remaining -= b
        acc.update(statistic(sample_standard_complex_gaussian(gen, d, size=b)))
    return EstimateResult(mean=acc.mean, std_error=acc.std_error, samples=samples, seed=seed)


def estimate_permanent(factor: GramFactor, samples: int, seed: int) -> EstimateResult:
    """Unbiased Monte Carlo estimate of ``per(A)`` from its Gram factor.

    A zero Gram row makes the permanent exactly zero; that case returns
    the exact answer without sampling.
    """
    _check_samples(samples)
    if np.any(factor.row_norms_sq <= 0.0):
        return EstimateResult(mean=0.0, std_error=0.0, samples=samples, seed=seed)
    Vh = factor.matrix.conj().T
    # entry (b, i) of z @ Vh is v_i^dagger Z_b
    return _sample_mean(lambda z: np.prod(np.abs(z @ Vh) ** 2, axis=1),
                        factor.d, samples, seed)


def calibrate_gamma(samples: int, seed: int) -> EstimateResult:
    """Estimate ``E[log|g|^2]`` for a standard complex Gaussian ``g``.

    The exact value is ``-gamma`` (Euler-Mascheroni) with variance
    ``pi^2/6``; this doubles as an end-to-end check of the sampler and
    of the constant used in the lower bound.
    """
    _check_samples(samples)
    return _sample_mean(lambda z: np.log(np.abs(z[:, 0]) ** 2), 1, samples, seed)

"""Monte Carlo estimator, random generator, and moment accumulator tests.

Statistical assertions use fixed seeds with 4-standard-error margins,
so they are deterministic once a passing seed is frozen.
"""

import math
import tracemalloc

import numpy as np
import pytest

from psdperm import (
    GAMMA,
    calibrate_gamma,
    estimate_permanent,
    gen_instance,
    gram_factor,
    permanent_ryser,
    philox_generator,
    validate_hermitian_psd,
)
from psdperm import montecarlo
from psdperm.montecarlo import MomentAccumulator, sample_standard_complex_gaussian


# ---------------------------------------------------------------- generator


def philox_draws(key, d, size):
    gen = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
    return sample_standard_complex_gaussian(gen, d, size=size)


def test_stream_replay_is_exact():
    a = sample_standard_complex_gaussian(philox_generator(5), 3, size=8)
    b = sample_standard_complex_gaussian(philox_generator(5), 3, size=8)
    np.testing.assert_array_equal(a, b)


def test_streams_differ_by_id_and_seed():
    # the key is [seed mod 2^64, 0]: stream id 0 of the seed, and nothing else
    base = sample_standard_complex_gaussian(philox_generator(5), 2, size=4)
    np.testing.assert_array_equal(base, philox_draws([5, 0], 2, 4))
    assert not np.array_equal(base, philox_draws([5, 1], 2, 4))
    reseeded = sample_standard_complex_gaussian(philox_generator(6), 2, size=4)
    assert not np.array_equal(base, reseeded)
    wrapped = sample_standard_complex_gaussian(philox_generator(5 + 2**64), 2, size=4)
    np.testing.assert_array_equal(base, wrapped)
    np.testing.assert_array_equal(
        sample_standard_complex_gaussian(philox_generator(-1), 2, size=4),
        philox_draws([2**64 - 1, 0], 2, 4))


def test_draws_are_partition_invariant():
    # counter-based generator: one draw of 20 equals two draws of 10
    gen = philox_generator(77)
    whole = sample_standard_complex_gaussian(gen, 3, size=20)
    gen2 = philox_generator(77)
    first = sample_standard_complex_gaussian(gen2, 3, size=10)
    second = sample_standard_complex_gaussian(gen2, 3, size=10)
    np.testing.assert_array_equal(whole, np.concatenate([first, second]))


def test_sampler_shapes():
    one = sample_standard_complex_gaussian(philox_generator(0), 4)
    assert one.shape == (4,)
    many = sample_standard_complex_gaussian(philox_generator(0), 4, size=7)
    assert many.shape == (7, 4)
    np.testing.assert_array_equal(one, many[0])


def test_sampler_draws_are_pinned():
    # every generated instance draws through this sampler, so a change to
    # the draws would change every gen_instance output
    z = sample_standard_complex_gaussian(philox_generator(5), 3, size=2)
    expected = np.array([
        [1.0166590616575204 + 0.5912173939155116j,
         0.8357093518739286 + 1.3339050704329591j,
         2.223585261400822 - 0.16127162346475227j],
        [-1.1945630441742874 + 0.6100135166318004j,
         -0.8025653469210334 + 0.043939712975886766j,
         -0.6081437866583768 + 0.9948026538304969j],
    ])
    np.testing.assert_array_equal(z, expected)


def test_sampler_moments():
    z = sample_standard_complex_gaussian(philox_generator(2024), 2, size=200_000)
    m = z.shape[0]
    tol = 4.0 / math.sqrt(m)
    assert np.all(np.abs(z.mean(axis=0)) <= tol)
    # E[z z^H] = I, E[z z^T] = 0
    cov = z.conj().T @ z / m
    np.testing.assert_allclose(cov, np.eye(2), atol=4 * tol)
    rel = z.T @ z / m
    np.testing.assert_allclose(rel, np.zeros((2, 2)), atol=4 * tol)


# -------------------------------------------------------------- accumulator


def test_accumulator_matches_numpy():
    gen = philox_generator(4)
    x = gen.standard_normal(1001) * 3.0 + 1.0
    acc = MomentAccumulator()
    acc.update(x)
    assert acc.count == 1001
    assert acc.mean == pytest.approx(float(x.mean()), rel=1e-14)
    assert acc.variance == pytest.approx(float(x.var(ddof=1)), rel=1e-12)
    assert acc.std_error == pytest.approx(float(x.std(ddof=1) / math.sqrt(1001)), rel=1e-12)


def test_accumulator_edge_cases():
    acc = MomentAccumulator()
    acc.update([])
    assert acc.count == 0
    acc.update([1.0])
    assert math.isnan(acc.variance)
    assert math.isnan(acc.std_error)
    acc.update([3.0])
    assert acc.mean == 2.0
    assert acc.variance == pytest.approx(2.0)


# ---------------------------------------------------------------- estimator


def test_estimate_scalar_one():
    res = estimate_permanent([[1.0]], 100_000, seed=0)
    assert res.samples == 100_000
    assert res.std_error > 0
    assert abs(res.mean - 1.0) <= 4 * res.std_error


def test_estimate_identity_two():
    factor = gram_factor(gen_instance(2, 2, ensemble="identity"))
    res = estimate_permanent(factor, 200_000, seed=1)
    assert abs(res.mean - 1.0) <= 4 * res.std_error


def test_estimate_ones_two():
    factor = gram_factor(gen_instance(2, 1, ensemble="all-ones"))
    res = estimate_permanent(factor, 200_000, seed=2)
    assert abs(res.mean - 2.0) <= 4 * res.std_error


def test_estimate_matches_exact_oracle():
    psd = gen_instance(4, 2, seed=21)
    exact = permanent_ryser(psd.matrix).value.real
    res = estimate_permanent(gram_factor(psd), 300_000, seed=3)
    assert abs(res.mean - exact) <= 4 * res.std_error


def test_estimate_is_deterministic():
    factor = gram_factor(gen_instance(3, 2, seed=5))
    a = estimate_permanent(factor, 50_000, seed=9)
    b = estimate_permanent(factor, 50_000, seed=9)
    assert (a.mean, a.std_error) == (b.mean, b.std_error)
    c = estimate_permanent(factor, 50_000, seed=10)
    assert a.mean != c.mean


def test_estimate_batch_size_consistency():
    # three batches of the sampling loop agree, to roundoff, with one pass
    # over the same draws (Philox draws do not depend on the batching)
    factor = gram_factor(gen_instance(3, 3, seed=6, ensemble="identity"))
    samples = 2 * montecarlo.BATCH_SIZE + 1000
    res = estimate_permanent(factor, samples, seed=4)
    z = sample_standard_complex_gaussian(philox_generator(4), 3, size=samples)
    x = np.prod(np.abs(z @ factor.conj().T) ** 2, axis=1)
    assert res.mean == pytest.approx(float(x.mean()), rel=1e-10)
    assert res.std_error == pytest.approx(float(x.std(ddof=1)) / math.sqrt(samples), rel=1e-8)


@pytest.mark.parametrize("n,d", [(22, 8), (12, 3), (5, 1)])
def test_row_product_statistic_matches_complex_product(n, d):
    # the real-arithmetic statistic, fed by the sampling loop, against the
    # complex product on the same draws; the last batch is partial
    rows = gram_factor(gen_instance(n, d, seed=n))
    samples = montecarlo.BATCH_SIZE + 1234
    statistic = montecarlo._row_product_statistic(rows, montecarlo.BATCH_SIZE)
    seen = []

    def recording(g):
        x = statistic(g)
        seen.append(x.copy())
        return x

    montecarlo._sample_mean(recording, d, samples, seed=7)
    assert [len(x) for x in seen] == [montecarlo.BATCH_SIZE, 1234]
    z = sample_standard_complex_gaussian(philox_generator(7), d, size=samples)
    expected = np.prod(np.abs(z @ rows.conj().T) ** 2, axis=1)
    np.testing.assert_allclose(np.concatenate(seen), expected, rtol=1e-12, atol=0)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_estimate_memory_does_not_grow_with_samples():
    factor = gram_factor(gen_instance(22, 8, seed=3))
    small = _traced_peak(estimate_permanent, factor, 20_000, 1)
    large = _traced_peak(estimate_permanent, factor, 200_000, 1)
    assert large < 8e6
    assert large <= 1.5 * small


def test_estimate_is_row_scale_free():
    # rows scaled by 1e100 and 1e-100 leave per(A) alone; the product of
    # the raw rows would pass the float range, the unit rows' does not
    psd = gen_instance(8, 3, seed=2)
    s = np.array((1e100,) * 4 + (1e-100,) * 4)
    scaled = gram_factor(validate_hermitian_psd(s[:, None] * psd.matrix * s))
    base = estimate_permanent(gram_factor(psd), 20_000, seed=5)
    moved = estimate_permanent(scaled, 20_000, seed=5)
    assert moved.mean == pytest.approx(base.mean, rel=1e-9)
    assert moved.std_error == pytest.approx(base.std_error, rel=1e-9)


def test_estimate_zero_row_short_circuits():
    bad = [[1.0], [0.0]]
    res = estimate_permanent(bad, 1000, seed=0)
    assert res.mean == 0.0 and res.std_error == 0.0


def test_estimate_validates_arguments():
    factor = [[1.0]]
    for samples in (1, 0, -3):
        with pytest.raises(ValueError):
            estimate_permanent(factor, samples, seed=0)
    with pytest.raises(ValueError):
        estimate_permanent([[1.0], [0.0]], 1, seed=0)


@pytest.mark.parametrize("samples", [2.5, 100.0, True, "100", np.float64(10.0)])
def test_estimate_rejects_non_integer_samples(samples):
    with pytest.raises(ValueError, match="integer"):
        estimate_permanent([[1.0]], samples, seed=0)
    with pytest.raises(ValueError, match="integer"):
        calibrate_gamma(samples, seed=0)


def test_estimate_accepts_numpy_integer_samples():
    res = estimate_permanent([[1.0]], np.int64(1000), seed=0)
    assert res.samples == 1000


@pytest.mark.parametrize("seed", [2.5, "3", True])
def test_rejects_non_integer_seed(seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        philox_generator(seed)
    with pytest.raises(ValueError, match="seed must be an integer"):
        estimate_permanent([[1.0]], 10, seed)
    # the zero-row answer needs no draw, and still checks the seed it echoes
    with pytest.raises(ValueError, match="seed must be an integer"):
        estimate_permanent([[1.0], [0.0]], 10, seed)
    with pytest.raises(ValueError, match="seed must be an integer"):
        calibrate_gamma(10, seed)


def test_accepts_numpy_integer_seed():
    res = estimate_permanent([[1.0]], 100, np.int64(7))
    assert res.seed == 7
    assert res.mean == estimate_permanent([[1.0]], 100, 7).mean
    np.testing.assert_array_equal(
        sample_standard_complex_gaussian(philox_generator(np.uint64(2**64 - 1)), 2, size=3),
        sample_standard_complex_gaussian(philox_generator(-1), 2, size=3))


def test_relative_std_error():
    factor = [[1.0]]
    res = estimate_permanent(factor, 10_000, seed=12)
    assert res.relative_std_error == pytest.approx(res.std_error / abs(res.mean))
    zero = estimate_permanent([[1.0], [0.0]], 100, seed=0)
    assert zero.relative_std_error == float("inf")


def test_variance_grows_with_n():
    # rank-1 at n = 10: the statistic is ~ |z|^20, so the estimator is
    # noise-dominated at modest sample sizes (and the empirical standard
    # error itself under-reports the true heavy-tailed variance)
    big = estimate_permanent(gram_factor(gen_instance(10, 1, seed=30)), 100_000, seed=13)
    small = estimate_permanent(gram_factor(gen_instance(3, 1, seed=30)), 100_000, seed=13)
    assert big.relative_std_error > 0.1
    assert small.relative_std_error < 0.05
    assert big.relative_std_error > 10 * small.relative_std_error


# -------------------------------------------------------------- calibration


def test_calibrate_gamma_hits_constant():
    res = calibrate_gamma(200_000, seed=0)
    assert abs(res.mean + GAMMA) <= 4 * res.std_error
    # known variance pi^2/6 fixes the standard error scale
    expected_se = math.sqrt((math.pi**2 / 6) / 200_000)
    assert res.std_error == pytest.approx(expected_se, rel=0.05)


def test_calibrate_gamma_deterministic():
    a = calibrate_gamma(10_000, seed=3)
    b = calibrate_gamma(10_000, seed=3)
    assert (a.mean, a.std_error) == (b.mean, b.std_error)


def test_calibrate_validates_arguments():
    with pytest.raises(ValueError):
        calibrate_gamma(1, seed=0)

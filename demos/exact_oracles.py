"""Walkthrough: the exact permanent oracles and where they stop scaling.

The naive expansion is the definition, trustworthy and O(n * n!); Ryser's
inclusion-exclusion, in Nijenhuis-Wilf form with Gray-code updates, sums
2^(n-1) terms and is timed below up to its n = 22 size guard.
Having two independent routes to the same number is what lets the rest
of the package freeze reference values with confidence.  For a PSD
matrix of small rank d, the low-rank oracle sums Wick's formula over the
C(n+d-1, d-1) coefficients of the Gram rows' product instead: polynomial
in n, so it goes past Ryser's guard.
"""

import math
import time

import numpy as np

from psdperm import gen_instance, gram_factor, permanent_lowrank, permanent_naive, permanent_ryser


def main() -> None:
    print("closed forms first: per(J_n) = n! for the all-ones matrix")
    for n in range(1, 9):
        got = permanent_ryser(np.ones((n, n))).value
        print(f"  n={n}: ryser = {got.real:>9.0f}, n! = {math.factorial(n):>9}")
        assert got == complex(math.factorial(n))

    print("\nrandom complex matrices: the two oracles must agree to roundoff")
    gen = np.random.Generator(np.random.Philox(key=np.array([42, 0], dtype=np.uint64)))
    for n in (4, 6, 8):
        M = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        a = permanent_naive(M).value
        b = permanent_ryser(M).value
        rel = abs(a - b) / abs(a)
        print(f"  n={n}: |naive - ryser| / |naive| = {rel:.2e}")

    print("\nscaling: Ryser at the size guard")
    for n in (16, 18, 20, 22):
        M = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        t0 = time.perf_counter()
        res = permanent_ryser(M)
        dt = time.perf_counter() - t0
        print(f"  n={n}: log|per| = {res.log_abs:8.3f}, {dt:6.2f}s")
    print("(each +1 in n doubles the work, so every step past the n <= 22 "
          "guard would double the time of a certify run's exact check)")

    print("\nlow rank: Wick's formula on the Gram factor, rank 3")
    psd = gen_instance(22, 3, seed=1)
    t0 = time.perf_counter()
    ryser = permanent_ryser(psd.matrix)
    t_ryser = time.perf_counter() - t0
    low = permanent_lowrank(gram_factor(psd))
    print(f"  n=22: ryser log per = {ryser.log_abs:.12f} in {t_ryser * 1e3:6.1f} ms, "
          f"lowrank {low.log_abs:.12f}")
    assert abs(low.log_abs - ryser.log_abs) <= 1e-12
    for n in (22, 30, 40, 50, 60):
        psd = gen_instance(n, 3, seed=1)
        t0 = time.perf_counter()
        res = permanent_lowrank(gram_factor(psd))
        dt = time.perf_counter() - t0
        print(f"  n={n}: log per = {res.log_abs:8.3f}, {dt * 1e3:6.2f} ms "
              f"over C(n+2, 2) = {math.comb(n + 2, 2)} coefficients")
    print("  closed form past Ryser: per(J_60) = 60!")
    got = permanent_lowrank(np.ones((60, 1))).log_abs
    print(f"  log per(J_60) = {got:.10f}, log 60! = {math.lgamma(61):.10f}")
    assert abs(got - math.lgamma(61)) <= 1e-12 * math.lgamma(61)


if __name__ == "__main__":
    main()

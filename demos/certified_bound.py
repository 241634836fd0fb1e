"""Walkthrough: a certified two-sided bound on a permanent.

Generates a random PSD instance, maximizes the concave objective, and
checks the resulting interval against the exact permanent.  The point of
the exercise: the interval is *guaranteed* (up to floating point), not
statistical, and costs a handful of Newton steps instead of 2^n work.
"""

import argparse
import math

import numpy as np

from psdperm import GAMMA, bound_permanent, gen_instance, permanent_ryser


def run(n: int, d: int, seed: int) -> None:
    psd = gen_instance(n, d, seed=seed)
    print(f"instance: gaussian-gram ensemble, n={n}, rank d={d}, seed={seed}")
    diag = np.real(np.diag(psd.matrix))
    print(f"Gram factor V: {psd.n} x {psd.rank} by pivoted Cholesky, "
          f"diagonal A_ii from {diag.min():.6f} to {diag.max():.6f}")

    res = bound_permanent(psd.matrix)
    print(f"\nsolver: {res.iterations} Newton iterations, "
          f"gradient norm {res.grad_norm:.2e}, status {res.status}")
    print(f"trace check: tr X* = {n + d} + {res.trace_residual:.2e}")

    width = GAMMA * n
    print(f"\ncertified interval for log per(A):")
    print(f"  [{res.log_lower:.6f}, {res.log_upper:.6f}]   (width gamma*n = {width:.4f})")

    exact = permanent_ryser(psd.matrix)
    print(f"exact check (Ryser): log per(A) = {exact.log_abs:.6f}")
    inside = res.log_lower <= exact.log_abs <= res.log_upper + 1e-6
    print(f"inside the interval: {inside}")
    assert inside

    # the multiplicative guarantee, stated in linear scale
    print(f"\nequivalently: per(A) = {math.exp(exact.log_abs):.3e} is pinned between")
    print(f"  {math.exp(res.log_lower):.3e} and {math.exp(res.log_upper):.3e}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--d", type=int, default=4)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    run(args.n, args.d, args.seed)

"""Acceptance battery: 12 criteria, one test and one printed verdict each.

Run under pytest, or directly (``python tests/test_acceptance.py``) to
get the per-criterion lines on stdout.  All sweeps are seeded, so every
run checks the identical instance population.
"""

import json
import math
import struct
import tempfile
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.integrate import quad

from psdperm import (
    GAMMA,
    apply_unitary,
    bound_permanent,
    calibrate_gamma,
    estimate_permanent,
    gen_instance,
    gradient,
    gram_factor,
    objective,
    permanent_naive,
    permanent_ryser,
    random_unitary,
    solve,
)
from psdperm.cli import EXIT_OK, main
from helpers import newton_from_identity, random_factor, random_hermitian, random_pd


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


@lru_cache(maxsize=1)
def sweep_200():
    """200 gaussian-gram instances, n in [2,12], d in [1,n], fixed seeds."""
    out = []
    for k in range(200):
        n = 2 + k % 11
        d = 1 + (13 * k) % n
        psd = gen_instance(n, d, seed=10_000 + k)
        res = solve(gram_factor(psd))
        log_per = permanent_ryser(psd.matrix).log_abs
        out.append((n, d, res, log_per))
    return out


def test_criterion_01_sandwich_on_200_instances():
    lower_margin = math.inf
    upper_margin = math.inf
    ok = True
    for n, d, res, log_per in sweep_200():
        lo = res.phi - GAMMA * n
        ok = ok and (lo <= log_per <= res.phi + 1e-6)
        lower_margin = min(lower_margin, log_per - lo)
        upper_margin = min(upper_margin, res.phi + 1e-6 - log_per)
    verdict(1, "entropic sandwich on 200 instances", ok,
            f"min slack: lower {lower_margin:.3e}, upper {upper_margin:.3e}")


def test_criterion_02_trace_normalization_and_convergence():
    worst = 0.0
    converged = 0
    for n, d, res, _ in sweep_200():
        if res.converged:
            converged += 1
            worst = max(worst, res.trace_residual / (1e-6 * (n + d)))
    ok = converged == 200 and worst <= 1.0
    verdict(2, "tr X* = n+d with 100% convergence", ok,
            f"{converged}/200 converged, worst residual at {worst:.3f} of budget")


def test_criterion_03_identity_closed_form():
    worst_phi = 0.0
    worst_x = 0.0
    for n in range(1, 11):
        factor = gram_factor(gen_instance(n, n, ensemble="identity"))
        # the default start is exactly X* = 2I; from I the solver must move
        res = solve(factor)
        best = newton_from_identity(factor)[0]
        for phi, X in ((res.phi, res.x_star.matrix), (best.phi, best.x)):
            worst_phi = max(worst_phi, abs(phi - n * (2 * math.log(2) - 1)))
            worst_x = max(worst_x, float(np.max(np.abs(X - 2 * np.eye(n)))))
    ok = worst_phi <= 1e-8 and worst_x <= 1e-7
    verdict(3, "Phi(I_n) = n(2 ln 2 - 1), X* = 2I", ok,
            f"max |phi error| {worst_phi:.2e}, max |X* - 2I| {worst_x:.2e}")


def test_criterion_04_all_ones_closed_form_and_factorials():
    worst_phi = 0.0
    worst_gap = 0.0
    exact_ok = True
    gap_below = True
    for n in range(1, 9):
        target = (n + 1) * math.log(n + 1) - n
        factor = gram_factor(gen_instance(n, 1, ensemble="all-ones"))
        for phi in (solve(factor).phi, newton_from_identity(factor)[0].phi):
            worst_phi = max(worst_phi, abs(phi - target))
        fact = complex(math.factorial(n))
        J = np.ones((n, n))
        exact_ok = exact_ok and permanent_naive(J).value == fact
        exact_ok = exact_ok and permanent_ryser(J).value == fact
        # gap to the truth: Phi - ln n! = ln((n+1)^{n+1} e^{-n} / n!) < gamma*n
        gap = solve(factor).phi - math.log(math.factorial(n))
        predicted = target - math.log(math.factorial(n))
        worst_gap = max(worst_gap, abs(gap - predicted))
        gap_below = gap_below and gap < GAMMA * n
    ok = worst_phi <= 1e-8 and exact_ok and worst_gap <= 1e-9 and gap_below
    verdict(4, "Phi(J_n) closed form, per(J_n) = n! exact", ok,
            f"max |phi error| {worst_phi:.2e}, exact factorials {exact_ok}, "
            f"gap identity error {worst_gap:.2e}, gap < gamma*n {gap_below}")


def test_criterion_05_gradient_finite_differences():
    worst = 0.0
    h = 1e-6
    for seed in range(50):
        n = 3 + seed % 6
        d = 1 + seed % n
        factor = random_factor(n, d, seed=seed)
        X = random_pd(d, seed=seed, jitter=0.4)
        G = gradient(factor, X)
        for k in range(10):
            H = random_hermitian(d, seed=1000 * seed + k)
            H = H / np.linalg.norm(H)
            analytic = float(np.real(np.trace(G @ H)))
            fd = (objective(factor, X + h * H) - objective(factor, X - h * H)) / (2 * h)
            worst = max(worst, abs(fd - analytic) / max(1.0, abs(analytic)))
    ok = worst <= 1e-5
    verdict(5, "gradient vs central differences (50 x 10)", ok,
            f"worst relative error {worst:.2e}")


def test_criterion_06_oracle_agreement_and_ryser_speed():
    worst = 0.0
    for k in range(100):
        n = 2 + k % 7
        gen = np.random.Generator(np.random.Philox(key=np.array([k, 3], dtype=np.uint64)))
        M = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        a = permanent_naive(M).value
        b = permanent_ryser(M).value
        worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    gen = np.random.Generator(np.random.Philox(key=np.array([20, 3], dtype=np.uint64)))
    M20 = gen.standard_normal((20, 20)) + 1j * gen.standard_normal((20, 20))
    t0 = time.perf_counter()
    permanent_ryser(M20)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    verdict(6, "Ryser vs naive on 100 matrices; n=20 timing", ok,
            f"worst relative gap {worst:.2e}, n=20 in {elapsed:.2f}s")


def test_criterion_07_wick_estimator_four_sigma():
    hits = 0
    worst = 0.0
    for k in range(20):
        n = 2 + k % 4
        d = 1 + k % n
        psd = gen_instance(n, d, seed=500 + k)
        exact = permanent_ryser(psd.matrix).value.real
        est = estimate_permanent(gram_factor(psd), 1_000_000, seed=777 + k)
        dev = abs(est.mean - exact) / est.std_error
        worst = max(worst, dev)
        if dev <= 4.0:
            hits += 1
    ok = hits >= 19
    verdict(7, "Monte Carlo within 4 standard errors (20 instances, 1e6 samples)",
            ok, f"{hits}/20 within 4 se, worst deviation {worst:.2f} se")


def test_criterion_08_gamma_calibration_with_variance_oracle():
    est = calibrate_gamma(1_000_000, seed=2026)
    dev = abs(est.mean + GAMMA) / est.std_error
    target_var = math.pi**2 / 6
    # independent numeric oracle for the variance of log|g|^2:
    # |g|^2 ~ Exp(1), so Var = integral_0^inf e^-t (log t + gamma)^2 dt
    oracle, quad_err = quad(lambda t: math.exp(-t) * (math.log(t) + GAMMA) ** 2,
                            0.0, np.inf)
    emp_var = est.std_error**2 * est.samples
    ok = (
        dev <= 3.0
        and abs(est.std_error - 1.28e-3) <= 5e-5
        and abs(oracle - target_var) <= 1e-6
        and abs(emp_var - target_var) <= 0.05 * target_var
    )
    verdict(8, "gamma calibration at 1e6 samples", ok,
            f"mean {est.mean:.7f} vs {-GAMMA:.7f} ({dev:.2f} se), "
            f"se {est.std_error:.3e}, quad oracle off by {abs(oracle - target_var):.1e}, "
            f"empirical variance {emp_var:.4f} vs {target_var:.4f}")


def test_criterion_09_unitary_invariance():
    worst = 0.0
    for k in range(10):
        n = 4 + k % 6
        d = 2 + k % 3
        factor = random_factor(n, d, seed=60 + k)
        phi = solve(factor).phi
        for j in range(20):
            rotated = apply_unitary(factor, random_unitary(d, seed=100 * k + j))
            worst = max(worst, abs(solve(rotated).phi - phi))
    ok = worst <= 1e-7
    verdict(9, "Phi invariant under V -> VU (10 x 20)", ok,
            f"worst |Phi(V) - Phi(VU)| = {worst:.2e}")


def test_criterion_10_concavity_midpoint():
    worst = math.inf
    for k in range(10):
        n = 4 + k % 5
        d = 2 + k % 4
        factor = random_factor(n, d, seed=300 + k)
        for j in range(100):
            X = random_pd(d, seed=17_000 + 100 * k + j)
            Y = random_pd(d, seed=23_000 + 100 * k + j)
            mid = objective(factor, (X + Y) / 2.0)
            avg = 0.5 * (objective(factor, X) + objective(factor, Y))
            worst = min(worst, mid - avg)
    ok = worst >= -1e-9
    verdict(10, "midpoint concavity (10 x 100 pairs)", ok,
            f"min midpoint advantage {worst:.3e}")


def test_criterion_11_zero_diagonal_convention(tmp_path=None):
    M = np.array(
        [[1.0, 0.0, 0.2], [0.0, 0.0, 0.0], [0.2, 0.0, 1.0]], dtype=complex
    )
    zeros_exact = permanent_naive(M).value == 0.0 and permanent_ryser(M).value == 0.0
    res = bound_permanent(M)
    sentinel = (res.status == "zero_diagonal" and res.phi == float("-inf")
                and res.log_upper == float("-inf"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "zero.json"
        from psdperm import InstanceFile, write_instance

        write_instance(InstanceFile(matrix=M), path)
        report_path = Path(tmp) / "report.json"
        code = main(["certify", str(path), "--out", str(report_path)])
        report = json.loads(report_path.read_text())
    cli_ok = (code == EXIT_OK and report["permanent_is_zero"] is True
              and report["phi"] is None and report["sandwich_ok"] is True)
    ok = zeros_exact and sentinel and cli_ok
    verdict(11, "zero diagonal forces per = 0 everywhere", ok,
            f"oracles exact zero {zeros_exact}, sentinel {sentinel}, "
            f"certify exit {code}")


def test_criterion_12_cli_determinism():
    with tempfile.TemporaryDirectory() as tmp:
        inst = Path(tmp) / "inst.json"
        assert main(["gen", "--n", "6", "--d", "3", "--seed", "11",
                     "--out", str(inst)]) == EXIT_OK
        reports = []
        for run_id in (1, 2):
            out = Path(tmp) / f"report{run_id}.json"
            code = main(["certify", str(inst), "--mc-samples", "100000",
                         "--seed", "5", "--out", str(out)])
            assert code == EXIT_OK
            reports.append(json.loads(out.read_text()))
    r1, r2 = reports
    mc_bits_equal = all(
        struct.pack("<d", float(r1[key])) == struct.pack("<d", float(r2[key]))
        for key in ("mc_mean", "mc_std_error")
    ) and r1["mc_samples"] == r2["mc_samples"] and r1["mc_seed"] == r2["mc_seed"]
    phi_close = abs(r1["phi"] - r2["phi"]) <= 1e-12
    ok = mc_bits_equal and phi_close
    verdict(12, "repeat CLI runs: bitwise MC fields, phi to 1e-12", ok,
            f"mc bitwise {mc_bits_equal}, |phi1-phi2| = {abs(r1['phi'] - r2['phi']):.1e}")


if __name__ == "__main__":
    for fn in sorted(k for k in dir() if k.startswith("test_criterion_")):
        globals()[fn]()

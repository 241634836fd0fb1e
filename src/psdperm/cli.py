"""Command-line harness: generate, bound, certify, estimate, selfcheck.

Reports are JSON on stdout; logs and errors go to stderr.  Exit codes:
0 success, 2 invalid input, 3 sandwich violation (a zero claim that
Ryser refutes included) or failed self-check (either one signals a bug,
the bound is unconditional), 4 size guard.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .bound import GAMMA, SolverOptions, solve
from .errors import PsdPermError, TooLargeError
from .exact import RYSER_LIMIT, permanent_naive, permanent_ryser
from .gram import RANK_TOL, gram_factor, validate_hermitian_psd
from .instances import (
    ENSEMBLES,
    InstanceFile,
    gen_instance,
    instance_to_json,
    parse_instance,
    write_instance,
)
from .montecarlo import calibrate_gamma, estimate_permanent

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_SANDWICH_VIOLATION = 3
EXIT_SIZE_GUARD = 4

#: additive slack (log domain) when checking the sandwich against an
#: exact value; absorbs roundoff in the solver and the oracle
SANDWICH_SLACK = 1e-6


@dataclass
class CertReport:
    """Everything a run needs to be reproduced and audited."""

    command: str
    n: int | None = None
    d: int | None = None
    phi: float | None = None
    log_lower: float | None = None
    log_upper: float | None = None
    duality_gap: float | None = None
    gamma: float | None = None
    permanent_is_zero: bool = False
    log_per_exact: float | None = None
    exact_method: str | None = None
    mc_mean: float | None = None
    mc_std_error: float | None = None
    mc_samples: int | None = None
    mc_seed: int | None = None
    sandwich_ok: bool | None = None
    iterations: int | None = None
    grad_norm: float | None = None
    trace_residual: float | None = None
    converged: bool | None = None
    status: str | None = None
    timings: dict | None = None
    config: dict | None = None
    version: str = __version__

    def to_dict(self) -> dict:
        def clean(v):
            if isinstance(v, float) and not math.isfinite(v):
                return None
            return v

        return {k: clean(v) for k, v in asdict(self).items()}


#: `BoundResult` fields that a report copies unchanged
BOUND_FIELDS = ("d", "phi", "log_lower", "log_upper", "duality_gap", "iterations",
                "grad_norm", "trace_residual", "converged", "status")

#: arguments recorded in a report's `config`, those the verb has
CONFIG_KEYS = ("input", "rank_tol", "max_iters", "mc_samples", "seed")


def _emit(data: dict, out: str | None) -> None:
    text = json.dumps(data, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _timed(timings: dict, key: str, fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    timings[key] = time.perf_counter() - t0
    return out


def cmd_gen(args) -> int:
    psd = gen_instance(args.n, args.d, seed=args.seed, ensemble=args.ensemble)
    inst = InstanceFile(
        matrix=psd.matrix,
        metadata={"label": args.ensemble, "seed": args.seed, "rank": psd.rank},
    )
    if args.out:
        write_instance(inst, args.out)
        _log(f"wrote {args.ensemble} instance n={args.n} d={args.d} to {args.out}")
    else:
        sys.stdout.write(instance_to_json(inst))
    return EXIT_OK


def cmd_pipeline(args) -> int:
    """``bound``, ``certify`` and ``estimate``: one validated input, one report.

    ``bound`` and ``certify`` solve, ``certify`` adds Ryser and the
    sandwich verdict, and ``estimate`` (or ``certify --mc-samples``) runs
    Monte Carlo.  A zero diagonal entry forces ``per(A) = 0``: its Gram
    row is zero, so `solve` returns the ``[-inf, -inf]`` bracket and
    Monte Carlo an exact 0.  Only Ryser's exact 0 lies in that bracket;
    any other value refutes the zero claim (exit 3).
    """
    verb = args.command
    timings: dict = {}
    inst = _timed(timings, "parse", parse_instance, args.input)
    if verb == "certify" and inst.n > RYSER_LIMIT:
        _log(f"error: exact certification needs n <= {RYSER_LIMIT}, got {inst.n}")
        return EXIT_SIZE_GUARD
    psd = _timed(timings, "validate", validate_hermitian_psd, inst.matrix, args.rank_tol)

    config = {k: getattr(args, k) for k in CONFIG_KEYS if hasattr(args, k)}
    if verb == "certify":
        config["sandwich_slack"] = SANDWICH_SLACK
    report = CertReport(command=verb, n=psd.n, d=psd.rank, gamma=GAMMA,
                        permanent_is_zero=bool(psd.zero_diagonal_indices),
                        timings=timings, config=config)
    factor = gram_factor(psd)

    if verb != "estimate":
        opts = SolverOptions(max_iters=args.max_iters)
        res = _timed(timings, "solve", solve, factor, opts)
        if not res.converged:
            _log(f"warning: solver did not converge (status={res.status}, "
                 f"grad_norm={res.grad_norm:.3e})")
        for key in BOUND_FIELDS:
            setattr(report, key, getattr(res, key))

    if verb == "certify":
        exact = _timed(timings, "exact", permanent_ryser, psd.matrix)
        report.log_per_exact = exact.log_abs
        report.exact_method = exact.method
        report.sandwich_ok = bool(res.log_lower - SANDWICH_SLACK <= exact.log_abs
                                  <= res.log_upper + SANDWICH_SLACK)

    if getattr(args, "mc_samples", 0):
        est = _timed(timings, "estimate", estimate_permanent, factor,
                     args.mc_samples, args.seed)
        if verb == "estimate" and est.mean > 0 and est.relative_std_error > 1.0:
            _log(f"warning: relative std error {est.relative_std_error:.2f} > 1; "
                 "the estimate is dominated by noise at this sample size")
        report.mc_mean = est.mean
        report.mc_std_error = est.std_error
        report.mc_samples = est.samples
        report.mc_seed = est.seed

    _emit(report.to_dict(), args.out)
    if report.sandwich_ok is False:
        if report.permanent_is_zero:
            _log(f"error: diagonal entries {list(psd.zero_diagonal_indices)} were taken as "
                 f"zeros (A_ii <= 0), but Ryser gives log_per={exact.log_abs!r}")
        else:
            _log(f"error: sandwich violated: log_per={exact.log_abs!r} not in "
                 f"[{res.log_lower!r}, {res.log_upper!r}] (slack {SANDWICH_SLACK})")
        return EXIT_SANDWICH_VIOLATION
    return EXIT_OK


def _selfcheck_checks() -> list:
    checks = []

    def add(name, ok, detail):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    # closed forms: identity and all-ones
    worst = 0.0
    for n in range(1, 7):
        psd = gen_instance(n, n, ensemble="identity")
        res = solve(gram_factor(psd))
        worst = max(worst, abs(res.phi - n * (2 * math.log(2) - 1)))
    add("identity_closed_form", worst <= 1e-8, f"max |phi - n(2ln2-1)| = {worst:.2e}")

    worst = 0.0
    for n in range(1, 7):
        psd = gen_instance(n, 1, ensemble="all-ones")
        res = solve(gram_factor(psd))
        target = (n + 1) * math.log(n + 1) - n
        worst = max(worst, abs(res.phi - target))
    add("all_ones_closed_form", worst <= 1e-8, f"max |phi - target| = {worst:.2e}")

    # the two exact oracles agree on a random complex matrix
    gen = np.random.Generator(np.random.Philox(key=np.array([7, 0], dtype=np.uint64)))
    M = gen.standard_normal((5, 5)) + 1j * gen.standard_normal((5, 5))
    a = permanent_naive(M).value
    b = permanent_ryser(M).value
    err = abs(a - b) / max(1.0, abs(a))
    add("oracle_agreement", err <= 1e-9, f"relative difference = {err:.2e}")

    # sandwich on a random Gram instance
    psd = gen_instance(6, 3, seed=0)
    res = solve(gram_factor(psd))
    log_per = permanent_ryser(psd.matrix).log_abs
    ok = res.log_lower - SANDWICH_SLACK <= log_per <= res.log_upper + SANDWICH_SLACK
    add("sandwich_n6_d3", ok and res.converged,
        f"interval [{res.log_lower:.6f}, {res.log_upper:.6f}], log_per {log_per:.6f}")

    # gamma calibration within 4 standard errors
    est = calibrate_gamma(100_000, seed=0)
    dev = abs(est.mean + GAMMA) / est.std_error
    add("gamma_calibration", dev <= 4.0, f"deviation = {dev:.2f} standard errors")

    # zero diagonal forces an exactly zero permanent
    M = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    z1 = permanent_naive(M).value
    z2 = permanent_ryser(M).value
    add("zero_diagonal_convention", z1 == 0.0 and z2 == 0.0,
        f"naive = {z1}, ryser = {z2}")

    return checks


def cmd_selfcheck(args) -> int:
    checks = _selfcheck_checks()
    ok = all(c["ok"] for c in checks)
    _emit({"version": __version__, "ok": ok, "checks": checks}, args.out)
    for c in checks:
        _log(f"[{'ok' if c['ok'] else 'FAIL'}] {c['name']}: {c['detail']}")
    return EXIT_OK if ok else EXIT_SANDWICH_VIOLATION


def _checked(convert, accept, what: str):
    """An argparse ``type`` that converts with `convert` and keeps values where `accept` holds.

    A rejected value is a usage error: argparse prints it and exits 2.
    """
    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psdperm",
        description="Certified bounds and estimates for permanents of Hermitian PSD matrices.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_io(p):
        p.add_argument("input", help="instance JSON file")
        p.add_argument("--rank-tol", type=_checked(float, lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
                       default=RANK_TOL,
                       help="numerical rank cutoff: pivoted Cholesky of the unit-diagonal "
                            "matrix stops when no remaining pivot exceeds it")
        p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")

    def solver_flags(p):
        p.add_argument("--max-iters", type=_checked(int, lambda v: v >= 1, "at least 1"),
                       default=SolverOptions.max_iters)

    p = sub.add_parser("gen", help="generate an instance from a named ensemble")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ensemble", choices=ENSEMBLES, default="gaussian-gram")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bound", help="compute the certified interval for log per(A)")
    common_io(p)
    solver_flags(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("certify", help="bound plus exact permanent plus sandwich verdict")
    common_io(p)
    solver_flags(p)
    p.add_argument("--mc-samples", type=_checked(int, lambda v: v == 0 or v >= 2,
                                                 "0 or at least 2"),
                   default=0, help="if > 0, also run the Monte Carlo estimator")
    p.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("estimate", help="Monte Carlo estimate of per(A)")
    common_io(p)
    p.add_argument("--mc-samples", type=_checked(int, lambda v: v >= 2, "at least 2"),
                   default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("selfcheck", help="run the built-in analytic test battery")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TooLargeError as exc:
        _log(f"error: {exc}")
        return EXIT_SIZE_GUARD
    except (PsdPermError, OSError) as exc:
        _log(f"error: {exc}")
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())

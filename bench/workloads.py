"""The benchmark's workloads: inputs from a seed, one request, output checks.

Every workload is a closed loop with one client: the next request starts
only after the previous one returned.  Inputs are generated from the
benchmark seed alone; the program sees only the generated matrices or
files.  See README.md for why each workload exists.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import psdperm.bound
import psdperm.gram
import psdperm.instances

BENCH_DIR = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 60
MC_SAMPLES = 200_000

#: tolerances of the output checks
GRAD_TOL = 1e-6
TRACE_TOL = 1e-6
CLOSED_FORM_TOL = 1e-8
SANDWICH_SLACK = 1e-6


@dataclass
class Spec:
    """One input: an ensemble draw, optionally with a zeroed row and column."""

    n: int
    d: int
    seed: int = 0
    ensemble: str = "gaussian-gram"
    zero_row: int | None = None

    @property
    def label(self) -> str:
        extra = f" zero_row={self.zero_row}" if self.zero_row is not None else ""
        return f"{self.ensemble} n={self.n} d={self.d} seed={self.seed}{extra}"

    def closed_form_phi(self) -> float | None:
        n = self.n
        if self.ensemble == "identity":
            return n * (2.0 * math.log(2.0) - 1.0)
        if self.ensemble == "all-ones":
            return (n + 1) * math.log(n + 1) - n
        return None


@dataclass
class Input:
    spec: Spec
    matrix: np.ndarray
    path: Path | None = None


@dataclass
class Outcome:
    """What one request returned, or how it failed."""

    input_index: int
    wall_s: float
    value: object = None
    error: str | None = None


def _interleave(specs: list) -> list:
    """Alternate small and large inputs so a cut-off cycle stays balanced."""
    ordered = sorted(specs, key=lambda s: (s.n * s.d * s.d, s.seed))
    out = []
    while ordered:
        out.append(ordered.pop(0))
        if ordered:
            out.append(ordered.pop())
    return out


def make_input(spec: Spec, path: Path | None) -> Input:
    """Generate one input, and write it to `path` when one is given."""
    psd = psdperm.instances.gen_instance(spec.n, spec.d, seed=spec.seed, ensemble=spec.ensemble)
    matrix = np.array(psd.matrix)
    if spec.zero_row is not None:
        matrix[spec.zero_row, :] = 0.0
        matrix[:, spec.zero_row] = 0.0
    if path is not None:
        psdperm.instances.write_instance(
            psdperm.instances.InstanceFile(matrix=matrix, metadata={"label": spec.label}), path)
    return Input(spec=spec, matrix=matrix, path=path)


class WideBound:
    """In-process ``bound_permanent`` on d^2 >> n inputs: the d^2 x d^2 Newton system."""

    name = "wide-bound"
    in_process = True

    def __init__(self):
        #: wall time of each gradient evaluation made by `check`
        self.gradient_call_s: list = []

    def specs(self, seed: int) -> list:
        specs = [Spec(n=d + 10, d=d, seed=seed * 100 + k)
                 for k, d in enumerate(list(range(20, 32)) * 2)]
        specs.append(Spec(n=30, d=30, ensemble="identity"))
        return _interleave(specs)

    def request(self, inp: Input, trace_to=None):
        return psdperm.bound.bound_permanent(inp.matrix)

    def check(self, inp: Input, res) -> list:
        spec = inp.spec
        problems = []
        if res.status != "converged":
            return [f"status {res.status!r}, expected 'converged'"]
        factor = psdperm.gram.gram_factor(psdperm.gram.validate_hermitian_psd(inp.matrix))
        t0 = perf_counter()
        grad = psdperm.bound.gradient(factor, res.x_star)
        self.gradient_call_s.append(perf_counter() - t0)
        gnorm = float(np.linalg.norm(grad))
        if not gnorm <= GRAD_TOL:
            problems.append(f"|gradient(x_star)| = {gnorm:.3e} > {GRAD_TOL:g}")
        tr = float(np.real(np.trace(res.x_star.matrix)))
        if not abs(tr - (spec.n + spec.d)) <= TRACE_TOL:
            problems.append(f"tr X* = {tr!r}, expected {spec.n + spec.d}")
        target = spec.closed_form_phi()
        if target is not None and not abs(res.phi - target) <= CLOSED_FORM_TOL:
            problems.append(f"phi = {res.phi!r}, closed form {target!r}")
        return problems


@dataclass
class CliResult:
    returncode: int
    stdout: str
    stderr: str


class CliWorkload:
    """One ``python -m psdperm`` child per request, on instance files."""

    in_process = False
    subcommand = ""

    def __init__(self, env: dict):
        self.env = env

    def cli_args(self, inp: Input) -> list:
        return [self.subcommand, str(inp.path)]

    def _run(self, argv: list) -> CliResult:
        proc = subprocess.run(argv, capture_output=True, text=True, env=self.env,
                              timeout=CHILD_TIMEOUT_S, check=False)
        return CliResult(proc.returncode, proc.stdout, proc.stderr)

    def request(self, inp: Input, trace_to=None):
        """Run one child; `trace_to` is ``(spans_file, request_id)`` for a traced one."""
        if trace_to is None:
            return self._run([sys.executable, "-m", "psdperm", *self.cli_args(inp)])
        spans_file, request_id = trace_to
        return self._run([sys.executable, str(BENCH_DIR / "traced_cli.py"),
                          str(spans_file), str(request_id), *self.cli_args(inp)])

    def report(self, res: CliResult) -> tuple:
        """The parsed JSON report and the problems that prevent reading it."""
        if res.returncode != 0:
            tail = res.stderr.strip().splitlines()[-1:] or [""]
            return None, [f"exit code {res.returncode}: {tail[0]}"]
        try:
            return json.loads(res.stdout), []
        except json.JSONDecodeError as exc:
            return None, [f"report is not JSON: {exc}"]


class TallCliBound(CliWorkload):
    """``psdperm bound FILE`` on n >> d files: start-up, parsing and validation."""

    name = "tall-cli-bound"
    subcommand = "bound"

    def specs(self, seed: int) -> list:
        return _interleave([Spec(n=320, d=d, seed=seed * 100 + k)
                            for k, d in enumerate((4, 8, 12))])

    def check(self, inp: Input, res: CliResult) -> list:
        report, problems = self.report(res)
        if report is None:
            return problems
        if report.get("converged") is not True or report.get("status") != "converged":
            return [f"status {report.get('status')!r}, converged={report.get('converged')!r}"]
        lo, hi, n = report["log_lower"], report["log_upper"], report["n"]
        width = psdperm.bound.GAMMA * n
        if not abs((hi - lo) - width) <= 1e-9 * max(1.0, abs(hi)):
            problems.append(f"log_upper - log_lower = {hi - lo!r}, expected gamma*n = {width!r}")
        return problems


class CertifyCli(CliWorkload):
    """``psdperm certify FILE --mc-samples S``: Ryser, Monte Carlo and a light bound."""

    name = "certify-cli"
    subcommand = "certify"

    def __init__(self, env: dict, mc_seed: int):
        super().__init__(env)
        self.mc_seed = mc_seed

    def cli_args(self, inp: Input) -> list:
        return [self.subcommand, str(inp.path), "--mc-samples", str(MC_SAMPLES),
                "--seed", str(self.mc_seed)]

    def specs(self, seed: int) -> list:
        base = seed * 100
        specs = [Spec(n=19, d=3, seed=base), Spec(n=20, d=4, seed=base + 1)]
        specs += [Spec(n=22, d=d, seed=base + d) for d in range(3, 9)]
        specs.append(Spec(n=22, d=1, ensemble="all-ones"))
        specs.append(Spec(n=22, d=5, seed=base + 9, zero_row=seed % 22))
        return _interleave(specs)

    def check(self, inp: Input, res: CliResult) -> list:
        report, problems = self.report(res)
        if report is None:
            return problems
        spec = inp.spec
        if spec.zero_row is not None:
            if report.get("permanent_is_zero") is not True or report.get("status") != "zero_diagonal":
                problems.append(f"zero-diagonal input gave permanent_is_zero="
                                f"{report.get('permanent_is_zero')!r}, status {report.get('status')!r}")
            return problems
        if report.get("status") != "converged" or report.get("permanent_is_zero"):
            return [f"status {report.get('status')!r}, "
                    f"permanent_is_zero={report.get('permanent_is_zero')!r}"]
        if report.get("sandwich_ok") is not True:
            problems.append("sandwich_ok is not true")
        lo, hi, exact = report["log_lower"], report["log_upper"], report["log_per_exact"]
        if not lo - SANDWICH_SLACK <= exact <= hi + SANDWICH_SLACK:
            problems.append(f"log_per_exact {exact!r} outside [{lo!r}, {hi!r}]")
        target = spec.closed_form_phi()
        if target is not None and not abs(report["phi"] - target) <= CLOSED_FORM_TOL:
            problems.append(f"phi = {report['phi']!r}, closed form {target!r}")
        return problems


def get(name: str, seed: int, env: dict):
    if name == WideBound.name:
        return WideBound()
    if name == TallCliBound.name:
        return TallCliBound(env)
    if name == CertifyCli.name:
        return CertifyCli(env, mc_seed=seed)
    raise KeyError(name)


NAMES = (WideBound.name, TallCliBound.name, CertifyCli.name)

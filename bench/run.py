"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run sets up the workload several times,
then sends requests in a closed loop for S seconds and prints the
end-to-end metrics.  With ``--trace 1`` it sets up once, then runs whole
passes over the inputs, each input once untraced and once traced, until
S seconds have passed, and prints the per-layer metrics.  Every output
is checked after the loop; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Inputs, reports and
spans go under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if __name__ == "__main__":
    if not (SRC / "psdperm" / "__init__.py").is_file():
        sys.exit(f"error: no psdperm source under {SRC}")
    sys.path.insert(0, str(SRC))

import metrics  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 3
STARTUP_RUNS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without leaving `root`."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "commit": git_commit(ROOT),
    }


def set_up(workload, specs, workdir: Path, env: dict, tracer=None) -> tuple:
    """Import psdperm in a fresh interpreter, make the inputs, warm up.

    Returns the wall time taken and the inputs.
    """
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import psdperm"], env=env, check=True, timeout=120)
    workdir.mkdir(parents=True)
    paths = [None if workload.in_process else workdir / f"input-{k:02d}.json"
             for k in range(len(specs))]
    with tracer.active("setup") if tracer else nullcontext():
        inputs = [workloads.make_input(spec, path) for spec, path in zip(specs, paths)]
    workload.request(inputs[0])
    return perf_counter() - t0, inputs


def timed_request(workload, inputs, k: int, trace_to=None):
    t0 = perf_counter()
    try:
        value, error = workload.request(inputs[k], trace_to), None
    except Exception as exc:  # a failed request is counted, not fatal
        value, error = None, f"{type(exc).__name__}: {exc}"
    return workloads.Outcome(k, perf_counter() - t0, value, error)


def check_all(workload, inputs, outcomes) -> list:
    """``(label, problem)`` for every problem found in any output."""
    found = []
    for o in outcomes:
        if o.error is not None:
            problems = [o.error]
        else:
            try:
                problems = workload.check(inputs[o.input_index], o.value)
            except Exception as exc:  # a malformed output is a failed request
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        found += [(inputs[o.input_index].spec.label, p) for p in problems]
        o.error = "; ".join(problems) or None
    return found


def untraced_run(workload, specs, workdir, env, seconds) -> dict:
    setup_times = []
    for r in range(SETUP_REPEATS):
        if r:
            shutil.rmtree(workdir / f"setup-{r - 1}")
        took, inputs = set_up(workload, specs, workdir / f"setup-{r}", env)
        setup_times.append(took)

    outcomes = []
    start = perf_counter()
    deadline = start + seconds
    while perf_counter() < deadline:
        outcomes.append(timed_request(workload, inputs, len(outcomes) % len(inputs)))
    elapsed = perf_counter() - start

    found = check_all(workload, inputs, outcomes)
    failed = sum(1 for o in outcomes if o.error)
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    walls = [o.wall_s for o in outcomes]
    result = metrics.end_to_end(walls, elapsed, setup_times, failed, peak_rss_mb)
    _, pct = metrics.tail(walls)
    notes = {
        "latency_p50_s": f"median of {len(walls)} requests",
        "latency_tail_s": f"p{pct:.1f} of {len(walls)} requests",
        "throughput_per_s": f"{len(walls)} requests in {elapsed:.3f} s",
        "setup_s": f"median of {SETUP_REPEATS}: " + ", ".join(f"{t:.3f}" for t in setup_times),
        "ok_ratio": f"failed_ratio {failed / len(walls):.6g} ({failed}/{len(walls)})",
        "peak_rss_mb": "benchmark process" if workload.in_process else "largest child",
    }
    return {"metrics": result, "notes": notes, "attempted": len(outcomes), "failed": failed,
            "problems": found, "walls_s": walls, "setup_s": setup_times,
            "tail_percentile": pct, "inputs": [i.spec.label for i in inputs]}


def traced_run(workload, specs, workdir, env, seconds) -> dict:
    def time_startup():
        t0 = perf_counter()
        subprocess.run([sys.executable, "-m", "psdperm", "--version"], env=env, check=True,
                       capture_output=True, timeout=120)
        startup.append(perf_counter() - t0)

    tracer = Tracer()
    _, inputs = set_up(workload, specs, workdir / "setup-0", env, tracer)
    startup = []
    if workload.in_process:
        for _ in range(STARTUP_RUNS):
            time_startup()

    untraced, traced = [], []
    spans_file = workdir / "child-spans.json"
    passes = 0
    deadline = perf_counter() + seconds
    while passes == 0 or perf_counter() < deadline:
        for k in range(len(inputs)):
            untraced.append(timed_request(workload, inputs, k))
            rid = len(traced)
            if workload.in_process:
                with tracer.active(rid):
                    traced.append(timed_request(workload, inputs, k))
            else:
                spans_file.unlink(missing_ok=True)
                traced.append(timed_request(workload, inputs, k, (spans_file, rid)))
                if spans_file.is_file():
                    tracer.extend(json.loads(spans_file.read_text()))
                # next to each request, so that start-up is measured under the same load
                time_startup()
        passes += 1
    spans_file.unlink(missing_ok=True)

    found = check_all(workload, inputs, untraced + traced)
    failed = sum(1 for o in untraced + traced if o.error)
    cli_failed = sum(1 for o in traced
                     if not workload.in_process and (o.value is None or o.value.returncode))
    result = metrics.per_layer(
        tracer.spans,
        traced_walls={rid: o.wall_s for rid, o in enumerate(traced)},
        untraced_walls=[o.wall_s for o in untraced],
        passes=passes,
        startup_s=startup,
        cli_requests=not workload.in_process,
        cli_failed=cli_failed,
        first_request_ids=set(range(len(inputs))),
        gradient_call_s=getattr(workload, "gradient_call_s", []),
    )
    tracer.write(workdir / "spans.json")
    notes = {"passes": f"{passes} passes over {len(inputs)} inputs",
             "missing": f"functions not found: {tracer.missing}" if tracer.missing else ""}
    return {"metrics": result, "notes": notes, "attempted": len(untraced) + len(traced),
            "failed": failed, "problems": found, "passes": passes,
            "startup_s": startup, "inputs": [i.spec.label for i in inputs]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    imported = Path(workloads.psdperm.__file__).resolve().parent
    if imported != SRC / "psdperm":
        print(f"error: imported psdperm from {imported}, not {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    workload = workloads.get(args.workload, args.seed, env)
    specs = workload.specs(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = ROOT / ".bench_work" / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    run = traced_run if args.trace else untraced_run
    try:
        out = run(workload, specs, workdir, env, args.seconds)
    finally:
        for setup_dir in workdir.glob("setup-*"):
            shutil.rmtree(setup_dir)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), **out}
    (workdir / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("environment " + json.dumps(record["environment"]))
    for name, metric in out["metrics"].items():
        note = out["notes"].get(name, "")
        print(f"{name} = {metric['value']:.6g} {metric['unit']}" + (f"  ({note})" if note else ""))
    for key in ("passes", "missing"):
        if out["notes"].get(key):
            print(out["notes"][key])
    for label, problem in out["problems"][:10]:
        print(f"FAILED {label}: {problem}")
    print(f"failed_ratio = {out['failed'] / out['attempted']:.6g} "
          f"({out['failed']}/{out['attempted']})")
    print(json.dumps({"correct": out["failed"] == 0, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

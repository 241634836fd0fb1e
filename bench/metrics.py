"""Metric names, units and the rules that turn samples into metrics."""

from __future__ import annotations

import statistics

from tracing import LAYER_FUNCTIONS, self_times

#: samples that must lie beyond the tail percentile
TAIL_BEYOND = 10

#: name -> unit; every metric an untraced run prints
END_TO_END = {
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def _per_layer_units() -> dict:
    units = {}
    for name in LAYER_FUNCTIONS:
        units.update({f"{name}.calls": "count", f"{name}.failed": "count",
                      f"{name}.busy_s": "s", f"{name}.share": "ratio"})
    units.update({
        "bound.solve.s_per_iteration": "s",
        "bound.solve.iterations": "count",
        "bound.solve.unconverged": "count",
        "bound.gradient.call_s": "s",
        "instances.parse_instance.mb_per_s": "MB/s",
        "exact.permanent_ryser.subsets_per_s": "1/s",
        "montecarlo.estimate_permanent.samples_per_s": "1/s",
        "cli.main.calls": "count",
        "cli.main.failed": "count",
        "cli.startup_s": "s",
        "cli.startup.share": "ratio",
        "cli.overhead_s": "s",
        "cli.overhead.share": "ratio",
        "trace.overhead_s": "s",
        "trace.overhead.share": "ratio",
        "trace.unattributed.share": "ratio",
    })
    return units


#: name -> unit; every metric a traced run prints
PER_LAYER = _per_layer_units()


def tail_rank(count: int) -> int:
    """0-based rank, in ascending order, of the tail sample.

    The tail is the highest percentile that still has `TAIL_BEYOND`
    samples beyond it: the (TAIL_BEYOND + 1)-th largest sample.  It is
    never taken below the median, which it reaches at 21 samples.
    """
    if count < 1:
        raise ValueError("no samples")
    return max(count - TAIL_BEYOND - 1, (count - 1) // 2)


def tail(values) -> tuple:
    """``(value, percentile)`` of the tail sample of `values`.

    The percentile is by nearest rank: the sample of rank r out of N is
    the ``100 (r + 1) / N`` percentile, so 100 samples give the p90.
    """
    ordered = sorted(values)
    rank = tail_rank(len(ordered))
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def end_to_end(walls, elapsed_s, setup_times, failed, peak_rss_mb) -> dict:
    latency_tail, _ = tail(walls)
    values = {
        "latency_p50_s": statistics.median(walls),
        "latency_tail_s": latency_tail,
        "throughput_per_s": len(walls) / elapsed_s,
        "setup_s": statistics.median(setup_times),
        "ok_ratio": (len(walls) - failed) / len(walls),
        "peak_rss_mb": peak_rss_mb,
    }
    return {k: {"value": float(values[k]), "unit": u} for k, u in END_TO_END.items()}


def _ratio(num, den) -> float:
    return num / den if den > 0 else 0.0


def per_layer(spans, traced_walls, untraced_walls, passes, startup_s, cli_requests,
              cli_failed, first_request_ids, gradient_call_s) -> dict:
    """Per-layer metrics of a traced run.

    `traced_walls` maps each traced request id to its wall time, and
    ``untraced_walls[rid]`` is the untraced request on the same input.  Time
    and call counts cover one set-up plus one pass over the workload's
    inputs: request spans are divided by `passes`.  Shares are request
    self time over request wall time; with `cli_requests` the rest of
    the wall time is split into interpreter start-up (the median of
    `startup_s`, per request) and CLI overhead, otherwise it is left
    unattributed.
    """
    own = self_times(spans)
    wall_total = sum(traced_walls.values())
    in_request = [isinstance(s["request"], int) for s in spans]
    values = {}

    def per_setup_and_pass(terms):
        """Sum of ``(span index, term)`` with request spans divided by `passes`."""
        setup = sum(t for i, t in terms if not in_request[i])
        return setup + sum(t for i, t in terms if in_request[i]) / passes

    for name in LAYER_FUNCTIONS:
        idx = [i for i, s in enumerate(spans) if s["name"] == name]
        values[f"{name}.calls"] = per_setup_and_pass([(i, 1) for i in idx])
        values[f"{name}.failed"] = per_setup_and_pass([(i, spans[i]["failed"]) for i in idx])
        values[f"{name}.busy_s"] = per_setup_and_pass([(i, own[i]) for i in idx])
        values[f"{name}.share"] = _ratio(sum(own[i] for i in idx if in_request[i]), wall_total)

    def request_spans(name):
        return [i for i, s in enumerate(spans) if s["name"] == name and in_request[i]]

    solves = request_spans("bound.solve")
    values["bound.solve.s_per_iteration"] = _ratio(
        sum(own[i] for i in solves), sum(spans[i]["iterations"] for i in solves))
    values["bound.solve.iterations"] = sum(
        spans[i]["iterations"] for i in solves if spans[i]["request"] in first_request_ids)
    values["bound.solve.unconverged"] = sum(1 for i in solves if not spans[i]["converged"])
    values["bound.gradient.call_s"] = (statistics.median(gradient_call_s)
                                       if gradient_call_s else 0.0)
    for metric, key, scale in (("instances.parse_instance.mb_per_s", "bytes", 1e-6),
                               ("exact.permanent_ryser.subsets_per_s", "subsets", 1.0),
                               ("montecarlo.estimate_permanent.samples_per_s", "samples", 1.0)):
        idx = request_spans(metric.rsplit(".", 1)[0])
        values[metric] = _ratio(scale * sum(spans[i][key] for i in idx), sum(own[i] for i in idx))

    attributed = {rid: 0.0 for rid in traced_walls}
    for i, s in enumerate(spans):
        if in_request[i]:
            attributed[s["request"]] += own[i]
    rest = [traced_walls[rid] - attributed[rid] for rid in traced_walls]
    startup = statistics.median(startup_s)
    overhead = [r - startup for r in rest]
    values["cli.main.calls"] = len(traced_walls) / passes if cli_requests else 0.0
    values["cli.main.failed"] = cli_failed / passes
    values["cli.startup_s"] = startup
    values["cli.startup.share"] = _ratio(startup * len(rest), wall_total) if cli_requests else 0.0
    values["cli.overhead_s"] = statistics.median(overhead) if cli_requests else 0.0
    values["cli.overhead.share"] = _ratio(sum(overhead), wall_total) if cli_requests else 0.0
    values["trace.unattributed.share"] = 0.0 if cli_requests else _ratio(sum(rest), wall_total)
    # each traced request ran right after an untraced one on the same input
    overhead_s = statistics.median(traced_walls[rid] - untraced_walls[rid] for rid in traced_walls)
    values["trace.overhead_s"] = overhead_s
    values["trace.overhead.share"] = _ratio(overhead_s, statistics.median(untraced_walls))
    return {k: {"value": float(values[k]), "unit": u} for k, u in PER_LAYER.items()}

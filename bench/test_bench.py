"""Tests of the benchmark's own code.

    python -m pytest bench/test_bench.py
"""

import json
import math
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402
import psdperm.bound  # noqa: E402
import psdperm.instances  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CliResult, Input, Outcome, Spec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("count, rank, percentile", [
    (1, 0, 100.0), (2, 0, 50.0), (20, 9, 50.0), (21, 10, 52.38095238095238),
    (40, 29, 75.0), (100, 89, 90.0), (200, 189, 95.0), (1000, 989, 99.0),
])
def test_tail_rule_picks_percentile_for_sample_count(count, rank, percentile):
    assert metrics.tail_rank(count) == rank
    value, pct = metrics.tail([float(v) for v in reversed(range(count))])
    assert value == float(rank)
    assert pct == pytest.approx(percentile)


def test_tail_leaves_ten_samples_beyond_once_above_median():
    for count in range(21, 500):
        assert count - 1 - metrics.tail_rank(count) == metrics.TAIL_BEYOND
    with pytest.raises(ValueError):
        metrics.tail_rank(0)


def _certify_report(**overrides):
    report = {"n": 4, "d": 2, "phi": 1.0, "log_lower": 1.0 - psdperm.bound.GAMMA * 4,
              "log_upper": 1.0, "log_per_exact": 0.5, "sandwich_ok": True,
              "permanent_is_zero": False, "converged": True, "status": "converged"}
    report.update(overrides)
    return CliResult(0, json.dumps(report), "")


def _failed_ratio(workload, inputs, values):
    outcomes = [Outcome(k, 0.1, v) for k, v in enumerate(values)]
    run.check_all(workload, inputs, outcomes)
    failed = sum(1 for o in outcomes if o.error)
    e2e = metrics.end_to_end([o.wall_s for o in outcomes], 1.0, [0.5], failed, 100.0)
    return failed / len(outcomes), e2e["ok_ratio"]["value"]


def test_planted_wrong_bracket_and_nonzero_exit_count_as_failed():
    workload = workloads.CertifyCli(env={}, mc_seed=0)
    inputs = [Input(Spec(n=4, d=2), matrix=None)] * 4
    values = [
        _certify_report(),
        _certify_report(log_per_exact=1.5),              # above log_upper
        _certify_report(sandwich_ok=False),
        CliResult(3, "", "error: sandwich violated"),
    ]
    failed_ratio, ok_ratio = _failed_ratio(workload, inputs, values)
    assert failed_ratio == 0.75
    assert ok_ratio == 0.25


def test_tall_cli_check_wants_gamma_n_width_and_convergence():
    workload = workloads.TallCliBound(env={})
    inputs = [Input(Spec(n=4, d=2), matrix=None)] * 4
    values = [
        _certify_report(),
        _certify_report(log_lower=0.0),                   # width is not gamma * n
        _certify_report(converged=False, status="max_iters"),
        CliResult(2, "", "error: bad file"),
    ]
    assert _failed_ratio(workload, inputs, values)[0] == 0.75


def test_certify_special_inputs_are_checked():
    workload = workloads.CertifyCli(env={}, mc_seed=0)
    ones = Spec(n=4, d=1, ensemble="all-ones")
    zero = Spec(n=4, d=2, zero_row=1)
    right_phi = 5 * math.log(5) - 4
    inputs = [Input(ones, None), Input(ones, None), Input(zero, None), Input(zero, None)]
    values = [
        _certify_report(phi=right_phi, log_upper=right_phi,
                        log_lower=right_phi - 4 * psdperm.bound.GAMMA, log_per_exact=math.log(24)),
        _certify_report(),                                # phi is not the closed form
        _certify_report(permanent_is_zero=True, status="zero_diagonal"),
        _certify_report(),                                # a zero row was missed
    ]
    assert _failed_ratio(workload, inputs, values)[0] == 0.5


def test_wide_bound_check_recomputes_gradient_and_rejects_unconverged():
    psd = psdperm.instances.gen_instance(6, 4, seed=3)
    inp = Input(Spec(n=6, d=4, seed=3), matrix=psd.matrix)
    good = psdperm.bound.bound_permanent(psd.matrix)
    early = psdperm.bound.bound_permanent(psd.matrix,
                                          options=psdperm.bound.SolverOptions(max_iters=1))
    workload = workloads.WideBound()
    failed_ratio, _ = _failed_ratio(workload, [inp, inp], [good, early])
    assert failed_ratio == 0.5
    assert len(workload.gradient_call_s) == 1


def test_inputs_depend_only_on_the_seed():
    for workload in (workloads.WideBound(), workloads.TallCliBound({}),
                     workloads.CertifyCli({}, 0)):
        assert workload.specs(7) == workload.specs(7)
        assert workload.specs(7) != workload.specs(8)
        assert workload.specs(-7) != workload.specs(7)


def test_tracer_records_nested_spans_and_restores_functions():
    original = psdperm.instances.gen_instance
    tracer = tracing.Tracer()
    with tracer.active("setup"):
        psdperm.instances.gen_instance(5, 2, seed=1)
    assert psdperm.instances.gen_instance is original
    names = [s["name"] for s in tracer.spans]
    assert names == ["instances.gen_instance", "gram.validate_hermitian_psd"]
    assert tracer.spans[1]["parent"] == 0
    own = tracing.self_times(tracer.spans)
    whole = tracer.spans[0]["end"] - tracer.spans[0]["start"]
    assert own[0] + own[1] == pytest.approx(whole)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.NAMES
    listed_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    listed_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed_e2e == metrics.END_TO_END
    assert listed_layer == metrics.PER_LAYER
    for name in [*listed_e2e, *listed_layer]:
        assert NAME.fullmatch(name), name

    e2e = metrics.end_to_end([0.1, 0.2], 1.0, [0.5], 0, 100.0)
    spans = [{"name": "bound.solve", "start": 0.0, "end": 0.1, "parent": None,
              "request": 0, "failed": False, "iterations": 5, "converged": True}]
    layer = metrics.per_layer(spans, {0: 0.12}, [0.11], passes=1, startup_s=[0.0],
                              cli_requests=False, cli_failed=0, first_request_ids={0},
                              gradient_call_s=[])
    assert set(e2e) == set(listed_e2e)
    assert set(layer) == set(listed_layer)
    assert layer["bound.solve.share"]["value"] + \
        layer["trace.unattributed.share"]["value"] == pytest.approx(1.0)

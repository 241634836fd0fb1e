"""CLI harness tests: verbs, reports, exit codes."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from psdperm import (
    GAMMA,
    InstanceFile,
    SolverOptions,
    bound_permanent,
    gen_instance,
    parse_instance,
    permanent_ryser,
    write_instance,
)
from psdperm import gram
from psdperm.cli import (
    EXIT_INVALID_INPUT,
    EXIT_OK,
    EXIT_SANDWICH_VIOLATION,
    EXIT_SIZE_GUARD,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    report = json.loads(out) if out.strip() else None
    return code, report


def gen_file(capsys, tmp_path, name, *argv):
    path = tmp_path / name
    code, _ = run(capsys, "gen", "--out", str(path), *argv)
    assert code == EXIT_OK
    return str(path)


def test_gen_writes_parseable_file(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, "a.json", "--n", "4", "--d", "2", "--seed", "3")
    data = json.loads(open(path).read())
    assert data["n"] == 4
    assert data["metadata"]["rank"] == 2


def test_gen_stdout(capsys):
    code, payload = run(capsys, "gen", "--n", "2", "--d", "2", "--ensemble", "identity")
    assert code == EXIT_OK
    assert payload["n"] == 2
    assert payload["entries"][0][0] == {"re": 1.0, "im": 0.0}


def test_gen_stdout_matches_out_file(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, "g.json", "--n", "5", "--d", "2", "--seed", "4")
    assert main(["gen", "--n", "5", "--d", "2", "--seed", "4"]) == EXIT_OK
    assert capsys.readouterr().out.encode() == Path(path).read_bytes()


def test_bound_identity_closed_form(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, "i2.json", "--n", "2", "--d", "2",
                    "--ensemble", "identity")
    code, rep = run(capsys, "bound", path)
    assert code == EXIT_OK
    phi = 4 * math.log(2) - 2
    assert rep["phi"] == pytest.approx(phi, abs=1e-9)
    assert rep["log_upper"] - rep["phi"] == rep["duality_gap"]
    assert rep["log_lower"] == pytest.approx(phi - 2 * GAMMA, abs=1e-9)
    assert rep["converged"] is True
    assert rep["gamma"] == pytest.approx(GAMMA)


def test_bound_all_ones_closed_form(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, "j3.json", "--n", "3", "--d", "1",
                    "--ensemble", "all-ones")
    code, rep = run(capsys, "bound", path)
    assert code == EXIT_OK
    assert rep["phi"] == pytest.approx(4 * math.log(4) - 3, abs=1e-9)


def test_certify_identity_exact_log_zero(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, "i3.json", "--n", "3", "--d", "3",
                    "--ensemble", "identity")
    code, rep = run(capsys, "certify", path)
    assert code == EXIT_OK
    assert rep["log_per_exact"] == 0.0
    assert rep["sandwich_ok"] is True
    assert rep["exact_method"] == "ryser"


def test_certify_all_ones_log_factorial(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, "j.json", "--n", "3", "--d", "1",
                    "--ensemble", "all-ones")
    code, rep = run(capsys, "certify", path)
    assert code == EXIT_OK
    assert rep["log_per_exact"] == pytest.approx(math.log(6), abs=1e-12)
    assert rep["log_lower"] - 1e-6 <= rep["log_per_exact"] <= rep["log_upper"] + 1e-6


def test_certify_all_ones_past_ryser(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, "j30.json", "--n", "30", "--d", "1",
                    "--ensemble", "all-ones")
    code, rep = run(capsys, "certify", path)
    assert code == EXIT_OK
    assert rep["exact_method"] == "lowrank"
    assert rep["log_per_exact"] == pytest.approx(math.lgamma(31), abs=1e-10)
    assert rep["sandwich_ok"] is True


def test_certify_all_ones_blocks_past_ryser(capsys, tmp_path):
    # J_20 (+) J_15: n = 35, rank 2, per = 20! 15!
    M = np.zeros((35, 35))
    M[:20, :20] = M[20:, 20:] = 1.0
    path = tmp_path / "blocks.json"
    write_instance(InstanceFile(matrix=M), path)
    code, rep = run(capsys, "certify", str(path))
    assert code == EXIT_OK
    assert (rep["n"], rep["d"], rep["exact_method"]) == (35, 2, "lowrank")
    assert rep["log_per_exact"] == pytest.approx(math.lgamma(21) + math.lgamma(16), abs=1e-10)
    assert rep["sandwich_ok"] is True


@pytest.mark.parametrize("n, d, method", [(22, 5, "lowrank"), (22, 6, "ryser"), (19, 3, "lowrank"),
                                          (9, 5, "ryser"), (4, 1, "lowrank")])
def test_certify_picks_the_cheaper_oracle(capsys, tmp_path, n, d, method):
    # low rank where C(n+d-1, d-1) <= LOWRANK_LIMIT and d times it is below 2^(n-1)
    path = gen_file(capsys, tmp_path, "g.json", "--n", str(n), "--d", str(d), "--seed", "2")
    code, rep = run(capsys, "certify", path)
    assert code == EXIT_OK
    assert rep["exact_method"] == method
    assert rep["log_per_exact"] == pytest.approx(permanent_ryser(parse_instance(path).matrix).log_abs,
                                                 abs=1e-10)


def test_certify_zero_diagonal_keeps_ryser(capsys, tmp_path):
    # the zero Gram row is the claim under test, so the oracle must not read the factor;
    # past Ryser's reach there is none left (exit 4)
    code, rep = run(capsys, "certify", zero_diag_file(tmp_path))
    assert code == EXIT_OK
    assert rep["exact_method"] == "ryser"
    M = np.ones((30, 30))
    M[3, :] = M[:, 3] = 0.0
    path = tmp_path / "j30z.json"
    write_instance(InstanceFile(matrix=M), path)
    code, rep = run(capsys, "certify", str(path))
    assert code == EXIT_SIZE_GUARD and rep is None


def test_certify_validates_before_the_size_guard(capsys, tmp_path):
    # the guard needs the rank, so an invalid input past n = 22 is invalid (exit 2)
    M = np.ones((30, 30))
    M[0, 1] = 2.0
    path = tmp_path / "bad.json"
    write_instance(InstanceFile(matrix=M), path)
    code, rep = run(capsys, "certify", str(path))
    assert code == EXIT_INVALID_INPUT and rep is None


def test_certify_random_instance(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, "g.json", "--n", "8", "--d", "4", "--seed", "1")
    code, rep = run(capsys, "certify", path)
    assert code == EXIT_OK
    assert rep["sandwich_ok"] is True
    assert rep["converged"] is True
    assert rep["trace_residual"] <= 1e-6 * (8 + 4)


def test_certify_with_monte_carlo(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, "m.json", "--n", "4", "--d", "2", "--seed", "2")
    code, rep = run(capsys, "certify", path, "--mc-samples", "50000", "--seed", "7")
    assert code == EXIT_OK
    assert rep["mc_samples"] == 50000
    assert rep["mc_seed"] == 7
    exact = math.exp(rep["log_per_exact"])
    assert abs(rep["mc_mean"] - exact) <= 5 * rep["mc_std_error"]


def zero_diag_file(tmp_path):
    M = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    path = tmp_path / "zero.json"
    write_instance(InstanceFile(matrix=M), path)
    return str(path)


def test_bound_zero_diagonal_sentinel(capsys, tmp_path):
    code, rep = run(capsys, "bound", zero_diag_file(tmp_path))
    assert code == EXIT_OK
    assert rep["permanent_is_zero"] is True
    assert rep["phi"] is None
    assert rep["log_lower"] is None and rep["log_upper"] is None
    assert rep["status"] == "zero_diagonal"


@pytest.mark.parametrize("case", [("9", "5", "2", "500"), ("12", "3", "0", "1"), None])
def test_bound_report_matches_library(capsys, tmp_path, case):
    # a converged dual run, one primal step (no feasible dual point, so
    # log_upper is +inf) and the zero-diagonal sentinel
    if case is None:
        path, max_iters = zero_diag_file(tmp_path), "500"
    else:
        n, d, seed, max_iters = case
        path = gen_file(capsys, tmp_path, "r.json", "--n", n, "--d", d, "--seed", seed)
    code, rep = run(capsys, "bound", path, "--max-iters", max_iters)
    assert code == EXIT_OK
    res = bound_permanent(parse_instance(path).matrix,
                          options=SolverOptions(max_iters=int(max_iters)))
    for key in ("d", "phi", "log_lower", "log_upper", "duality_gap", "iterations",
                "grad_norm", "trace_residual", "converged", "status"):
        want = getattr(res, key)
        if isinstance(want, float) and not math.isfinite(want):
            want = None
        assert rep[key] == want, key


def test_certify_zero_diagonal(capsys, tmp_path):
    code, rep = run(capsys, "certify", zero_diag_file(tmp_path), "--mc-samples", "1000")
    assert code == EXIT_OK
    assert rep["permanent_is_zero"] is True
    assert rep["sandwich_ok"] is True
    assert rep["log_per_exact"] is None  # log of exact zero
    assert rep["mc_mean"] == 0.0 and rep["mc_std_error"] == 0.0
    assert rep["mc_samples"] == 1000 and rep["mc_seed"] == 0


def test_certify_refutes_a_false_zero(capsys, tmp_path):
    # A_22 = 1e-13 is positive, so per(A) = 5e-14 > 0: no zero claim, and
    # Ryser's log 5e-14 = -30.63 falls inside the bracket
    path = tmp_path / "tiny.json"
    write_instance(InstanceFile(matrix=np.diag([1.0, 0.5, 1e-13])), path)
    code, rep = run(capsys, "certify", str(path))
    assert code == EXIT_OK
    assert rep["permanent_is_zero"] is False
    assert rep["sandwich_ok"] is True
    assert rep["log_per_exact"] == pytest.approx(math.log(5e-14), abs=1e-12)
    assert rep["log_lower"] <= rep["log_per_exact"] <= rep["log_upper"]


def test_certify_refutes_a_zero_claim_on_a_near_psd_input(capsys, tmp_path):
    # A_00 = 0 with off-diagonal mass 1e-10, within PSD_TOL of a PSD
    # matrix: a zero claim, but per(A) = 1e-20; the claim fails (exit 3)
    path = tmp_path / "near.json"
    write_instance(InstanceFile(matrix=np.array([[0.0, 1e-10], [1e-10, 1.0]])), path)
    assert main(["certify", str(path)]) == EXIT_SANDWICH_VIOLATION
    captured = capsys.readouterr()
    rep, err = json.loads(captured.out), captured.err
    assert rep["permanent_is_zero"] is True
    assert rep["sandwich_ok"] is False
    # Ryser's 2^(n-1) terms of size ~1 cancel down to 1e-20
    assert rep["log_per_exact"] == pytest.approx(math.log(1e-20), abs=1e-5)
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: diagonal entries [0]"), err
    assert repr(rep["log_per_exact"]) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("tiny", [1e-13, 1e-11, 1e-310])
def test_bound_on_a_tiny_diagonal_entry(capsys, tmp_path, tiny):
    # a positive diagonal entry is never a zero, and never a dropped rank;
    # a subnormal one leaves the solver's unit rows in the float range
    path = tmp_path / "tiny.json"
    A = np.diag([1.0, 0.5, tiny])
    write_instance(InstanceFile(matrix=A), path)
    code, rep = run(capsys, "bound", str(path))
    assert code == EXIT_OK
    assert rep["permanent_is_zero"] is False and rep["d"] == 3
    log_per = permanent_ryser(A).log_abs
    assert math.isfinite(rep["log_lower"]) and math.isfinite(rep["log_upper"])
    assert rep["log_lower"] <= log_per <= rep["log_upper"]


@pytest.mark.parametrize("spread", [20, 100, 300])
def test_certify_on_a_wide_diagonal_range(capsys, tmp_path, spread):
    # D A D with diagonal entries spread over 10^(+-spread): per(DAD) =
    # prod d_i^2 per(A), far outside the float range, and the bracket holds
    A = gen_instance(12, 4, seed=1).matrix
    gen = np.random.Generator(np.random.Philox(key=np.array([spread, 3], dtype=np.uint64)))
    log10_d2 = gen.uniform(-spread, spread, size=12)
    d = 10.0 ** (log10_d2 / 2)
    path = tmp_path / "wide.json"
    write_instance(InstanceFile(matrix=d[:, None] * A * d), path)
    code, rep = run(capsys, "certify", str(path))
    assert code == EXIT_OK
    assert rep["permanent_is_zero"] is False and rep["sandwich_ok"] is True
    assert rep["status"] == "converged"
    want = permanent_ryser(A).log_abs + float(np.sum(log10_d2)) * math.log(10.0)
    assert abs(rep["log_per_exact"] - want) <= 1e-9


def test_estimate_command(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, "est.json", "--n", "3", "--d", "2", "--seed", "5")
    code, rep = run(capsys, "estimate", path, "--mc-samples", "50000", "--seed", "1")
    assert code == EXIT_OK
    assert rep["command"] == "estimate"
    assert rep["mc_mean"] > 0
    assert rep["mc_std_error"] > 0
    assert rep["phi"] is None


def test_estimate_zero_diagonal(capsys, tmp_path):
    code, rep = run(capsys, "estimate", zero_diag_file(tmp_path))
    assert code == EXIT_OK
    assert rep["mc_mean"] == 0.0
    assert rep["permanent_is_zero"] is True


def test_size_guard_exit_code(capsys, tmp_path):
    # full rank at n = 23: past Ryser, and C(45, 22) terms for the low-rank oracle
    path = gen_file(capsys, tmp_path, "big.json", "--n", "23", "--d", "23",
                    "--ensemble", "diagonal")
    code, _ = run(capsys, "certify", path)
    assert code == EXIT_SIZE_GUARD


def test_invalid_inputs_exit_two(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    code, _ = run(capsys, "bound", str(missing))
    assert code == EXIT_INVALID_INPUT

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _ = run(capsys, "bound", str(broken))
    assert code == EXIT_INVALID_INPUT

    not_psd = tmp_path / "indefinite.json"
    write_instance(InstanceFile(matrix=np.array([[1.0, 2.0], [2.0, 1.0]])), not_psd)
    code, _ = run(capsys, "certify", str(not_psd))
    assert code == EXIT_INVALID_INPUT

    bad_gen = main(["gen", "--n", "3", "--d", "7"])
    assert bad_gen == EXIT_INVALID_INPUT


@pytest.mark.parametrize("data", [
    pytest.param(b'{"n": 1, "entries": [[{"re": 1%s, "im": 0.0}]]}' % (b"0" * 400),
                 id="401-digits"),
    pytest.param(b'{"n": 1, "entries": [[{"re": 1%s, "im": 0.0}]]}' % (b"0" * 4300),
                 id="4301-digits"),
    pytest.param(b'\xff{"n": 1, "entries": [[{"re": 1.0, "im": 0.0}]]}', id="not-utf8"),
    pytest.param(b"[" * 100_000 + b"]" * 100_000, id="nested-too-deeply"),
])
def test_malformed_file_is_one_error_line(capsys, tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    assert main(["bound", str(path)]) == EXIT_INVALID_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ("bound", "--max-iters", "0"),
    # no --grad-tol or --rank-tol flag exists (the tolerances are the
    # constants bound.GRAD_TOL and gram.RANK_TOL): argparse rejects them
    ("bound", "--grad-tol", "0"),
    ("bound", "--grad-tol", "nan"),
    ("bound", "--grad-tol", "inf"),
    ("bound", "--rank-tol", "-1"),
    ("bound", "--rank-tol", "nan"),
    ("bound", "--rank-tol", "1"),
    ("certify", "--mc-samples", "1"),
    ("certify", "--mc-samples", "-3"),
    ("estimate", "--mc-samples", "1"),
    ("estimate", "--mc-samples", "0"),
    ("bound", "--max-iters", "x"),
])
def test_out_of_range_flag_exits_two(capsys, tmp_path, argv):
    path = gen_file(capsys, tmp_path, "f.json", "--n", "6", "--d", "3", "--seed", "1")
    with pytest.raises(SystemExit) as exc:
        main([argv[0], path, *argv[1:]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert argv[1] in captured.err
    assert "Traceback" not in captured.err


def test_out_of_range_flag_bounds_are_accepted(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, "f.json", "--n", "6", "--d", "3", "--seed", "1")
    for argv in (("bound", "--max-iters", "1"),
                 ("certify", "--mc-samples", "0"), ("certify", "--mc-samples", "2"),
                 ("estimate", "--mc-samples", "2")):
        code, rep = run(capsys, argv[0], path, *argv[1:])
        assert code == EXIT_OK, argv
        assert rep["command"] == argv[0]


def test_rank_cutoff_that_breaks_the_factor_is_named(capsys, tmp_path, monkeypatch):
    # a cutoff of 0.5 stops before real pivots, so the truncated factor fails
    # the reconstruction check; the error names the cutoff as the cause
    path = gen_file(capsys, tmp_path, "f.json", "--n", "6", "--d", "3", "--seed", "1")
    with monkeypatch.context() as m:
        m.setattr(gram, "RANK_TOL", 0.5)
        assert main(["bound", path]) == EXIT_INVALID_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ||C - L L^H||_F"), err
    assert "rank cutoff stopped after 2 of 6 pivots" in err
    assert "Traceback" not in err
    code, rep = run(capsys, "bound", path)
    assert code == EXIT_OK and rep["d"] == 3


def test_out_flag_writes_report(capsys, tmp_path):
    src = gen_file(capsys, tmp_path, "s.json", "--n", "3", "--d", "3",
                   "--ensemble", "identity")
    dest = tmp_path / "report.json"
    code, rep = run(capsys, "bound", src, "--out", str(dest))
    assert code == EXIT_OK
    assert rep is None  # nothing on stdout
    saved = json.loads(dest.read_text())
    assert saved["command"] == "bound"


def test_selfcheck_passes(capsys):
    code, rep = run(capsys, "selfcheck")
    assert code == EXIT_OK
    assert rep["ok"] is True
    names = {c["name"] for c in rep["checks"]}
    assert "identity_closed_form" in names
    assert "gamma_calibration" in names
    assert "lowrank_ryser_agreement" in names


def test_repeat_runs_identical(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, "det.json", "--n", "5", "--d", "3", "--seed", "9")
    code1, rep1 = run(capsys, "certify", path, "--mc-samples", "20000", "--seed", "3")
    code2, rep2 = run(capsys, "certify", path, "--mc-samples", "20000", "--seed", "3")
    assert code1 == code2 == EXIT_OK
    for key in ("phi", "log_lower", "log_upper", "log_per_exact",
                "mc_mean", "mc_std_error"):
        assert rep1[key] == rep2[key], key


def test_reports_duality_gap(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, "g.json", "--n", "12", "--d", "3", "--seed", "0")
    for verb in ("bound", "certify"):
        code, rep = run(capsys, verb, path)
        assert code == EXIT_OK
        assert -1e-12 <= rep["duality_gap"] <= 1e-9
    # one primal step leaves t = 1/q outside the dual domain: the gap is
    # +inf, reported as null
    code, rep = run(capsys, "bound", path, "--max-iters", "1")
    assert code == EXIT_OK
    assert rep["duality_gap"] is None


def test_solver_flags_are_respected(capsys, tmp_path):
    path = gen_file(capsys, tmp_path, "f.json", "--n", "9", "--d", "5", "--seed", "2")
    code, rep = run(capsys, "bound", path, "--max-iters", "1")
    assert code == EXIT_OK
    assert rep["converged"] is False
    assert rep["iterations"] == 1
    assert rep["config"]["max_iters"] == 1
    assert "grad_tol" not in rep["config"]

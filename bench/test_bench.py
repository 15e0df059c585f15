"""Fast tests of the benchmark itself, outside the package's test suite:

    python3 -m pytest -q bench/test_bench.py

A tiny run of each workload, and for each output check a perturbed
output that it must reject.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import dense  # noqa: E402
import workloads as W  # noqa: E402
from checks import CheckFailed  # noqa: E402

import torusbundles as tb  # noqa: E402

U = dense.circle(12)


def _run(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args], capture_output=True, text=True, timeout=170
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ("cocycle", "classify", "cli"))
def test_tiny_run(workload):
    res = _run("--workload", workload, "--seed", "3", "--seconds", "0.1", "--tiny")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert set(res["metrics"]) == {"tasks_per_s", "task_p50_ms", "task_p90_ms", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    # the tiny classify round holds r = 9, |d| = 8 on both tori: two known faults in ten tasks
    assert res["failed"] * 10 == (2 * res["attempted"] if workload == "classify" else 0)


def test_tiny_traced_run():
    import tracing

    res = _run("--workload", "cocycle", "--seed", "3", "--seconds", "0.1", "--tiny", "--trace", "1")
    assert res["correct"] is True
    names = {m for m, *_ in tracing.LAYER_METRICS} | {"cli.startup_ms"}
    assert set(res["metrics"]) == names
    m = res["metrics"]
    assert m["laurent.matmul.calls"]["value"] > 0 and m["functors.sym_power.self_ms"]["value"] > 0
    assert m["theta.theta_eval.calls"]["value"] == 0


def test_tracer_self_time_and_rebinding():
    import tracing

    tracer = tracing.Tracer()
    tracer.install(tb)
    try:
        ctx = tb.IsogenyContext.for_degree(tb.Torus(1j), 2)
        f = tb.normal_form(ctx.cover, 3, 1, 0.5)
        tb.pushforward(ctx, f)
    finally:
        tracer.uninstall()
    assert tracer.calls["classify.normal_form"] == 1
    # normal_form reaches companion_block through the classify module's own binding
    assert tracer.calls["isogeny.companion_block"] == 2
    assert 0 < tracer.self_s["classify.normal_form"] < tracer.total_s["classify.normal_form"]
    assert tb.normal_form.__module__ == "torusbundles.classify" and not hasattr(tb.normal_form, "__wrapped__")


def test_known_faults_match_program():
    faults = W.list_faults(tb)
    det = {(tau, r, abs(d)) for tau, r, d, msg in faults if W.DET_FAULT_TEXT[0] in msg}
    overflow = {(tau, r, d) for tau, r, d, msg in faults if any(t in msg for t in W.OVERFLOW_TEXT)}
    assert det == set(W.KNOWN_FAULTS)
    assert overflow == set(W.ROUNDTRIP_OVERFLOW)


# ---------------------------------------------------------------------------
# each check rejects a perturbed output
# ---------------------------------------------------------------------------


def _perturbed(d: dense.Dense, rel: float = 1e-6) -> dense.Dense:
    c = d.c.copy()
    c[0, 0, 0] += rel * d.max_coeff()
    return dense.Dense(d.lo, c)


@pytest.fixture(scope="module")
def factor():
    rng = np.random.default_rng(5)
    a = W.monomial_det_factor(rng, 3, [-1, 1, 0])
    t = tb.Torus(0.3 + 1.1j)
    f = tb.FactorOfAutomorphy(t, W._build_matrix(tb, a.rows()))
    return a, t, f


def test_iterate_check(factor):
    a, t, f = factor
    got = dense.from_program(tb.iterate(f, 3))
    want = checks.iterate_values(a, t.q, 3, U)
    checks.matrix_matches("iterate", got, want, U)
    with pytest.raises(CheckFailed):
        checks.matrix_matches("iterate", _perturbed(got), want, U)


def test_cocycle_law_check(factor):
    a, t, f = factor
    its = {m: dense.from_program(tb.iterate(f, m)) for m in (2, 3, 5)}
    checks.cocycle_law(its[5], its[2], its[3], t.q, 3, U)
    with pytest.raises(CheckFailed):
        checks.cocycle_law(its[5], its[3], its[2], t.q, 3, U)


def test_dual_and_tensor_checks(factor):
    a, t, f = factor
    av = a.at(U)
    du = dense.from_program(tb.dual(f).A)
    checks.matrix_matches("dual", du, np.linalg.inv(av).transpose(0, 2, 1), U)
    with pytest.raises(CheckFailed):
        checks.matrix_matches("dual", du, np.linalg.inv(av), U)
    tp = dense.from_program(tb.tensor(f, f).A)
    checks.matrix_matches("tensor", tp, np.einsum("pij,pkl->pikjl", av, av).reshape(len(U), 9, 9), U)
    with pytest.raises(CheckFailed):
        checks.matrix_matches("tensor", _perturbed(tp), np.einsum("pij,pkl->pikjl", av, av).reshape(len(U), 9, 9), U)


def test_sym_and_wedge_checks(factor):
    a, t, f = factor
    av = a.at(U)
    sp = dense.from_program(tb.sym_power(f, 2).A)
    checks.matrix_matches("sym2", sp, checks.sym2_values(av), U)
    with pytest.raises(CheckFailed):
        checks.matrix_matches("sym2", _perturbed(sp, 1e-5), checks.sym2_values(av), U)
    wp = dense.from_program(tb.wedge_power(f, 2).A)
    checks.matrix_matches("wedge2", wp, checks.wedge_values(av, 2), U)
    checks.sylvester_franke(wp, av, 2, U)
    with pytest.raises(CheckFailed):
        checks.matrix_matches("wedge2", _perturbed(wp), checks.wedge_values(av, 2), U)
    with pytest.raises(CheckFailed):
        checks.sylvester_franke(dense.Dense(wp.lo, wp.c * 1.001), av, 2, U)


def test_sym2_by_permanents_matches_binomials():
    # the unipotent 2x2 factor gives the binomial coefficient matrix
    m = np.array([[[1, 1], [0, 1]]], dtype=complex)
    assert np.array_equal(checks.sym2_values(m)[0], [[1, 1, 1], [0, 1, 2], [0, 0, 1]])


def test_normal_form_checks():
    t = tb.Torus(1j)
    r, d, a = 6, 4, 0.6 + 0.2j
    u = dense.circle(64)
    f = dense.from_program(tb.normal_form(t, r, d, a).A)
    checks.matrix_matches("normal form", f, checks.normal_form_values(t.s, r, d, a, u), u)
    checks.normal_form_invariants(f, r, d, a, t.s, u)
    with pytest.raises(CheckFailed):
        checks.normal_form_invariants(f, r, d + 1, a, t.s, u)
    with pytest.raises(CheckFailed):
        checks.normal_form_invariants(f, r, d, a * 1.001, t.s, u)
    with pytest.raises(CheckFailed):
        checks.matrix_matches("normal form", f, checks.normal_form_values(t.s, r, -d, a, u), u)


def test_canonical_param_check():
    q = tb.Torus(0.3 + 1.1j).q
    a = 3.0 + 1.0j
    p = tb.reduce_param(tb.Torus(0.3 + 1.1j), a)
    checks.canonical_param(p, a, q)
    with pytest.raises(CheckFailed):
        checks.canonical_param(p / q, a, q)
    with pytest.raises(CheckFailed):
        checks.canonical_param(p * 1.01, a, q)


def test_similarity_witness_check():
    rng = np.random.default_rng(2)
    a = 0.5 * np.eye(3) + np.eye(3, k=1)
    w = W._random_unitary(rng, 3)
    b = w.conj().T @ a @ w
    checks.similarity_witness(a, b, w)
    with pytest.raises(CheckFailed):
        checks.similarity_witness(a, b, W._random_unitary(rng, 3))


def test_winding_and_jordan_sizes():
    assert checks.winding(U ** 3) == 3 and checks.winding(U ** -2) == -2
    assert checks.jordan_sizes_unipotent_product(3, 2) == [4, 2]
    assert checks.jordan_sizes_unipotent_product(5, 3) == [7, 5, 3]
    with pytest.raises(CheckFailed):
        W._cg_check(3, 2)(b'{"p": 3, "q": 2, "indices": [3, 3]}\n')


def test_theta_check():
    W.check_theta_values(tb, [(1j, 0.5, 0.0, 0.3 + 0.4j)])

    class Off:
        Torus, ThetaCharacteristic = tb.Torus, tb.ThetaCharacteristic

        @staticmethod
        def theta_eval(t, xi, z):
            return tb.theta_eval(t, xi, z) * (1 + 1e-9)

    with pytest.raises(CheckFailed):
        W.check_theta_values(Off, [(1j, 0.5, 0.0, 0.3 + 0.4j)])
    with pytest.raises(CheckFailed):
        W._theta_check(64)(b'{"max_residual": 1e-14, "samples": 64, "pass": false}\n')


def test_cli_output_checks():
    seen = {}
    task = W.CliTask("cg", [["cg-table", "-p", "3", "-q", "2"]], W._cg_check(3, 2))
    W.cli_expected_stdout(task, seen, b"x\n")
    with pytest.raises(CheckFailed):
        W.cli_expected_stdout(task, seen, b"y\n")
    with pytest.raises(CheckFailed):
        W._expect_json({"degree": 2})(b'{"degree": 1}\n')
    with pytest.raises(CheckFailed):
        W.check_cli_result(task, W.CliResult(b"", [1], b"ValueError: x", 0))
    t = tb.Torus(1j)
    good = dense.factor_json(1j, dense.from_program(tb.iterate(tb.normal_form(t, 2, 1, 0.5), 2)))
    W._iterate_check(t.s, 2, 1, 0.5, 2)(good.encode() + b"\n")
    with pytest.raises(CheckFailed):
        W._iterate_check(t.s, 2, 1, 0.5, 3)(good.encode() + b"\n")
    with pytest.raises(CheckFailed):
        W._recognize_check(3, 0.5, t.q)(b'{"recognized": true, "descriptor": {"rank": 3, "degree": 0, "param": [0.9, 0.0]}}\n')


def test_task_checks_reject_swapped_outputs():
    rng = np.random.default_rng(7)
    task = W.cocycle_round(tb, rng, ranks=(3,))[0]
    out = task.run()
    task.check(out)
    out.values["iterate 5"] = out.values["iterate 3"]
    with pytest.raises(CheckFailed):
        task.check(out)
    grid = W._grid_task(tb, tb.Torus(1j), 4, 2)
    out = grid.run()
    grid.check(out)
    out.values["degree 2"] = 3
    with pytest.raises(CheckFailed):
        grid.check(out)
    deg0 = W._deg0_task(tb, tb.Torus(1j), 3, rng)
    out = deg0.run()
    deg0.check(out)
    out.values["equivalent unitary"] = out.values["equivalent triangular"]
    with pytest.raises(CheckFailed):
        deg0.check(out)


def test_malformed_outputs_count_as_failed_tasks():
    import run

    runner = run.CliRunner(in_process=True)
    task = W.CliTask("degree", [["degree"]], W._expect_json({"degree": 0}))
    assert runner.check(task, W.CliResult(b"not json\n", [0], b"", 0)).startswith("JSONDecodeError")
    t = tb.Torus(1j)
    data = json.loads(dense.factor_json(1j, dense.from_program(tb.normal_form(t, 2, 0, 0.5).A)))
    data["A"]["entries"][0][0]["k"] = 0.5
    it = W.CliTask("iterate", [["iterate", "-m", "1"]], W._iterate_check(t.s, 2, 0, 0.5, 1))
    message = runner.check(it, W.CliResult(json.dumps(data).encode() + b"\n", [0], b"", 0))
    assert message.startswith("ValueError") and "not an integer" in message
    bad = W.Task("typed", run=lambda: None, check=lambda out: dense.from_program(out))
    _, message = run.run_library_task(bad, run.Measured())
    assert message.startswith("AttributeError")


def test_task_times_are_scaled_by_the_calibrations_around_them():
    import run

    m = run.Measured(rounds=1, calib=[1.0, 3.0, 2.0])
    m.records = [run.Record("a", 0, 0.5, True, False, calib=0), run.Record("b", 0, 0.5, False, True, calib=1)]
    assert run.task_scales(m, 2.0) == [1.0, 0.8]
    attempted, failed, unexpected, rate, times = run.summarize(m, 2.0)
    assert (attempted, failed, unexpected) == (2, 1, 0)
    assert times == [0.5, 0.4] and rate == 1 / 0.9
    assert run.summarize(m)[4] == [0.5, 0.5]

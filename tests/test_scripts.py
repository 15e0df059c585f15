"""Smoke tests of the example scripts: each runs on small arguments in a
fresh interpreter, exits 0 and prints its header line."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from torusbundles import LaurentMatrix

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, header", [
    ("cg_table.py", ["--bound", "5"], "  p   q   predicted            computed"),
    ("classification_sweep.py", ["--rmax", "3", "--dmax", "3"], "tau = (0.3+1.1j)   |q| = 0.000996"),
    ("theta_residuals.py", ["--samples", "2", "--terms", "5", "10"],
     "tau         xi                   terms=5      terms=10"),
    # this checkout against itself
    ("ab_rounds.py", [str(ROOT), "--blocks", "2"], "cocycle round of 21 tasks, seed 1, 2 blocks"),
    ("seed_sweep.py", ["--workload", "classify", "--seeds", "0:2"], "classify rounds of seeds 0:2"),
    ("jordan_sweep.py", ["--count", "3"], "26 calls on 3 structures: 2 ArithmeticError, 1 NotNilpotent, 3 descriptor, 8 none, 6 partition, 6 witness"),
    ("det_digest.py", ["--rmax", "2"], "2280 results on 760 grid points: 57 ValueError, 2223 factors"),
    ("iterate_drift.py", ["--count", "1"], "A(3), A(5), A(8) of 14 factors against a clongdouble product"),
])
def test_script_runs_and_prints_its_header(script, args, header):
    assert _run(script, args).splitlines()[0] == header


def _run(script, args, code=0):
    """The script's stdout, run on ``args`` with this checkout's src/, or
    its stderr when it should exit with a nonzero ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code, proc.stderr
    return proc.stderr if code else proc.stdout


def test_ab_rounds_prints_the_quartiles_of_the_block_ratios():
    last = _run("ab_rounds.py", [str(ROOT), "--blocks", "3", "--workload", "cocycle"]).splitlines()[-1]
    found = re.fullmatch(r"per-block ratio change/parent: median (\S+), quartiles \[(\S+), (\S+)\]", last)
    assert found, last
    q1, mid, q3 = map(float, found.group(2, 1, 3))
    assert 0 < q1 <= mid <= q3


def test_ab_rounds_times_only_the_matching_tasks():
    lines = _run("ab_rounds.py", [str(ROOT), "--blocks", "2", "--workload", "classify", "--match", "deg0"]).splitlines()
    assert lines[:2] == ["classify round of 16 tasks matching 'deg0', seed 1, 2 blocks",
                         "failed tasks per round: parent 0, change 0"]
    err = _run("ab_rounds.py", [str(ROOT), "--blocks", "2", "--match", "no such task"], code=2)
    assert err.splitlines()[-1] == "ab_rounds.py: error: no cocycle task label contains 'no such task'"


def test_jordan_sweep_prints_one_digest_of_its_results():
    lines = _run("jordan_sweep.py", ["--count", "3"]).splitlines()
    assert len(lines) == 2 and re.fullmatch(r"sha256 [0-9a-f]{64}", lines[1]), lines
    assert _run("jordan_sweep.py", ["--count", "3"]).splitlines() == lines


def _load(name):
    """The script scripts/<name>.py as a module, so a test can patch it."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_classification_sweep_exits_1_on_a_mismatch(monkeypatch, capsys):
    sweep = _load("classification_sweep")
    assert sweep.main(["--rmax", "2", "--dmax", "1"]) == 0
    assert capsys.readouterr().out.endswith("\n0 mismatches over the grid\n")
    # a wrong degree for every bundle of positive degree
    monkeypatch.setattr(sweep, "degree", lambda f: 0)
    assert sweep.main(["--rmax", "2", "--dmax", "1"]) == 1
    out = capsys.readouterr().out
    assert "  1    1   1       1   False    0.000e+00   <-- MISMATCH" in out.splitlines()
    assert out.endswith("\n4 mismatches over the grid\n")


def test_cg_table_exits_1_when_a_row_disagrees(monkeypatch, capsys):
    cg_table = _load("cg_table")
    assert cg_table.main(["--bound", "4"]) == 0
    assert capsys.readouterr().out.endswith("\nall rows agree\n")
    # a wrong rule for F_2 (x) F_2, whose partition is (3, 1)
    monkeypatch.setattr(cg_table, "clebsch_gordan_F", lambda p, q: [p * q])
    assert cg_table.main(["--bound", "4"]) == 1
    out = capsys.readouterr().out
    assert "  2   2   [4]                  [3, 1]                 <-- MISMATCH" in out.splitlines()
    assert out.endswith("\nsome rows disagree\n")


def test_det_digest_exits_1_when_a_normal_form_blames_invertibility(monkeypatch, capsys):
    digest = _load("det_digest")
    assert digest.main(["--rmax", "1"]) == 0
    capsys.readouterr()

    def blamed(t, r, d, a):
        raise ValueError("generator fails the sampled invertibility check (|det A(1)| = inf)")

    monkeypatch.setattr(digest, "normal_form", blamed)
    assert digest.main(["--rmax", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("tau 1j, a (0.6+0.2j), r 1, d -8: normal_form: "
                        "ValueError: generator fails the sampled invertibility check (|det A(1)| = inf)")


def test_iterate_drift_exits_1_when_an_iterate_drifts_past_the_gate(monkeypatch, capsys):
    drift = _load("iterate_drift")
    assert drift.main(["--count", "1"]) == 0
    assert float(capsys.readouterr().out.splitlines()[1].split()[2]) < 1e-13
    iterate = drift.iterate

    def off(f, m):
        # every coefficient off by 1e-9 of itself, as a doubling product drifted
        got = iterate(f, m)
        return LaurentMatrix._from_coeffs(got._lo, got._c * (1 + 1e-9))

    monkeypatch.setattr(drift, "iterate", off)
    assert drift.main(["--count", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[1].split()[2]) > 1e-10 and lines[-1] == "drift above the gate"

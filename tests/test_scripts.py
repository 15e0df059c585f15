"""Smoke tests of the example scripts: each runs on small arguments in a
fresh interpreter, exits 0 and prints its header line."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, header", [
    ("cg_table.py", ["--bound", "5"], "  p   q   predicted            computed"),
    ("classification_sweep.py", ["--rmax", "3", "--dmax", "3"], "tau = (0.3+1.1j)   |q| = 0.000996"),
    ("theta_residuals.py", ["--samples", "2", "--terms", "5", "10"],
     "tau         xi                   terms=5      terms=10"),
    # this checkout against itself
    ("ab_rounds.py", [str(ROOT), "--blocks", "2"], "cocycle round of 21 tasks, seed 1, 2 blocks"),
    ("seed_sweep.py", ["--workload", "classify", "--seeds", "0:2"], "classify rounds of seeds 0:2"),
])
def test_script_runs_and_prints_its_header(script, args, header):
    assert _run(script, args).splitlines()[0] == header


def _run(script, args):
    """The script's stdout, run on ``args`` with this checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_ab_rounds_prints_the_quartiles_of_the_block_ratios():
    last = _run("ab_rounds.py", [str(ROOT), "--blocks", "3", "--workload", "cocycle"]).splitlines()[-1]
    found = re.fullmatch(r"per-block ratio change/parent: median (\S+), quartiles \[(\S+), (\S+)\]", last)
    assert found, last
    q1, mid, q3 = map(float, found.group(2, 1, 3))
    assert 0 < q1 <= mid <= q3

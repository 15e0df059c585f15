"""Fixed reference work, independent of the program, timed between the
rounds of a workload so that the benchmark's times can be scaled to one
machine speed.

The machine this benchmark runs on is shared: the same code runs up to
twice as fast at one hour as at another, with little CPU steal to show
for it.  The benchmark times CPU seconds, which a time slice lost to
another process or to the hypervisor does not lengthen, and scales each
time by ``REF / c``, where ``c`` is the CPU time of a calibration pass
taken next to it and ``REF`` the time of that pass on the reference
machine (2 vCPU, idle).  A scaled time reads what the work would take on
the reference machine; a change to the program moves it, a change of
machine speed does not.

Two passes, each close to the work it scales:

- ``kernel``: products of small matrices of Laurent polynomials held as
  dicts, plus small numpy determinants, in this process.  It scales the
  in-process tasks of ``cocycle`` and ``classify``.
- ``spawn``: a fresh interpreter that imports numpy and exits.  It scales
  the CLI pipelines and the set-up probes, which start interpreters.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: seconds one pass takes on the reference machine
REF_KERNEL_S = 0.0128
REF_SPAWN_S = 0.107

_rng = random.Random(20100917)
_N = 4
_MATS = [
    [[{k: complex(_rng.uniform(-1, 1), _rng.uniform(-1, 1)) for k in range(-1, 2)} for _ in range(_N)] for _ in range(_N)]
    for _ in range(2)
]
_CONST = np.array([[_rng.uniform(-1, 1) for _ in range(6)] for _ in range(6)], dtype=complex)


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0j) + x * y
    return out


def _poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0j) + v
    return out


def _matmul(a, b):
    n = len(a)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc: dict = {}
            for k in range(n):
                acc = _poly_add(acc, _poly_mul(a[i][k], b[k][j]))
            row.append({e: c for e, c in acc.items() if abs(c) > 1e-12})
        rows.append(row)
    return rows


def kernel() -> float:
    """One in-process pass; returns its CPU time, the clock the in-process
    tasks are timed with."""
    t0 = time.process_time()
    a, b = _MATS
    for _ in range(40):
        _matmul(a, b)
    m = _CONST
    for t in range(1000):
        np.linalg.det(m * complex(1.0, t * 1e-3))
    return time.process_time() - t0


def child_cpu(argv: list, cwd: Path, env: dict | None = None) -> tuple[float, int, bytes]:
    """Runs ``argv`` to its end.  Returns the CPU seconds of the process
    and of the children it waited for (from wait4), its exit code and its
    stderr."""
    p = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        err = p.stderr.read()
        p.stderr.close()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if p.returncode is None:
            p.kill()
            p.wait()
    return usage.ru_utime + usage.ru_stime, p.returncode, err


def spawn(cwd: Path) -> float:
    """A fresh interpreter importing numpy; returns its CPU time."""
    cpu, code, err = child_cpu([sys.executable, "-c", "import json, argparse, numpy"], cwd)
    if code != 0:
        raise RuntimeError(f"calibration interpreter failed: {err.decode(errors='replace')[-300:]}")
    return cpu


def sample(kind: str, cwd: Path, repeats: int) -> float:
    """Median time of ``repeats`` passes of one kind."""
    return statistics.median(kernel() if kind == "kernel" else spawn(cwd) for _ in range(repeats))

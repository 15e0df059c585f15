"""Benchmark of the torusbundles package: one command, three workloads.

    python3 bench/run.py --workload cocycle --seed 1 --seconds 25 --trace 0

Workloads: ``cocycle`` (dense factors through the cocycle calculus and the
tensor functors), ``classify`` (the normal form grid r = 1..16, |d| <= 8,
and degree zero recognition), ``cli`` (the README pipelines, one process
per command).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per layer metrics and the tracing overhead.  End-to-end times are CPU
times scaled to a reference machine speed by calibration passes taken
between tasks (``calibrate.py``).  The last line of stdout is one JSON
object: correct, attempted, failed, metrics.

Other modes: ``--list-faults`` prints the classify grid cells that fail;
``--tiny`` runs a shortened round (for the benchmark's own tests).
"""

from __future__ import annotations

import os

# one BLAS thread per process, set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import workloads as W

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOADS = ("cocycle", "classify", "cli")
#: set-ups measured per run; setup_s is their median
SETUP_REPEATS = 11
#: seconds of wall time between calibrations, and passes per calibration
CALIB_INTERVAL = 0.5
CALIB_REPEATS = {"kernel": 3, "spawn": 1}
#: fresh interpreters timed for cli.startup_ms in a traced run
STARTUP_REPEATS = 5
#: theta_eval values compared with mpmath per cli run
THETA_POINTS = 8


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import torusbundles

    return torusbundles


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


@dataclass
class State:
    workload: str
    tasks: list
    tb: object = None
    theta_points: list = field(default_factory=list)


def set_up(workload: str, seed: int, workdir: Path, tiny: bool = False) -> State:
    """Import, generate the seeded inputs and run the warm-up tasks, whose
    outcome is left to the timed rounds to check and count."""
    import numpy as np

    rng = np.random.default_rng(seed % 2**64)
    if workload == "cli":
        tasks = W.cli_round(rng, workdir)
        if tiny:
            tasks = tasks[: len(tasks) // 2]
        W.run_pipeline(next(t for t in tasks if t.stages[0][0] == "cg-table"), ROOT)
        return State(workload, tasks, theta_points=W.theta_points(rng, 2 if tiny else THETA_POINTS))
    tb = import_package()
    if workload == "cocycle":
        tasks = W.cocycle_round(tb, rng, ranks=range(2, 4) if tiny else range(2, 9))
        warmup = [t for t in tasks if " n=2 " in t.label]
    else:
        if tiny:
            tasks = W.classify_round(tb, rng, ranks=(1, 9), degrees=(0, 8), deg0_ranks=(2,))
        else:
            tasks = W.classify_round(tb, rng)
        warmup = [t for t in tasks if " r=1 " in t.label][:10]
    for t in warmup:
        run_library_task(t, Measured())
    return State(workload, tasks, tb)


def probe_set_up(args) -> float:
    """CPU time of a fresh interpreter that only sets up and exits, its
    children (the cli warm-up pipeline) included."""
    argv = [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", args.workload,
            "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    cpu, code, err = calibrate.child_cpu(argv, ROOT, W.child_env(ROOT))
    if code != 0:
        raise RuntimeError(f"set-up failed: {err.decode(errors='replace').strip()[-500:]}")
    return cpu


def measure_set_up(args) -> tuple[list[float], list[float]]:
    """Set-up probes, each scaled by the mean of the spawn calibrations
    taken just before and just after it.  Returns (scaled, raw) seconds."""
    calib = [calibrate.spawn(ROOT)]
    raw = []
    for _ in range(SETUP_REPEATS):
        raw.append(probe_set_up(args))
        calib.append(calibrate.spawn(ROOT))
    scaled = [t * 2 * calibrate.REF_SPAWN_S / (c0 + c1) for t, c0, c1 in zip(raw, calib, calib[1:])]
    return scaled, raw


# ---------------------------------------------------------------------------
# executing tasks
# ---------------------------------------------------------------------------


@dataclass
class Record:
    label: str
    round: int
    seconds: float
    ok: bool
    known_fault: bool
    message: str = ""
    #: index of the calibration taken last before the task
    calib: int = -1


@dataclass
class Measured:
    records: list = field(default_factory=list)
    rounds: int = 0
    max_child_rss_kib: int = 0
    #: calibration times in the order taken, or empty
    calib: list = field(default_factory=list)


def run_library_task(task, measured: Measured) -> tuple[float, str]:
    """Runs and checks one in-process task.  Its time is the CPU time of
    this process, which a time slice lost to another process or to the
    hypervisor does not lengthen; on an idle machine it equals the wall
    time of the single-threaded program."""
    t0 = time.process_time()
    try:
        out = task.run()
    except Exception as exc:  # a program call outside Outcome.attempt
        return time.process_time() - t0, f"{type(exc).__name__}: {exc}"
    dt = time.process_time() - t0
    return dt, check_message(task.check, out)


def check_message(check, *args) -> str:
    """"" when the check passes, else why it failed.  An output so wrong
    that the check itself raises (malformed JSON, a wrong type) fails too."""
    try:
        check(*args)
    except AssertionError as exc:
        return str(exc)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return ""


class CliRunner:
    """Runs CLI tasks as pipelines of fresh interpreters or, in process,
    through cli.main(argv) with each stage reading the previous stage's
    stdout (the traced path of ``cli``)."""

    def __init__(self, in_process: bool):
        self.in_process = in_process
        self.seen: dict = {}

    @staticmethod
    def _main(argv, stdin_text: str) -> tuple[int, str, str]:
        from torusbundles import cli

        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        finally:
            sys.stdin = saved
        return code, out.getvalue(), err.getvalue()

    def _run_in_process(self, task) -> W.CliResult:
        text, codes, errs = "", [], []
        for argv in task.stages:
            code, text, err = self._main(argv, text)
            codes.append(code)
            errs.append(err)
        return W.CliResult(text.encode(), codes, "".join(errs).encode(), 0)

    def __call__(self, task, measured: Measured) -> tuple[float, str]:
        """Runs and checks one pipeline.  Its time is CPU time: of this
        process in process, else the sum over the pipeline's processes."""
        if self.in_process:
            t0 = time.process_time()
            res = self._run_in_process(task)
            dt = time.process_time() - t0
        else:
            res = W.run_pipeline(task, ROOT)
            dt = res.cpu_s
        measured.max_child_rss_kib = max(measured.max_child_rss_kib, res.max_rss_kib)
        return dt, self.check(task, res)

    def check(self, task, res: W.CliResult) -> str:
        return check_message(W.check_cli_result, task, res) or check_message(
            W.cli_expected_stdout, task, self.seen, res.stdout)


def run_rounds(state: State, execute, seconds: float, tracer=None, calib: str = "") -> Measured:
    """Whole rounds until ``seconds`` of wall time have passed.  With
    ``calib`` ("kernel" or "spawn"), a calibration is taken first, then
    between tasks once ``CALIB_INTERVAL`` has passed since the last one,
    and after the last task, so that every task lies between two."""
    measured = Measured()
    start = time.perf_counter()
    last = -math.inf
    task_id = 0
    while measured.rounds == 0 or time.perf_counter() - start < seconds:
        for task in state.tasks:
            if calib and time.perf_counter() - last >= CALIB_INTERVAL:
                measured.calib.append(calibrate.sample(calib, ROOT, CALIB_REPEATS[calib]))
                last = time.perf_counter()
            if tracer is not None:
                tracer.current_task = task_id
            dt, message = execute(task, measured)
            known = bool(message) and W.is_known_failure(task, message)
            measured.records.append(Record(task.label, measured.rounds, dt, not message, known, message,
                                           len(measured.calib) - 1))
            task_id += 1
        measured.rounds += 1
    if calib:
        measured.calib.append(calibrate.sample(calib, ROOT, CALIB_REPEATS[calib]))
    return measured


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def task_quantiles(times: list[float]) -> tuple[float, float, float]:
    """Median and tail of the task times as Harrell-Davis estimates, which
    weigh all order statistics near the quantile and so do not jump when
    the quantile sits between two kinds of task.  The tail level is 0.9,
    lowered when needed so that at least ten samples lie beyond it, but
    not below 0.5.  Returns (p50, tail, tail level)."""
    from scipy.stats.mstats import hdquantiles

    n = len(times)
    level = min(0.9, max(0.5, (n - 10) / n))
    p50, tail = hdquantiles(times, prob=[0.5, level])
    return float(p50), float(tail), level


def read_steal() -> tuple[int, int]:
    """(steal ticks, all ticks) of the machine from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except OSError:
        return -1, -1
    return fields[7], sum(fields[:8])


def task_scales(measured: Measured, ref: float | None) -> list[float]:
    """Per task factor ``ref / c`` that scales its time to the reference
    machine speed, ``c`` the mean of the calibrations just before and just
    after the task; 1 for every task without ``ref`` or calibrations."""
    c = measured.calib
    if ref is None or not c:
        return [1.0] * len(measured.records)
    return [2 * ref / (c[r.calib] + c[r.calib + 1]) for r in measured.records]


def summarize(measured: Measured, ref: float | None = None) -> tuple[int, int, int, float, list[float]]:
    """Counts, the median over rounds of passed tasks per second of task
    time, and every task time, each scaled by ``task_scales``.  The median
    over rounds keeps the rate steady when the machine runs faster or
    slower for a few seconds."""
    times = [r.seconds * s for r, s in zip(measured.records, task_scales(measured, ref))]
    failed = [r for r in measured.records if not r.ok]
    unexpected = [r for r in failed if not r.known_fault]
    rates = []
    for k in range(measured.rounds):
        rec = [(r, t) for r, t in zip(measured.records, times) if r.round == k]
        rates.append(sum(r.ok for r, _ in rec) / sum(t for _, t in rec))
    return len(measured.records), len(failed), len(unexpected), statistics.median(rates), times


def report_failures(measured: Measured) -> None:
    shown = set()
    for r in measured.records:
        if not r.ok and r.label not in shown:
            shown.add(r.label)
            tag = "known fault" if r.known_fault else "FAILED"
            print(f"  {tag}: {r.label}: {r.message[:300]}")


def post_checks(state: State) -> str:
    """Checks run once after the timed rounds: theta_eval against mpmath."""
    if state.workload != "cli":
        return ""
    return check_message(W.check_theta_values, import_package(), state.theta_points)


def startup_ms(repeats: int = STARTUP_REPEATS) -> float:
    env = W.child_env(ROOT)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import torusbundles.cli"], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def end_to_end(args, workdir: Path) -> tuple[bool, int, int, dict]:
    setups, raw_setups = measure_set_up(args)
    t0 = time.perf_counter()
    state = set_up(args.workload, args.seed, workdir, args.tiny)
    own_setup = time.perf_counter() - t0
    if args.workload == "cli":
        execute, kind, ref = CliRunner(in_process=False), "spawn", calibrate.REF_SPAWN_S
    else:
        execute, kind, ref = run_library_task, "kernel", calibrate.REF_KERNEL_S
    calibrate.sample(kind, ROOT, 1)  # warm-up: the first pass runs cold
    gc.collect()
    steal0, ticks0 = read_steal()
    measured = run_rounds(state, execute, args.seconds, calib=kind)
    steal1, ticks1 = read_steal()
    # read before post_checks and task_quantiles import mpmath and scipy
    if args.workload == "cli":
        rss_kib = measured.max_child_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    post_error = post_checks(state)

    scales = task_scales(measured, ref)
    attempted, failed, unexpected, rate, times = summarize(measured, ref)
    raw_rate = summarize(measured)[3]
    p50, p90, level = task_quantiles(times)
    metrics = {
        "tasks_per_s": {"value": rate, "unit": "tasks/s"},
        "task_p50_ms": {"value": p50 * 1e3, "unit": "ms"},
        "task_p90_ms": {"value": p90 * 1e3, "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": rss_kib / 1024, "unit": "MiB"},
    }
    print(f"workload {args.workload} seed {args.seed}: {measured.rounds} rounds, "
          f"{attempted} tasks attempted, {failed} failed ({failed - unexpected} known faults)")
    report_failures(measured)
    if post_error:
        print(f"  FAILED post check: {post_error}")
    for name, m in metrics.items():
        print(f"  {name:<12} {m['value']:12.4f} {m['unit']}")
    print(f"  task_p90_ms is the p{100 * level:.0f} of {attempted} tasks; "
          f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s; own set-up {own_setup:.3f} s")
    print(f"  times scaled to the reference speed by the {kind} calibration: median scale "
          f"{statistics.median(scales):.3f} (range {min(scales):.3f}-{max(scales):.3f}); unscaled "
          f"tasks_per_s {raw_rate:.4f}, set-ups {', '.join(f'{s:.3f}' for s in raw_setups)} s")
    if steal0 >= 0:
        print(f"  cpu steal {steal1 - steal0} ticks of {ticks1 - ticks0} during the timed rounds")
    return unexpected == 0 and not post_error, attempted, failed, metrics


def traced(args, workdir: Path) -> tuple[bool, int, int, dict]:
    import tracing

    state = set_up(args.workload, args.seed, workdir, args.tiny)
    if state.tb is None:
        state.tb = import_package()
    def make():
        return CliRunner(in_process=True) if args.workload == "cli" else run_library_task

    gc.collect()
    plain = run_rounds(state, make(), args.seconds / 2)
    tracer = tracing.Tracer()
    tracer.install(state.tb)
    try:
        gc.collect()
        measured = run_rounds(state, make(), args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    tracer.save(workdir / "spans.npz")
    post_error = post_checks(state)

    _, _, unexpected_plain, rate_plain, _ = summarize(plain)
    attempted, failed, unexpected, rate, _ = summarize(measured)
    metrics = tracing.layer_metrics(tracer, measured.rounds)
    metrics["cli.startup_ms"] = {"value": startup_ms(), "unit": "ms"}
    print(f"workload {args.workload} seed {args.seed} traced: {measured.rounds} rounds, "
          f"{attempted} tasks attempted, {failed} failed; {len(tracer.name)} spans in {workdir / 'spans.npz'}")
    report_failures(measured)
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:14.4f} {m['unit']} per round" if name != "cli.startup_ms"
              else f"  {name:<40} {m['value']:14.4f} {m['unit']}")
    print(f"  tracing overhead: tasks_per_s traced {rate:.4f} - untraced {rate_plain:.4f} = "
          f"{rate - rate_plain:+.4f} tasks/s ({100 * (rate / rate_plain - 1):+.1f}%)")
    return unexpected == 0 and unexpected_plain == 0 and not post_error, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shortened rounds, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--list-faults", action="store_true", help="print the failing cells of the classify grid")
    args = parser.parse_args(argv)

    if args.list_faults:
        faults = W.list_faults(import_package())
        for tau, r, d, message in faults:
            print(f"tau={tau} r={r} d={d}: {message}")
        print(f"{len(faults)} failing (r, d) pairs")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "torusbundles" / "__init__.py").is_file():
        print(f"no torusbundles package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    suffix = "-probe" if args.setup_probe else ""
    workdir = OUT / f"{args.workload}-seed{args.seed}{suffix}"
    workdir.mkdir(parents=True, exist_ok=True)
    if args.setup_probe:
        set_up(args.workload, args.seed, workdir, args.tiny)
        return 0
    mode = traced if args.trace else end_to_end
    correct, attempted, failed, metrics = mode(args, workdir)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

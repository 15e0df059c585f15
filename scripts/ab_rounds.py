"""Time one benchmark round of two checkouts against each other in one process.

    python3 scripts/ab_rounds.py PARENT_DIR [--workload cocycle|classify] [--seed S] [--blocks N] [--match TEXT]

PARENT_DIR is another checkout of this repository, the one compared
against; the other side is the checkout this script lives in.  Each
side's package is loaded from its ``src/`` under its own name
(``tb_parent``, ``tb_change``), and each side's round is built from its
own ``bench/workloads.py`` with the same seed, so both time the same
inputs.  Blocks alternate: each block runs one whole round of each side,
the side that runs first alternating from block to block, and a round's
time is the CPU time of this process (``time.process_time``).  Task
checks run once, untimed, on a warm-up round of each side.  With
``--match TEXT`` a round holds only the tasks whose label contains TEXT
(``--match deg0`` times the degree-zero tasks of ``classify`` apart from
the grid); a TEXT that no label contains is an error.

The script prints both medians of the round time, the ratio of the
medians change/parent and the blocks the change won, then the median and
the quartiles of the per-block ratios change/parent, which show how far
the blocks spread.  Being one process, it sees no start-up or import
cost; ``bench/run.py`` gives the end-to-end figures.
"""

import os

# one BLAS thread, set before numpy is imported, as bench/run.py does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = {"cocycle": "cocycle_round", "classify": "classify_round"}


def _load(name: str, path: Path, package: bool):
    """The module or package at ``path``, imported as ``name``."""
    if package:
        spec = importlib.util.spec_from_file_location(name, path / "__init__.py", submodule_search_locations=[str(path)])
    else:
        spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_side(checkout: Path, name: str):
    """The checkout's package and its bench/workloads.py, imported as
    ``tb_<name>`` and ``workloads_<name>``; bench/ is only read."""
    tb = _load(f"tb_{name}", checkout / "src" / "torusbundles", package=True)
    bench = str(checkout / "bench")
    # workloads imports its helpers as top-level checks and dense: take this checkout's
    for helper in ("checks", "dense"):
        sys.modules.pop(helper, None)
    sys.path.insert(0, bench)
    try:
        workloads = _load(f"workloads_{name}", checkout / "bench" / "workloads.py", package=False)
    finally:
        sys.path.remove(bench)
    return tb, workloads


def side_round(checkout: Path, name: str, workload: str, seed: int) -> list:
    """The tasks of one round of ``workload``, built by the checkout's own
    bench/workloads.py on the checkout's own package."""
    tb, workloads = load_side(checkout, name)
    return getattr(workloads, ROUNDS[workload])(tb, np.random.default_rng(seed))


def task_failure(task) -> str:
    """"" when the task runs and passes its check, untimed, else why not,
    in the words of bench/run.py."""
    try:
        task.check(task.run())
    except AssertionError as exc:  # the check's verdict, checks.CheckFailed
        return str(exc)
    except Exception as exc:  # the program's own error, or a check that broke on its output
        return f"{type(exc).__name__}: {exc}"
    return ""


def failures(tasks: list) -> int:
    """Tasks of one untimed round whose run or check fails."""
    return sum(1 for task in tasks if task_failure(task))


def round_seconds(tasks: list) -> float:
    gc.collect()
    t0 = time.process_time()
    for task in tasks:
        try:
            task.run()
        except Exception:  # counted by failures(); the time still counts
            pass
    return time.process_time() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path, metavar="PARENT_DIR", help="the checkout compared against")
    ap.add_argument("--workload", choices=sorted(ROUNDS), default="cocycle")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--blocks", type=int, default=30)
    ap.add_argument("--match", default="", metavar="TEXT", help="time only the tasks whose label contains TEXT")
    args = ap.parse_args(argv)
    if args.blocks < 1:
        ap.error("--blocks must be at least 1")

    sides = {
        "parent": side_round(args.parent.resolve(), "parent", args.workload, args.seed),
        "change": side_round(ROOT, "change", args.workload, args.seed),
    }
    sides = {k: [task for task in v if args.match in task.label] for k, v in sides.items()}
    if not all(sides.values()):
        ap.error(f"no {args.workload} task label contains {args.match!r}")
    matching = f" matching {args.match!r}" if args.match else ""
    print(f"{args.workload} round of {len(sides['change'])} tasks{matching}, seed {args.seed}, {args.blocks} blocks")
    print("failed tasks per round: " + ", ".join(f"{k} {failures(v)}" for k, v in sides.items()))
    times = {k: [] for k in sides}
    for block in range(args.blocks):
        order = ("parent", "change") if block % 2 == 0 else ("change", "parent")
        for k in order:
            times[k].append(round_seconds(sides[k]))
    med = {k: statistics.median(v) for k, v in times.items()}
    for k in sides:
        print(f"{k}: median {1e3 * med[k]:.2f} ms per round")
    won = sum(c < p for p, c in zip(times["parent"], times["change"]))
    print(f"ratio change/parent {med['change'] / med['parent']:.4f}, blocks won by the change {won} of {args.blocks}")
    q1, mid, q3 = np.percentile([c / p for p, c in zip(times["parent"], times["change"])], [25, 50, 75])
    print(f"per-block ratio change/parent: median {mid:.4f}, quartiles [{q1:.4f}, {q3:.4f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())

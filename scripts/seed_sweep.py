"""Run and check every task of the benchmark rounds of many seeds.

    python3 scripts/seed_sweep.py --workload classify|cocycle --seeds A:B

For each seed A, A + 1, ..., B - 1, the round of the workload is built
by this checkout's ``bench/workloads.py`` on this checkout's package,
loaded as ``scripts/ab_rounds.py`` loads a side.  Every task is run and
checked once, untimed.  A failure is unexpected unless
``workloads.is_known_failure`` accepts its message, as ``bench/run.py``
counts known faults.  The script prints each unexpected failure with its
seed and task, then a summary line, and exits 1 if there was any.

The benchmark runs a round of a few seeds; a fault that only some
parameter draws reach shows here.
"""

import argparse
import sys

# ab_rounds sets one BLAS thread before numpy is imported
from ab_rounds import ROOT, ROUNDS, load_side, task_failure

import numpy as np


def seed_range(text: str) -> range:
    start, _, stop = text.partition(":")
    seeds = range(int(start), int(stop))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(ROUNDS), required=True)
    ap.add_argument("--seeds", type=seed_range, required=True, metavar="A:B", help="seeds A to B - 1")
    args = ap.parse_args(argv)

    sys.dont_write_bytecode = True  # leave no cache in bench/
    tb, workloads = load_side(ROOT, "sweep")
    build = getattr(workloads, ROUNDS[args.workload])
    print(f"{args.workload} rounds of seeds {args.seeds.start}:{args.seeds.stop}")
    tasks = known = unexpected = 0
    for seed in args.seeds:
        for task in build(tb, np.random.default_rng(seed)):
            tasks += 1
            message = task_failure(task)
            if message and workloads.is_known_failure(task, message):
                known += 1
            elif message:
                unexpected += 1
                print(f"seed {seed}: {task.label}: {message}")
    print(f"{tasks} tasks: {unexpected} unexpected failures, {known} known faults")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())

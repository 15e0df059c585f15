"""Run a workload repeatedly with different seeds and print the quartiles
of each metric, the basis for the bounds in BENCHMARK.json.

    python3 bench/steady.py --workload cocycle --runs 10 --seconds 25

For each metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median; a bound should be well above that share.  It also prints
the share of failed tasks per run, which must be identical across runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def one_run(workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=BENCH.parent)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"run failed ({proc.returncode}): {proc.stderr[-1000:]}")
    for line in lines[:-1]:
        if "steal" in line or "FAILED" in line or "scale" in line:
            print(f"    seed {seed}: {line.strip()}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--seed0", type=int, default=1000)
    args = parser.parse_args()
    for workload in args.workload:
        results = [one_run(workload, args.seed0 + k, args.seconds) for k in range(args.runs)]
        print(f"{workload}: {args.runs} runs, seeds {args.seed0}..{args.seed0 + args.runs - 1}")
        shares = sorted({(r["failed"], r["attempted"], r["failed"] / r["attempted"]) for r in results})
        print(f"  correct {sum(r['correct'] for r in results)}/{len(results)}; failed/attempted per run: "
              + ", ".join(f"{f}/{a}" for f, a, _ in shares)
              + ("" if len({s for *_, s in shares}) == 1 else "  (shares differ)"))
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:<40} median {med:12.4f} {unit:<8} q1 {q1:12.4f} q3 {q3:12.4f} spread {100 * spread:6.2f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Steadiness: repeat each workload and show how far its metrics spread.

    python3 lipbench/steady.py                      # 10 seeds, every workload
    python3 lipbench/steady.py --workload session --runs 5 --first-seed 100

Each run is ``run.py`` as a separate process with its own seed, one at
a time.  Per workload and end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound in ``BENCHMARK.json`` and a third of it (the target a
steady benchmark stays under).  ``setup_s`` is set up several times in
every run, and its spread is shown but not held to its bound.  The
share of failed operations must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from common import ROOT
from run import WORKLOADS, load_definition


def one_run(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join("lipbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n"
                           f"{completed.stdout}\n{completed.stderr}")
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if "(host_steal_pct" in line:
            result["host_steal_pct"] = float(line.split()[-1].rstrip(")"))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repeat each workload and "
                                                 "report the spread")
    parser.add_argument("--workload", action="append",
                        choices=WORKLOADS, help="default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    definition = load_definition()
    bounds = {entry["name"]: entry["bound"]
              for entry in definition["end_to_end"]}
    seconds = definition["run_seconds"]
    steady = True
    for workload in args.workload or WORKLOADS:
        results = []
        for offset in range(args.runs):
            seed = args.first_seed + offset
            result = one_run(workload, seed, seconds)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={entry['value']:.4g}"
                for name, entry in result["metrics"].items())
                + f" host_steal_pct={result.get('host_steal_pct', 0):.1f}",
                flush=True)
            results.append(result)
        shares = {result["failed"] / result["attempted"]
                  for result in results}
        print(f"\n{workload}: {args.runs} runs, all correct: "
              f"{all(result['correct'] for result in results)}, "
              f"failed share(s): {sorted(shares)}")
        print(f"  {'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s} {'bound/3':>8s}")
        for name, bound in bounds.items():
            values = [result["metrics"][name]["value"] for result in results]
            q1, middle, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / middle
            held = name == "setup_s" or spread <= bound / 3
            steady = steady and (name == "setup_s" or spread <= bound)
            print(f"  {name:24s} {middle:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:8.3f} {bound:6.2f} {bound / 3:8.3f}"
                  f"{'' if held else '  <- above bound/3'}")
        if len(shares) != 1 or not all(r["correct"] for r in results):
            steady = False
        print(flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

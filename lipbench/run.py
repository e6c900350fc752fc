"""Lipstick benchmark: one command, four workloads.

    python3 lipbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0
    python3 lipbench/run.py --workload all --seed 1 --seconds 10

Run from the root of a checkout; the program is imported from its
``src``.  With ``--trace 0`` the last line of standard output is one
JSON object carrying every end-to-end metric of ``BENCHMARK.json``;
with ``--trace 1`` a separate, traced run carries every per-layer
metric instead (0 where the workload does not reach that layer).  The
lines before it are a readable report.  ``--workload all`` runs every
workload in turn and prints one report and one JSON line per workload.

Exit codes: 0 when the run finished (``correct`` says whether every
answer matched the oracle), 1 on a failure inside the run, 2 when the
checkout holds no program source.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (ROOT, SetupError, WorkDir, bootstrap,  # noqa: E402
                    nproc, perf, pin_to_one_cpu, steal_seconds,
                    trace_path)

WORKLOADS = ("ingest", "serve-cold", "serve-hot", "session")


def load_definition() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        return json.load(stream)


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    from tracing import Tracer
    tracer = Tracer() if trace else None
    work = WorkDir(name)
    before, started = steal_seconds(), perf()
    try:
        if name == "ingest":
            import wl_ingest
            outcome = wl_ingest.run(seed, seconds, trace, work, tracer)
        elif name == "session":
            import wl_session
            outcome = wl_session.run(seed, seconds, trace, work, tracer)
        else:
            import wl_serve
            outcome = wl_serve.run(name, seed, seconds, trace, work, tracer)
    finally:
        work.close()
    after = steal_seconds()
    if before is not None and after is not None:
        # When the host gives this machine's CPUs to others, timings of
        # the run read slow: the share is printed to explain outliers.
        outcome.report["host_steal_pct"] = 100.0 * (after - before) / (
            (perf() - started) * nproc())
    if tracer is not None:
        tracer.write(trace_path(name, seed))
    return outcome


def result_line(definition: dict, outcome, trace: bool) -> dict:
    """The JSON result: every metric of the chosen kind, with units."""
    metrics = {}
    if trace:
        for entry in definition["per_layer"]:
            value = outcome.values.get(entry["name"], 0)
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    else:
        for entry in definition["end_to_end"]:
            if entry["name"] not in outcome.values:
                raise RuntimeError(f"workload measured no {entry['name']}")
            metrics[entry["name"]] = {"value": outcome.values[entry["name"]],
                                      "unit": entry["unit"]}
    return {"correct": outcome.correct, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}


def report(name: str, result: dict, outcome) -> None:
    print(f"== {name}: attempted {result['attempted']}, failed "
          f"{result['failed']}, correct {result['correct']}")
    for problem in outcome.problems:
        print(f"   WRONG: {problem}")
    for key, entry in result["metrics"].items():
        print(f"   {key:36s} {entry['value']:>14.4f} {entry['unit']}")
    for key, value in outcome.report.items():
        shown = f"{value:>14.4f}" if isinstance(value, float) else f"{value!s:>14}"
        print(f"   ({key:34s} {shown})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Lipstick benchmark (see lipbench/README.md)")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its server and removes its files.
    # Catching SIGINT here also matters to child processes: a shell
    # that starts the benchmark in the background ignores SIGINT, and
    # an ignored signal stays ignored in children, so the server could
    # not be stopped by it; a caught one is reset to the default.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        bootstrap()
        definition = load_definition()
    except (SetupError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    for name in names:
        try:
            outcome = run_workload(name, args.seed, args.seconds,
                                   bool(args.trace))
            result = result_line(definition, outcome, bool(args.trace))
        except Exception:
            traceback.print_exc()
            return 1
        report(name, result, outcome)
        lines.append(result)
        if args.workload == "all":
            print(json.dumps(result))
    if args.workload != "all":
        sys.stdout.flush()
        print(json.dumps(lines[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

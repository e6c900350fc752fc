"""ingest: tracked runs committed through ``ProvenanceService.ingest_many``.

Each round commits a fixed mix of runs (six Car dealership runs, one
Arctic serial and one Arctic dense run) into a fresh on-disk SQLite
store, one ``ingest_many`` call per run so each run's latency is seen.
The service runs with one worker: on one shard, a process pool was
slower than in-process ingest on a 2-core machine (7.5 s against 6.8 s
for 12 runs of 6k nodes), since commits serialize on the one writer.
No query runs; execution, graph building and the write path (row
insert plus interval encode) do all the work.
"""

from __future__ import annotations

import sqlite3
from typing import List

import inputs
import oracle
import programs
from common import Outcome, WorkDir, median, perf, quantile, sqlite_bytes
from tracing import span

WORKERS = 1
#: Set-ups timed per run at least (one before each round, the rest
#: after the last).
SETUPS = 7


class Round:
    """One round's store and what was committed into it."""

    def __init__(self, path: str, specs: List):
        self.path = path
        self.specs = specs
        self.seconds: List[float] = []
        self.nodes: List[int] = []


def _ingest_round(work: WorkDir, seed: int, index: int, outcome: Outcome,
                  tracer=None) -> Round:
    from repro.store import ProvenanceService, SQLiteStore, WorkloadSpec
    specs = [WorkloadSpec(family, params, run_id=f"run-{index}-{position}")
             for position, (family, params)
             in enumerate(inputs.ingest_round(seed, index))]
    done = Round(work.fresh("ingest", ".db"), specs)
    store = SQLiteStore(done.path)
    try:
        service = ProvenanceService(store)
        for spec in specs:
            started = perf()
            with span(tracer, "op.ingest"):
                infos = service.ingest_many([spec], workers=WORKERS)
            done.seconds.append(perf() - started)
            outcome.attempted += 1
            if infos[0].meta and "quarantined" in infos[0].meta:
                outcome.failed += 1
            done.nodes.append(infos[0].node_count)
        store.checkpoint()
    finally:
        store.close()
    return done


def _setup(work: WorkDir) -> float:
    """A fresh store and service, warmed by ingesting one run of each
    family (the first execution in a process parses and compiles the
    workflow's Pig Latin)."""
    from repro.store import ProvenanceService, SQLiteStore, WorkloadSpec
    started = perf()
    store = SQLiteStore(work.fresh("setup", ".db"))
    try:
        ProvenanceService(store).ingest_many(
            [WorkloadSpec("dealerships", {"num_cars": 150, "num_exec": 8,
                                          "seed": 0, "force_decline": True}),
             WorkloadSpec("arctic", {"topology": "dense", "num_stations": 6,
                                     "num_exec": 6, "history_years": 2})],
            workers=WORKERS)
    finally:
        store.close()
    return perf() - started


def _measure(work: WorkDir, seed: int, seconds: float, outcome: Outcome,
             tracer=None, rounds: int = 0, setups=None) -> List[Round]:
    """Whole rounds until ``seconds`` pass (or exactly ``rounds``);
    with a ``setups`` list, one set-up is timed before each round, so
    the set-ups sample the host over the whole run."""
    done: List[Round] = []
    deadline = perf() + seconds
    while (len(done) < rounds) if rounds else (not done or perf() < deadline):
        if setups is not None:
            setups.append(_setup(work))
        done.append(_ingest_round(work, seed, len(done), outcome, tracer))
    return done


def _check(rounds: List[Round], work: WorkDir, outcome: Outcome):
    """Store round trip and tracked-vs-untracked outputs, per run.
    Returns (tracked, untracked) execution seconds."""
    from repro.store import SQLiteStore
    tracked_s = untracked_s = 0.0
    for done in rounds:
        store = SQLiteStore(done.path)
        try:
            for spec in done.specs:
                graph, tracked, plain = programs.check_tracking(
                    spec.workload, spec.params, outcome, spec.run_id)
                tracked_s += tracked
                untracked_s += plain
                expected = programs.spool_text(graph)
                actual = programs.exported_text(
                    store, spec.run_id, work.fresh("export", ".jsonl"))
                if expected != actual:
                    problems = oracle.identity_problems(
                        oracle.Graph.from_jsonl(expected.splitlines()),
                        oracle.Graph.from_jsonl(actual.splitlines()))
                    outcome.problem(f"ingest {spec.run_id}: store round trip "
                                    f"changed the graph: {problems[:2]}")
        finally:
            store.close()
    return tracked_s, untracked_s


def _values(rounds: List[Round], setups: List[float]) -> dict:
    latencies = [s * 1000.0 for done in rounds for s in done.seconds]
    return {
        "setup_s": median(setups),
        "latency_p50_ms": median(latencies),
        "latency_p90_ms": quantile(latencies, 0.9),
        "throughput_per_s": (sum(sum(done.nodes) for done in rounds)
                             / sum(sum(done.seconds) for done in rounds)),
        "store_bytes_per_node": median([sqlite_bytes(done.path)
                                        / sum(done.nodes)
                                        for done in rounds]),
    }


def _interval_rows(path: str) -> int:
    connection = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        return connection.execute(
            "SELECT COUNT(*) FROM node_intervals").fetchone()[0]
    finally:
        connection.close()


def run(seed: int, seconds: float, trace: bool, work: WorkDir,
        tracer) -> Outcome:
    outcome = Outcome()
    setups = []
    rounds = _measure(work, seed, seconds, outcome, setups=setups)
    setups += [_setup(work) for _ in range(SETUPS - len(setups))]
    values = _values(rounds, setups)
    nodes = sum(sum(done.nodes) for done in rounds)
    outcome.report = {
        "runs": outcome.attempted, "rounds": len(rounds), "nodes": nodes,
        "workers": WORKERS,
        "ingest_nodes_per_s": values["throughput_per_s"],
    }
    if not trace:
        _check(rounds, work, outcome)
        outcome.values = values
        return outcome

    # Traced run: the same rounds again under the tracer; the tracing
    # overhead is the throughput lost against the untraced rounds.
    tracer.instrument()
    try:
        traced = _measure(work, seed, seconds, Outcome(), tracer,
                          rounds=len(rounds))
    finally:
        tracer.restore()
    tracked_s, untracked_s = _check(rounds, work, outcome)
    runs = sum(len(done.specs) for done in traced)
    traced_nodes = sum(sum(done.nodes) for done in traced)
    per_run = {name: sum(tracer.durations(span)) / runs for name, span in (
        ("workflow.execute_s", "workflow.execute"),
        ("store.put_graph_s", "store.put_graph"),
        ("store.encode_intervals_s", "store.encode_intervals"),
        ("store.checksum_s", "store.checksum"))}
    layer = dict(per_run)
    layer["graph.builder.overhead_ratio"] = tracked_s / untracked_s
    layer["store.interval_rows_per_node"] = sum(
        _interval_rows(done.path) for done in traced) / traced_nodes
    layer["trace.overhead_pct"] = (
        values["throughput_per_s"]
        / _values(traced, setups)["throughput_per_s"] - 1.0) * 100.0
    layer.update(tracer.shares())
    outcome.values = layer
    return outcome

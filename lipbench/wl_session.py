"""session: in-process analyst sessions over a growing run.

One round is one analyst session on a fresh store:

1. a Car dealership workflow runs with
   ``Lipstick.run_sequence(commit_each=True)``; after every execution's
   commit (an incremental append) the analyst reads through
   ``ProvenanceService`` after ``invalidate(run)``, which pays the lazy
   interval re-encode;
2. the run is opened cold with ``QueryProcessor.from_store`` and
   answers its first query;
3. every module is zoomed out and back in, five times over, then
   what-if deletions of base tuples and subgraph queries run.

Answers are checked against the oracle after the timed operations, and
one more zoom cycle, untimed, checks each zoom out and zoom in.

Zoom runs on the session's own ``QueryProcessor``, never through
``ProvenanceService.zoom_out``: that rewrites the service's shared
cached graph, so later sessionless reads would depend on whether the
run is cached.  Appends go through the store followed by
``service.invalidate``, because the catalog's append does not
invalidate the service's caches.
"""

from __future__ import annotations

import gc
import random
from typing import Dict, List

import inputs
import oracle
import programs
from common import (Outcome, WorkDir, mean, median, perf, quantile,
                    sqlite_bytes, stratified)
from tracing import span

#: Set-ups timed per run at least (one before each session, the rest
#: after the last).
SETUPS = 9
#: Each round zooms every module out and back in this many times, then
#: runs the what-ifs and subgraph queries.  With 8 modules a round has
#: 80 zoom operations, 40 what-ifs and 40 subgraphs: the p90 falls
#: among the 20 zoom-outs of the four dealer modules (the slowest kind)
#: and the p50 in the middle of the what-ifs, not on the edge between
#: two kinds of operation, where it would jump between them from run
#: to run.  The interactions fill about half of a round, so the
#: quantiles sample the host's speed over much of the run.
ZOOM_CYCLES = 5
WHATIFS = 40
SUBGRAPHS = 40
INTERACTIONS = ("zoom_out", "zoom_in", "whatif", "subgraph")


class Timings:
    """Milliseconds per session operation kind."""

    def __init__(self):
        self.ms: Dict[str, List[float]] = {}
        self.bytes_per_node: List[float] = []
        #: Per round: interaction p50 and p90 (ms).
        self.interaction_quantiles: List[tuple] = []
        self.rounds = 0

    def add(self, kind: str, started: float) -> None:
        self.ms.setdefault(kind, []).append((perf() - started) * 1000.0)

    def of(self, *kinds) -> List[float]:
        return [value for kind in kinds for value in self.ms.get(kind, [])]

    def count(self) -> int:
        return sum(len(values) for values in self.ms.values())

    def total_ms(self) -> float:
        return sum(sum(values) for values in self.ms.values())


def _session(work: WorkDir, seed: int, index: int, timings: Timings,
             outcome: Outcome, tracer=None, check: bool = True) -> None:
    from repro import Lipstick
    from repro.benchmark.dealerships import (DealershipRun,
                                             build_dealership_workflow)
    from repro.lipstick import QueryProcessor
    from repro.store import ProvenanceService, SQLiteStore

    done_before = {kind: len(timings.of(kind)) for kind in INTERACTIONS}
    rng = random.Random(f"session-picks:{seed}:{index}")
    data_seed = inputs.session_seed(seed, index)
    run_id = f"session-{index}"
    path = work.fresh("session", ".db")
    store = SQLiteStore(path)
    # Answers are kept and checked after the timed operations, so the
    # oracle's work (and its garbage) stays out of the program's timings.
    reads = []  # (probe, answer, ids of the nodes the run then held)
    try:
        service = ProvenanceService(store)

        class Session(Lipstick):
            """Times each commit and reads after it, as an analyst
            watching the run grow would."""

            def commit(self, run_id=None):
                started = perf()
                with span(tracer, "op.append"):
                    info = super().commit(run_id)
                timings.add("append", started)
                outcome.attempted += 1
                live = self.graph
                held = list(live.node_ids())
                probe = rng.choice([node for node in held
                                    if live.node(node).kind.value == "tuple"])
                service.invalidate(self.run_id)
                started = perf()
                with span(tracer, "op.read_after_append"):
                    found = service.descendants(self.run_id, probe)
                timings.add("read_after_append", started)
                outcome.attempted += 1
                reads.append((probe, found, held))
                return info

        workflow, modules = build_dealership_workflow()
        lipstick = Session(store=store, run_id=run_id)
        run = DealershipRun(num_cars=inputs.SESSION_CARS,
                            num_exec=inputs.SESSION_EXECUTIONS,
                            seed=data_seed)
        run.buyer.accept_probability = 0.0
        state = run.initial_state(lipstick.executor(workflow, modules))
        batches = [run.input_batch(position)
                   for position in range(inputs.SESSION_EXECUTIONS)]
        lipstick.run_sequence(workflow, modules, batches, state=state,
                              commit_each=True)
        reference = programs.oracle_graph(lipstick.graph)
        fanout = sorted(reference.nodes, key=lambda node: (
            -len(reference.succs[node]), node))
        tuples = sorted(node for node, record in reference.nodes.items()
                        if record["kind"] == "tuple")
        if check:
            # Edges only ever point at nodes an execution creates, so
            # what a node reached when the run held ``held`` is what it
            # reaches in the whole run, within ``held``.
            for probe, found, held in reads:
                if set(found) != oracle.descendants(reference,
                                                    probe) & set(held):
                    outcome.problem(f"session {index}: read after append "
                                    f"of node {probe} is wrong")

        # Cold open to the first answer.
        first = fanout[0]
        started = perf()
        with span(tracer, "op.open"):
            processor = QueryProcessor.from_store(store, run_id)
            answer = processor.subgraph(first)
        timings.add("open", started)
        outcome.attempted += 1
        if check:
            problems = oracle.restore_problems(
                reference, programs.oracle_graph(processor.graph))
            if problems:
                outcome.problem(f"session {index}: stored run differs from "
                                f"the tracked graph: {problems[:2]}")
            _check_subgraph(reference, first, answer, outcome, index)
        gc.collect()  # the checks' garbage, not the program's

        # Zoom every module out and back in, a few times over, then
        # what-if deletions of base tuples and subgraph queries.
        modules = sorted(processor.graph.module_names())
        for _cycle in range(ZOOM_CYCLES):
            for module in modules:
                started = perf()
                with span(tracer, "op.zoom_out"):
                    processor.zoom_out([module])
                timings.add("zoom_out", started)
                outcome.attempted += 1
                started = perf()
                with span(tracer, "op.zoom_in"):
                    processor.zoom_in([module])
                timings.add("zoom_in", started)
                outcome.attempted += 1
        whatifs = []
        for node in stratified(rng, tuples, WHATIFS):
            started = perf()
            with span(tracer, "op.whatif"):
                result = processor.what_if(node_ids=[node])
            timings.add("whatif", started)
            outcome.attempted += 1
            whatifs.append((node, set(result.deletion.removed)))
        subgraphs = []
        for node in rng.sample(fanout[:4 * SUBGRAPHS], SUBGRAPHS):
            started = perf()
            with span(tracer, "op.subgraph"):
                answer = processor.subgraph(node)
            timings.add("subgraph", started)
            outcome.attempted += 1
            subgraphs.append((node, answer))
        store.checkpoint()

        if check:
            for node, removed in whatifs:
                if removed != oracle.deletion_set(reference, [node]):
                    outcome.problem(f"session {index}: what-if deleting "
                                    f"{node} removed the wrong nodes")
            for node, answer in subgraphs:
                _check_subgraph(reference, node, answer, outcome, index)
            # The timed zoom cycles left the graph as they found it; one
            # more cycle, untimed, checks each zoom out and zoom in.
            before = programs.oracle_graph(processor.graph)
            for problem in oracle.restore_problems(reference, before):
                outcome.problem(f"session {index}: after the zoom cycles: "
                                f"{problem}")
            for module in modules:
                processor.zoom_out([module])
                zoomed = programs.oracle_graph(processor.graph)
                processor.zoom_in([module])
                for problem in oracle.zoom_out_problems(before, zoomed,
                                                        module):
                    outcome.problem(f"session {index}: {problem}")
                restored = programs.oracle_graph(processor.graph)
                for problem in oracle.restore_problems(before, restored):
                    outcome.problem(f"session {index}: zoom-in {module}: "
                                    f"{problem}")
                before = restored
    finally:
        store.close()
    timings.bytes_per_node.append(sqlite_bytes(path)
                                  / len(reference.nodes))
    interactions = [value for kind in INTERACTIONS
                    for value in timings.of(kind)[done_before[kind]:]]
    timings.interaction_quantiles.append((median(interactions),
                                          quantile(interactions, 0.9)))


def _check_subgraph(reference, node, answer, outcome, index) -> None:
    up, down, siblings = oracle.subgraph(reference, node)
    if (set(answer.ancestors), set(answer.descendants),
            set(answer.siblings)) != (up, down, siblings):
        outcome.problem(f"session {index}: subgraph of {node} is wrong")


def _setup(work: WorkDir) -> float:
    """A fresh store and service, and one short tracked execution (the
    first in a process parses and compiles the workflow's Pig Latin)."""
    from repro import Lipstick
    from repro.benchmark.dealerships import (DealershipRun,
                                             build_dealership_workflow)
    from repro.store import ProvenanceService, SQLiteStore
    started = perf()
    store = SQLiteStore(work.fresh("setup", ".db"))
    try:
        ProvenanceService(store)
        workflow, modules = build_dealership_workflow()
        lipstick = Lipstick(store=store, run_id="warm-up")
        run = DealershipRun(num_cars=100, num_exec=3, seed=0)
        state = run.initial_state(lipstick.executor(workflow, modules))
        lipstick.run_sequence(workflow, modules,
                              [run.input_batch(index) for index in range(3)],
                              state=state, commit_each=True)
    finally:
        store.close()
    return perf() - started


def _rounds(work, seed, seconds, outcome, tracer=None, rounds=0,
            check=True, setups=None) -> Timings:
    """Whole sessions until ``seconds`` pass (or exactly ``rounds``);
    with a ``setups`` list, one set-up is timed before each session, so
    the set-ups sample the host over the whole run."""
    timings = Timings()
    deadline = perf() + seconds
    done = 0
    while (done < rounds) if rounds else (done == 0 or perf() < deadline):
        if setups is not None:
            setups.append(_setup(work))
        _session(work, seed, done, timings, outcome, tracer, check)
        done += 1
    timings.rounds = done
    return timings


def run(seed: int, seconds: float, trace: bool, work: WorkDir,
        tracer) -> Outcome:
    outcome = Outcome()
    setups = []
    timings = _rounds(work, seed, seconds, outcome, setups=setups)
    setups += [_setup(work) for _ in range(SETUPS - len(setups))]
    interactions = timings.of(*INTERACTIONS)
    # Means over rounds: the host's speed swings on a scale of seconds,
    # and a mean moves with the share of the run spent slow where a
    # median jumps between the two speeds (see the README).
    values = {
        "setup_s": median(setups),
        "latency_p50_ms": mean(p50 for p50, _ in
                               timings.interaction_quantiles),
        "latency_p90_ms": mean(p90 for _, p90 in
                               timings.interaction_quantiles),
        "throughput_per_s": timings.count() / (timings.total_ms() / 1000.0),
        "store_bytes_per_node": median(timings.bytes_per_node),
    }
    outcome.report = {
        "rounds": timings.rounds, "interactions": len(interactions),
        "open_run_ms": median(timings.of("open")),
        "append_ms": median(timings.of("append")),
        "read_after_append_ms": median(timings.of("read_after_append")),
        "interaction_p50_ms": values["latency_p50_ms"],
        "interaction_p90_ms": values["latency_p90_ms"],
    }
    if not trace:
        outcome.values = values
        return outcome

    # Traced run: the same sessions again under the tracer, unchecked.
    tracer.instrument()
    try:
        traced = _rounds(work, seed, seconds, Outcome(), tracer,
                         rounds=timings.rounds, check=False)
    finally:
        tracer.restore()

    def median_ms(values):
        return median(values) * 1000.0 if values else 0.0

    layer = {
        "store.append_graph_ms": median_ms(
            tracer.durations("store.append_graph")),
        "store.ensure_intervals_ms": median_ms(tracer.per_root(
            "op.read_after_append", ["store.ensure_intervals"])),
        "store.load_graph_ms": median_ms(tracer.per_root(
            "op.open", ["store.load_graph"])),
        "store.csr_build_ms": median_ms(tracer.per_root(
            "op.open", ["store.csr_build"])),
        "zoom.out_ms": median_ms(tracer.durations("queries.zoom.out")),
        "zoom.in_ms": median_ms(tracer.durations("queries.zoom.in")),
        "whatif.ms": median_ms(tracer.durations("queries.whatif")),
        "workflow.execute_s": sum(tracer.durations("workflow.execute"))
        / traced.rounds,
        "trace.overhead_pct": (traced.total_ms() / timings.total_ms()
                               - 1.0) * 100.0,
    }
    layer.update(tracer.shares())
    outcome.values = layer
    return outcome

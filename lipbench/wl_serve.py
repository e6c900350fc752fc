"""serve-cold and serve-hot: ``repro serve`` under an open and a closed loop.

Both workloads serve one store of 16 runs from a ``repro serve`` child
process; the load comes from :mod:`loadgen`, a second child process.
A short open loop at a fixed offered rate comes first (its latency from
due time and the generator's lateness are reported); the gated
latency and throughput come from the closed loop that follows: one
caller sending a planned sequence of rounds, each with the same mix
of verbs, and the metrics are medians over the rounds.

* serve-cold spreads requests over the runs that are not in the
  service's 8-entry graph cache, on nodes drawn from each run, so its
  answers come from the sqlite-pushdown tier; every round ends with
  one ``stats`` request, on runs in a fixed rotation through all 16,
  which is a cold attach (a full graph load) every time.
* serve-hot sends every request to 3 runs warmed before timing, on the
  paper's 5.6 nodes: the highest-fanout nodes for subgraph and
  descendants, the output tuples of the last execution for ancestors
  and deletion.  Answers come from the in-memory CSR tier, so the
  store is idle.
"""

from __future__ import annotations

import json
import os
import random
import select
import signal
import subprocess
import sys
import urllib.request
from typing import Dict, List, Tuple
from urllib.parse import parse_qs, urlsplit

import inputs
import loadgen
import oracle
from common import (BENCH_DIR, Outcome, WorkDir, child_env, mean, median,
                    nproc, perf, quantile, sqlite_bytes, stratified)
from tracing import span

PUSHDOWN_VERBS = ("subgraph", "ancestors", "descendants", "reachable",
                  "deletion")
#: The service's graph cache holds this many runs (its default).  A
#: ``stats`` request loads its run into that cache, after which the
#: run's queries are answered from memory; serve-cold therefore asks
#: only about runs outside the last 8 ``stats`` runs, so every query
#: is cold, whatever the seed and however far the run gets.
GRAPH_CACHE = 8
#: Requests per closed-loop round: each verb a fifth of them, in a
#: seeded order.  serve-cold adds one ``stats`` at the end of each
#: round; a round lasts about a second on a 2-core machine, so a run
#: holds several and the metrics are medians over them.
ROUND = {"serve-cold": 200, "serve-hot": 400}
#: Rounds planned per run: more than the fastest host answers in a
#: run, so the closed loop ends on time, not by running out.
ROUNDS = {"serve-cold": 60, "serve-hot": 120}
#: Offered rates of the open loop, about a fifth of each workload's
#: capacity on a 2-core machine, so the queue stays short.
RATE = {"serve-cold": 40.0, "serve-hot": 200.0}
#: Share of the run spent in the open loop; the rest is the closed loop.
OPEN_SHARE = 0.25
NODES_PER_RUN = 64
HOT_NODES = 8
SERVER_STARTS = 3
TIERS = ("sqlite-pushdown", "csr-view", "service-lru", "sqlite-cold")


class Server:
    """A ``repro serve`` child process on a free port."""

    def __init__(self, db: str, work: WorkDir):
        self.log = open(work.fresh("server", ".log"), "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--db", db,
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=self.log, env=child_env(),
            cwd=work.path, text=True)
        line = self._first_line(timeout=60.0)
        # "repro service listening on http://127.0.0.1:PORT (...)"
        address = line.split("http://", 1)[1].split()[0]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)
        self.base = f"http://{self.host}:{self.port}"

    def _first_line(self, timeout: float) -> str:
        ready, _, _ = select.select([self.process.stdout], [], [], timeout)
        if not ready:
            self.stop()
            raise RuntimeError("repro serve did not start")
        line = self.process.stdout.readline()
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"repro serve printed {line!r}")
        return line

    def get(self, target: str) -> Tuple[int, dict]:
        try:
            with urllib.request.urlopen(self.base + target,
                                        timeout=60) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read() or b"{}")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log.close()


# ----------------------------------------------------------------------
# Set-up: the store, its reference graphs, the request plan
# ----------------------------------------------------------------------
def build_store(work: WorkDir, seed: int) -> Tuple[str, List[str], int]:
    """Ingest the seeded runs into a fresh store; returns its path,
    the run ids and the node count."""
    from repro.store import ProvenanceService, SQLiteStore, WorkloadSpec
    path = work.fresh("served", ".db")
    store = SQLiteStore(path)
    try:
        specs = [WorkloadSpec(family, params, run_id=f"run-{index:02d}")
                 for index, (family, params)
                 in enumerate(inputs.serve_runs(seed))]
        infos = ProvenanceService(store).ingest_many(specs, workers=1)
        store.checkpoint()
    finally:
        store.close()
    return path, [info.run_id for info in infos], sum(
        info.node_count for info in infos)


def reference_graphs(db: str, runs: List[str],
                     work: WorkDir) -> Dict[str, oracle.Graph]:
    from repro.store import SQLiteStore
    store = SQLiteStore(db)
    try:
        graphs = {}
        for run in runs:
            path = work.fresh("ref", ".jsonl")
            store.export_jsonl(run, path)
            graphs[run] = oracle.Graph.from_file(path)
            os.remove(path)
        return graphs
    finally:
        store.close()


def last_execution_outputs(graph: oracle.Graph, executions: int) -> List[int]:
    """Output tuples of the run's last execution: the output nodes of
    its trailing ``1/executions`` share of invocations."""
    ids = sorted(graph.invocations)
    per_execution = len(ids) // executions
    return sorted({node for invocation in ids[-per_execution:]
                   for node in graph.invocations[invocation]["outputs"]})


def highest_fanout(graph: oracle.Graph, count: int) -> List[int]:
    return sorted(graph.nodes, key=lambda node: (-len(graph.succs[node]),
                                                 node))[:count]


def _target(run: str, verb: str, **params) -> str:
    query = "&".join(f"{key}={value}" for key, value in params.items())
    return f"/v1/runs/{run}/{verb}" + (f"?{query}" if query else "")


def plan_rounds(workload: str, seed: int, graphs: Dict[str, oracle.Graph],
                specs: Dict[str, Tuple[str, dict]]) -> List[List[str]]:
    """The request targets, in rounds, in the order they are sent."""
    rng = random.Random(f"{workload}:{seed}")
    runs = sorted(graphs)
    if workload == "serve-hot":
        # Always two dealership runs and one Arctic run, so every seed
        # asks for the same kind of work.
        arctic = [run for run in runs if specs[run][0] == "arctic"]
        dealers = [run for run in runs if run not in arctic]
        runs = sorted(rng.sample(dealers, 2) + rng.sample(arctic, 1))
        sources = {run: highest_fanout(graphs[run], HOT_NODES)
                   for run in runs}
        sinks = {run: last_execution_outputs(graphs[run],
                                             specs[run][1]["num_exec"])
                 for run in runs}
        sinks = {run: rng.sample(nodes, min(len(nodes), HOT_NODES))
                 for run, nodes in sinks.items()}
    else:
        sources = {run: stratified(rng, list(graphs[run].nodes),
                                   NODES_PER_RUN) for run in runs}
        sinks = sources
    rotation = rng.randrange(len(runs))
    loaded: List[str] = []  # serve-cold: runs of the last stats requests
    rounds = []
    for _ in range(ROUNDS[workload]):
        verbs = [verb for verb in PUSHDOWN_VERBS
                 for _ in range(ROUND[workload] // len(PUSHDOWN_VERBS))]
        rng.shuffle(verbs)
        targets = []
        for verb in verbs:
            run = rng.choice([run for run in runs
                              if run not in loaded[-GRAPH_CACHE:]])
            if verb in ("subgraph", "descendants"):
                targets.append(_target(run, verb,
                                       node=rng.choice(sources[run]), ids=1))
            elif verb == "ancestors":
                targets.append(_target(run, verb,
                                       node=rng.choice(sinks[run]), ids=1))
            elif verb == "deletion":
                targets.append(_target(run, verb,
                                       nodes=rng.choice(sinks[run]), ids=1))
            else:
                targets.append(_target(run, verb,
                                       source=rng.choice(sources[run]),
                                       target=rng.choice(sinks[run])))
        if workload == "serve-cold":
            rotation += 5  # coprime to 16: every run before a repeat
            loaded.append(runs[rotation % len(runs)])
            targets.append(_target(loaded[-1], "stats"))
        rounds.append(targets)
    return rounds


def parse_target(target: str) -> Tuple[str, str, Dict[str, int]]:
    parts = urlsplit(target)
    _, _, run, verb = parts.path.strip("/").split("/")
    params = {key: int(values[0]) for key, values in
              parse_qs(parts.query).items() if key != "ids"}
    return run, verb, params


# ----------------------------------------------------------------------
# Checking answers
# ----------------------------------------------------------------------
class Checker:
    """Compares each answer with the oracle's, memoizing the oracle."""

    def __init__(self, graphs: Dict[str, oracle.Graph]):
        self.graphs = graphs
        self._memo: Dict[str, object] = {}

    def expected(self, target: str):
        if target not in self._memo:
            run, verb, params = parse_target(target)
            graph = self.graphs[run]
            if verb == "subgraph":
                up, down, siblings = oracle.subgraph(graph, params["node"])
                answer = {"ancestor_ids": sorted(up),
                          "descendant_ids": sorted(down),
                          "sibling_ids": sorted(siblings)}
            elif verb == "ancestors":
                answer = {"ids": sorted(oracle.ancestors(graph,
                                                         params["node"]))}
            elif verb == "descendants":
                answer = {"ids": sorted(oracle.descendants(graph,
                                                           params["node"]))}
            elif verb == "deletion":
                answer = {"ids": sorted(oracle.deletion_set(
                    graph, [params["nodes"]]))}
            elif verb == "reachable":
                answer = {"reachable": oracle.reachable(
                    graph, params["source"], params["target"])}
            else:
                kinds: Dict[str, int] = {}
                for record in graph.nodes.values():
                    kinds[record["kind"]] = kinds.get(record["kind"], 0) + 1
                answer = {"node_count": len(graph.nodes),
                          "edge_count": graph.edge_count,
                          "invocation_count": len(graph.invocations),
                          "nodes_by_kind": kinds}
            self._memo[target] = answer
        return self._memo[target]

    def wrong(self, target: str, payload: dict) -> bool:
        expected = self.expected(target)
        return any(payload.get(key) != value
                   for key, value in expected.items())


# ----------------------------------------------------------------------
# In-process replay (traced run only)
# ----------------------------------------------------------------------
def _answer(service, target: str):
    run, verb, params = parse_target(target)
    if verb == "subgraph":
        return service.subgraph(run, params["node"])
    if verb == "ancestors":
        return service.ancestors(run, params["node"])
    if verb == "descendants":
        return service.descendants(run, params["node"])
    if verb == "reachable":
        return service.reachable(run, params["source"], params["target"])
    if verb == "deletion":
        return service.deletion_set(run, [params["nodes"]])
    return service.stats(run)


def _fresh_service(db: str, warm: List[str]):
    from repro.store import ProvenanceService, SQLiteStore
    store = SQLiteStore(db)
    service = ProvenanceService(store)
    for target in warm:
        _answer(service, target)
    return store, service


def replay(db: str, warm: List[str], targets: List[str], tracer=None):
    """Per-request seconds of ``targets`` answered in-process by a
    fresh ``ProvenanceService``, optionally under the tracer."""
    store, service = _fresh_service(db, warm)
    seconds = []
    try:
        if tracer is not None:
            tracer.instrument()
        try:
            for target in targets:
                started = perf()
                with span(tracer, "op.request"):
                    _answer(service, target)
                seconds.append(perf() - started)
        finally:
            if tracer is not None:
                tracer.restore()
    finally:
        store.close()
    return seconds


def explain_replay(db: str, warm: List[str], targets: List[str]):
    """(answering tier counts, mean kernel nodes visited per request)
    from EXPLAIN plans of the same sequence."""
    from repro.obs import profile
    store, service = _fresh_service(db, warm)
    tiers = {tier: 0 for tier in TIERS}
    visited = []
    try:
        for target in targets:
            run, verb, params = parse_target(target)
            with profile.capture(verb, run_id=run) as capture:
                _answer(service, target)
            plan = capture.plan
            answered_by = plan.tiers()[-1] if plan.tiers() else "none"
            tiers[answered_by] = tiers.get(answered_by, 0) + 1
            visited.append(plan.counters_total().get("nodes_visited", 0))
    finally:
        store.close()
    return tiers, mean(visited)


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool,
        work: WorkDir, tracer) -> Outcome:
    outcome = Outcome()
    started = perf()
    db, runs, nodes = build_store(work, seed)
    build_s = perf() - started
    graphs = reference_graphs(db, runs, work)
    specs = dict(zip(runs, inputs.serve_runs(seed)))
    rate = RATE[workload]
    open_seconds = round(seconds * OPEN_SHARE, 3)
    closed_seconds = round(seconds - open_seconds, 3)
    # The open loop takes the first whole rounds it needs (its last one
    # cut short); the closed loop starts at the next round.
    rounds = plan_rounds(workload, seed, graphs, specs)
    wanted = len(loadgen.schedule(seed, rate, open_seconds))
    taken = -(-wanted // len(rounds[0]))
    open_targets = [target for part in rounds[:taken]
                    for target in part][:max(wanted, 1)]
    rounds = rounds[taken:]
    closed_targets = [target for part in rounds for target in part]
    warm = []
    if workload == "serve-hot":
        hot = sorted({parse_target(target)[0] for target in closed_targets})
        warm = [_target(run_id, "stats") for run_id in hot] + [
            _target(run_id, "subgraph", node=highest_fanout(graphs[run_id],
                                                            1)[0])
            for run_id in hot]

    # Set-up: the store (built once) plus a server start to its first
    # healthy answer and, for serve-hot, the warm-up; the start is
    # repeated and its median taken.
    starts = []
    server = None
    for attempt in range(SERVER_STARTS):
        begun = perf()
        server = Server(db, work)
        try:
            status, _ = server.get("/healthz")
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
            for target in warm:
                status, _ = server.get(target)
                if status != 200:
                    raise RuntimeError(f"warm-up {target} answered {status}")
        except BaseException:
            server.stop()
            raise
        starts.append(perf() - begun)
        if attempt < SERVER_STARTS - 1:
            server.stop()
    setup_s = build_s + median(starts)

    try:
        job = {"host": server.host, "port": server.port,
               "connections": min(2, nproc()), "open_paths": open_targets,
               "rate": rate, "open_seconds": open_seconds,
               "closed_paths": closed_targets,
               "closed_seconds": closed_seconds}
        job_path = work.fresh("job", ".json")
        with open(job_path, "w", encoding="utf-8") as stream:
            json.dump(job, stream)
        results_path = work.fresh("results", ".jsonl")
        generator = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "loadgen.py"),
             "--job", job_path, "--seed", str(seed), "--out", results_path],
            capture_output=True, text=True, env=child_env(), cwd=work.path,
            timeout=seconds + 120)
        if generator.returncode != 0:
            raise RuntimeError(f"load generator failed: {generator.stderr}")
        summary = json.loads(generator.stdout.strip().splitlines()[-1])
        _, health = server.get("/healthz")
    finally:
        server.stop()

    checker = Checker(graphs)
    opened, closed = [], {}
    with open(results_path, encoding="utf-8") as stream:
        for line in stream:
            result = json.loads(line)
            phase_targets = (open_targets if result["phase"] == "open"
                             else closed_targets)
            target = phase_targets[result["index"]]
            outcome.attempted += 1
            if result["status"] != 200:
                outcome.failed += 1
                continue
            if checker.wrong(target, json.loads(result["body"])):
                outcome.problem(f"{workload}: wrong answer to {target}")
            if result["phase"] == "open":
                opened.append((result["latency_ms"], result["late_ms"]))
            else:
                closed[result["index"]] = result

    # Closed-loop metrics per whole round answered, averaged over the
    # rounds: the host's speed swings on a scale of seconds, and a mean
    # moves with the share of the run spent slow where a median jumps
    # between the two speeds (see the README).
    per_round = []
    start = 0
    for part in rounds:
        span_results = [closed.get(index)
                        for index in range(start, start + len(part))]
        start += len(part)
        if None in span_results:
            break
        latency = [result["latency_ms"] for result in span_results]
        busy_s = span_results[-1]["done_s"] - span_results[0]["sent_s"]
        per_round.append((median(latency), quantile(latency, 0.9),
                          len(part), busy_s))
    if not per_round:
        raise RuntimeError(f"the closed loop answered no whole round in "
                           f"{closed_seconds} s; run longer")
    answered = [closed[index]["latency_ms"] for index in sorted(closed)]
    open_latency = [latency for latency, _late in opened]
    late = [late_ms for _latency, late_ms in opened]

    values = {
        "setup_s": setup_s,
        "latency_p50_ms": mean(part[0] for part in per_round),
        "latency_p90_ms": mean(part[1] for part in per_round),
        "throughput_per_s": (sum(part[2] for part in per_round)
                             / sum(part[3] for part in per_round)),
        "store_bytes_per_node": sqlite_bytes(db) / nodes,
    }
    outcome.report = {
        "rounds": len(per_round), "round_requests": len(rounds[0]),
        "plan_exhausted": summary["closed_exhausted"],
        "closed_requests": len(answered),
        "latency_p99_ms": quantile(answered, 0.99),
        "offered_rate_per_s": rate, "open_requests": len(open_latency),
        "open_latency_p50_ms": median(open_latency) if opened else 0.0,
        "open_latency_p99_ms": (quantile(open_latency, 0.99) if opened
                                else 0.0),
        "open_connections": job["connections"],
        "store_build_s": build_s, "server_start_s": median(starts),
        "runs": len(runs), "nodes": nodes,
        "edges": sum(graph.edge_count for graph in graphs.values()),
        "graph_cache_capacity": health["caches"]["graphs"]["capacity"],
        "distinct_runs_requested": len({parse_target(target)[0]
                                        for target in closed_targets}),
    }
    if health["caches"]["graphs"]["capacity"] != GRAPH_CACHE:
        raise RuntimeError("the service's graph cache holds "
                           f"{health['caches']['graphs']['capacity']} runs, "
                           f"the plan assumes {GRAPH_CACHE}")
    replayed = [target for part in rounds[:min(len(per_round),
                                               REPLAY_ROUNDS)]
                for target in part]
    outcome.values = values if not trace else _layer_metrics(
        db, warm, replayed, late, health, values["latency_p50_ms"],
        tracer)
    return outcome


#: The traced run replays this many whole closed-loop rounds in-process.
REPLAY_ROUNDS = 4


def _layer_metrics(db: str, warm: List[str], targets: List[str],
                   late: List[float], health: dict, latency_p50_ms: float,
                   tracer) -> dict:
    """The traced run's per-layer metrics: the closed-loop sequence
    answered in-process by a fresh service — untraced before and after
    the traced pass (so pages warmed by earlier passes do not count as
    tracing overhead), then under EXPLAIN for the answering tiers."""
    plain = replay(db, warm, targets)
    traced = replay(db, warm, targets, tracer)
    plain_after = replay(db, warm, targets)
    tiers, nodes_visited = explain_replay(db, warm, targets)
    graphs_cache = health["caches"]["graphs"]
    lookups = graphs_cache["hits"] + graphs_cache["misses"]
    query_ms = median(plain) * 1000.0
    layer = {
        "service.query_ms": query_ms,
        "http.overhead_ms": latency_p50_ms - query_ms,
        "loadgen.lateness_p50_ms": median(late) if late else 0.0,
        "loadgen.lateness_p99_ms": quantile(late, 0.99) if late else 0.0,
        "cache.graphs.hit_rate": graphs_cache["hits"] / max(lookups, 1),
        "cache.graphs.evictions": graphs_cache["evictions"],
        "kernels.nodes_visited": nodes_visited,
        "kernels.query_ms": median(tracer.per_root(
            "op.request", KERNEL_SPANS)) * 1000.0,
        "trace.overhead_pct": (2 * sum(traced) / (sum(plain)
                                                   + sum(plain_after))
                               - 1.0) * 100.0,
    }
    for tier, count in tiers.items():
        layer[f"service.answers.{tier}"] = count
    for verb, method in (("subgraph", "subgraph"),
                         ("ancestors", "ancestors"),
                         ("descendants", "descendants"),
                         ("reachable", "reachable"),
                         ("deletion", "deletion_set")):
        spans = tracer.durations(f"store.pushdown.{method}")
        layer[f"store.pushdown.{verb}_ms"] = (median(spans) * 1000.0
                                              if spans else 0.0)
    for name, span_name in (("store.load_graph_ms", "store.load_graph"),
                            ("store.csr_build_ms", "store.csr_build")):
        spans = tracer.durations(span_name)
        layer[name] = median(spans) * 1000.0 if spans else 0.0
    layer.update(tracer.shares())
    return layer


#: Spans of traversal code: the flat-array kernels and the CSR
#: snapshot's own traversal loops.
KERNEL_SPANS = tuple(f"queries.kernels.{name}" for name in
                     ("reach", "reach_set", "reachable", "multi_source_reach",
                      "topo_order", "subgraph_sets", "deletion_reach")) + tuple(
    f"store.csr.{name}" for name in ("subgraph", "ancestors", "descendants",
                                     "reachable"))

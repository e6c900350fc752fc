"""Calls into the program that several workloads share.

These helpers drive the program through its public API and turn what
it returns into the oracle's plain form; the answers themselves are
computed in :mod:`oracle`.
"""

from __future__ import annotations

import io
from typing import Dict, List, Optional, Tuple

import oracle
from common import perf


def oracle_graph(graph) -> oracle.Graph:
    """A program ``ProvenanceGraph`` read through its public API."""
    nodes: Dict[int, dict] = {}
    preds: Dict[int, List[int]] = {}
    for node_id in graph.node_ids():
        node = graph.node(node_id)
        nodes[node_id] = {"kind": node.kind.value, "label": node.label,
                          "ntype": node.ntype, "module": node.module,
                          "invocation": node.invocation, "value": None}
        preds[node_id] = list(graph.preds(node_id))
    invocations = {
        invocation_id: {"module": invocation.module_name,
                        "module_node": invocation.module_node,
                        "inputs": list(invocation.input_nodes),
                        "outputs": list(invocation.output_nodes),
                        "state": list(invocation.state_nodes)}
        for invocation_id, invocation in graph.invocations.items()}
    return oracle.Graph(nodes, preds, invocations)


def spool_text(graph) -> str:
    """The tracker's JSON Lines spool of a live graph."""
    from repro.graph.serialize import dump_graph
    buffer = io.StringIO()
    dump_graph(graph, buffer)
    return buffer.getvalue()


def exported_text(store, run_id: str, path: str) -> str:
    """A stored run exported as a spool file, read back as text."""
    store.export_jsonl(run_id, path)
    with open(path, encoding="utf-8") as stream:
        return stream.read()


def plain_outputs(result) -> Dict[str, Dict[str, list]]:
    """One execution's relations as value rows (provenance dropped)."""
    return {node: {name: [tuple(row.values) for row in relation.rows]
                   for name, relation in relations.items()}
            for node, relations in result.node_outputs.items()}


class Execution:
    """A workflow run as the ingest pipeline runs it, keeping what the
    pipeline discards: the outputs of every execution."""

    def __init__(self, family: str, params: Dict, track: bool):
        from repro.graph.builder import GraphBuilder
        from repro.workflow.execution import WorkflowExecutor
        if family == "dealerships":
            from repro.benchmark.dealerships import (
                DealershipRun, build_dealership_workflow)
            workflow, modules = build_dealership_workflow()
            self.builder = GraphBuilder() if track else None
            self.executor = WorkflowExecutor(workflow, modules, self.builder)
            run = DealershipRun(num_cars=params["num_cars"],
                                num_exec=params["num_exec"],
                                seed=params["seed"])
            if params.get("force_decline"):
                run.buyer.accept_probability = 0.0
        else:
            from repro.benchmark.arctic import ArcticRun, build_arctic_workflow
            workflow, modules = build_arctic_workflow(
                params["topology"], params["num_stations"],
                params.get("fan_out", 2))
            self.builder = GraphBuilder() if track else None
            self.executor = WorkflowExecutor(workflow, modules, self.builder)
            run = ArcticRun(workflow, modules,
                            selectivity=params.get("selectivity", "month"),
                            num_exec=params["num_exec"],
                            history_years=params["history_years"],
                            start_year=params["start_year"])
        self.run = run
        self.num_exec = params["num_exec"]

    def execute(self) -> Tuple[List[Dict], float]:
        """Run every execution; returns plain outputs and the seconds
        spent inside ``execute`` calls."""
        state = self.run.initial_state(self.executor)
        outputs, seconds = [], 0.0
        for index in range(self.num_exec):
            batch = self.run.input_batch(index)
            started = perf()
            result = self.executor.execute(batch, state)
            seconds += perf() - started
            outputs.append(plain_outputs(result))
        return outputs, seconds

    @property
    def graph(self):
        return self.builder.graph if self.builder is not None else None


def check_tracking(family: str, params: Dict, outcome, label: str
                   ) -> Tuple[Optional[object], float, float]:
    """Run the spec tracked and untracked; records a problem when the
    outputs differ.  Returns (tracked graph, tracked seconds,
    untracked seconds)."""
    tracked = Execution(family, params, track=True)
    tracked_outputs, tracked_seconds = tracked.execute()
    plain = Execution(family, params, track=False)
    plain_outputs_, plain_seconds = plain.execute()
    if not oracle.same_outputs(tracked_outputs, plain_outputs_):
        outcome.problem(f"{label}: tracked outputs differ from untracked")
    return tracked.graph, tracked_seconds, plain_seconds

"""Spans around calls into each layer's public functions.

The traced run wraps the functions listed in :data:`TARGETS` — from
the benchmark, without editing the program — so every call records a
span (name, start, end, parent span).  Spans stay in memory and are
written out as JSON lines when the run ends.  A layer's self time is
the time its spans cover minus the time their child spans cover.

Functions are wrapped wherever a ``repro`` module holds a reference to
them (``from .kernels import reach`` binds a second name), and methods
on their class, so calls through either path are seen.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, List, Tuple

from common import perf

#: (span name, "module:attribute path").  The span name's first part
#: is the layer: workflow and piglatin execute, graph builds and
#: serializes, store holds sqlite/csr/pushdown/catalog/ingest, queries
#: holds kernels/zoom/deletion/what-if.
TARGETS: List[Tuple[str, str]] = [
    ("workflow.execute", "repro.workflow.execution:WorkflowExecutor.execute"),
    ("piglatin.execute", "repro.piglatin.interpreter:Interpreter.execute"),
] + [
    (f"graph.builder.{name}", f"repro.graph.builder:GraphBuilder.{name}")
    for name in ("begin_invocation", "end_invocation", "workflow_input_nodes",
                 "base_tuple_node", "base_tuple_nodes", "module_input_nodes",
                 "module_output_nodes", "module_state_node",
                 "module_state_nodes", "plus_node", "plus_nodes",
                 "times_node", "times_nodes", "delta_node", "delta_nodes",
                 "value_node", "tensor_node", "tensor_nodes", "agg_node",
                 "blackbox_node")
] + [
    ("graph.serialize.dump_graph", "repro.graph.serialize:dump_graph"),
    ("graph.serialize.load_graph", "repro.graph.serialize:load_graph"),
    ("graph.copy", "repro.graph.provgraph:ProvenanceGraph.copy"),
    ("store.ingest_many", "repro.store.ingest:ingest_many"),
    ("store.put_graph", "repro.store.sqlite:SQLiteStore.put_graph"),
    ("store.append_graph", "repro.store.sqlite:SQLiteStore.append_graph"),
    ("store.load_graph", "repro.store.sqlite:SQLiteStore.load_graph"),
    ("store.ensure_intervals",
     "repro.store.sqlite:SQLiteStore.ensure_intervals"),
    ("store.encode_intervals", "repro.store.pushdown:encode_intervals"),
    ("store.checksum", "repro.store.doctor:graph_checksum"),
    ("store.csr_build", "repro.store.csr:CSRSnapshot.__init__"),
] + [
    (f"store.csr.{name}", f"repro.store.csr:CSRSnapshot.{name}")
    for name in ("subgraph", "ancestors", "descendants", "reachable")
] + [
    (f"store.pushdown.{name}", f"repro.store.pushdown:PushdownView.{name}")
    for name in ("subgraph", "ancestors", "descendants", "reachable",
                 "deletion_set")
] + [
    (f"store.catalog.{name}", f"repro.store.catalog:ProvenanceService.{name}")
    for name in ("subgraph", "ancestors", "descendants", "reachable",
                 "deletion_set", "stats", "graph", "csr")
] + [
    (f"queries.kernels.{name}", f"repro.queries.kernels:{name}")
    for name in ("reach", "reach_set", "reachable", "multi_source_reach",
                 "topo_order", "subgraph_sets", "deletion_reach")
] + [
    ("queries.zoom.out", "repro.queries.zoom:Zoomer.zoom_out"),
    ("queries.zoom.in", "repro.queries.zoom:Zoomer.zoom_in"),
    ("queries.whatif", "repro.queries.whatif:what_if_deleted"),
    ("queries.deletion.propagate", "repro.queries.deletion:propagate_deletion"),
    ("queries.subgraph", "repro.queries.subgraph:subgraph_query"),
]

LAYERS = ("workflow", "piglatin", "graph", "store", "queries")


def span(tracer, name: str):
    """``tracer.span(name)``, or nothing when the run is not traced."""
    return nullcontext() if tracer is None else tracer.span(name)


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, func: Callable) -> Callable:
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            started = perf()
            try:
                return func(*args, **kwargs)
            finally:
                ended = perf()
                stack.pop()
                spans.append((span_id, parent, name, started, ended))
        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (an operation)."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        started = perf()
        try:
            yield
        finally:
            ended = perf()
            stack.pop()
            self.spans.append((span_id, parent, name, started, ended))

    # ------------------------------------------------------------------
    def instrument(self) -> None:
        """Wrap every target; :meth:`restore` undoes it."""
        for name, target in TARGETS:
            module_name, path = target.split(":")
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attribute = path.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[attribute]
                if isinstance(original, staticmethod):
                    wrapped = staticmethod(self.wrap(name, original.__func__))
                else:
                    wrapped = self.wrap(name, original)
                setattr(owner, attribute, wrapped)
                self._undo.append(functools.partial(setattr, owner,
                                                    attribute, original))
                continue
            original = getattr(module, path)
            wrapped = self.wrap(name, original)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapped)
                        self._undo.append(functools.partial(
                            setattr, loaded, key, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    def durations(self, name: str) -> List[float]:
        """Seconds of every span with this exact name."""
        return [end - start for _id, _parent, span_name, start, end
                in self.spans if span_name == name]

    def per_root(self, root_name: str, names) -> List[float]:
        """Per span named ``root_name``, in start order: the seconds
        covered by spans beneath it whose name is in ``names`` (nested
        matches counted once, through the outermost)."""
        names = set(names)
        by_id = {span[0]: span for span in self.spans}
        roots = sorted((span for span in self.spans
                        if span[2] == root_name), key=lambda span: span[3])
        totals: Dict[int, float] = {span[0]: 0.0 for span in roots}
        for span_id, parent, name, start, end in self.spans:
            if name not in names:
                continue
            ancestor = parent
            while ancestor and ancestor not in totals:
                if by_id[ancestor][2] in names:
                    break  # counted through an enclosing match
                ancestor = by_id[ancestor][1]
            if ancestor in totals:
                totals[ancestor] += end - start
        return [totals[span[0]] for span in roots]

    def self_seconds(self) -> Dict[str, float]:
        """Per layer, the seconds its spans cover minus their children."""
        child_time: Dict[int, float] = {}
        for _id, parent, _name, start, end in self.spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        totals = {layer: 0.0 for layer in LAYERS}
        for span_id, _parent, name, start, end in self.spans:
            layer = name.split(".", 1)[0]
            if layer in totals:
                totals[layer] += end - start - child_time.get(span_id, 0.0)
        return totals

    def shares(self) -> Dict[str, float]:
        """Each layer's self time as a share of the traced time: the
        time covered by top-level spans (the benchmark's operations,
        and layer calls made outside any operation)."""
        total = sum(end - start for _id, parent, _name, start, end
                    in self.spans if not parent)
        return {f"self.{layer}_share": seconds / total if total else 0.0
                for layer, seconds in self.self_seconds().items()}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            for span_id, parent, name, start, end in sorted(
                    self.spans, key=lambda span: span[3]):
                stream.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start_ms": round(start * 1000.0, 4),
                    "dur_ms": round((end - start) * 1000.0, 4)}) + "\n")

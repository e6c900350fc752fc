"""Differential test: ZoomOut / ZoomIn against a facade-based reference.

The reference below is the object-by-object ``Zoomer`` the columnar
one replaced, copied verbatim: it reads every node through a ``Node``
facade and re-appends a fragment's edges on ZoomIn.  Hypothesis builds
tracked runs from the Pig Latin program generator of
``test_differential_fuzz`` — several invocations of a few modules,
whose inputs come from earlier outputs or fresh base tuples and whose
state nodes may share base tuples, across modules too — and drives
the columnar zoomer through a random sequence of zoom outs and ins.
Each ZoomOut must remove the same nodes and add the same zoom nodes
and edges as the reference does on a copy of the same graph; once
every module is zoomed back in, in any order, node columns,
invocations and every node's operand and result multisets must equal
the original run.  (The reference itself fails that last check: it
records a fragment's edges as a set, so ZoomIn loses parallel edges,
and it drops the edge from a shared base tuple when two modules'
zooms interleave.)

A deterministic test on a dealership run checks that zoom cycles
grow neither the edge log, nor the node columns past the first cycle,
nor the facade cache.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Set, Tuple

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from test_differential_fuzz import _run_tracked, programs

from repro.errors import ZoomError
from repro.graph import GraphBuilder
from repro.graph.nodes import KIND_CODE, Node, NodeKind
from repro.graph.provgraph import ProvenanceGraph
from repro.queries import zoom as columnar
from repro.queries.zoom import intermediate_nodes

MODULES = ("Ma", "Mb", "Mc")


# ----------------------------------------------------------------------
# The reference: the facade-based zoomer, verbatim
# ----------------------------------------------------------------------
class ZoomFragment:
    """Everything ZoomOut removed for one module (for ZoomIn)."""

    __slots__ = ("module_name", "nodes", "edges", "zoom_nodes")

    def __init__(self, module_name: str):
        self.module_name = module_name
        #: removed Node objects keyed by id
        self.nodes: Dict[int, Node] = {}
        #: removed edges (source, target) — includes boundary edges
        self.edges: List[Tuple[int, int]] = []
        #: zoom meta-node ids created, keyed by invocation id
        self.zoom_nodes: Dict[int, int] = {}


class Zoomer:
    """Applies ZoomOut / ZoomIn to a graph *in place*.

    The zoomer stashes removed fragments so that ZoomIn can restore
    them exactly; fragments survive arbitrarily interleaved zoom
    operations on other modules because node ids are stable.
    """

    def __init__(self, graph: ProvenanceGraph):
        self.graph = graph
        self._fragments: Dict[str, ZoomFragment] = {}

    @property
    def zoomed_out_modules(self) -> Set[str]:
        return set(self._fragments)

    # ------------------------------------------------------------------
    # ZoomOut (paper Section 4.1, steps 1–5)
    # ------------------------------------------------------------------
    def zoom_out(self, module_names: Iterable[str]) -> List[str]:
        """Zoom out of the given modules; returns those actually done."""
        done = []
        for module_name in module_names:
            if module_name in self._fragments:
                continue  # already zoomed out
            if not self.graph.invocations_of(module_name):
                raise ZoomError(
                    f"module {module_name!r} has no invocations in the graph")
            self._zoom_out_single(module_name)
            done.append(module_name)
        return done

    def _zoom_out_single(self, module_name: str) -> None:
        graph = self.graph
        fragment = ZoomFragment(module_name)
        invocations = graph.invocations_of(module_name)
        # Steps 1–3: find and remove intermediate computations.
        to_remove = intermediate_nodes(graph, [module_name])
        # Step 4: remove state nodes, plus base tuple nodes that feed
        # only state nodes of this module's invocations.
        state_nodes: Set[int] = set()
        for invocation in invocations:
            state_nodes.update(node for node in invocation.state_nodes
                               if graph.has_node(node))
        base_candidates: Set[int] = set()
        for state_node in state_nodes:
            for pred in graph.preds(state_node):
                if graph.node(pred).kind is NodeKind.TUPLE:
                    base_candidates.add(pred)
        removable_bases = {
            base for base in base_candidates
            if all(succ in state_nodes or succ in to_remove
                   for succ in graph.succs(base))}
        to_remove |= state_nodes | removable_bases
        # Also sweep nodes of these invocations that become edgeless
        # (shared VALUE leaves of aggregate computations).
        invocation_ids = {invocation.invocation_id for invocation in invocations}
        for node_id in list(graph.node_ids()):
            node = graph.node(node_id)
            if (node.invocation in invocation_ids
                    and node.kind is NodeKind.VALUE
                    and all(succ in to_remove for succ in graph.succs(node_id))):
                to_remove.add(node_id)
        # Record and remove.
        recorded_edges: Set[Tuple[int, int]] = set()
        for node_id in to_remove:
            if not graph.has_node(node_id):
                continue
            fragment.nodes[node_id] = graph.node(node_id)
            for pred in graph.preds(node_id):
                recorded_edges.add((pred, node_id))
            for succ in graph.succs(node_id):
                recorded_edges.add((node_id, succ))
        fragment.edges = sorted(recorded_edges)
        graph.remove_nodes([node_id for node_id in to_remove
                            if graph.has_node(node_id)])
        # Step 5: one zoom meta-node per invocation.
        for invocation in invocations:
            zoom_node = graph.add_node(NodeKind.ZOOM, module_name, "p",
                                       module=module_name,
                                       invocation=invocation.invocation_id)
            fragment.zoom_nodes[invocation.invocation_id] = zoom_node
            for input_node in invocation.input_nodes:
                if graph.has_node(input_node):
                    graph.add_edge(input_node, zoom_node)
            for output_node in invocation.output_nodes:
                if graph.has_node(output_node):
                    graph.add_edge(zoom_node, output_node)
        self._fragments[module_name] = fragment

    # ------------------------------------------------------------------
    # ZoomIn (inverse restore)
    # ------------------------------------------------------------------
    def zoom_in(self, module_names: Iterable[str]) -> List[str]:
        """Restore previously zoomed-out modules."""
        done = []
        for module_name in module_names:
            fragment = self._fragments.pop(module_name, None)
            if fragment is None:
                raise ZoomError(
                    f"module {module_name!r} is not zoomed out")
            self._zoom_in_single(fragment)
            done.append(module_name)
        return done

    def _zoom_in_single(self, fragment: ZoomFragment) -> None:
        graph = self.graph
        graph.remove_nodes([zoom_node
                            for zoom_node in fragment.zoom_nodes.values()
                            if graph.has_node(zoom_node)])
        for node_id, node in fragment.nodes.items():
            graph.nodes[node_id] = node
        graph.add_edges((source, target)
                        for source, target in fragment.edges
                        if graph.has_node(source) and graph.has_node(target))


# ----------------------------------------------------------------------
# Generated runs
# ----------------------------------------------------------------------
@st.composite
def tracked_runs(draw):
    """A graph of one to four invocations of up to three modules."""
    builder = GraphBuilder()
    upstream: List[int] = []   # output nodes of earlier invocations
    pool: List[int] = []       # base tuples state nodes have read

    def wire(builder, environment):
        graph = builder.graph
        first = graph.node_count   # ids are sequential while building
        sources = []
        for row in environment["R"].rows:
            if upstream and draw(st.booleans()):
                sources.append(draw(st.sampled_from(upstream)))
            else:
                sources.append(builder.base_tuple_node("R", row.values))
        for row, node in zip(environment["R"].rows,
                             builder.module_input_nodes(sources)):
            row.prov = node
        bases = []
        for row in environment["S"].rows:
            if pool and draw(st.booleans()):
                bases.append(draw(st.sampled_from(pool)))
            else:
                bases.append(builder.base_tuple_node("S", row.values))
                pool.append(bases[-1])
        for row, node in zip(environment["S"].rows,
                             builder.module_state_nodes(bases)):
            row.prov = node

        def finish(result):
            last = result.relations[max(result.relations)]
            results = [row.prov for row in last.rows]
            if draw(st.booleans()):
                # A COUNT over the result, which ZoomOut's VALUE-leaf
                # sweep must handle: one leaf per tuple, plus a spare
                # leaf that is either unused or fed to an output.
                leaves = [builder.value_node(1) for _ in results]
                tensors = builder.tensor_nodes(list(zip(results, leaves)))
                results.append(builder.agg_node("COUNT", tensors,
                                                value=len(tensors)))
                spare = builder.value_node(0)
                if draw(st.booleans()):
                    results.append(spare)
            upstream.extend(builder.module_output_nodes(results))
            made = [node for node in range(first, graph.node_count)
                    if graph.preds(node)]
            if made and draw(st.booleans()):
                # A parallel edge, as t·t makes, inside or at the edge
                # of the invocation's fragment.
                node = draw(st.sampled_from(made))
                graph.add_edge(draw(st.sampled_from(graph.preds(node))), node)
        return finish

    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        module = draw(st.sampled_from(MODULES))
        program, r_rows, s_rows = draw(programs())
        _run_tracked(program, r_rows, s_rows, builder=builder,
                     module=module, wire=wire)
    return builder.graph


def _key(graph: ProvenanceGraph, node_id: int):
    """Zoom nodes are keyed by their invocation, so a fresh meta-node
    id (the reference) and a reused one compare equal."""
    if graph._kind_codes[node_id] == _ZOOM_CODE:
        return ("zoom", graph._invocation_ids[node_id])
    return node_id


def _rows(graph: ProvenanceGraph) -> Dict:
    """Every alive node's columns and operand / result multisets."""
    rows = {}
    for node_id in graph.node_ids():
        node = graph.node(node_id)
        rows[_key(graph, node_id)] = (
            node.kind, node.label, node.ntype, node.module,
            node.invocation, node.value,
            Counter(_key(graph, pred) for pred in graph.preds(node_id)),
            Counter(_key(graph, succ) for succ in graph.succs(node_id)))
    return rows


def _invocations(graph: ProvenanceGraph) -> Dict:
    return {invocation_id: (invocation.module_name, invocation.module_node,
                            invocation.input_nodes, invocation.output_nodes,
                            invocation.state_nodes)
            for invocation_id, invocation in graph.invocations.items()}


_ZOOM_CODE = KIND_CODE[NodeKind.ZOOM]

_SETTINGS = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


class TestZoomDifferential:
    @given(tracked_runs(), st.data())
    @_SETTINGS
    def test_interleaved_zooms_match_the_reference(self, graph, data):
        original = _rows(graph)
        invocations = _invocations(graph)
        zoomer = columnar.Zoomer(graph)
        modules = sorted(graph.module_names())
        # Random toggles, then every module once more in random order:
        # zoom it back in if it is out.
        steps = [(module, True) for module in data.draw(
            st.lists(st.sampled_from(modules), max_size=8))]
        steps += [(module, False) for module in data.draw(
            st.permutations(modules))]
        out: Set[str] = set()
        for module, may_zoom_out in steps:
            if module in out:
                zoomer.zoom_in([module])
                out.discard(module)
            elif may_zoom_out:
                expected = graph.copy()
                Zoomer(expected).zoom_out([module])
                zoomer.zoom_out([module])
                out.add(module)
                assert _rows(graph) == _rows(expected)
            graph.check_consistency(warn_duplicates=False)
        assert _rows(graph) == original
        assert _invocations(graph) == invocations


    def test_non_nested_zooms_keep_a_shared_base_edge(self):
        """A base tuple read by the state of two modules: zooming A
        out, B out, A in, B in must bring back both of its edges."""
        builder = GraphBuilder()
        base = builder.base_tuple_node("Shared", value=(1,))
        for module in ("A", "B"):
            builder.begin_invocation(module)
            request = builder.workflow_input_node(value=(module,))
            joined = builder.times_node([
                builder.module_input_node(request),
                builder.module_state_node(base)])
            builder.module_output_node(joined)
            builder.end_invocation()
        graph = builder.graph
        original = _rows(graph)
        zoomer = columnar.Zoomer(graph)
        for module in ("A", "B"):
            zoomer.zoom_out([module])
        for module in ("A", "B"):
            zoomer.zoom_in([module])
        graph.check_consistency()
        assert _rows(graph) == original


class TestDealershipZoom:
    def test_zoom_out_matches_the_reference(self, dealership_execution):
        graph = dealership_execution[0]
        for module in sorted(graph.module_names()):
            expected = graph.copy()
            Zoomer(expected).zoom_out([module])
            zoomed = graph.copy()
            columnar.Zoomer(zoomed).zoom_out([module])
            assert _rows(zoomed) == _rows(expected)

    def test_zoom_cycles_grow_nothing(self, dealership_execution):
        """Five out/in cycles of every module leave the edge count, the
        edge log and ``memory_bytes`` as they were, and no zoom
        materializes a ``Node`` facade."""
        graph = dealership_execution[0].copy()
        graph.csr()
        modules = sorted(graph.module_names())
        edges, log, rows = (graph.edge_count, len(graph._edge_src),
                            graph._next_node_id)
        zoomer = columnar.Zoomer(graph)

        def cycle():
            for module in modules:
                zoomer.zoom_out([module])
                zoomer.zoom_in([module])

        cycle()
        assert not graph._facades
        # The first cycle allocates one meta-node row per invocation;
        # later cycles revive the same rows.
        assert graph._next_node_id == rows + len(graph.invocations)
        memory = graph.memory_bytes()
        for _ in range(5):
            cycle()
        assert graph.edge_count == edges
        assert len(graph._edge_src) == log
        assert graph._next_node_id == rows + len(graph.invocations)
        assert graph.memory_bytes() == memory
        assert not graph._facades
        graph.check_consistency(warn_duplicates=False)

"""ZoomIn / ZoomOut graph transformations (paper Section 4.1).

ZoomOut hides the intermediate computations and state of every
invocation of the chosen modules, replacing each invocation by a
single meta-node between its original inputs and outputs.  ZoomIn is
its inverse: ``ZoomIn(ZoomOut(G, M), M) = G``.

Because invocations of the same module may share state, zooming out a
*proper subset* of a module's invocations is not meaningful (paper
Section 4.1); the API therefore works on module names only.

Intermediate-computation detection follows Definition 4.1: a node v is
part of the intermediate computation of an invocation of M iff some
directed path reaches v from an input node, a state node, or another
intermediate v-node of an invocation of M, with no output node on the
path (including v itself).

Both directions run on the graph's columnar arena, never on ``Node``
facades.  ZoomOut finds the intermediate, state, base-tuple and
VALUE-leaf nodes from the kind, invocation and aliveness columns and
the adjacency views, and records them as a :class:`ZoomFragment`: the
removed ids plus the operand / result tuples each had.  ZoomIn revives
those tombstoned rows in place and writes the recorded adjacency back
into the views (:meth:`ProvenanceGraph.revive_nodes`).  Each direction
costs O(fragment) in Python — the removed nodes, their edges and the
module's invocations — plus, for ZoomOut, C-level passes over the kind
column and a scan of the invocation registry.  A zoom cycle grows
neither the edge log nor, after the first, the node columns.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Set, Tuple

from ..errors import ZoomError
from ..graph.nodes import KIND_CODE, NodeKind
from ..graph.provgraph import ProvenanceGraph
from .kernels import multi_source_reach


def intermediate_nodes(graph: ProvenanceGraph,
                       module_names: Iterable[str]) -> Set[int]:
    """All nodes that Definition 4.1 classifies as intermediate
    computations of invocations of the given modules.

    A multi-source flat-array sweep with an OUTPUT-kind barrier:
    paths stop at (and exclude) output nodes, and the input/state
    start nodes are themselves never intermediate.
    """
    targets = set(module_names)
    start: Set[int] = set()
    for invocation in graph.invocations.values():
        if invocation.module_name in targets:
            start.update(invocation.input_nodes)
            start.update(invocation.state_nodes)
    adjacency = graph.csr()
    barrier = graph.kind_flags((NodeKind.OUTPUT,))
    live_starts = [node for node in start if graph.has_node(node)]
    return set(multi_source_reach(adjacency.succ_views, live_starts,
                                  adjacency.size, barrier))


class ZoomFragment:
    """Everything ZoomOut removed for one module (for ZoomIn).

    A fragment holds ids and adjacency only — no ``Node`` objects: the
    removed rows stay tombstoned in the graph's arena with their column
    values, so ZoomIn revives them in place.  ``preds[i]`` /
    ``succs[i]`` are the operand / result tuples ``node_ids[i]`` had
    when it was removed, boundary edges included; the tuples are the
    ones the adjacency views held, shared rather than copied.
    """

    __slots__ = ("module_name", "node_ids", "preds", "succs", "zoom_nodes")

    def __init__(self, module_name: str):
        self.module_name = module_name
        #: removed node ids, ascending
        self.node_ids: List[int] = []
        #: each removed node's operand / result tuple at removal time
        self.preds: List[Tuple[int, ...]] = []
        self.succs: List[Tuple[int, ...]] = []
        #: zoom meta-node ids created, keyed by invocation id
        self.zoom_nodes: Dict[int, int] = {}


class Zoomer:
    """Applies ZoomOut / ZoomIn to a graph *in place*.

    The zoomer stashes removed fragments so that ZoomIn can restore
    them exactly; fragments survive arbitrarily nested zoom operations
    on other modules because node ids are stable.

    Both directions work on the graph's arena — kind, invocation and
    aliveness columns plus the adjacency views — and never materialize
    ``Node`` facades; their Python work is O(fragment) (see the module
    docstring).  Each invocation's meta node keeps its row across zoom
    cycles (ZoomIn tombstones it, the next ZoomOut revives it), and
    every edge goes straight into the adjacency views, so repeated
    zooming grows neither the node columns nor the edge log.
    """

    def __init__(self, graph: ProvenanceGraph):
        self.graph = graph
        self._fragments: Dict[str, ZoomFragment] = {}
        #: module -> invocation id -> the row of its zoom meta node
        self._zoom_rows: Dict[str, Dict[int, int]] = {}

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
        adjacency = graph.csr()
        pred_views = adjacency.pred_views
        succ_views = adjacency.succ_views
        alive = graph._alive
        # Steps 1–3: find the intermediate computations.
        to_remove = intermediate_nodes(graph, [module_name])
        # Step 4: state nodes, plus base tuple nodes that feed only
        # state nodes and intermediates of this module's invocations.
        state_nodes = {node for invocation in invocations
                       for node in invocation.state_nodes if alive[node]}
        to_remove |= state_nodes
        kinds = graph._kind_codes
        tuple_code = KIND_CODE[NodeKind.TUPLE]
        bases = {pred for state_node in state_nodes
                 for pred in pred_views[state_node]
                 if kinds[pred] == tuple_code}
        to_remove.update([base for base in bases
                          if all(succ in to_remove
                                 for succ in succ_views[base])])
        # Also sweep this module's VALUE leaves whose every use goes
        # (shared leaves of aggregate computations): a scan of the
        # kind column's VALUE rows, in id order, so a leaf feeding a
        # lower-numbered swept leaf goes too.
        invocation_ids = {invocation.invocation_id
                          for invocation in invocations}
        owners = graph._invocation_ids
        value_rows = graph.kind_flags((NodeKind.VALUE,))
        row = value_rows.find(1)
        while row >= 0:
            if (alive[row] and owners[row] in invocation_ids
                    and all(succ in to_remove for succ in succ_views[row])):
                to_remove.add(row)
            row = value_rows.find(1, row + 1)
        # Record and remove.
        fragment.node_ids = sorted(to_remove)
        fragment.preds = [pred_views[node] for node in fragment.node_ids]
        fragment.succs = [succ_views[node] for node in fragment.node_ids]
        graph.remove_nodes(fragment.node_ids)
        # Step 5: one zoom meta-node per invocation, linked to the
        # invocation's surviving inputs and outputs in one bulk call.
        rows = self._zoom_rows.setdefault(module_name, {})
        zoom_nodes = []
        for invocation in invocations:
            invocation_id = invocation.invocation_id
            zoom_node = rows.get(invocation_id)
            if zoom_node is None or alive[zoom_node]:
                zoom_node = graph.add_node(NodeKind.ZOOM, module_name, "p",
                                           module=module_name,
                                           invocation=invocation_id)
                rows[invocation_id] = zoom_node
            fragment.zoom_nodes[invocation_id] = zoom_node
            zoom_nodes.append(zoom_node)
        graph.revive_nodes(
            zoom_nodes,
            [tuple(node for node in invocation.input_nodes if alive[node])
             for invocation in invocations],
            [tuple(node for node in invocation.output_nodes if alive[node])
             for invocation in invocations])
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
        self._hand_over(fragment)
        graph.revive_nodes(fragment.node_ids, fragment.preds, fragment.succs)

    def _hand_over(self, fragment: ZoomFragment) -> None:
        """Pass ``fragment``'s edges to nodes that another zoomed-out
        module holds on to that module's fragment, so its ZoomIn
        restores them.  Without this, zooming A out, B out, A in, B in
        would lose the edge from a base tuple both modules' state reads
        to A's state node (``revive_nodes`` drops edges to dead nodes).
        """
        is_alive = self.graph._alive.__getitem__
        if (all(map(is_alive, chain(*fragment.preds)))
                and all(map(is_alive, chain(*fragment.succs)))):
            return
        holders = {node: (other, position)
                   for other in self._fragments.values()
                   for position, node in enumerate(other.node_ids)}
        for node, operands, results in zip(fragment.node_ids,
                                           fragment.preds, fragment.succs):
            for pred in operands:
                if pred in holders and not is_alive(pred):
                    other, position = holders[pred]
                    other.succs[position] += (node,)
            for succ in results:
                if succ in holders and not is_alive(succ):
                    other, position = holders[succ]
                    other.preds[position] += (node,)

    # ------------------------------------------------------------------
    # Coarse view
    # ------------------------------------------------------------------
    def zoom_out_all(self) -> List[str]:
        """ZoomOut on every module: the coarse-grained provenance view
        (paper: "Applying ZoomOut on all modules in a fine-grained
        provenance graph results in a coarse-grained provenance
        graph")."""
        return self.zoom_out(sorted(self.graph.module_names()))


def zoom_out(graph: ProvenanceGraph,
             module_names: Iterable[str]) -> Tuple[ProvenanceGraph, Zoomer]:
    """Functional ZoomOut: returns a zoomed *copy* plus its zoomer."""
    duplicate = graph.copy()
    zoomer = Zoomer(duplicate)
    zoomer.zoom_out(module_names)
    return duplicate, zoomer


def coarse_view(graph: ProvenanceGraph) -> ProvenanceGraph:
    """A coarse-grained copy of the graph (all modules zoomed out)."""
    duplicate = graph.copy()
    Zoomer(duplicate).zoom_out_all()
    return duplicate

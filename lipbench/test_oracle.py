"""Tests of the reference oracle on hand-built graphs.

Every expected answer below is worked out by hand from the drawing
next to the graph, not computed by the program or by the oracle.
"""

import json

import pytest

import oracle
from oracle import Graph

#   0 t1 ──┐
#          ├─> 3 (·) ──> 4 (+) ──> 5 (output ·)
#   1 t2 ──┘             ^
#   2 t3 ────────────────┘──> 6 (+)
#   0 ══> 7 (+)   two parallel edges from t1
#   0, 1 ──> 8 (+)
KINDS = {0: "tuple", 1: "tuple", 2: "tuple", 3: "times", 4: "plus",
         5: "output", 6: "plus", 7: "plus", 8: "plus"}
EDGES = [(0, 3), (1, 3), (3, 4), (2, 4), (4, 5), (2, 6), (0, 7), (0, 7),
         (0, 8), (1, 8)]


@pytest.fixture
def graph():
    return Graph.from_edges(KINDS, EDGES)


def test_descendants_and_ancestors(graph):
    assert oracle.descendants(graph, 0) == {3, 4, 5, 7, 8}
    assert oracle.descendants(graph, 5) == set()
    assert oracle.ancestors(graph, 4) == {0, 1, 2, 3}
    assert oracle.ancestors(graph, 0) == set()


def test_reachable_includes_the_node_itself(graph):
    assert oracle.reachable(graph, 0, 5)
    assert not oracle.reachable(graph, 5, 0)
    assert not oracle.reachable(graph, 6, 5)
    assert oracle.reachable(graph, 2, 2)


def test_subgraph_adds_other_operands_of_descendants(graph):
    up, down, siblings = oracle.subgraph(graph, 3)
    assert up == {0, 1}
    assert down == {4, 5}
    # 4's other operand is t3; 5's only operand (4) is already in.
    assert siblings == {2}


def test_subgraph_of_a_sink(graph):
    assert oracle.subgraph(graph, 6) == ({2}, set(), set())


def test_deletion_joint_node_dies_on_one_dead_edge(graph):
    # 3 is a join (·): t1 gone kills it; 4 (+) keeps t3; 7 loses both
    # parallel edges; 8 keeps t2.
    assert oracle.deletion_set(graph, [0]) == {0, 3, 7}


def test_deletion_sum_node_dies_when_all_edges_die(graph):
    assert oracle.deletion_set(graph, [2]) == {2, 6}
    assert oracle.deletion_set(graph, [0, 2]) == {0, 2, 3, 4, 5, 6, 7}


def test_deletion_never_kills_a_node_without_in_edges(graph):
    assert 1 not in oracle.deletion_set(graph, [0, 2])
    assert oracle.deletion_set(graph, [1]) == {1, 3}


# Module M, invocation 1:
#   12 t ──> 11 input ·  <── 10 m
#   14 t ──> 13 state ·  <── 10 m
#   11, 13 ──> 15 (·) ──> 16 (+) ──> 17 output · <── 10 m
#   17 ──> 18 (+)   downstream of the output
ZOOM_KINDS = {10: "module", 11: "input", 12: "tuple", 13: "state",
              14: "tuple", 15: "times", 16: "plus", 17: "output",
              18: "plus"}
ZOOM_EDGES = [(12, 11), (10, 11), (14, 13), (10, 13), (11, 15), (13, 15),
              (15, 16), (16, 17), (10, 17), (17, 18)]
INVOCATIONS = {1: {"module": "M", "module_node": 10, "inputs": [11],
                   "outputs": [17], "state": [13]}}


@pytest.fixture
def zoom_graph():
    return Graph.from_edges(ZOOM_KINDS, ZOOM_EDGES, INVOCATIONS)


def test_intermediate_nodes_stop_at_outputs(zoom_graph):
    assert oracle.intermediate_nodes(zoom_graph, ["M"]) == {15, 16}
    assert oracle.intermediate_nodes(zoom_graph, ["other"]) == set()


def _zoomed(kinds, edges):
    graph = Graph.from_edges(kinds, edges, INVOCATIONS)
    graph.nodes[19]["module"] = "M"
    graph.nodes[19]["invocation"] = 1
    return graph


def test_zoom_out_shape_accepted(zoom_graph):
    kinds = {10: "module", 11: "input", 12: "tuple", 17: "output",
             18: "plus", 19: "zoom"}
    edges = [(12, 11), (10, 11), (10, 17), (11, 19), (19, 17), (17, 18)]
    assert oracle.zoom_out_problems(zoom_graph, _zoomed(kinds, edges),
                                    "M") == []


def test_zoom_out_leftover_intermediate_rejected(zoom_graph):
    kinds = {10: "module", 11: "input", 12: "tuple", 16: "plus",
             17: "output", 18: "plus", 19: "zoom"}
    edges = [(12, 11), (10, 11), (10, 17), (11, 19), (19, 17), (16, 17),
             (17, 18)]
    problems = oracle.zoom_out_problems(zoom_graph, _zoomed(kinds, edges),
                                        "M")
    assert len(problems) == 1 and "intermediate" in problems[0]


def test_zoom_out_wrong_zoom_edges_rejected(zoom_graph):
    kinds = {10: "module", 11: "input", 12: "tuple", 17: "output",
             18: "plus", 19: "zoom"}
    edges = [(12, 11), (10, 11), (10, 17), (11, 19), (17, 18)]
    problems = oracle.zoom_out_problems(zoom_graph, _zoomed(kinds, edges),
                                        "M")
    assert problems == ["zoom-out M: zoom node 19 does not feed "
                        "invocation 1's outputs"]


def test_zoom_out_missing_zoom_node_rejected(zoom_graph):
    kinds = {10: "module", 11: "input", 12: "tuple", 17: "output",
             18: "plus"}
    edges = [(12, 11), (10, 11), (10, 17), (17, 18)]
    after = Graph.from_edges(kinds, edges, INVOCATIONS)
    problems = oracle.zoom_out_problems(zoom_graph, after, "M")
    assert problems == ["zoom-out M: invocation 1 has 0 zoom nodes, "
                        "expected 1"]


def test_restore_ignores_operand_order(graph):
    reordered = Graph.from_edges(KINDS, [(1, 3), (0, 3)] + EDGES[2:])
    assert oracle.restore_problems(graph, reordered) == []


def test_restore_detects_changed_multiset_and_lost_nodes(graph):
    one_parallel_edge = [edge for edge in EDGES if edge != (0, 7)] + [(0, 7)]
    assert oracle.restore_problems(graph, Graph.from_edges(
        KINDS, one_parallel_edge)) == ["node 7 operand multiset changed"]
    fewer = {node: kind for node, kind in KINDS.items() if node != 8}
    lost = Graph.from_edges(fewer, [e for e in EDGES if e[1] != 8])
    assert oracle.restore_problems(graph, lost) == [
        "node sets differ: 1 missing, 0 extra"]


def _spool(nodes, invocations=(), edges=None):
    header = {"record": "header", "version": 1, "nodes": len(nodes),
              "edges": sum(len(n["preds"]) for n in nodes)
              if edges is None else edges,
              "invocations": len(invocations)}
    lines = [json.dumps(header)]
    lines += [json.dumps(dict(record="invocation", **inv))
              for inv in invocations]
    lines += [json.dumps(dict(record="node", **node)) for node in nodes]
    return lines


def _node(node_id, kind, preds, value=None):
    return {"id": node_id, "kind": kind, "label": kind, "ntype": "p",
            "module": None, "invocation": None, "value": value,
            "preds": preds}


def test_spool_parse_and_round_trip_identity():
    lines = _spool([_node(0, "tuple", []), _node(1, "plus", [0, 0])],
                   [{"id": 0, "module": "M", "module_node": 0,
                     "inputs": [], "outputs": [1], "state": []}])
    graph = Graph.from_jsonl(lines)
    assert graph.preds == {0: [], 1: [0, 0]}
    assert graph.succs == {0: [1, 1], 1: []}
    assert graph.invocations[0]["outputs"] == [1]
    assert oracle.identity_problems(graph, Graph.from_jsonl(lines)) == []
    changed = Graph.from_jsonl(_spool(
        [_node(0, "tuple", [], value={"atom": 3}), _node(1, "plus", [0, 0])],
        [{"id": 0, "module": "M", "module_node": 0, "inputs": [],
          "outputs": [1], "state": []}]))
    assert oracle.identity_problems(graph, changed) == [
        "node 0 record differs"]


def test_spool_with_wrong_header_counts_rejected():
    with pytest.raises(ValueError):
        Graph.from_jsonl(_spool([_node(0, "tuple", [])], edges=3))


def test_same_outputs_compares_row_multisets():
    tracked = [{"car": {"Sold": [("c1", 3), ("c2", 4)]}}]
    assert oracle.same_outputs(tracked,
                               [{"car": {"Sold": [("c2", 4), ("c1", 3)]}}])
    assert not oracle.same_outputs(tracked,
                                   [{"car": {"Sold": [("c1", 3)]}}])
    assert not oracle.same_outputs(tracked, [])

"""Reference answers computed without the program's code.

Every answer the benchmark receives from the program is compared with
an answer computed here, from the graph as the tracker's JSON Lines
interchange format describes it: one ``node`` record per node with its
ordered operand list (``preds``), one ``invocation`` record per module
invocation.  Nothing in this module imports ``repro``; the algorithms
are written from the paper's definitions, not from the program's
kernels:

* reachability and ancestors/descendants: breadth-first search over
  the edge list, with ``reachable(n, n)`` true;
* subgraph (paper 5.1): the root, its ancestors, its descendants, and
  every other operand of each descendant;
* deletion propagation (Definition 4.2): a fixed point in which a node
  dies when all its in-edges are dead, or when it is a joint
  derivation (labelled ``·`` or ``⊗``) and one in-edge is dead; a
  node with no in-edges survives unless it is itself deleted;
* the intermediate nodes of Definition 4.1 that ZoomOut removes, and
  the shape ZoomOut must leave (one zoom node per invocation, from
  its inputs to its outputs);
* ZoomIn after ZoomOut restores every node and each node's operand
  multiset.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Node kinds whose label is the semiring ``·`` or the semimodule
#: ``⊗``: input, output and state nodes are ``·`` of a tuple and an
#: invocation, ``times`` is the join ``·``, ``tensor`` is ``⊗``.
JOINT_KINDS = frozenset({"input", "output", "state", "times", "tensor"})

OUTPUT_KIND = "output"
ZOOM_KIND = "zoom"


class Graph:
    """A provenance graph as plain dictionaries.

    ``nodes`` maps a node id to its record (``kind``, ``label``,
    ``ntype``, ``module``, ``invocation``, ``value``); ``preds`` maps
    it to its ordered operand list (parallel edges repeat);
    ``invocations`` maps an invocation id to its record (``module``,
    ``module_node``, ``inputs``, ``outputs``, ``state``).
    """

    def __init__(self, nodes: Dict[int, dict], preds: Dict[int, List[int]],
                 invocations: Optional[Dict[int, dict]] = None):
        self.nodes = nodes
        self.preds = preds
        self.invocations = invocations or {}
        self.succs: Dict[int, List[int]] = {node: [] for node in nodes}
        for target, sources in preds.items():
            for source in sources:
                self.succs[source].append(target)

    @classmethod
    def from_edges(cls, kinds: Dict[int, str],
                   edges: Iterable[Tuple[int, int]],
                   invocations: Optional[Dict[int, dict]] = None) -> "Graph":
        """A graph from ``{node: kind}`` and ``(source, target)`` edges
        (operand order follows edge order) — the form tests write."""
        nodes = {node: {"kind": kind, "label": kind, "ntype": "p",
                        "module": None, "invocation": None, "value": None}
                 for node, kind in kinds.items()}
        preds: Dict[int, List[int]] = {node: [] for node in kinds}
        for source, target in edges:
            preds[target].append(source)
        return cls(nodes, preds, invocations)

    @classmethod
    def from_jsonl(cls, lines: Iterable[str]) -> "Graph":
        """Parse the tracker's JSON Lines spool format."""
        nodes: Dict[int, dict] = {}
        preds: Dict[int, List[int]] = {}
        invocations: Dict[int, dict] = {}
        header = None
        for raw in lines:
            raw = raw.strip()
            if not raw:
                continue
            record = json.loads(raw)
            kind = record.get("record")
            if kind == "node":
                node = record["id"]
                nodes[node] = {key: record.get(key) for key in
                               ("kind", "label", "ntype", "module",
                                "invocation", "value")}
                preds[node] = list(record.get("preds") or ())
            elif kind == "invocation":
                invocations[record["id"]] = {
                    "module": record["module"],
                    "module_node": record["module_node"],
                    "inputs": list(record.get("inputs") or ()),
                    "outputs": list(record.get("outputs") or ()),
                    "state": list(record.get("state") or ())}
            elif kind == "header":
                header = record
            else:
                raise ValueError(f"unknown record type {kind!r}")
        if header is None:
            raise ValueError("spool has no header record")
        graph = cls(nodes, preds, invocations)
        if header.get("nodes") != len(nodes):
            raise ValueError("header node count does not match the records")
        if header.get("edges") != graph.edge_count:
            raise ValueError("header edge count does not match the records")
        return graph

    @classmethod
    def from_file(cls, path: str) -> "Graph":
        with open(path, encoding="utf-8") as stream:
            return cls.from_jsonl(stream)

    @property
    def edge_count(self) -> int:
        return sum(len(sources) for sources in self.preds.values())

    def kind(self, node: int) -> str:
        return self.nodes[node]["kind"]


# ----------------------------------------------------------------------
# Reachability, ancestors, descendants, subgraph
# ----------------------------------------------------------------------
def _closure(adjacency: Dict[int, List[int]], start: int) -> Set[int]:
    """Nodes reachable from ``start`` along ``adjacency`` (BFS),
    ``start`` itself excluded unless a cycle returns to it."""
    seen: Set[int] = set()
    queue = deque(adjacency[start])
    while queue:
        node = queue.popleft()
        if node in seen:
            continue
        seen.add(node)
        queue.extend(adjacency[node])
    return seen


def descendants(graph: Graph, node: int) -> Set[int]:
    return _closure(graph.succs, node)


def ancestors(graph: Graph, node: int) -> Set[int]:
    return _closure(graph.preds, node)


def reachable(graph: Graph, source: int, target: int) -> bool:
    """True when a path leads from ``source`` to ``target``; every node
    reaches itself."""
    return source == target or target in descendants(graph, source)


def subgraph(graph: Graph, root: int) -> Tuple[Set[int], Set[int], Set[int]]:
    """``(ancestors, descendants, siblings)`` of the paper's subgraph
    query.  Siblings are the other operands of the descendants, not
    counting nodes already in the answer."""
    up = ancestors(graph, root)
    down = descendants(graph, root)
    operands = {operand for node in down for operand in graph.preds[node]}
    return up, down, operands - up - down - {root}


# ----------------------------------------------------------------------
# Deletion propagation (Definition 4.2)
# ----------------------------------------------------------------------
def deletion_set(graph: Graph, seeds: Iterable[int],
                 joint_kinds: frozenset = JOINT_KINDS) -> Set[int]:
    """Every node Definition 4.2 deletes, seeds included.

    The fixed point is reached by re-testing the rule on the
    successors of each newly deleted node, since only they can change
    status.  A node with no in-edges never dies by rule (1)."""
    dead = set(seeds)
    queue = deque(dead)
    while queue:
        node = queue.popleft()
        for successor in graph.succs[node]:
            if successor in dead:
                continue
            operands = graph.preds[successor]
            if (graph.kind(successor) in joint_kinds
                    or all(operand in dead for operand in operands)):
                dead.add(successor)
                queue.append(successor)
    return dead


# ----------------------------------------------------------------------
# Zoom (Definition 4.1 and Section 4.1)
# ----------------------------------------------------------------------
def intermediate_nodes(graph: Graph, modules: Iterable[str]) -> Set[int]:
    """Nodes reached from an input or state node of an invocation of
    ``modules`` by a path with no output node on it (the end node
    included).  The input and state nodes themselves are anchors, not
    intermediate computations."""
    wanted = set(modules)
    anchors: Set[int] = set()
    for invocation in graph.invocations.values():
        if invocation["module"] in wanted:
            anchors.update(node for node in invocation["inputs"]
                           + invocation["state"] if node in graph.nodes)
    found: Set[int] = set()
    queue = deque(successor for anchor in anchors
                  for successor in graph.succs[anchor])
    while queue:
        node = queue.popleft()
        if node in found or node in anchors:
            continue
        if graph.kind(node) == OUTPUT_KIND:
            continue
        found.add(node)
        queue.extend(graph.succs[node])
    return found


def zoom_out_problems(before: Graph, after: Graph,
                      module: str) -> List[str]:
    """Ways in which ``after`` is not a correct ZoomOut of ``module``
    applied to ``before``; an empty list means correct."""
    problems = []
    survivors = intermediate_nodes(before, [module]) & set(after.nodes)
    if survivors:
        problems.append(f"zoom-out {module}: {len(survivors)} intermediate "
                        f"node(s) survive, e.g. {sorted(survivors)[:3]}")
    zoom_nodes: Dict[int, List[int]] = {}
    for node, record in after.nodes.items():
        if record["kind"] == ZOOM_KIND and record["module"] == module:
            zoom_nodes.setdefault(record["invocation"], []).append(node)
    for invocation_id, invocation in before.invocations.items():
        if invocation["module"] != module:
            continue
        made = zoom_nodes.pop(invocation_id, [])
        if len(made) != 1:
            problems.append(f"zoom-out {module}: invocation {invocation_id} "
                            f"has {len(made)} zoom nodes, expected 1")
            continue
        node = made[0]
        inputs = {n for n in invocation["inputs"] if n in after.nodes}
        outputs = {n for n in invocation["outputs"] if n in after.nodes}
        if set(after.preds[node]) != inputs:
            problems.append(f"zoom-out {module}: zoom node {node} operands "
                            f"are not invocation {invocation_id}'s inputs")
        if set(after.succs[node]) != outputs:
            problems.append(f"zoom-out {module}: zoom node {node} does not "
                            f"feed invocation {invocation_id}'s outputs")
    if zoom_nodes:
        problems.append(f"zoom-out {module}: zoom nodes for unknown "
                        f"invocations {sorted(zoom_nodes)}")
    return problems


def restore_problems(before: Graph, after: Graph) -> List[str]:
    """Ways in which ``after`` differs from ``before`` in its nodes or
    in any node's operand multiset (operand order is not compared)."""
    problems = []
    missing = set(before.nodes) - set(after.nodes)
    extra = set(after.nodes) - set(before.nodes)
    if missing or extra:
        problems.append(f"node sets differ: {len(missing)} missing, "
                        f"{len(extra)} extra")
    for node in set(before.nodes) & set(after.nodes):
        if (before.nodes[node]["kind"] != after.nodes[node]["kind"]
                or before.nodes[node]["label"] != after.nodes[node]["label"]):
            problems.append(f"node {node} changed kind or label")
        elif Counter(before.preds[node]) != Counter(after.preds[node]):
            problems.append(f"node {node} operand multiset changed")
        if len(problems) > 5:
            break
    return problems


# ----------------------------------------------------------------------
# Store round trip and tracked execution
# ----------------------------------------------------------------------
def identity_problems(expected: Graph, actual: Graph) -> List[str]:
    """Differences between two graphs in any node field, in any ordered
    operand list, or in any invocation record."""
    problems = []
    if set(expected.nodes) != set(actual.nodes):
        problems.append("node sets differ")
        return problems
    for node, record in expected.nodes.items():
        if record != actual.nodes[node]:
            problems.append(f"node {node} record differs")
        elif expected.preds[node] != actual.preds[node]:
            problems.append(f"node {node} operand list differs")
        if len(problems) > 5:
            return problems
    if expected.invocations != actual.invocations:
        problems.append("invocation records differ")
    return problems


def same_outputs(tracked: Sequence[Dict[str, Dict[str, list]]],
                 untracked: Sequence[Dict[str, Dict[str, list]]]) -> bool:
    """Tracked and untracked executions produced the same relations:
    per execution, per workflow node and relation, the same multiset
    of value rows."""
    if len(tracked) != len(untracked):
        return False
    for left, right in zip(tracked, untracked):
        if set(left) != set(right):
            return False
        for node in left:
            if set(left[node]) != set(right[node]):
                return False
            for relation in left[node]:
                if (Counter(map(repr, left[node][relation]))
                        != Counter(map(repr, right[node][relation]))):
                    return False
    return True

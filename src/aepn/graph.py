"""Heterogeneous assignment graphs built from expanded nets.

An expanded net (every place holds at most one token) maps onto a typed
directed graph: each non-empty place becomes a node whose feature vector is
the token's availability time relative to the clock followed by the token's
attribute values in schema order, and each transition becomes a featureless
node typed ``A_Transition`` or ``E_Transition``.  Empty places and their
arcs are dropped; the remaining arcs become edges one for one.  Two places
share a node type exactly when their attribute schemas coincide, so every
graph over the same net family uses one fixed type registry.

Picking an ``A_Transition`` node is the action interface.  Action nodes
appear in the expanded net's transition order, which is also the order of
``ExpansionMap.action_origin``, so the environment's action ``k`` is the
``k``-th action node and fires the ``k``-th source ``(transition,
binding)`` pair; provenance records the same link by node id.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from .expand import ExpansionMap
from .net import AEPNError, Binding, MarkedAEPN, TAG_EVOLUTION

A_TRANSITION = "A_Transition"
E_TRANSITION = "E_Transition"
TIME_ATTR = "TIME"


class NotExpandedError(AEPNError):
    """Graph mapping was handed a net with a multi-token place."""


def place_type(schema: tuple[str, ...]) -> str:
    return f"place({','.join(schema)})"


@dataclass
class GraphNode:
    id: str
    type: str
    attrs: tuple[float, ...]


@dataclass
class AssignmentGraph:
    nodes: list[GraphNode]
    edges: list[tuple[str, str]]
    types: dict[str, tuple[str, ...]]  # type name -> attribute names

    def node_ids(self) -> list[str]:
        return [n.id for n in self.nodes]

    def action_node_ids(self) -> list[str]:
        return [n.id for n in self.nodes if n.type == A_TRANSITION]


@dataclass
class NodeProvenance:
    """Action node id -> source transition id and binding."""

    action_origin: dict[str, tuple[str, Binding]] = field(default_factory=dict)


def type_registry(net: MarkedAEPN) -> dict[str, tuple[str, ...]]:
    """Fixed node-type table for a net family (shared by all its graphs)."""
    types: dict[str, tuple[str, ...]] = {
        A_TRANSITION: (),
        E_TRANSITION: (),
    }
    for place in net.places.values():
        types[place_type(place.schema)] = (TIME_ATTR, *place.schema)
    return types


def edge_type_table(net: MarkedAEPN) -> list[tuple[str, str]]:
    """Sorted (source type, target type) pairs that arcs of ``net`` induce."""
    seen: set[tuple[str, str]] = set()
    for arc in net.arcs:
        if arc.source in net.places:
            ptype = place_type(net.places[arc.source].schema)
            ttype = E_TRANSITION if net.transitions[arc.target].tag == TAG_EVOLUTION else A_TRANSITION
            seen.add((ptype, ttype))
        else:
            ttype = E_TRANSITION if net.transitions[arc.source].tag == TAG_EVOLUTION else A_TRANSITION
            ptype = place_type(net.places[arc.target].schema)
            seen.add((ttype, ptype))
    return sorted(seen)


def map_to_graph(expanded: MarkedAEPN,
                 emap: ExpansionMap | None = None) -> tuple[AssignmentGraph, NodeProvenance]:
    """Map an expanded net onto its assignment graph.

    Node order is deterministic: non-empty places in net order, then action
    transitions in net order (which is also binding enumeration order), then
    evolution transitions.
    """
    nodes: list[GraphNode] = []
    prov = NodeProvenance()
    present: set[str] = set()
    for pid, place in expanded.places.items():
        if len(place.tokens) > 1:
            raise NotExpandedError(f"place {pid} holds {len(place.tokens)} tokens")
        if not place.tokens:
            continue
        tok = place.tokens[0]
        attrs = (tok.time - expanded.clock,
                 *(tok.attrs[a] for a in place.schema))
        nodes.append(GraphNode(pid, place_type(place.schema), attrs))
        present.add(pid)
    for tid, tr in expanded.transitions.items():
        if tr.tag != TAG_EVOLUTION:
            nodes.append(GraphNode(tid, A_TRANSITION, ()))
            if emap is not None and tid in emap.action_origin:
                prov.action_origin[tid] = emap.action_origin[tid]
    for tid, tr in expanded.transitions.items():
        if tr.tag == TAG_EVOLUTION:
            nodes.append(GraphNode(tid, E_TRANSITION, ()))

    edges: list[tuple[str, str]] = []
    for arc in expanded.arcs:
        if arc.source in expanded.places:
            if arc.source in present:
                edges.append((arc.source, arc.target))
        elif arc.target in present:
            edges.append((arc.source, arc.target))

    graph = AssignmentGraph(nodes, edges, type_registry(expanded))
    return graph, prov


def validate_graph(graph: AssignmentGraph) -> list[str]:
    """Structural checks; empty list means the graph is well formed."""
    violations: list[str] = []
    by_id: dict[str, GraphNode] = {}
    for node in graph.nodes:
        if node.id in by_id:
            violations.append(f"duplicate node id {node.id}")
        by_id[node.id] = node
        names = graph.types.get(node.type)
        if names is None:
            violations.append(f"node {node.id} has unregistered type {node.type}")
            continue
        if len(node.attrs) != len(names):
            violations.append(
                f"node {node.id} carries {len(node.attrs)} attrs, type {node.type} "
                f"declares {len(names)}")
        if node.type in (A_TRANSITION, E_TRANSITION) and node.attrs:
            violations.append(f"transition node {node.id} must not carry attributes")
    for tname, names in graph.types.items():
        if tname not in (A_TRANSITION, E_TRANSITION):
            if not names or names[0] != TIME_ATTR:
                violations.append(f"place type {tname} must lead with {TIME_ATTR}")
    transition_types = (A_TRANSITION, E_TRANSITION)
    for src, dst in graph.edges:
        if src not in by_id or dst not in by_id:
            violations.append(f"edge ({src}, {dst}) references a missing node")
            continue
        if by_id[src].type in transition_types and by_id[dst].type in transition_types:
            violations.append(f"edge ({src}, {dst}) joins two transition nodes")
    return violations


# -- serialization ---------------------------------------------------------


def serialize(graph: AssignmentGraph) -> str:
    doc = {
        "nodes": [{"id": n.id, "type": n.type, "attrs": list(n.attrs)}
                  for n in graph.nodes],
        "edges": [[s, d] for s, d in graph.edges],
        "types": {k: list(v) for k, v in graph.types.items()},
    }
    return json.dumps(doc, indent=2) + "\n"


def deserialize(text: str) -> AssignmentGraph:
    doc = json.loads(text)
    return AssignmentGraph(
        [GraphNode(n["id"], n["type"], tuple(float(x) for x in n["attrs"]))
         for n in doc["nodes"]],
        [(s, d) for s, d in doc["edges"]],
        {k: tuple(v) for k, v in doc.get("types", {}).items()},
    )


def save_graph(graph: AssignmentGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(graph))


def load_graph(path) -> AssignmentGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize(fh.read())


_DOT_STYLE = {
    A_TRANSITION: 'shape=box, style=filled, fillcolor="#f4b6b6"',
    E_TRANSITION: 'shape=box, style=filled, fillcolor="#b6c8f4"',
}


def export_dot(graph: AssignmentGraph) -> str:
    """Graphviz rendering; places are ellipses, transitions are boxes."""
    lines = ["digraph assignment {", "  rankdir=LR;"]
    for node in graph.nodes:
        style = _DOT_STYLE.get(node.type, "shape=ellipse")
        if node.attrs:
            names = graph.types[node.type]
            label = node.id + "\\n" + ", ".join(
                f"{k}={v:g}" for k, v in zip(names, node.attrs))
        else:
            label = node.id
        lines.append(f'  "{node.id}" [{style}, label="{label}"];')
    for src, dst in graph.edges:
        lines.append(f'  "{src}" -> "{dst}";')
    lines.append("}")
    return "\n".join(lines) + "\n"

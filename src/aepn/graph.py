"""Heterogeneous assignment graphs built from expanded nets.

An expanded net (every place holds at most one token) maps onto a typed
directed graph: each non-empty place becomes a node whose feature vector is
the token's availability time relative to the clock followed by the token's
attribute values in schema order, and each transition becomes a featureless
node typed ``A_Transition`` or ``E_Transition``.  Empty places and their
arcs are dropped; the remaining arcs become edges one for one.  Two places
share a node type exactly when their attribute schemas coincide, so every
graph over the same net family uses one fixed type registry.

``expand`` followed by :func:`map_to_graph` is the reference construction,
with string node ids, serialization and DOT output.  The environment skips
both steps: :func:`compile_decision` reads the same graph straight off the
marking and the decision's pairs as per-type arrays, a
:class:`DecisionGraph`.

Picking an ``A_Transition`` node is the action interface.  Action nodes
appear in the expanded net's transition order, which is also the order of
``ExpansionMap.action_origin`` and of ``enabled_pairs(TAG_ACTION)``, so the
environment's action ``k`` is the ``k``-th action node and fires the
``k``-th source ``(transition, binding)`` pair.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .expand import ExpansionMap
from .net import AEPNError, Binding, MarkedAEPN, Place, TAG_EVOLUTION

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


@dataclass
class DecisionGraph:
    """One assignment graph as arrays, bucketed by node type.

    ``feats[type]`` holds one float64 row per node of that type, in graph
    node order; ``edges[(source type, target type)]`` holds the ``(src,
    dst)`` row indices of that relation's edges, in graph edge order.  Only
    types with a node and relations with an edge appear.
    """

    feats: dict[str, np.ndarray]
    edges: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]
    n_actions: int


def _token_rows(place: Place, clock: float) -> np.ndarray:
    """Feature rows of a place's tokens: time relative to the clock, then
    the attributes in schema order (filled a column at a time)."""
    rows = np.empty((len(place.tokens), 1 + len(place.schema)))
    rows[:, 0] = [tok.time for tok in place.tokens]
    rows[:, 0] -= clock
    for j, name in enumerate(place.schema, 1):
        rows[:, j] = [tok.attrs[name] for tok in place.tokens]
    return rows


def compile_decision(net: MarkedAEPN, pairs) -> DecisionGraph:
    """The graph of ``map_to_graph(*expand(net))`` as a :class:`DecisionGraph`.

    ``pairs`` are the net's ``enabled_pairs(TAG_ACTION)``, as
    ``run_until_decision`` returns them; action row ``k`` is ``pairs[k]``.
    Rows and edges come in the reference order: tokens in place order, then
    insertion order; edges in the expanded net's arc order, where an
    evolution transition links every token of its input places and of each
    distinct output place, and an action copy links its binding's tokens
    and, for an output place that is no input, that place's first token.
    """
    ptype = {pid: place_type(p.schema) for pid, p in net.places.items()}
    blocks: dict[str, list[np.ndarray]] = {}
    span: dict[str, range] = {}  # place id -> its tokens' rows in its type
    for pid, place in net.places.items():
        if place.tokens:
            bucket = blocks.setdefault(ptype[pid], [])
            start = sum(map(len, bucket))
            span[pid] = range(start, start + len(place.tokens))
            bucket.append(_token_rows(place, net.clock))

    bindings: dict[str, list[Binding]] = {}
    for tr, binding in pairs:
        bindings.setdefault(tr.id, []).append(binding)
    links: dict[tuple[str, str], list[tuple[np.ndarray, np.ndarray]]] = {}

    def link(rel, src, dst):
        links.setdefault(rel, []).append((src, dst))

    n_evolutions = n_actions = 0
    for tid, tr in net.transitions.items():
        if tr.tag == TAG_EVOLUTION:
            node = np.full(1, n_evolutions, dtype=np.intp)
            n_evolutions += 1
            for pid in net._in[tid]:
                if pid in span:
                    link((ptype[pid], E_TRANSITION), np.asarray(span[pid], dtype=np.intp),
                         node.repeat(len(span[pid])))
            for pid in dict.fromkeys(arc.target for arc in net._out[tid]):
                if pid in span:
                    link((E_TRANSITION, ptype[pid]), node.repeat(len(span[pid])),
                         np.asarray(span[pid], dtype=np.intp))
            continue
        chosen = bindings.get(tid)
        if not chosen:
            continue
        copies = np.arange(n_actions, n_actions + len(chosen), dtype=np.intp)
        n_actions += len(chosen)
        # one row column per arc, one entry per copy; a relation's columns
        # interleave copy by copy, as expand lists each copy's arcs
        taken: dict[str, np.ndarray] = {}
        ins: dict[tuple[str, str], list[np.ndarray]] = {}
        for pid in net._in[tid]:
            row_of = {id(tok): span[pid][k] for k, tok in enumerate(net.places[pid].tokens)}
            taken[pid] = np.array([row_of[id(b.assignments[pid])] for b in chosen],
                                  dtype=np.intp)
            ins.setdefault((ptype[pid], A_TRANSITION), []).append(taken[pid])
        outs: dict[tuple[str, str], list[np.ndarray]] = {}
        for arc in net._out[tid]:
            if arc.target in taken:
                col = taken[arc.target]
            elif arc.target in span:
                col = np.full(len(chosen), span[arc.target][0], dtype=np.intp)
            else:
                continue
            outs.setdefault((A_TRANSITION, ptype[arc.target]), []).append(col)
        for rel, cols in ins.items():
            link(rel, np.stack(cols, axis=1).ravel(), copies.repeat(len(cols)))
        for rel, cols in outs.items():
            link(rel, copies.repeat(len(cols)), np.stack(cols, axis=1).ravel())

    feats = {t: np.concatenate(bucket) for t, bucket in blocks.items()}
    if n_actions:
        feats[A_TRANSITION] = np.zeros((n_actions, 0))
    if n_evolutions:
        feats[E_TRANSITION] = np.zeros((n_evolutions, 0))
    edges = {rel: (np.concatenate([s for s, _ in p]), np.concatenate([d for _, d in p]))
             for rel, p in links.items()}
    return DecisionGraph(feats, edges, n_actions)


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

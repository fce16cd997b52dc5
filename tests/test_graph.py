"""Graph mapping: counting oracle, typing, serialization, validation, DOT."""
import json

import pytest

from aepn.expand import expand
from aepn.graph import (
    A_TRANSITION,
    E_TRANSITION,
    TIME_ATTR,
    AssignmentGraph,
    GraphNode,
    NotExpandedError,
    deserialize,
    edge_type_table,
    export_dot,
    map_to_graph,
    place_type,
    serialize,
    type_registry,
    validate_graph,
)
from aepn.net import build_net
from aepn.problems import build_problem
from helpers import expected_counts, random_marked_net


def _golden():
    with open("tests/data/two_candidate_net.json", encoding="utf-8") as fh:
        return build_net(json.load(fh))


def test_counting_oracle_on_corpus():
    for seed in range(60):
        net = random_marked_net(seed)
        want_nodes, want_edges = expected_counts(net)
        graph, _ = map_to_graph(*expand(net))
        assert len(graph.nodes) == want_nodes, f"seed {seed}"
        assert len(graph.edges) == want_edges, f"seed {seed}"
        assert validate_graph(graph) == [], f"seed {seed}"


def test_counting_oracle_on_problems():
    for name in ("p1", "p2", "p3"):
        net = build_problem(name).clone()
        net.reseed(7)
        net.run_until_decision()
        want = expected_counts(net)
        graph, _ = map_to_graph(*expand(net))
        assert (len(graph.nodes), len(graph.edges)) == want, name


def test_golden_graph_layout():
    graph, prov = map_to_graph(*expand(_golden()))
    assert graph.node_ids() == ["waiting#0", "waiting#1", "resources#0",
                                "start#0", "start#1"]
    assert graph.action_node_ids() == ["start#0", "start#1"]
    by_id = {n.id: n for n in graph.nodes}
    assert by_id["waiting#0"].type == place_type(("type", "budget"))
    assert by_id["waiting#0"].attrs == (0.0, 0.0, 100.0)
    assert by_id["waiting#1"].attrs == (0.0, 1.0, 200.0)
    assert by_id["resources#0"].type == place_type(())
    assert by_id["resources#0"].attrs == (0.0,)
    assert by_id["start#0"].type == A_TRANSITION and by_id["start#0"].attrs == ()
    # empty busy place dropped together with its arcs
    assert all("busy" not in e for pair in graph.edges for e in pair)
    assert sorted(graph.edges) == sorted([
        ("waiting#0", "start#0"), ("resources#0", "start#0"),
        ("waiting#1", "start#1"), ("resources#0", "start#1"),
        ("start#0", "resources#0"), ("start#1", "resources#0")])
    assert prov.action_origin["start#0"][0] == "start"


def test_time_attribute_is_clock_relative():
    net = build_net({
        "places": [{"id": "q", "schema": ["a"]}],
        "transitions": [{"id": "t", "tag": "A", "reward": "q.a"}],
        "arcs": [{"source": "q", "target": "t"}],
        "initial_marking": {"q": [{"time": 0.0, "attrs": {"a": 1.0}},
                                  {"time": 3.0, "attrs": {"a": 2.0}}]},
        "tag": "A", "horizon": 10.0, "clock": 2.0,
    })
    graph, _ = map_to_graph(*expand(net))
    by_id = {n.id: n for n in graph.nodes}
    assert by_id["q#0"].attrs == (-2.0, 1.0)  # available two units ago
    assert by_id["q#1"].attrs == (1.0, 2.0)   # available one unit from now
    # only the available token yields an action copy
    assert graph.action_node_ids() == ["t#0"]


def test_registry_shared_across_family():
    template = build_problem("p1")
    reg = type_registry(template)
    assert reg[A_TRANSITION] == () and reg[E_TRANSITION] == ()
    # waiting and busy share one type: schemas coincide
    assert len(reg) == 4
    assert reg[place_type(("type", "budget"))] == (TIME_ATTR, "type", "budget")
    net = template.clone()
    net.reseed(3)
    net.run_until_decision()
    graph, _ = map_to_graph(*expand(net))
    assert set(graph.types) == set(reg)
    assert all(graph.types[k] == reg[k] for k in reg)


def test_edge_type_table_golden():
    table = edge_type_table(_golden())
    tb = place_type(("type", "budget"))
    empty = place_type(())
    assert table == sorted([
        (tb, A_TRANSITION), (empty, A_TRANSITION),
        (A_TRANSITION, tb), (A_TRANSITION, empty)])


def test_round_trip_identity():
    for seed in range(30):
        graph, _ = map_to_graph(*expand(random_marked_net(seed)))
        text = serialize(graph)
        again = deserialize(text)
        assert serialize(again) == text
        assert again.nodes == graph.nodes
        assert again.edges == graph.edges
        assert again.types == graph.types


def test_not_expanded_rejected():
    with pytest.raises(NotExpandedError):
        map_to_graph(_golden())  # waiting holds two tokens


def test_validate_graph_catches_breakage():
    reg = {A_TRANSITION: (), E_TRANSITION: (),
           "place(a)": (TIME_ATTR, "a"), "bad": ("a", "b")}
    node = lambda i, t, a: GraphNode(i, t, a)
    cases = [
        (AssignmentGraph([node("x", "place(a)", (0.0, 1.0))] * 2, [], reg),
         "duplicate node id"),
        (AssignmentGraph([node("x", "mystery", ())], [], reg), "unregistered"),
        (AssignmentGraph([node("x", "place(a)", (0.0,))], [], reg), "carries 1 attrs"),
        (AssignmentGraph([node("x", A_TRANSITION, (1.0,))], [], reg),
         "must not carry attributes"),
        (AssignmentGraph([node("x", "bad", ("a", "b"))], [], reg), "lead with"),
        (AssignmentGraph([node("x", "place(a)", (0.0, 1.0))], [("x", "ghost")], reg),
         "missing node"),
        (AssignmentGraph([node("x", A_TRANSITION, ()), node("y", E_TRANSITION, ())],
                         [("x", "y")], reg), "two transition nodes"),
    ]
    for graph, phrase in cases:
        messages = validate_graph(graph)
        assert any(phrase in m for m in messages), (phrase, messages)


def test_export_dot_shapes():
    dot = export_dot(map_to_graph(*expand(_golden()))[0])
    assert dot.startswith("digraph")
    assert '"start#0" [shape=box' in dot
    assert '"waiting#0" [shape=ellipse' in dot
    assert "budget=100" in dot
    assert '"waiting#1" -> "start#1";' in dot

"""Single-token expansion: golden wiring, invariants, replay validation."""
import json

from aepn.expand import expand, validate_expanded
from aepn.net import build_net, net_to_json
from helpers import random_marked_net


def _golden():
    with open("tests/data/two_candidate_net.json", encoding="utf-8") as fh:
        return build_net(json.load(fh))


def _arc_set(net):
    return {(a.source, a.target) for a in net.arcs}


def test_two_candidate_expansion_wiring():
    net = _golden()
    before = net.marking_key()
    ex, emap = expand(net)

    assert set(ex.places) == {"waiting#0", "waiting#1", "resources#0", "busy"}
    assert set(ex.transitions) == {"start#0", "start#1"}
    # empty place keeps its id; every copy remembers its origin
    assert ex.places["busy"].tokens == []
    assert ex.places["waiting#0"].origin == "waiting"
    assert ex.places["busy"].origin == "busy"
    # one token per copy, in insertion order
    assert ex.places["waiting#0"].tokens[0].attrs["budget"] == 100.0
    assert ex.places["waiting#1"].tokens[0].attrs["budget"] == 200.0

    assert _arc_set(ex) == {
        ("waiting#0", "start#0"), ("resources#0", "start#0"),
        ("waiting#1", "start#1"), ("resources#0", "start#1"),
        # busy is not an input: outputs land on its first (only) copy;
        # resources is an input: outputs land on the binding's copy
        ("start#0", "busy"), ("start#0", "resources#0"),
        ("start#1", "busy"), ("start#1", "resources#0"),
    }

    assert set(emap.action_origin) == {"start#0", "start#1"}
    tid, b0 = emap.action_origin["start#0"]
    assert tid == "start" and b0.assignments["waiting"].attrs["budget"] == 100.0
    _, b1 = emap.action_origin["start#1"]
    assert b1.assignments["waiting"].attrs["budget"] == 200.0

    assert net.marking_key() == before  # source untouched
    assert validate_expanded(ex, emap) == []


def test_expanded_copy_fires_like_source():
    net = _golden()
    ex, emap = expand(net)
    tid, binding = emap.action_origin["start#1"]
    got = ex.fire("start#1", next(iter(
        b for b in ex.enabled_bindings("start#1"))))
    want = net.fire(tid, binding)
    assert got == want == 200.0
    # marking projected through origins matches the source marking
    assert ex.marking_key() == net.marking_key()


def test_empty_place_single_copy_and_evolution_fanout():
    net = build_net({
        "places": [{"id": "p", "schema": ["a"]},
                   {"id": "q", "schema": ["a"]},
                   {"id": "hole", "schema": []}],
        "transitions": [{"id": "mv", "tag": "E"},
                        {"id": "act", "tag": "A", "reward": "p.a"}],
        "arcs": [{"source": "p", "target": "mv"},
                 {"source": "mv", "target": "q",
                  "expr": {"kind": "identity", "from": "p"}},
                 {"source": "hole", "target": "mv"},
                 {"source": "p", "target": "act"}],
        "initial_marking": {
            "p": [{"time": 0.0, "attrs": {"a": 1.0}},
                  {"time": 0.0, "attrs": {"a": 2.0}}],
            "q": [{"time": 0.0, "attrs": {"a": 3.0}}],
        },
        "tag": "A",
        "horizon": 10.0,
    })
    ex, emap = expand(net)
    assert set(ex.places) == {"p#0", "p#1", "q#0", "hole"}
    # the evolution transition appears once, wired to every copy
    assert [t for t in ex.transitions if ex.transitions[t].tag == "E"] == ["mv"]
    assert {(s, t) for s, t in _arc_set(ex) if "mv" in (s, t)} == {
        ("p#0", "mv"), ("p#1", "mv"), ("hole", "mv"), ("mv", "q#0")}
    # two bindings of act, one copy each
    assert {(s, t) for s, t in _arc_set(ex) if "act" in s or "act" in t} == {
        ("p#0", "act#0"), ("p#1", "act#1")}
    assert validate_expanded(ex, emap) == []


def test_guarded_action_only_enabled_bindings_copied():
    net = build_net({
        "places": [{"id": "p", "schema": ["a"]}],
        "transitions": [{"id": "act", "tag": "A", "reward": "p.a",
                         "guard": "p.a > 5"}],
        "arcs": [{"source": "p", "target": "act"}],
        "initial_marking": {"p": [{"time": 0.0, "attrs": {"a": 2.0}},
                                  {"time": 0.0, "attrs": {"a": 7.0}},
                                  {"time": 4.0, "attrs": {"a": 9.0}}]},
        "tag": "A",
        "horizon": 10.0,
    })
    ex, emap = expand(net)
    # a=2 fails the guard, a=9 is not yet available: one binding remains
    assert set(emap.action_origin) == {"act#0"}
    assert emap.action_origin["act#0"][1].assignments["p"].attrs["a"] == 7.0
    assert set(ex.places) == {"p#0", "p#1", "p#2"}  # expansion keeps all tokens


def test_expansion_corpus_invariants():
    for seed in range(60):
        net = random_marked_net(seed)
        before = net.marking_key()
        n_bindings = sum(len(net.enabled_bindings(t))
                         for t in net.transitions
                         if net.transitions[t].tag == "A")
        ex, emap = expand(net)
        assert net.marking_key() == before, f"seed {seed}: source mutated"
        assert all(len(p.tokens) <= 1 for p in ex.places.values()), f"seed {seed}"
        assert ex.marking_key() == before, f"seed {seed}: marking not preserved"
        assert len(emap.action_origin) == n_bindings, f"seed {seed}"
        assert validate_expanded(ex, emap) == [], f"seed {seed}"


def test_expansion_map_serializes():
    ex, emap = expand(_golden())
    assert sorted(t for _, t in emap.place_pairs) == sorted(ex.places)


def test_expanded_net_json_round_trip():
    ex, _ = expand(_golden())
    doc = net_to_json(ex)
    again = build_net(doc)
    assert {p: again.places[p].origin for p in again.places} == \
           {p: ex.places[p].origin for p in ex.places}
    assert again.marking_key() == ex.marking_key()
    assert net_to_json(again) == doc

"""Marked-net semantics: bindings, firing, clock advance, validation, JSON."""
import itertools
import json

import numpy as np
import pytest

import aepn.net as net_mod
from aepn.env import AssignmentEnv, VectorEnv, greedy_policy
from aepn.net import (
    AEPNError,
    LivelockError,
    MarkedAEPN,
    NetValidationError,
    Sampler,
    StaleBindingError,
    TAG_ACTION,
    TagMismatchError,
    build_net,
    net_to_json,
)
from aepn.problems import build_problem
from helpers import random_marked_net


def brute_force_bindings(net, tid):
    """Independent enumeration: every token combination, filtered by
    availability and guard.  Returns a sorted list of binding value keys."""
    tr = net.transitions[tid]
    pids = sorted(p for p in net.places
                  if any(a.source == p and a.target == tid for a in net.arcs))
    pools = [net.places[p].tokens for p in pids]
    keys = []
    for combo in itertools.product(*pools) if pids else []:
        if max(t.time for t in combo) > net.clock:
            continue
        by_origin = {net.places[p].origin: t for p, t in zip(pids, combo)}
        if tr.guard is not None and not tr.guard.evaluate(by_origin, net.clock):
            continue
        keys.append(tuple(sorted((p, t.value_key()) for p, t in zip(pids, combo))))
    return sorted(keys)


def brute_force_advance_target(net):
    """Independent oracle: the earliest enabling time after the clock over
    every token combination whose guard holds at that time, else inf."""
    best = float("inf")
    for tid, tr in net.transitions.items():
        pids = sorted(p for p in net.places
                      if any(a.source == p and a.target == tid for a in net.arcs))
        for combo in itertools.product(*[net.places[p].tokens for p in pids]):
            t = max(tok.time for tok in combo)
            by_origin = {net.places[p].origin: tok for p, tok in zip(pids, combo)}
            if t > net.clock and (tr.guard is None or tr.guard.evaluate(by_origin, t)):
                best = min(best, t)
    return best


def test_binding_enumeration_matches_bruteforce():
    for seed in range(40):
        net = random_marked_net(seed)
        for tid in net.transitions:
            got = sorted(b.value_key() for b in net.enabled_bindings(tid))
            assert got == brute_force_bindings(net, tid), f"seed {seed} {tid}"


def test_clock_advance_target_matches_bruteforce():
    finite = guarded = 0
    for seed in range(60):
        net = random_marked_net(seed)
        for clock in (0.0, 0.5):
            net.clock = clock
            want = brute_force_advance_target(net)
            assert net.clock_advance_target() == want, f"seed {seed} clock {clock}"
            finite += want < float("inf")
            guarded += any(tr.guard is not None for tr in net.transitions.values())
    assert finite > 20 and guarded > 20  # the corpus reaches both branches


def test_binding_order_deterministic():
    for seed in (3, 11, 29):
        net = random_marked_net(seed)
        for tid in net.transitions:
            a = [b.value_key() for b in net.enabled_bindings(tid)]
            b = [b.value_key() for b in net.enabled_bindings(tid)]
            c = [b.value_key() for b in net.clone().enabled_bindings(tid)]
            assert a == b == c


def _one_place_net(times, clock=0.0, guard=None):
    spec = {
        "places": [{"id": "q", "schema": ["a"]}],
        "transitions": [{"id": "t", "tag": "A", "reward": "q.a"}],
        "arcs": [{"source": "q", "target": "t"}],
        "initial_marking": {"q": [{"time": t, "attrs": {"a": v}}
                                  for t, v in times]},
        "tag": "A",
        "horizon": 10.0,
        "clock": clock,
    }
    if guard is not None:
        spec["transitions"][0]["guard"] = guard
    return build_net(spec)


def test_binding_respects_token_availability():
    net = _one_place_net([(0.0, 1.0), (2.0, 2.0)])
    assert [b.assignments["q"].attrs["a"] for b in net.enabled_bindings("t")] == [1.0]
    late = _one_place_net([(0.0, 1.0), (2.0, 2.0)], clock=2.0)
    assert len(late.enabled_bindings("t")) == 2


def test_guard_filters_bindings():
    vals = [(0.0, 2.0), (0.0, 6.0), (0.0, 9.0)]
    net = _one_place_net(vals, guard="q.a > 5")
    assert sorted(b.assignments["q"].attrs["a"]
                  for b in net.enabled_bindings("t")) == [6.0, 9.0]
    net = _one_place_net(vals, guard="q.a > 5 and q.a < 8")
    assert [b.assignments["q"].attrs["a"] for b in net.enabled_bindings("t")] == [6.0]
    assert _one_place_net(vals, guard="clock >= 1").enabled_bindings("t") == []
    assert len(_one_place_net(vals, guard="clock >= 1",
                              clock=1.0).enabled_bindings("t")) == 3


def _golden_net():
    with open("tests/data/two_candidate_net.json", encoding="utf-8") as fh:
        return build_net(json.load(fh))


def test_fire_consumes_produces_and_rewards():
    net = _golden_net()
    pick = [b for b in net.enabled_bindings("start")
            if b.assignments["waiting"].attrs["budget"] == 200.0][0]
    delta = net.fire("start", pick)
    assert delta == 200.0
    assert net.cum_reward == 200.0
    assert [t.attrs["budget"] for t in net.places["waiting"].tokens] == [100.0]
    assert [t.time for t in net.places["resources"].tokens] == [1.0]
    busy = net.places["busy"].tokens
    assert len(busy) == 1 and busy[0].attrs["budget"] == 200.0 and busy[0].time == 1.0


def test_fire_wrong_tag_raises():
    net = _one_place_net([(0.0, 1.0)])
    net.transitions["t"].tag = "E"  # evolution transition, net tag stays A
    with pytest.raises(TagMismatchError):
        net.fire("t", net.enabled_bindings("t")[0])
    net = _one_place_net([(0.0, 1.0)])
    net.tag = "E"  # action transition while the net is in evolution phase
    with pytest.raises(TagMismatchError):
        net.fire("t", net.enabled_bindings("t")[0])


def test_fire_stale_binding_raises():
    net = _one_place_net([(0.0, 1.0)])
    binding = net.enabled_bindings("t")[0]
    net.fire("t", binding)
    with pytest.raises(StaleBindingError):
        net.fire("t", binding)


def test_clock_advances_to_next_enabling():
    net = _one_place_net([(1.5, 1.0), (3.0, 2.0)])
    net.run_until_decision()
    assert net.clock == 1.5 and net.tag == "A"
    assert len(net.enabled_bindings("t")) == 1
    gated = _one_place_net([(1.5, 1.0), (3.0, 2.0)], guard="q.a > 1.5")
    gated.run_until_decision()
    assert gated.clock == 3.0


def _evolution_chain(n_tokens, delay=0.0):
    return build_net({
        "places": [{"id": "p", "schema": ["a"]},
                   {"id": "q", "schema": ["a"]}],
        "transitions": [{"id": "mv", "tag": "E"},
                        {"id": "act", "tag": "A", "reward": "q.a"}],
        "arcs": [{"source": "p", "target": "mv"},
                 {"source": "mv", "target": "q",
                  "expr": {"kind": "identity", "delay": delay}},
                 {"source": "q", "target": "act"}],
        "initial_marking": {"p": [{"time": 0.0, "attrs": {"a": float(i)}}
                                  for i in range(n_tokens)]},
        "tag": "E",
        "horizon": 10.0,
    })


def test_evolution_runs_until_quiescent():
    net = _evolution_chain(3)
    net.run_until_decision()
    assert net.clock == 0.0 and net.tag == "A"
    assert net.places["p"].tokens == []
    assert sorted(t.attrs["a"] for t in net.places["q"].tokens) == [0.0, 1.0, 2.0]


def test_evolution_delay_postpones_decision():
    net = _evolution_chain(1, delay=2.5)
    net.run_until_decision()
    assert net.clock == 2.5 and net.tag == "A"


def test_livelock_detected(monkeypatch):
    monkeypatch.setattr(net_mod, "LIVELOCK_LIMIT", 50)
    net = build_net({
        "places": [{"id": "p", "schema": []}],
        "transitions": [{"id": "spin", "tag": "E"}],
        "arcs": [{"source": "p", "target": "spin"},
                 {"source": "spin", "target": "p", "expr": {"kind": "identity"}}],
        "initial_marking": {"p": [{"time": 0.0, "attrs": {}}]},
        "tag": "E",
        "horizon": 10.0,
    })
    with pytest.raises(LivelockError):
        net.run_until_decision()


def test_action_firings_count_toward_the_livelock_limit(monkeypatch):
    """Corpus net 30: action ``t0`` takes a ``p0`` token and emits a fresh
    one with no delay, so an agent that keeps picking it holds the clock."""
    monkeypatch.setattr(net_mod, "LIVELOCK_LIMIT", 50)
    env = AssignmentEnv(random_marked_net(30), seed=0)
    obs = env.reset()
    for _ in range(50):
        assert obs.pairs[0][0] == "t0"
        obs = env.step(0).observation
        assert env.net.clock == 0.0 and not env.done
    with pytest.raises(LivelockError, match="51 firings at clock 0"):
        env.step(0)
    # the count starts again whenever the clock moves: a p1 episode fires
    # 120 times over 60 clock values
    env = AssignmentEnv(build_problem("p1", horizon=60.0), seed=0)
    obs, steps = env.reset(), 0
    while not env.done:
        obs = env.step(greedy_policy(obs)).observation
        steps += 1
    assert steps == 60


def test_horizon_stops_everything():
    net = _one_place_net([(11.0, 1.0)])
    net.run_until_decision()
    assert net.clock == 10.0
    net.run_until_decision()  # idempotent past the horizon
    assert net.clock == 10.0
    empty = _one_place_net([])
    empty.run_until_decision()
    assert empty.clock == 10.0


def _archive_net(tag, done=0):
    # three tasks, two resources; every ``start`` emits a zero-delay token
    # that the evolution ``archive`` can consume at the same clock
    return build_net({
        "places": [{"id": "waiting", "schema": ["a"]},
                   {"id": "resources", "schema": []},
                   {"id": "done", "schema": []},
                   {"id": "archived", "schema": []}],
        "transitions": [{"id": "start", "tag": "A", "reward": "waiting.a"},
                        {"id": "archive", "tag": "E"}],
        "arcs": [{"source": "waiting", "target": "start"},
                 {"source": "resources", "target": "start"},
                 {"source": "start", "target": "resources",
                  "expr": {"kind": "identity", "from": "resources", "delay": 1.0}},
                 {"source": "start", "target": "done", "expr": {"kind": "emit"}},
                 {"source": "done", "target": "archive"},
                 {"source": "archive", "target": "archived", "expr": {"kind": "emit"}}],
        "initial_marking": {
            "waiting": [{"time": 0.0, "attrs": {"a": float(i)}} for i in range(3)],
            "resources": [{"time": 0.0, "attrs": {}}] * 2,
            "done": [{"time": 0.0, "attrs": {}}] * done},
        "tag": tag,
        "horizon": 10.0,
    })


def test_agent_keeps_the_turn_while_action_bindings_remain():
    net = _archive_net("E")
    pairs = net.run_until_decision()
    assert net.clock == 0.0 and len(pairs) == 6
    net.fire(*pairs[0])
    # the emitted token enables archive, but a resource is still free
    pairs = net.run_until_decision()
    assert net.clock == 0.0 and net.tag == TAG_ACTION and len(pairs) == 2
    assert len(net.places["done"].tokens) == 1 and net.places["archived"].tokens == []
    net.fire(*pairs[0])
    # no action is left: archive fires twice before the next decision
    pairs = net.run_until_decision()
    assert net.clock == 1.0 and len(pairs) == 2
    assert net.places["done"].tokens == [] and len(net.places["archived"].tokens) == 2


def test_run_until_decision_starts_in_the_declared_phase():
    acting = _archive_net("A", done=1)
    assert len(acting.run_until_decision()) == 6
    assert len(acting.places["done"].tokens) == 1  # archive has not fired
    evolving = _archive_net("E", done=1)
    assert len(evolving.run_until_decision()) == 6
    assert evolving.places["done"].tokens == []
    assert len(evolving.places["archived"].tokens) == 1


@pytest.mark.parametrize("env_cls,per_step", [(AssignmentEnv, 2), (VectorEnv, 2)])
def test_turn_pass_walks_the_actions_once(monkeypatch, env_cls, per_step):
    """p2 has one resource, so every step passes the turn.  The net walks
    the action transitions once to find them empty and once at the next
    decision (none when the clock jumps to the horizon; there the terminal
    observation walks).  Both observations reuse the decision's pairs."""
    walks = []
    enabled_bindings = MarkedAEPN.enabled_bindings

    def counting(self, tr):
        if (self.transitions[tr] if isinstance(tr, str) else tr).tag == TAG_ACTION:
            walks.append(tr)
        return enabled_bindings(self, tr)

    monkeypatch.setattr(MarkedAEPN, "enabled_bindings", counting)
    env = env_cls(build_problem("p2"), seed=3)
    for _ in range(3):
        obs = env.reset()
        steps = 0
        while not env.done:
            walks.clear()
            if env_cls is VectorEnv:
                obs = env.step(int(np.flatnonzero(obs[1])[0])).observation
            else:
                obs = env.step(greedy_policy(obs)).observation
            assert len(walks) == (2 if env.done else per_step)
            steps += 1
        assert steps == 10


def test_clone_is_independent():
    net = _golden_net()
    dup = net.clone()
    binding = dup.enabled_bindings("start")[0]
    dup.fire("start", binding)
    assert net.cum_reward == 0.0
    assert len(net.places["waiting"].tokens) == 2
    assert net.marking_key() != dup.marking_key()


@pytest.mark.parametrize("mutate,phrase", [
    (lambda s: s["places"].append({"id": "waiting", "schema": []}), "duplicate place"),
    (lambda s: s["transitions"].append({"id": "start", "tag": "A"}), "duplicate transition"),
    (lambda s: s["initial_marking"]["waiting"].append(
        {"time": 0.0, "attrs": {"wrong": 1}}), "schema"),
    (lambda s: s["initial_marking"]["waiting"].append(
        {"time": -1.0, "attrs": {"type": 0, "budget": 1}}), "negative time"),
    (lambda s: s["arcs"].append({"source": "waiting", "target": "busy"}),
     "join a place and a transition"),
    (lambda s: s["arcs"].append({"source": "waiting", "target": "start",
                                 "expr": {"kind": "identity"}}), "expression"),
    (lambda s: s["arcs"].append({"source": "start", "target": "busy"}),
     "needs an expression"),
    (lambda s: s["arcs"].append({"source": "waiting", "target": "start"}),
     "two input arcs"),
    (lambda s: s["transitions"][0].update(reward="elsewhere.budget"),
     "not one of its input places"),
    (lambda s: s["transitions"][0].update(guard="waiting.missing > 0"),
     "unknown attribute"),
    (lambda s: s["arcs"][2]["expr"].update({"from": "resources"}), "attrs"),
    (lambda s: s["arcs"][2]["expr"].update({"delay": "busy.budget"}),
     "not one of its input places"),
    (lambda s: s["transitions"][0].update(guard="what even"), "guard"),
    (lambda s: s["transitions"][0].update(tag="X"), "tag"),
    (lambda s: s.update(horizon=0.0), "horizon"),
    (lambda s: s["arcs"][2]["expr"]["attrs"].update(
        {"budget": {"dist": "zipf", "value": 1}}), "distribution"),
    (lambda s: s["arcs"][2]["expr"]["attrs"].update(
        {"budget": {"dist": "exponential", "rate": 0}}), "rate"),
    (lambda s: s["arcs"][2]["expr"]["attrs"].update(
        {"budget": {"dist": "exponential", "rate": float("nan")}}), "finite"),
    (lambda s: s["arcs"][2]["expr"]["attrs"].update(
        {"budget": float("inf")}), "finite"),
    (lambda s: s["arcs"][2]["expr"]["attrs"].update(
        {"budget": {"dist": "normal", "mean": 1, "std": -1}}), "std"),
    (lambda s: s["arcs"][2]["expr"].update(
        {"delay": {"dist": "uniform", "low": 2, "high": 1}}), "low"),
    (lambda s: s["initial_marking"].update(ghost=[]), "unknown place"),
    (lambda s: s["places"].append({"id": "bad id", "schema": []}), "bad place id"),
    (lambda s: s["transitions"].append({"id": "idle", "tag": "E"}), "no input places"),
])
def test_validation_rejects_bad_specs(mutate, phrase):
    with open("tests/data/two_candidate_net.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    # give arc 2 (start->busy) an attrs dict some mutations extend
    spec["arcs"][2]["expr"].setdefault("attrs", {})
    mutate(spec)
    with pytest.raises(NetValidationError, match=phrase):
        build_net(spec)


@pytest.mark.parametrize("delay", [{"dist": "normal", "mean": 0, "std": 5}, "p.a"])
def test_negative_delay_raises(delay):
    # seed 4 draws -3.26 from normal(0, 5); the referenced delay p.a is -2
    net = build_net({
        "places": [{"id": "p", "schema": ["a"]}, {"id": "q", "schema": ["a"]}],
        "transitions": [{"id": "t", "tag": "A"}],
        "arcs": [{"source": "p", "target": "t"},
                 {"source": "t", "target": "q",
                  "expr": {"kind": "identity", "delay": delay}}],
        "initial_marking": {"p": [{"time": 0.0, "attrs": {"a": -2.0}}]},
        "tag": "A", "horizon": 10.0, "clock": 5.0, "seed": 4})
    (binding,) = net.enabled_bindings("t")
    with pytest.raises(AEPNError, match="negative delay"):
        net.fire("t", binding)


def test_json_round_trip_on_corpus():
    for seed in range(25):
        net = random_marked_net(seed)
        doc = net_to_json(net)
        again = build_net(doc)
        assert net_to_json(again) == doc
        assert again.marking_key() == net.marking_key()


def test_json_preserves_clock_and_reward():
    net = _one_place_net([(0.0, 1.0)])
    net.fire("t", net.enabled_bindings("t")[0])
    net.clock = 3.5
    doc = net_to_json(net)
    again = build_net(doc)
    assert again.clock == 3.5 and again.cum_reward == 1.0


def test_sampler_behaviour():
    rng = np.random.default_rng(0)
    assert Sampler.parse(4).draw(rng, 0.0) == 4.0
    uni = Sampler.parse({"dist": "uniform", "low": 2, "high": 5})
    draws = [uni.draw(rng, 0.0) for _ in range(2000)]
    assert all(2 <= d < 5 for d in draws)
    assert abs(np.mean(draws) - 3.5) < 0.1
    exp = Sampler.parse({"dist": "exponential", "rate": 2.0})
    draws = np.array([exp.draw(rng, 0.0) for _ in range(20000)])
    assert (draws >= 0).all() and abs(draws.mean() - 0.5) < 0.02
    nrm = Sampler.parse({"dist": "normal", "mean": 10, "std": 2})
    draws = np.array([nrm.draw(rng, 0.0) for _ in range(20000)])
    assert abs(draws.mean() - 10) < 0.1 and abs(draws.std() - 2) < 0.1
    rounded = Sampler.parse({"dist": "uniform", "low": 0, "high": 1, "round": 2})
    for _ in range(200):
        v = rounded.draw(rng, 0.0)
        assert abs(v * 100 - round(v * 100)) < 1e-9
    shifted = Sampler.parse({"dist": "constant", "value": 1.5, "plus_clock": True})
    assert shifted.draw(rng, 7.0) == 8.5


def test_sampler_json_round_trip():
    for spec in (3, {"dist": "uniform", "low": 1, "high": 2, "round": 2},
                 {"dist": "normal", "mean": 0, "std": 1},
                 {"dist": "exponential", "rate": 0.5, "plus_clock": True}):
        s = Sampler.parse(spec)
        assert Sampler.parse(s.to_json()) == s


def _stochastic_net(seed):
    return build_net({
        "places": [{"id": "src", "schema": []}, {"id": "q", "schema": ["a"]}],
        "transitions": [{"id": "gen", "tag": "E"},
                        {"id": "take", "tag": "A", "reward": "q.a"}],
        "arcs": [{"source": "src", "target": "gen"},
                 {"source": "gen", "target": "src",
                  "expr": {"kind": "identity", "delay": 1.0}},
                 {"source": "gen", "target": "q",
                  "expr": {"kind": "emit",
                           "attrs": {"a": {"dist": "normal", "mean": 5, "std": 2}}}},
                 {"source": "q", "target": "take"}],
        "initial_marking": {"src": [{"time": 0.0, "attrs": {}}]},
        "tag": "E",
        "horizon": 10.0,
        "seed": seed,
    })


def _greedy_rollout(net):
    trail = []
    pairs = net.run_until_decision()
    while pairs:
        tr, binding = max(pairs, key=lambda tb: tb[1].assignments["q"].attrs["a"])
        net.fire(tr, binding)
        trail.append((net.clock, round(net.cum_reward, 9)))
        pairs = net.run_until_decision()
    return trail


def test_same_seed_same_trajectory():
    a = _greedy_rollout(_stochastic_net(123))
    b = _greedy_rollout(_stochastic_net(123))
    c = _greedy_rollout(_stochastic_net(321))
    assert a == b
    assert a != c


@pytest.mark.parametrize("problem", ["p1", "p2", "p3"])
def test_run_until_decision_returns_the_decision_pairs(problem):
    rng = np.random.default_rng(0)
    for seed in range(3):
        net = build_problem(problem, horizon=15.0).clone()
        net.reseed(seed)
        decisions = 0
        while True:
            pairs = net.run_until_decision()
            if net.clock >= net.horizon:
                assert pairs == []  # the horizon is no decision
                break
            want = net.enabled_pairs(TAG_ACTION)
            assert pairs and net.tag == TAG_ACTION
            assert ([(tr.id, b.value_key()) for tr, b in pairs]
                    == [(tr.id, b.value_key()) for tr, b in want])
            tr, binding = pairs[int(rng.integers(len(pairs)))]
            net.fire(tr, binding)  # the handed-down tokens are the live ones
            decisions += 1
        assert decisions > 5


def test_clock_advance_target_prefers_earliest():
    net = _one_place_net([(2.0, 1.0), (3.0, 2.0)])
    assert net.clock_advance_target() == 2.0
    gated = _one_place_net([(2.0, 1.0), (3.0, 2.0)], guard="q.a > 1.5")
    assert gated.clock_advance_target() == 3.0
    idle = _one_place_net([])
    assert idle.clock_advance_target() == float("inf")

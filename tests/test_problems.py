"""Benchmark nets: arrival patterns, budget grids, expiry, configurability."""
import numpy as np
import pytest

from aepn.env import AssignmentEnv, greedy_policy, random_policy
from aepn.net import TAG_ACTION, build_net
from aepn.problems import build_problem, build_problem3


def run_episode(env, policy, rng=None):
    obs = env.reset()
    total = 0.0
    while True:
        res = env.step(policy(obs, rng))
        total += res.reward
        obs = res.observation
        if res.done:
            return total


def waiting_tokens(obs):
    toks = []
    for _, binding in obs.pairs:
        toks.append(binding.assignments["waiting"])
    return toks


def test_p1_constant_budgets_and_types():
    env = AssignmentEnv(build_problem("p1"), seed=0)
    obs = env.reset()
    seen = set()
    while True:
        for tok in waiting_tokens(obs):
            seen.add((tok.attrs["type"], tok.attrs["budget"]))
        res = env.step(0)
        obs = res.observation
        if res.done:
            break
    assert seen == {(0.0, 100.0), (1.0, 200.0)}


def test_p1_greedy_is_deterministic_optimum():
    env = AssignmentEnv(build_problem("p1"), seed=42)
    assert [run_episode(env, greedy_policy) for _ in range(20)] == [2000.0] * 20


def test_p2_budget_grid():
    env = AssignmentEnv(build_problem("p2"), seed=1)
    rng = np.random.default_rng(0)
    lows, highs = [], []
    for _ in range(30):
        obs = env.reset()
        while True:
            for tok in waiting_tokens(obs):
                b, kind = tok.attrs["budget"], tok.attrs["type"]
                assert abs(b * 100 - round(b * 100)) < 1e-6, "off the cent grid"
                if kind == 0.0:
                    assert 70.0 <= b <= 130.0
                    lows.append(b)
                else:
                    assert 170.0 <= b <= 230.0
                    highs.append(b)
            res = env.step(random_policy(obs, rng))
            obs = res.observation
            if res.done:
                break
    assert len(set(lows)) > 50 and len(set(highs)) > 50  # really sampled
    assert abs(np.mean(lows) - 100.0) < 3.0
    assert abs(np.mean(highs) - 200.0) < 3.0


def test_p3_schema_and_arrivals():
    net = build_problem("p3")
    assert net.color_spec is None
    assert net.places["waiting"].schema == ("type", "budget", "window_end")
    assert net.places["resources"].schema == ("proc_time",)
    env = AssignmentEnv(net, seed=7)
    rng = np.random.default_rng(2)
    budgets = {0.0: [], 1.0: []}
    for _ in range(20):
        obs = env.reset()
        while True:
            for tok in waiting_tokens(obs):
                budgets[tok.attrs["type"]].append(tok.attrs["budget"])
                assert tok.attrs["window_end"] >= obs.clock  # expiry enforced
            res = env.step(random_policy(obs, rng))
            obs = res.observation
            if res.done:
                break
    assert abs(np.mean(budgets[0.0]) - 100.0) < 5.0
    assert abs(np.mean(budgets[1.0]) - 200.0) < 5.0
    assert np.std(budgets[0.0]) < 20.0


def test_p3_expiry_fires_during_episodes():
    env = AssignmentEnv(build_problem("p3"), seed=11)
    rng = np.random.default_rng(3)
    expired = 0
    for _ in range(10):
        obs = env.reset()
        original = env.net.fire

        def counting_fire(tr, binding, _orig=original):
            nonlocal expired
            tid = tr if isinstance(tr, str) else tr.id
            if tid == "expire":
                expired += 1
            return _orig(tr, binding)

        env.net.fire = counting_fire
        while True:
            res = env.step(random_policy(obs, rng))
            obs = res.observation
            if res.done:
                break
    assert expired > 0  # windows really lapse under a careless policy


def test_expiry_removes_task_before_next_decision():
    # one task whose window lapses while the only resource is busy: by the
    # next decision it is gone and only the later arrival can be assigned
    net = build_net({
        "places": [{"id": "waiting", "schema": ["budget", "window_end"]},
                   {"id": "resources", "schema": []}],
        "transitions": [
            {"id": "start", "tag": "A", "reward": "waiting.budget"},
            {"id": "expire", "tag": "E",
             "guard": "clock > waiting.window_end"}],
        "arcs": [
            {"source": "waiting", "target": "start"},
            {"source": "resources", "target": "start"},
            {"source": "start", "target": "resources",
             "expr": {"kind": "identity", "from": "resources", "delay": 1.0}},
            {"source": "waiting", "target": "expire"}],
        "initial_marking": {
            "waiting": [
                {"time": 0.0, "attrs": {"budget": 50.0, "window_end": 1.0}},
                {"time": 2.0, "attrs": {"budget": 60.0, "window_end": 10.0}}],
            "resources": [{"time": 2.0, "attrs": {}}]},
        "tag": "E", "horizon": 10.0,
    })
    net.run_until_decision()
    assert net.clock == 2.0
    pairs = net.enabled_pairs(TAG_ACTION)
    assert len(pairs) == 1
    assert pairs[0][1].assignments["waiting"].attrs["budget"] == 60.0
    assert [t.attrs["budget"] for t in net.places["waiting"].tokens] == [60.0]


def test_p3_processing_times_configurable():
    assert sorted(t.attrs["proc_time"] for t in
                  build_problem3().places["resources"].tokens) == [1.0, 2.0]
    custom = build_problem3(proc_times=(0.5, 1.5))
    assert sorted(t.attrs["proc_time"] for t in
                  custom.places["resources"].tokens) == [0.5, 1.5]


def test_p3_service_occupies_resource_for_proc_time():
    net = build_problem("p3").clone()
    net.reseed(5)
    net.run_until_decision()
    tr, binding = net.enabled_pairs(TAG_ACTION)[0]
    proc = binding.assignments["resources"].attrs["proc_time"]
    clock = net.clock
    net.fire(tr, binding)
    returned = [t for t in net.places["resources"].tokens
                if t.time > clock]
    assert any(abs(t.time - (clock + proc)) < 1e-12 and
               t.attrs["proc_time"] == proc for t in returned)


def test_unknown_problem_rejected():
    with pytest.raises(ValueError, match="unknown problem"):
        build_problem("p9")


def test_horizon_parameter():
    assert build_problem("p1", horizon=5.0).horizon == 5.0
    env = AssignmentEnv(build_problem("p1", horizon=5.0), seed=0)
    assert run_episode(env, greedy_policy) == 1000.0

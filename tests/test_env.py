"""Environments: graph view, trace accounting, policies, vector view."""
import csv

import numpy as np
import pytest

import aepn.env as env_mod
from aepn.env import (
    AssignmentEnv,
    NotRepresentableError,
    VectorEnv,
    greedy_policy,
    random_policy,
    vector_action_table,
    vector_observation,
    write_trace_csv,
)
from aepn.net import AEPNError, Token, build_net
from aepn.problems import build_problem


def run_episode(env, policy, rng=None):
    obs = env.reset()
    total, rewards = 0.0, []
    while True:
        res = env.step(policy(obs, rng))
        total += res.reward
        rewards.append(res.reward)
        obs = res.observation
        if res.done:
            return total, rewards


def test_p1_greedy_episode_shape():
    env = AssignmentEnv(build_problem("p1"), seed=0)
    for _ in range(3):
        total, rewards = run_episode(env, greedy_policy)
        assert total == 2000.0
        assert rewards == [200.0] * 10
    clocks = [row[2] for row in env.trace_rows]
    assert clocks == [float(c) for c in range(10)] * 3


def test_observation_contract():
    env = AssignmentEnv(build_problem("p1"), seed=0)
    obs = env.reset()
    assert obs.clock == 0.0
    assert len(obs.action_node_ids) == 2
    assert set(obs.provenance.action_origin) == set(obs.action_node_ids)
    assert set(obs.action_node_ids) <= set(obs.graph.node_ids())


def test_step_errors():
    env = AssignmentEnv(build_problem("p1"), seed=0)
    with pytest.raises(AEPNError):
        env.step("start#0")  # before reset
    obs = env.reset()
    with pytest.raises(AEPNError):
        env.step("nonsense")
    with pytest.raises(AEPNError):
        env.step(obs.graph.node_ids()[0])  # a place node is not an action
    while True:
        res = env.step(obs.action_node_ids[0])
        obs = res.observation
        if res.done:
            break
    with pytest.raises(AEPNError):
        env.step("start#0")  # after the horizon


def test_reward_sum_matches_net_tally():
    env = AssignmentEnv(build_problem("p2"), seed=3)
    total, rewards = run_episode(env, greedy_policy)
    assert total == pytest.approx(env.net.cum_reward)
    assert total == pytest.approx(sum(rewards))


def test_trace_csv(tmp_path):
    env = AssignmentEnv(build_problem("p1"), seed=0)
    run_episode(env, greedy_policy)
    path = tmp_path / "trace.csv"
    write_trace_csv(env.trace_rows, path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["episode", "step", "clock", "action", "reward"]
    assert len(rows) == 11
    assert rows[1][3].startswith("start#")


def test_env_determinism():
    def collect(seed):
        env = AssignmentEnv(build_problem("p2"), seed=seed)
        rng = np.random.default_rng(0)
        for _ in range(2):
            run_episode(env, random_policy, rng)
        return env.trace_rows

    assert collect(5) == collect(5)
    assert collect(5) != collect(6)


def test_actionless_net_finishes_immediately():
    env = AssignmentEnv(build_net({
        "places": [{"id": "p", "schema": []}],
        "transitions": [{"id": "tick", "tag": "E"}],
        "arcs": [{"source": "p", "target": "tick"},
                 {"source": "tick", "target": "p",
                  "expr": {"kind": "identity", "delay": 1.0}}],
        "initial_marking": {"p": [{"time": 0.0, "attrs": {}}]},
        "tag": "E", "horizon": 3.0,
    }), seed=0)
    env.reset()
    assert env.done


def test_greedy_prefers_largest_budget():
    env = AssignmentEnv(build_problem("p1"), seed=0)
    obs = env.reset()
    nid = greedy_policy(obs)
    _, binding = obs.provenance.action_origin[nid]
    assert binding.assignments["waiting"].attrs["budget"] == 200.0


def test_random_policy_uniform():
    env = AssignmentEnv(build_problem("p1"), seed=0)
    obs = env.reset()
    rng = np.random.default_rng(1)
    picks = [random_policy(obs, rng) for _ in range(4000)]
    for nid in obs.action_node_ids:
        share = picks.count(nid) / len(picks)
        assert abs(share - 0.5) < 0.03


# -- fixed-length (vector) interface ---------------------------------------


def test_vector_observation_counts():
    net = build_problem("p1").clone()
    net.reseed(0)
    net.run_until_decision()
    vec = vector_observation(net)
    # waiting (type0, type1), resources, busy (type0, type1), arrival
    assert vec.tolist() == [1.0, 1.0, 1.0, 0.0, 0.0, 1.0]


def test_vector_observation_range_buckets():
    net = build_net({
        "places": [{"id": "q", "schema": ["a"]}],
        "transitions": [{"id": "t", "tag": "A", "reward": "q.a"}],
        "arcs": [{"source": "q", "target": "t"}],
        "initial_marking": {"q": [{"time": 0.0, "attrs": {"a": 0.4}},
                                  {"time": 0.0, "attrs": {"a": 1.2}},
                                  {"time": 0.0, "attrs": {"a": 1.9}}]},
        "tag": "A", "horizon": 10.0,
        "color_spec": {"q": [{"a": {"min": 0, "max": 1}},
                             {"a": {"min": 1, "max": 2}}]},
    })
    assert vector_observation(net).tolist() == [1.0, 2.0]


def test_vector_requires_color_spec():
    p3 = build_problem("p3")
    assert p3.color_spec is None
    with pytest.raises(NotRepresentableError):
        vector_observation(p3)
    with pytest.raises(NotRepresentableError):
        vector_action_table(p3)
    with pytest.raises(NotRepresentableError):
        VectorEnv(p3, seed=0)


def test_vector_envs_share_tables_per_template():
    template = build_problem("p2")
    a, b = VectorEnv(template, seed=0), VectorEnv(template, seed=1)
    assert a.actions is b.actions
    assert a._index is b._index
    assert a._color_index is b._color_index
    other = VectorEnv(build_problem("p2"), seed=0)
    assert other.actions is not a.actions and other.actions == a.actions
    p3 = build_problem("p3")
    with pytest.raises(NotRepresentableError):
        VectorEnv(p3, seed=0)
    assert p3 not in env_mod._VECTOR_TABLES


def test_vector_token_outside_colors_rejected():
    net = build_problem("p1").clone()
    net.places["waiting"].tokens.append(Token({"type": 9.0, "budget": 1.0}))
    with pytest.raises(NotRepresentableError):
        vector_observation(net)


def test_vector_env_episode_matches_graph_env():
    tv = VectorEnv(build_problem("p1"), seed=0)
    vec, mask = tv.reset()
    assert vec.shape == (tv.obs_dim,)
    assert mask.tolist() == [True, True]
    total = 0.0
    done = False
    while not done:
        idx = int(np.flatnonzero(mask)[-1])  # waiting bucket 1 = budget 200
        vec, mask, reward, done, info = tv.step(idx)
        total += reward
    assert total == 2000.0


def test_vector_env_disabled_action_raises():
    tv = VectorEnv(build_problem("p1"), seed=0)
    _, mask = tv.reset()
    assert mask.all()
    done = False
    while not done:
        _, mask, _, done, _ = tv.step(int(np.flatnonzero(mask)[0]))
    with pytest.raises(AEPNError):
        tv.step(0)


def test_vector_action_table_layout():
    table = vector_action_table(build_problem("p1"))
    assert table == [("start", (("resources", 0), ("waiting", 0))),
                     ("start", (("resources", 0), ("waiting", 1)))]

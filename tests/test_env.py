"""Environments: graph view, trace accounting, policies, vector view."""
import csv

import numpy as np
import pytest

import aepn.env as env_mod
from aepn.env import (
    AssignmentEnv,
    NotRepresentableError,
    StepResult,
    VectorEnv,
    action_node_ids,
    greedy_policy,
    random_policy,
    vector_action_table,
    vector_observation,
    write_trace_csv,
    _bucket_matches,
    _ColorIndex,
)
from aepn.expand import expand
from aepn.graph import map_to_graph
from aepn.net import AEPNError, Token, build_net
from aepn.problems import build_problem


def run_episode(env, policy, rng=None, rows=None):
    """Play one episode; append its trace rows to ``rows`` when given."""
    obs = env.reset()
    total, rewards = 0.0, []
    while True:
        k = policy(obs, rng)
        res = env.step(k)
        if rows is not None:
            node = action_node_ids(obs.pairs)[k]
            rows.append((env.episode, res.info["step"], obs.clock, node, res.reward))
        total += res.reward
        rewards.append(res.reward)
        obs = res.observation
        if res.done:
            return total, rewards


def test_p1_greedy_episode_shape():
    env = AssignmentEnv(build_problem("p1"), seed=0)
    rows = []
    for _ in range(3):
        total, rewards = run_episode(env, greedy_policy, rows=rows)
        assert total == 2000.0
        assert rewards == [200.0] * 10
    clocks = [row[2] for row in rows]
    assert clocks == [float(c) for c in range(10)] * 3


def test_observation_contract():
    env = AssignmentEnv(build_problem("p1"), seed=0)
    obs = env.reset()
    assert obs.clock == 0.0
    assert len(obs.pairs) == 2
    assert obs.graph.n_actions == 2
    assert action_node_ids(obs.pairs) == ["start#0", "start#1"]
    assert {tid for tid, _ in obs.pairs} == {"start"}


def test_step_errors():
    env = AssignmentEnv(build_problem("p1"), seed=0)
    with pytest.raises(AEPNError):
        env.step(0)  # before reset
    obs = env.reset()
    # node ids, negative and out-of-range indices are no actions
    for bad in ("nonsense", "waiting#0", action_node_ids(obs.pairs)[0],
                -1, len(obs.pairs), 1.0):
        with pytest.raises(AEPNError, match="not enabled"):
            env.step(bad)
    while True:
        res = env.step(np.int64(0))
        obs = res.observation
        if res.done:
            break
    with pytest.raises(AEPNError):
        env.step(0)  # after the horizon

    tv = VectorEnv(build_problem("p2"), seed=0)
    _, mask = tv.reset()
    for bad in ("start#0", -1, tv.n_actions, int(np.flatnonzero(~mask)[0])):
        with pytest.raises(AEPNError, match="not enabled"):
            tv.step(bad)
    tv.step(int(np.flatnonzero(mask)[0]))


@pytest.mark.parametrize("problem", ["p1", "p2", "p3"])
def test_action_k_is_the_kth_action_node(problem):
    env = AssignmentEnv(build_problem(problem, horizon=6.0), seed=1)
    rng = np.random.default_rng(1)
    checked = terminal = 0
    for _ in range(2):
        obs = env.reset()
        while True:
            # also the terminal observation, which shows the bindings enabled
            # at the horizon
            expanded, emap = expand(env.net)
            graph, _ = map_to_graph(expanded, emap)
            node_ids = graph.action_node_ids()
            assert action_node_ids(obs.pairs) == node_ids
            assert len(obs.pairs) == len(node_ids)
            for k, (tid, binding) in enumerate(obs.pairs):
                want_tid, want = emap.action_origin[node_ids[k]]
                assert tid == want_tid
                assert binding.assignments.keys() == want.assignments.keys()
                assert all(tok is want.assignments[pid]
                           for pid, tok in binding.assignments.items())
                checked += 1
            if env.done:
                terminal += len(obs.pairs)
                break
            obs = env.step(random_policy(obs, rng)).observation
    assert checked > 0 and terminal > 0


def test_greedy_ties_break_by_node_id_string():
    budgets = [100.0] * 12
    budgets[2] = budgets[10] = 200.0
    env = AssignmentEnv(build_net({
        "places": [{"id": "waiting", "schema": ["budget"]},
                   {"id": "resources", "schema": []}],
        "transitions": [{"id": "start", "tag": "A", "reward": "waiting.budget"}],
        "arcs": [{"source": "waiting", "target": "start"},
                 {"source": "resources", "target": "start"}],
        "initial_marking": {
            "waiting": [{"time": 0.0, "attrs": {"budget": b}} for b in budgets],
            "resources": [{"time": 0.0, "attrs": {}}]},
        "tag": "A", "horizon": 10.0,
    }), seed=0)
    obs = env.reset()
    assert [b.assignments["waiting"].attrs["budget"] for _, b in obs.pairs] == budgets
    # "start#10" < "start#2", so index 10 wins the tie, not index 2
    assert greedy_policy(obs) == 10


def test_reward_sum_matches_net_tally():
    env = AssignmentEnv(build_problem("p2"), seed=3)
    total, rewards = run_episode(env, greedy_policy)
    assert total == pytest.approx(env.net.cum_reward)
    assert total == pytest.approx(sum(rewards))


def test_trace_csv(tmp_path):
    env = AssignmentEnv(build_problem("p1"), seed=0)
    rows = []
    run_episode(env, greedy_policy, rows=rows)
    path = tmp_path / "trace.csv"
    write_trace_csv(rows, path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["episode", "step", "clock", "action", "reward"]
    assert len(rows) == 11
    assert rows[1][3].startswith("start#")


def test_env_determinism():
    def collect(seed):
        env = AssignmentEnv(build_problem("p2"), seed=seed)
        rng = np.random.default_rng(0)
        rows = []
        for _ in range(2):
            run_episode(env, random_policy, rng, rows)
        return rows

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
    _, binding = obs.pairs[greedy_policy(obs)]
    assert binding.assignments["waiting"].attrs["budget"] == 200.0


def test_random_policy_uniform():
    env = AssignmentEnv(build_problem("p1"), seed=0)
    obs = env.reset()
    rng = np.random.default_rng(1)
    picks = [random_policy(obs, rng) for _ in range(4000)]
    for k in range(len(obs.pairs)):
        share = picks.count(k) / len(picks)
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
        res = tv.step(idx)
        (vec, mask), done = res.observation, res.done
        total += res.reward
    assert total == 2000.0


def test_vector_env_disabled_action_raises():
    tv = VectorEnv(build_problem("p1"), seed=0)
    _, mask = tv.reset()
    assert mask.all()
    done = False
    while not done:
        res = tv.step(int(np.flatnonzero(mask)[0]))
        (_, mask), done = res.observation, res.done
    with pytest.raises(AEPNError):
        tv.step(0)


def test_vector_action_table_layout():
    table = vector_action_table(build_problem("p1"))
    assert table == [("start", (("resources", 0), ("waiting", 0))),
                     ("start", (("resources", 0), ("waiting", 1)))]


def test_step_outside_an_episode_raises_on_both_envs():
    for env in (AssignmentEnv(build_problem("p1"), seed=0),
                VectorEnv(build_problem("p1"), seed=0)):
        with pytest.raises(AEPNError, match="finished episode"):
            env.step(0)  # before reset
        obs = env.reset()
        n = len(obs.pairs) if isinstance(env, AssignmentEnv) else env.n_actions
        for bad in ("start#0", -1, n):
            with pytest.raises(AEPNError, match="not enabled"):
                env.step(bad)
        while not env.done:
            res = env.step(0)
            assert isinstance(res, StepResult)
        with pytest.raises(AEPNError, match="finished episode"):
            env.step(0)  # after the horizon


@pytest.mark.parametrize("problem", ["p1", "p2"])
def test_vector_view_equals_graph_provenance_definition(problem):
    # the vector view reads the net's enabled bindings; its old definition
    # keyed the action nodes of the graph view through their provenance.
    # p1 queues many same-colored tasks, so the FIFO claim is exercised
    template = build_problem(problem, horizon=15.0)
    terminal_actions = 0
    for seed in range(3):
        tv, ta = VectorEnv(template, seed=seed), AssignmentEnv(template, seed=seed)
        colors = tv._color_index

        def key(j):
            tid, binding = obs.pairs[j]
            return (tid, tuple((pid, colors[pid].find(tok))
                               for pid, tok in sorted(binding.assignments.items())))

        rng = np.random.default_rng(seed)
        for _ in range(2):
            (vec, mask), obs = tv.reset(), ta.reset()
            while True:
                # also at the terminal observation, which shows the bindings
                # enabled at the horizon
                keys = [key(j) for j in range(len(obs.pairs))]
                assert set(np.flatnonzero(mask)) == {tv._index[k] for k in keys}
                assert np.array_equal(vec, vector_observation(ta.net, colors))
                assert np.array_equal(vec, vector_observation(tv.net, colors))
                if tv.done:
                    terminal_actions += bool(keys)
                    break
                k = int(rng.choice(np.flatnonzero(mask)))
                j = keys.index(tv.actions[k])
                want_tid, want = obs.pairs[j]
                tid, binding = tv._choices[k]
                assert (tid, binding.value_key()) == (want_tid, want.value_key())
                rv, ra = tv.step(k), ta.step(j)
                assert (rv.reward, rv.done, rv.info) == (ra.reward, ra.done, ra.info)
                (vec, mask), obs = rv.observation, ra.observation
    assert terminal_actions > 0


def test_color_index_matches_first_match_scan():
    rng = np.random.default_rng(0)
    values = [0.0, 1.0, 2.0, 3.0]

    def random_bucket():
        kind = rng.integers(4)
        if kind == 0:
            return {}
        bucket = {}
        for attr in rng.permutation(["a", "b"])[:rng.integers(1, 3)]:
            if kind == 1 or (kind == 3 and rng.random() < 0.5):
                bucket[str(attr)] = float(rng.choice(values))
            else:
                lo = float(rng.choice(values))
                bucket[str(attr)] = {"min": lo, "max": lo + float(rng.integers(1, 3))}
        return bucket

    def exact(bucket):
        return not any(isinstance(v, dict) for v in bucket.values())

    misses = ranged_first = 0
    for _ in range(300):
        buckets = [random_bucket() for _ in range(rng.integers(1, 7))]
        if rng.random() < 0.5:
            buckets = [b for b in buckets if b != {}]  # let some tokens miss
        index = _ColorIndex(buckets)
        for _ in range(40):
            attrs = {attr: float(rng.choice(values + [0.5, 2.5, 4.0]))
                     for attr in ("a", "b") if rng.random() < 0.8}
            tok = Token(attrs)
            want = next((i for i, b in enumerate(buckets) if _bucket_matches(b, tok)),
                        None)
            assert index.find(tok) == want, (buckets, attrs)
            misses += want is None
            # a range bucket listed before an exact one that also matches
            ranged_first += want is not None and not exact(buckets[want]) and any(
                exact(b) and _bucket_matches(b, tok) for b in buckets[want + 1:])
    assert misses > 100 and ranged_first > 100

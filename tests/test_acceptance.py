"""Acceptance gate: baselines, trained policies, corpus-scale semantics,
and numeric invariants of the learning stack.

Each check prints one verdict line (written through pytest's capture so it
always reaches the console) before asserting.  The training checks fit real
policies at fixed seeds; the whole file takes roughly twenty minutes.
"""
import time

import numpy as np
import pytest

from aepn.env import (NotRepresentableError, VectorEnv, greedy_policy,
                      random_policy)
from aepn.expand import expand, validate_expanded
from aepn.graph import (AssignmentGraph, deserialize, map_to_graph, serialize,
                        validate_graph)
from aepn.nn.models import GraphActorCritic, graph_registry
from aepn.nn.tensor import no_grad
from aepn.ppo import PPOConfig, compute_gae, evaluate, train
from aepn.problems import build_problem
from helpers import (brute_force_gae, collect_observations, expected_counts,
                     random_marked_net)


def verdict(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}")


def test_01_p1_greedy_is_optimal(capsys):
    t0 = time.perf_counter()
    mean, std, _ = evaluate(greedy_policy, "p1", episodes=100, seed=11)
    dt = time.perf_counter() - t0
    ok = mean == 2000.0 and std == 0.0 and dt < 5.0
    verdict(capsys, 1, ok,
            f"p1 greedy: mean {mean:.1f}, std {std:.1f} over 100 episodes "
            f"in {dt:.1f}s (want 2000 / 0 within 5s)")
    assert ok


def test_02_p1_random_baseline_band(capsys):
    t0 = time.perf_counter()
    mean, std, _ = evaluate(random_policy, "p1", episodes=1000, seed=23)
    dt = time.perf_counter() - t0
    ok = 1250.0 <= mean <= 1450.0 and dt < 10.0
    verdict(capsys, 2, ok,
            f"p1 random: mean {mean:.1f} +- {std:.1f} over 1000 episodes "
            f"in {dt:.1f}s (want mean in [1250, 1450] within 10s)")
    assert ok, f"random baseline mean {mean:.1f} outside [1250, 1450]"


@pytest.mark.slow
def test_03_p1_training_reaches_optimum(capsys):
    t0 = time.perf_counter()
    cfg = PPOConfig(total_updates=30, eval_every=5, eval_episodes=50,
                    target_return=1999.0, seed=3)
    model, _, steps = train("p1", cfg, algo="graph")
    mean, std, _ = evaluate(model, "p1", episodes=200, seed=1003, argmax=True)
    dt = time.perf_counter() - t0
    ok = mean >= 1950.0 and steps <= 200_000 and dt < 1800.0
    verdict(capsys, 3, ok,
            f"p1 graph policy: argmax mean {mean:.1f} +- {std:.1f} after "
            f"{steps} decision steps in {dt:.0f}s (want >= 1950 within 2e5 steps)")
    assert ok


def test_04_p2_greedy_band(capsys):
    mean, std, _ = evaluate(greedy_policy, "p2", episodes=1000, seed=41)
    ok = 1940.0 <= mean <= 2060.0 and 35.0 <= std <= 75.0
    verdict(capsys, 4, ok,
            f"p2 greedy: mean {mean:.1f} +- {std:.1f} over 1000 episodes "
            f"(want mean in [1940, 2060], std in [35, 75])")
    assert ok


@pytest.mark.slow
def test_05_p2_graph_beats_vector_at_matched_budget(capsys):
    cfg_g = PPOConfig(total_updates=60, eval_every=10, eval_episodes=50, seed=5)
    model_g, _, steps_g = train("p2", cfg_g, algo="graph")
    cfg_v = PPOConfig(total_updates=60, eval_every=10, eval_episodes=50, seed=5)
    model_v, _, steps_v = train("p2", cfg_v, algo="vector")
    mean_g, std_g, _ = evaluate(model_g, "p2", episodes=200, seed=1005,
                                argmax=True)
    mean_v, std_v, _ = evaluate(model_v, "p2", episodes=200, seed=1005,
                                argmax=True, algo="vector")
    ok = steps_g == steps_v and mean_g >= 1900.0 and mean_g - mean_v >= 100.0
    verdict(capsys, 5, ok,
            f"p2 at {steps_g} decision steps each: graph {mean_g:.1f} +- "
            f"{std_g:.1f} vs vector {mean_v:.1f} +- {std_v:.1f} "
            f"(want graph >= 1900 and gap >= 100)")
    assert ok


@pytest.mark.slow
def test_06_p3_beats_baselines_on_graph_only_problem(capsys):
    with pytest.raises(NotRepresentableError):
        VectorEnv(build_problem("p3"))
    cfg = PPOConfig(total_updates=60, eval_every=10, eval_episodes=50, seed=1)
    model, _, steps = train("p3", cfg, algo="graph")
    ppo_mean, _, _ = evaluate(model, "p3", episodes=1000, seed=978, argmax=True)
    g_mean, _, _ = evaluate(greedy_policy, "p3", episodes=1000, seed=978)
    r_mean, r_std, _ = evaluate(random_policy, "p3", episodes=1000, seed=978)
    sem = r_std / np.sqrt(1000.0)
    ok = ppo_mean >= 0.95 * g_mean and ppo_mean > r_mean + sem
    verdict(capsys, 6, ok,
            f"p3 after {steps} steps: policy {ppo_mean:.1f} vs greedy "
            f"{g_mean:.1f} and random {r_mean:.1f} (sem {sem:.1f}) "
            f"(want >= 0.95 * greedy and > random + sem; vector form rejected)")
    assert ok


def test_07_corpus_expansion_preserves_behavior(capsys):
    t0 = time.perf_counter()
    bad = []
    for seed in range(1000, 1500):
        net = random_marked_net(seed)
        target, emap = expand(net)
        issues = validate_expanded(target, emap)
        if issues:
            bad.append((seed, issues[0]))
    dt = time.perf_counter() - t0
    ok = not bad and dt < 60.0
    verdict(capsys, 7, ok,
            f"expansion on 500 random nets: {len(bad)} violations in {dt:.1f}s "
            f"(want 0 within 60s)")
    assert ok, bad[:3]


def test_08_mapping_counts_and_serialization(capsys):
    bad = []
    for seed in range(1000, 1500):  # same corpus as the expansion suite
        net = random_marked_net(seed)
        target, _ = expand(net)
        graph, _ = map_to_graph(target)
        if (len(graph.nodes), len(graph.edges)) != expected_counts(net):
            bad.append((seed, "node/edge counts"))
        text = serialize(graph)
        if serialize(deserialize(text)) != text:
            bad.append((seed, "serialization round trip"))
        if validate_graph(graph):
            bad.append((seed, "graph validation"))
    ok = not bad
    verdict(capsys, 8, ok,
            f"mapping on 500 random nets: {len(bad)} violations "
            f"(count oracle, byte-stable round trip, validation)")
    assert ok, bad[:3]


def test_09_loss_gradients_match_finite_differences(capsys):
    registry = graph_registry(build_problem("p2"))
    pool = collect_observations("p2", 2, seed=90)
    h, worst = 1e-5, 0.0

    def loss(model, obs, k):
        logp, ent, values = model.evaluate_batch([obs.graph], [k])
        return (-logp).sum() + (values * values).sum() * 0.5 - ent.sum() * 0.01

    for seed in range(20):
        rng = np.random.default_rng(900 + seed)
        model = GraphActorCritic(registry, d=8, rounds=2, seed=seed)
        obs = pool[int(rng.integers(len(pool)))]
        k = int(rng.integers(len(obs.pairs)))
        loss(model, obs, k).backward()
        params = model.parameters()
        bounds = np.concatenate(([0], np.cumsum([p.data.size for p in params])))
        for flat in rng.choice(int(bounds[-1]), size=30, replace=False):
            pi = int(np.searchsorted(bounds, flat, side="right")) - 1
            j = int(flat - bounds[pi])
            p = params[pi]
            orig = p.data.flat[j]
            p.data.flat[j] = orig + h
            with no_grad():
                f_plus = float(loss(model, obs, k).data)
            p.data.flat[j] = orig - h
            with no_grad():
                f_minus = float(loss(model, obs, k).data)
            p.data.flat[j] = orig
            fd = (f_plus - f_minus) / (2 * h)
            an = 0.0 if p.grad is None else float(p.grad.flat[j])
            worst = max(worst, abs(fd - an) / max(1.0, abs(fd), abs(an)))
    ok = worst < 1e-4
    verdict(capsys, 9, ok,
            f"loss gradients vs central differences: worst relative error "
            f"{worst:.2e} over 20 models x 30 coordinates (want < 1e-4)")
    assert ok


def test_10_batched_forward_and_backward_match_singletons(capsys):
    model = GraphActorCritic(graph_registry(build_problem("p2")), d=16,
                             rounds=2, seed=7)
    pool = collect_observations("p2", 5, seed=80)
    rng = np.random.default_rng(10)

    def grads_of(loss):
        for p in model.parameters():
            p.grad = None
        loss.backward()
        return [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in model.parameters()]

    worst = 0.0
    for _ in range(50):
        size = int(rng.integers(2, 7))
        graphs = [pool[i].graph
                  for i in rng.choice(len(pool), size=size, replace=False)]
        actions = [int(rng.integers(len(g.action_node_ids()))) for g in graphs]
        batch = model.batch(graphs)
        with no_grad():
            probs = model.policy_forward(batch).data[:, 0]
            values = model.value_forward(batch).data[:, 0]
        offset = 0
        for gi, g in enumerate(graphs):
            single = model.batch([g])
            with no_grad():
                p1 = model.policy_forward(single).data[:, 0]
                v1 = float(model.value_forward(single).data[0, 0])
            worst = max(worst,
                        float(np.max(np.abs(probs[offset:offset + p1.size] - p1))),
                        abs(float(values[gi]) - v1))
            offset += p1.size
        logp, _, vals = model.evaluate_batch(graphs, actions)
        batched = grads_of(logp.sum() + vals.sum())
        total = None
        for g, a in zip(graphs, actions):
            lp, _, v = model.evaluate_batch([g], [a])
            gs = grads_of(lp.sum() + v.sum())
            total = gs if total is None else [t + x for t, x in zip(total, gs)]
        worst = max(worst, max(np.max(np.abs(b - t), initial=0.0)
                               for b, t in zip(batched, total)))
    ok = worst <= 1e-6
    verdict(capsys, 10, ok,
            f"batched vs singleton forward and backward: worst deviation "
            f"{worst:.2e} over 50 batches (want <= 1e-6)")
    assert ok


def _permuted(g: AssignmentGraph, rng) -> AssignmentGraph:
    nodes = [g.nodes[i] for i in rng.permutation(len(g.nodes))]
    edges = [g.edges[i] for i in rng.permutation(len(g.edges))]
    return AssignmentGraph(nodes, edges, g.types)


def test_11_node_order_invariance(capsys):
    model = GraphActorCritic(graph_registry(build_problem("p2")), d=16,
                             rounds=2, seed=3)
    pool = collect_observations("p2", 5, seed=60)
    rng = np.random.default_rng(14)
    worst = 0.0
    for obs in pool[:50]:
        g = obs.graph
        p = _permuted(g, rng)
        with no_grad():
            probs_g = model.policy_forward(model.batch([g])).data[:, 0]
            probs_p = model.policy_forward(model.batch([p])).data[:, 0]
            v_g = float(model.value_forward(model.batch([g])).data[0, 0])
            v_p = float(model.value_forward(model.batch([p])).data[0, 0])
        by_g = dict(zip(g.action_node_ids(), probs_g))
        by_p = dict(zip(p.action_node_ids(), probs_p))
        assert set(by_g) == set(by_p)
        worst = max(worst, abs(v_g - v_p),
                    max(abs(by_g[n] - by_p[n]) for n in by_g))
    ok = worst <= 1e-9
    verdict(capsys, 11, ok,
            f"node-order invariance: worst deviation {worst:.2e} over "
            f"50 graphs (want <= 1e-9)")
    assert ok


def test_12_gae_matches_double_sum(capsys):
    rng = np.random.default_rng(120)
    worst = 0.0
    for _ in range(100):
        T = int(rng.integers(1, 21))
        r = rng.normal(size=T)
        v = rng.normal(size=T)
        d = rng.random(T) < 0.25
        last = float(rng.normal())
        gamma = float(rng.uniform(0.9, 1.0))
        lam = float(rng.uniform(0.8, 1.0))
        adv, ret = compute_gae(r, v, d, last, gamma, lam)
        adv_ref, ret_ref = brute_force_gae(r, v, d, last, gamma, lam)
        worst = max(worst, float(np.max(np.abs(adv - adv_ref))),
                    float(np.max(np.abs(ret - ret_ref))))
    ok = worst <= 1e-10
    verdict(capsys, 12, ok,
            f"recursive advantage estimates vs explicit double sum: worst "
            f"deviation {worst:.2e} over 100 sequences (want <= 1e-10)")
    assert ok

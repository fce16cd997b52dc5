"""Optimization: advantage estimation, clipped surrogate, training loop."""
import numpy as np
import pytest

import aepn.env as env_mod
import aepn.ppo as ppo
from aepn.env import AssignmentEnv, VectorEnv, greedy_policy, random_policy
from aepn.nn.models import VectorActorCritic
from aepn.nn.optim import Adam, clip_grad_norm
from aepn.nn.tensor import Tensor
from aepn.ppo import (
    PPOConfig,
    RolloutBuffer,
    RolloutState,
    TransitionRecord,
    _flatten,
    _make_envs,
    collect_rollouts,
    compute_gae,
    evaluate,
    ppo_update,
    train,
)
from aepn.problems import build_problem
from helpers import brute_force_gae


def test_gae_matches_double_sum():
    rng = np.random.default_rng(0)
    for _ in range(40):
        T = int(rng.integers(1, 21))
        r = rng.normal(0, 2, T)
        v = rng.normal(0, 1, T)
        d = (rng.random(T) < 0.25).astype(float)
        last = float(rng.normal())
        gamma = float(rng.uniform(0.9, 1.0))
        lam = float(rng.uniform(0.5, 1.0))
        adv, ret = compute_gae(r, v, d, last, gamma, lam)
        want_adv, want_ret = brute_force_gae(r, v, d, last, gamma, lam)
        assert np.abs(adv - want_adv).max() < 1e-10
        assert np.abs(ret - want_ret).max() < 1e-10


def test_gae_single_step_episode():
    adv, ret = compute_gae([5.0], [1.0], [1.0], 99.0, 0.9, 0.8)
    assert adv[0] == pytest.approx(4.0)   # r - v, bootstrap ignored at done
    assert ret[0] == pytest.approx(5.0)


def _fake_batch(model, n, rng):
    obs = [(rng.standard_normal(model.obs_dim),
            np.ones(model.n_actions, dtype=bool)) for _ in range(n)]
    actions = rng.integers(model.n_actions, size=n)
    adv = rng.normal(0, 1, n)
    return obs, actions, adv


def _grads(model, loss):
    for p in model.parameters():
        p.grad = None
    loss.backward()
    return np.concatenate([
        (np.zeros_like(p.data) if p.grad is None else p.grad).reshape(-1)
        for p in model.parameters()])


def _surrogate_loss(model, obs, actions, adv, logp_old, clip):
    logp, _, _ = model.evaluate_batch(obs, actions)
    ratio = (logp - Tensor(logp_old.reshape(-1, 1))).exp()
    a = Tensor(adv.reshape(-1, 1))
    surr = (ratio * a).minimum(ratio.clamp(1.0 - clip, 1.0 + clip) * a)
    return -surr.mean()


def test_unclipped_surrogate_is_vanilla_policy_gradient():
    model = VectorActorCritic(4, 3, hidden=8, seed=0)
    rng = np.random.default_rng(1)
    obs, actions, adv = _fake_batch(model, 16, rng)
    logp, _, _ = model.evaluate_batch(obs, actions)
    logp_old = logp.data[:, 0].copy()  # behavior = current: every ratio is 1

    g_ppo = _grads(model, _surrogate_loss(model, obs, actions, adv,
                                          logp_old, clip=1e9))
    logp2, _, _ = model.evaluate_batch(obs, actions)
    g_pg = _grads(model, -(logp2 * Tensor(adv.reshape(-1, 1))).mean())

    cos = g_ppo @ g_pg / (np.linalg.norm(g_ppo) * np.linalg.norm(g_pg))
    assert cos > 0.999999
    assert np.abs(g_ppo - g_pg).max() < 1e-8


def test_clipped_samples_contribute_zero_gradient():
    model = VectorActorCritic(4, 3, hidden=8, seed=2)
    rng = np.random.default_rng(3)
    obs, actions, _ = _fake_batch(model, 8, rng)
    logp, _, _ = model.evaluate_batch(obs, actions)
    # ratio e^{+1} with positive advantage: min picks the clipped constant
    g = _grads(model, _surrogate_loss(
        model, obs, actions, np.ones(8), logp.data[:, 0] - 1.0, clip=0.2))
    assert np.abs(g).max() == 0.0
    # ratio e^{-1} with negative advantage: clipped side again
    logp2, _, _ = model.evaluate_batch(obs, actions)
    g = _grads(model, _surrogate_loss(
        model, obs, actions, -np.ones(8), logp2.data[:, 0] + 1.0, clip=0.2))
    assert np.abs(g).max() == 0.0


def test_clipped_surrogate_never_exceeds_unclipped():
    rng = np.random.default_rng(4)
    ratio = Tensor(rng.uniform(0.2, 3.0, 64))
    adv = Tensor(rng.normal(0, 1, 64))
    clipped = (ratio * adv).minimum(ratio.clamp(0.8, 1.2) * adv)
    assert (clipped.data <= (ratio.data * adv.data) + 1e-12).all()


def test_config_json_round_trip(tmp_path):
    cfg = PPOConfig(gamma=0.9, rollout=64, seed=7)
    path = tmp_path / "cfg.json"
    cfg.to_json(path)
    assert PPOConfig.from_json(path) == cfg
    path.write_text('{"gamma": 0.5, "learning_rate": 1}')
    with pytest.raises(ValueError, match="unknown config keys"):
        PPOConfig.from_json(path)


@pytest.mark.parametrize("num_envs,rollout", [(8, 4), (8, 20), (0, 8)])
def test_config_rollout_must_be_a_multiple_of_num_envs(tmp_path, num_envs, rollout):
    want = rf"rollout \({rollout}\).*num_envs \({num_envs}\)"
    with pytest.raises(ValueError, match=want):
        PPOConfig(num_envs=num_envs, rollout=rollout)
    path = tmp_path / "cfg.json"
    path.write_text(f'{{"num_envs": {num_envs}, "rollout": {rollout}}}')
    with pytest.raises(ValueError, match=want):
        PPOConfig.from_json(path)


def test_flatten_scales_rewards_linearly():
    def returns_for(scale):
        buf = RolloutBuffer(1)
        rewards = [100.0, 200.0, 100.0, 200.0]
        for t, r in enumerate(rewards):
            buf.add(0, TransitionRecord(None, 0, 0.0, r, 0.0, t == 3))
        cfg = PPOConfig(reward_scale=scale, gamma=0.9, lam=0.8)
        _, _, _, adv, ret = _flatten(buf, cfg)
        return adv, ret

    a1, r1 = returns_for(1.0)
    a2, r2 = returns_for(0.01)
    assert np.allclose(a1 * 0.01, a2, atol=1e-12)
    assert np.allclose(r1 * 0.01, r2, atol=1e-12)


def test_collect_rollouts_bookkeeping():
    cfg = PPOConfig(num_envs=2, rollout=20, hidden=8, rounds=1, seed=0)
    envs, model = _make_envs("p1", "graph", cfg)
    state = RolloutState(envs, np.random.default_rng(0))
    buf = collect_rollouts(state, model, cfg)
    assert len(buf) == 20
    for stream in buf.streams:
        assert len(stream) == 10               # one full episode each
        assert [rec.done for rec in stream] == [False] * 9 + [True]
        assert {rec.reward for rec in stream} <= {100.0, 200.0}
    assert buf.last_values.tolist() == [0.0, 0.0]  # tails ended the episode
    assert len(state.finished) == 2
    assert all(1000.0 <= ret <= 2000.0 for ret in state.finished)


def _one_env_at_a_time(state, model, cfg):
    """Reference rollout: one ``act`` call per env per step."""
    buf = RolloutBuffer(len(state.envs))
    for _ in range(cfg.rollout // len(state.envs)):
        for i, env in enumerate(state.envs):
            action, stored, logp, value = model.act(state.obs[i], state.rng)
            res = env.step(action)
            buf.add(i, TransitionRecord(stored, action, logp, res.reward, value, res.done))
            state.obs[i] = env.reset() if res.done else res.observation
    for i, stream in enumerate(buf.streams):
        buf.last_values[i] = 0.0 if stream[-1].done else model.state_value(state.obs[i])
    return buf


@pytest.mark.parametrize("algo", ["graph", "vector"])
def test_lock_step_rollouts_match_one_env_at_a_time(algo):
    # 12 decisions per env and update: p2 episodes end every tenth decision,
    # so both rollouts cross an episode end and bootstrap their tails
    cfg = PPOConfig(num_envs=3, rollout=36, hidden=8, rounds=1, seed=5)
    runs = []
    for collect in (collect_rollouts, _one_env_at_a_time):
        envs, model = _make_envs("p2", algo, cfg)
        state = RolloutState(envs, np.random.default_rng(5))
        runs.append([collect(state, model, cfg) for _ in range(2)])
    for got, want in zip(*runs):
        assert np.abs(got.last_values - want.last_values).max() < 1e-9
        assert (got.last_values != 0).all()
        for g_stream, w_stream in zip(got.streams, want.streams):
            assert [r.action for r in g_stream] == [r.action for r in w_stream]
            assert [r.reward for r in g_stream] == [r.reward for r in w_stream]
            assert [r.done for r in g_stream] == [r.done for r in w_stream]
            for g, w in zip(g_stream, w_stream):
                assert abs(g.logp - w.logp) < 1e-9
                assert abs(g.value - w.value) < 1e-9


def test_ppo_update_reduces_value_loss():
    cfg = PPOConfig(num_envs=2, rollout=40, minibatch=20, epochs=2,
                    hidden=8, rounds=1, seed=0, lr=1e-2)
    envs, model = _make_envs("p1", "vector", cfg)
    state = RolloutState(envs, np.random.default_rng(0))
    buf = collect_rollouts(state, model, cfg)
    opt = Adam(model.parameters(), lr=cfg.lr)
    rng = np.random.default_rng(1)
    first = ppo_update(model, opt, buf, cfg, rng)
    assert set(first) == {"policy_loss", "value_loss", "entropy", "batches"}
    assert first["batches"] == 2 * 2
    later = first
    for _ in range(4):
        later = ppo_update(model, opt, buf, cfg, rng)
    assert later["value_loss"] < first["value_loss"]


def test_non_finite_loss_raises():
    cfg = PPOConfig(num_envs=1, rollout=8, minibatch=8, epochs=1,
                    hidden=8, rounds=1, seed=0)
    envs, model = _make_envs("p1", "vector", cfg)
    state = RolloutState(envs, np.random.default_rng(0))
    buf = collect_rollouts(state, model, cfg)
    buf.streams[0][3].reward = float("nan")
    with pytest.raises(RuntimeError, match="non-finite"):
        ppo_update(model, Adam(model.parameters(), lr=1e-3), buf, cfg,
                   np.random.default_rng(0))


def test_clip_grad_norm_rescales():
    t = Tensor(np.zeros(3), requires_grad=True)
    t.grad = np.array([3.0, 4.0, 0.0])
    norm = clip_grad_norm([t], 1.0)
    assert norm == pytest.approx(5.0)
    assert np.linalg.norm(t.grad) == pytest.approx(1.0)
    t.grad = np.array([0.1, 0.0, 0.0])
    clip_grad_norm([t], 1.0)
    assert t.grad[0] == pytest.approx(0.1)  # below the cap: untouched


def test_adam_matches_textbook_form_bitwise():
    # one parameter spans several slices, one is Fortran-ordered, one goes
    # without a gradient on some steps
    shapes = [(150, 250), (7,), (40, 30)]

    def make():
        r = np.random.default_rng(1)
        ps = [Tensor(r.standard_normal(s), requires_grad=True) for s in shapes]
        ps[2].data = np.asfortranarray(ps[2].data)
        return ps

    fast, ref = make(), make()
    opt = Adam(fast, lr=1e-2)
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    b1, b2, eps = 0.9, 0.999, 1e-8
    rng = np.random.default_rng(2)
    for t in range(1, 7):
        for i, (a, b) in enumerate(zip(fast, ref)):
            g = None if (i == 1 and t % 3 == 0) else \
                rng.standard_normal(shapes[i]) * 10.0 ** rng.integers(-5, 3)
            a.grad, b.grad = g, g
        opt.step()
        for i, p in enumerate(ref):
            if p.grad is None:
                continue
            g = p.grad
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * g * g
            p.data = p.data - 1e-2 * (m[i] / (1.0 - b1 ** t)) / (
                np.sqrt(v[i] / (1.0 - b2 ** t)) + eps)
    for a, b in zip(fast, ref):
        assert np.array_equal(a.data, b.data)


def test_evaluate_scripted_policy_deterministic():
    m1, s1, r1 = evaluate(greedy_policy, "p2", episodes=5, seed=3)
    m2, s2, r2 = evaluate(greedy_policy, "p2", episodes=5, seed=3)
    m3, _, _ = evaluate(greedy_policy, "p2", episodes=5, seed=4)
    assert m1 == m2 and s1 == s2 and (r1 == r2).all()
    assert m1 != m3
    assert len(r1) == 5


def _one_episode_at_a_time(model, problem, episodes, seed, algo):
    env = (AssignmentEnv if algo == "graph" else VectorEnv)(build_problem(problem), seed=seed)
    rng = np.random.default_rng(seed)
    returns = []
    for _ in range(episodes):
        obs, total, done = env.reset(), 0.0, False
        while not done:
            res = env.step(model.act(obs, rng, argmax=True)[0])
            obs, done = res.observation, res.done
            total += res.reward
        returns.append(total)
    return np.asarray(returns)


@pytest.mark.parametrize("algo", ["graph", "vector"])
def test_model_evaluate_matches_one_episode_at_a_time(algo, monkeypatch):
    _, model = _make_envs("p2", algo, PPOConfig(hidden=8, rounds=1, seed=2))
    monkeypatch.setattr(ppo, "EVAL_WAVE", 4)  # waves of 4, 4 and 2 episodes
    _, _, got = evaluate(model, "p2", episodes=10, seed=9, algo=algo)
    assert np.array_equal(got, _one_episode_at_a_time(model, "p2", 10, 9, algo))


def test_scripted_evaluate_matches_pinned_returns():
    # per-episode returns of the one-environment loop that evaluate replaced
    pinned = {
        (greedy_policy, "p2"): [1941.29, 2041.18, 1945.48, 1968.1999999999996],
        (random_policy, "p2"): [1520.1999999999998, 1540.54, 1419.16,
                                1664.6599999999999],
        (random_policy, "p3"): [2254.8499079219964, 2191.6047321682863,
                                2082.8522900445814, 2529.3131083017115],
    }
    for (policy, problem), want in pinned.items():
        _, _, got = evaluate(policy, problem, episodes=4, seed=3)
        assert got.tolist() == want


def test_vector_evaluate_builds_tables_once_per_problem(monkeypatch):
    calls = []
    table = env_mod.vector_action_table
    monkeypatch.setattr(env_mod, "vector_action_table",
                        lambda template: calls.append(1) or table(template))
    ppo._template.cache_clear()
    env = VectorEnv(build_problem("p2"), seed=0)
    model = VectorActorCritic(env.obs_dim, env.n_actions, hidden=8, seed=0)
    calls.clear()
    first = evaluate(model, "p2", episodes=2, seed=1, algo="vector")
    second = evaluate(model, "p2", episodes=2, seed=1, algo="vector")
    assert len(calls) == 1
    assert first[0] == second[0]


def test_evaluate_p1_greedy_exact():
    mean, std, _ = evaluate(greedy_policy, "p1", episodes=10, seed=0)
    assert mean == 2000.0 and std == 0.0


def test_train_smoke_graph(tmp_path):
    cfg = PPOConfig(total_updates=2, rollout=16, num_envs=2, minibatch=8,
                    epochs=1, eval_every=1, eval_episodes=2, hidden=8,
                    rounds=1, seed=0)
    curve_csv = tmp_path / "curve.csv"
    ckpt = tmp_path / "model.npz"
    model, curve, steps = train("p1", cfg, algo="graph",
                                curve_csv=curve_csv, checkpoint=ckpt)
    assert steps == 32
    assert len(curve) == 2
    assert curve[0][0] == 1 and curve[0][1] == 16
    assert curve_csv.exists() and ckpt.exists()
    header = curve_csv.read_text().splitlines()[0]
    assert header == "update,steps,eval_mean,eval_std,rollout_mean"
    from aepn.nn.models import load_checkpoint
    loaded, meta = load_checkpoint(ckpt)
    assert meta["extra"]["problem"] == "p1"
    assert meta["extra"]["steps"] == 32


def test_train_rejects_unknown_algo():
    with pytest.raises(ValueError, match="unknown algo"):
        train("p1", PPOConfig(total_updates=1), algo="tabular")

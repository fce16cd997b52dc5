"""Clipped-surrogate policy optimization over the assignment environments.

Rollouts run in a fixed set of parallel environments that persist across
updates and are stepped in lock step: one batched policy and value
forward per wave of environments.  Model evaluation plays its episodes in
lock-step waves the same way; scripted baselines play one episode at a
time.  Advantages come from generalized advantage estimation computed per
environment stream, and updates minimize the clipped surrogate plus value
regression and an entropy bonus.  Works unchanged for the graph and the
vector observation interfaces because both models expose
``act_batch``/``state_values``/``evaluate_batch``.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, asdict

import numpy as np

from .env import AssignmentEnv, VectorEnv, StepResult
from .nn.models import (GraphActorCritic, VectorActorCritic, graph_registry,
                        save_checkpoint)
from .nn.optim import Adam, clip_grad_norm
from .nn.tensor import Tensor
from .problems import build_problem

# episodes a model plays in lock step during ``evaluate``; bounds memory
# (1,000 p2 vector observations are about 200 MB)
EVAL_WAVE = 64


@dataclass
class PPOConfig:
    gamma: float = 0.99
    lam: float = 0.95
    clip: float = 0.2
    lr: float = 3e-4
    epochs: int = 4
    num_envs: int = 8
    rollout: int = 512            # decisions per update, across all envs
    minibatch: int = 64
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    max_grad_norm: float = 0.5
    total_updates: int = 390
    reward_scale: float = 0.01    # rewards are scaled for advantage/value fitting
    eval_every: int = 10          # updates between argmax evaluations
    eval_episodes: int = 50
    target_return: float | None = None
    hidden: int = 64
    rounds: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.num_envs < 1 or self.rollout < self.num_envs or self.rollout % self.num_envs:
            raise ValueError(f"rollout ({self.rollout}) must be a positive multiple "
                             f"of num_envs ({self.num_envs})")

    @classmethod
    def from_json(cls, path) -> "PPOConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        known = {k: v for k, v in raw.items() if k in cls.__dataclass_fields__}
        unknown = sorted(set(raw) - set(known))
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        return cls(**known)

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)


@dataclass
class TransitionRecord:
    obs: object          # stored observation (graph, or (vector, mask))
    action: int          # index into the behavior policy's action softmax
    logp: float
    reward: float        # raw environment reward
    value: float         # behavior value estimate (scaled domain)
    done: bool


class RolloutBuffer:
    """Per-environment transition streams plus tail bootstrap values."""

    def __init__(self, num_envs: int):
        self.streams: list[list[TransitionRecord]] = [[] for _ in range(num_envs)]
        self.last_values = np.zeros(num_envs)

    def add(self, env_idx: int, rec: TransitionRecord) -> None:
        self.streams[env_idx].append(rec)

    def __len__(self) -> int:
        return sum(len(s) for s in self.streams)

    def reward_total(self) -> float:
        return sum(r.reward for s in self.streams for r in s)


class RolloutState:
    """Current observation and return accumulator of each persistent env."""

    def __init__(self, envs, rng):
        self.envs = envs
        self.rng = rng
        self.obs = [env.reset() for env in envs]
        self.ep_return = [0.0] * len(envs)
        self.finished: list[float] = []


def _unpack_step(out):
    if isinstance(out, StepResult):
        return out.observation, out.reward, out.done
    vec, mask, reward, done, _ = out
    return (vec, mask), reward, done


def collect_rollouts(state: RolloutState, model, cfg: PPOConfig) -> RolloutBuffer:
    """Gather cfg.rollout decisions, stepping the environments in lock step.

    Each wave makes one batched ``act_batch`` call over every env, then
    steps the envs in index order; the shared ``rng`` is drawn in env order.
    """
    envs = state.envs
    buf = RolloutBuffer(len(envs))
    for _ in range(cfg.rollout // len(envs)):
        decisions = model.act_batch(state.obs, state.rng)
        for i, (env, decision) in enumerate(zip(envs, decisions)):
            env_action, stored, action, logp, value = decision
            obs2, reward, done = _unpack_step(env.step(env_action))
            buf.add(i, TransitionRecord(stored, action, logp, reward, value, done))
            state.ep_return[i] += reward
            if done:
                state.finished.append(state.ep_return[i])
                state.ep_return[i] = 0.0
                obs2 = env.reset()
            state.obs[i] = obs2
    live = [i for i, stream in enumerate(buf.streams) if not stream[-1].done]
    if live:
        buf.last_values[live] = model.state_values([state.obs[i] for i in live])
    return buf


def compute_gae(rewards, values, dones, last_value, gamma: float, lam: float):
    """Raw advantage estimates and value targets for one reward stream.

    advantage_t = sum_k (gamma*lam)^k * delta_{t+k}, cut at episode ends;
    delta_t = r_t + gamma*V_{t+1}*(1-done_t) - V_t.  Returns = adv + V.
    """
    r = np.asarray(rewards, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    d = np.asarray(dones, dtype=np.float64)
    adv = np.zeros_like(r)
    nxt_value = float(last_value)
    acc = 0.0
    for t in range(len(r) - 1, -1, -1):
        delta = r[t] + gamma * nxt_value * (1.0 - d[t]) - v[t]
        acc = delta + gamma * lam * (1.0 - d[t]) * acc
        adv[t] = acc
        nxt_value = v[t]
    return adv, adv + v


def _flatten(buf: RolloutBuffer, cfg: PPOConfig):
    obs, actions, logp_old, advs, rets = [], [], [], [], []
    for i, stream in enumerate(buf.streams):
        rewards = [rec.reward * cfg.reward_scale for rec in stream]
        values = [rec.value for rec in stream]
        dones = [rec.done for rec in stream]
        adv, ret = compute_gae(rewards, values, dones, buf.last_values[i],
                               cfg.gamma, cfg.lam)
        advs.append(adv)
        rets.append(ret)
        for rec in stream:
            obs.append(rec.obs)
            actions.append(rec.action)
            logp_old.append(rec.logp)
    return (obs, np.asarray(actions, dtype=np.intp), np.asarray(logp_old),
            np.concatenate(advs), np.concatenate(rets))


def ppo_update(model, opt: Adam, buf: RolloutBuffer, cfg: PPOConfig, rng) -> dict:
    """One optimization pass over a rollout; returns loss diagnostics."""
    obs, actions, logp_old, adv, rets = _flatten(buf, cfg)
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    n = len(actions)
    order = np.arange(n)
    stats = {"policy_loss": 0.0, "value_loss": 0.0, "entropy": 0.0, "batches": 0}
    for _ in range(cfg.epochs):
        rng.shuffle(order)
        for lo in range(0, n, cfg.minibatch):
            mb = order[lo:lo + cfg.minibatch]
            logp, ent, values = model.evaluate_batch([obs[i] for i in mb], actions[mb])
            ratio = (logp - Tensor(logp_old[mb].reshape(-1, 1))).exp()
            a = Tensor(adv[mb].reshape(-1, 1))
            surrogate = (ratio * a).minimum(ratio.clamp(1.0 - cfg.clip, 1.0 + cfg.clip) * a)
            policy_loss = -surrogate.mean()
            diff = values - Tensor(rets[mb].reshape(-1, 1))
            value_loss = (diff * diff).mean()
            entropy = ent.mean()
            loss = (policy_loss + cfg.value_coef * value_loss
                    - cfg.entropy_coef * entropy)
            if not np.isfinite(loss.data):
                raise RuntimeError(
                    f"non-finite loss (policy={policy_loss.item():.4g}, "
                    f"value={value_loss.item():.4g}, entropy={entropy.item():.4g})")
            opt.zero_grad()
            loss.backward()
            clip_grad_norm(model.parameters(), cfg.max_grad_norm)
            opt.step()
            stats["policy_loss"] += policy_loss.item()
            stats["value_loss"] += value_loss.item()
            stats["entropy"] += entropy.item()
            stats["batches"] += 1
    for key in ("policy_loss", "value_loss", "entropy"):
        stats[key] /= max(1, stats["batches"])
    return stats


def _make_envs(problem: str, algo: str, cfg: PPOConfig):
    net = build_problem(problem)
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.num_envs)
    if algo == "graph":
        envs = [AssignmentEnv(net, seed=s) for s in seeds]
        model = GraphActorCritic(graph_registry(net), d=cfg.hidden,
                                 rounds=cfg.rounds, seed=cfg.seed)
    elif algo == "vector":
        envs = [VectorEnv(net, seed=s) for s in seeds]
        model = VectorActorCritic(envs[0].obs_dim, envs[0].n_actions,
                                  seed=cfg.seed)
    else:
        raise ValueError(f"unknown algo {algo!r}; use 'graph' or 'vector'")
    return envs, model


def evaluate(model, problem: str, episodes: int = 200, seed: int = 0,
             argmax: bool = True, algo: str = "graph"):
    """Mean, std, and per-episode returns of a policy on a problem.

    Episode ``j`` runs on child ``j`` of ``SeedSequence(seed)``.  A model
    plays up to ``EVAL_WAVE`` episodes in lock step, one batched
    ``act_batch`` call per wave step.  ``model`` may also be a plain
    callable (observation, rng) -> action for the scripted baselines;
    those play one episode at a time on the graph interface.
    """
    net = build_problem(problem)
    rng = np.random.default_rng(seed)
    seeds = np.random.SeedSequence(seed).spawn(episodes)
    if callable(model) and not hasattr(model, "act"):
        make_env, width = AssignmentEnv, 1
        choose = lambda obs_list: [model(obs, rng) for obs in obs_list]
    else:
        make_env = AssignmentEnv if algo == "graph" else VectorEnv
        width = max(1, min(EVAL_WAVE, episodes))
        choose = lambda obs_list: [d[0] for d in model.act_batch(obs_list, rng, argmax)]
    envs = [make_env(net, seed=seed) for _ in range(width)]
    returns = []
    for lo in range(0, episodes, width):
        wave = seeds[lo:lo + width]
        obs = [env.reset(s) for env, s in zip(envs, wave)]
        totals = [0.0] * len(wave)
        live = [i for i in range(len(wave)) if not envs[i].done]
        while live:
            actions = choose([obs[i] for i in live])
            for i, action in zip(live, actions):
                obs[i], reward, _ = _unpack_step(envs[i].step(action))
                totals[i] += reward
            live = [i for i in live if not envs[i].done]
        returns.extend(totals)
    returns = np.asarray(returns)
    return float(returns.mean()), float(returns.std()), returns


def train(problem: str, cfg: PPOConfig, algo: str = "graph",
          curve_csv=None, checkpoint=None, verbose: bool = False):
    """Full training loop; returns (model, curve rows, steps used).

    Curve rows: (update, decision steps, eval mean, eval std, rollout mean).
    Finishes on the step budget or once an evaluation reaches
    cfg.target_return; the best-evaluation parameters are kept.
    """
    envs, model = _make_envs(problem, algo, cfg)
    opt = Adam(model.parameters(), lr=cfg.lr)
    master = np.random.default_rng(np.random.SeedSequence((cfg.seed, 1)))
    state = RolloutState(envs, master)
    eval_seed = cfg.seed + 977
    curve = []
    best_mean, best_params = -np.inf, None
    steps = 0
    t0 = time.perf_counter()
    for update in range(1, cfg.total_updates + 1):
        buf = collect_rollouts(state, model, cfg)
        steps += len(buf)
        ppo_update(model, opt, buf, cfg, master)
        if update % cfg.eval_every == 0 or update == cfg.total_updates:
            mean, std, _ = evaluate(model, problem, episodes=cfg.eval_episodes,
                                    seed=eval_seed, argmax=True, algo=algo)
            recent = (float(np.mean(state.finished[-50:]))
                      if state.finished else float("nan"))
            curve.append((update, steps, mean, std, recent))
            if verbose:
                dt = time.perf_counter() - t0
                print(f"update {update:4d}  steps {steps:7d}  eval {mean:8.1f} "
                      f"+- {std:6.1f}  rollout {recent:8.1f}  [{dt:6.1f}s]")
            if mean > best_mean:
                best_mean = mean
                best_params = [p.data.copy() for p in model.parameters()]
            if cfg.target_return is not None and mean >= cfg.target_return:
                break
    if best_params is not None and curve and curve[-1][2] < best_mean:
        for p, saved in zip(model.parameters(), best_params):
            p.data[...] = saved
    if curve_csv is not None:
        with open(curve_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["update", "steps", "eval_mean", "eval_std",
                             "rollout_mean"])
            writer.writerows(curve)
    if checkpoint is not None:
        save_checkpoint(checkpoint, model,
                        extra={"problem": problem, "algo": algo,
                               "steps": steps, "best_eval": best_mean})
    return model, curve, steps

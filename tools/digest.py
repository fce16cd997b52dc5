"""Equivalence digest: five SHA-256 fingerprints of fixed net workloads.

    python3 tools/digest.py

Run from the repository root; ``aepn`` is imported from ``src/``.  It
prints one digest per line:

* ``ppo-graph``: two PPO updates on p2 at seed 5 (``PPOConfig`` defaults)
  on the graph interface, then a 20-episode argmax ``evaluate``;
* ``ppo-vector``: the same on the vector interface;
* ``greedy``: one greedy p2 episode at horizon 200, then a 50-episode
  greedy ``evaluate`` at the default horizon;
* ``greedy-p3``: the same on p3, then also a 50-episode random
  ``evaluate``.  p3's ``expire`` guard is the committed net that drives the
  guarded branch of ``clock_advance_target``;
* ``turn``: one greedy episode of an inline net (``TURN_NET``) whose action
  emits a token that enables an evolution at the same clock, while a
  second resource is still free.  It pins the A-E turn: the agent keeps
  the turn while action bindings remain, and the evolution waits for it.

Each PPO digest hashes the rollout actions, log-probabilities, values,
rewards and done flags, the tail values, the final parameters and the
evaluation returns.  The greedy digests hash the episode's trace rows
``(episode, step, clock, action, reward)`` and the evaluation returns.  A
change that claims identical behaviour prints the same five lines before
and after.  Training digests depend on the BLAS thread count, so the script
pins it to one thread before numpy loads.
This is a report, not a gate: no expected digest is stored anywhere.
"""
from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from aepn import env as env_mod, ppo  # noqa: E402
from aepn.net import build_net  # noqa: E402
from aepn.nn.optim import Adam  # noqa: E402
from aepn.problems import build_problem  # noqa: E402

SEED = 5
UPDATES = 2
EVAL_EPISODES = 20
GREEDY_HORIZON = 200.0
GREEDY_EVAL_EPISODES = 50

_TASK = {"source": "arrive", "target": "waiting",
         "expr": {"kind": "emit", "attrs": {"budget": {
             "dist": "uniform", "low": 0, "high": 100, "round": 2}}}}
# two resources; ``start`` emits a token that ``archive`` (an evolution)
# can consume at the same clock while the agent still has a free resource
TURN_NET = {
    "places": [{"id": "waiting", "schema": ["budget"]},
               {"id": "resources", "schema": []},
               {"id": "busy", "schema": ["budget"]},
               {"id": "done", "schema": []},
               {"id": "arrival", "schema": []}],
    "transitions": [{"id": "start", "tag": "A", "reward": "waiting.budget"},
                    {"id": "archive", "tag": "E"},
                    {"id": "arrive", "tag": "E"}],
    "arcs": [
        {"source": "waiting", "target": "start"},
        {"source": "resources", "target": "start"},
        {"source": "start", "target": "busy",
         "expr": {"kind": "identity", "from": "waiting", "delay": 1.0}},
        {"source": "start", "target": "resources",
         "expr": {"kind": "identity", "from": "resources", "delay": 1.0}},
        {"source": "start", "target": "done", "expr": {"kind": "emit"}},
        {"source": "done", "target": "archive"},
        {"source": "archive", "target": "waiting",
         "expr": {"kind": "emit", "attrs": {"budget": {
             "dist": "uniform", "low": 0, "high": 300, "round": 2}}}},
        {"source": "arrival", "target": "arrive"},
        {"source": "arrive", "target": "arrival",
         "expr": {"kind": "identity", "delay": 1.0}},
        _TASK, _TASK, _TASK,
    ],
    "initial_marking": {"arrival": [{"time": 0.0, "attrs": {}}],
                        "resources": [{"time": 0.0, "attrs": {}}] * 2},
    "tag": "E",
    "horizon": 50.0,
}


def _feed(h, *arrays) -> None:
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=np.float64)).tobytes())


def ppo_digest(algo: str) -> str:
    cfg = ppo.PPOConfig(seed=SEED)
    envs, model = ppo._make_envs("p2", algo, cfg)
    opt = Adam(model.parameters(), lr=cfg.lr)
    master = np.random.default_rng(np.random.SeedSequence((cfg.seed, 1)))
    state = ppo.RolloutState(envs, master)
    h = hashlib.sha256()
    for _ in range(UPDATES):
        buf = ppo.collect_rollouts(state, model, cfg)
        for stream in buf.streams:
            _feed(h, [r.action for r in stream], [r.logp for r in stream],
                  [r.value for r in stream], [r.reward for r in stream],
                  [r.done for r in stream])
        _feed(h, buf.last_values)
        ppo.ppo_update(model, opt, buf, cfg, master)
    _feed(h, *(p.data for p in model.parameters()))
    _, _, returns = ppo.evaluate(model, "p2", episodes=EVAL_EPISODES,
                                 seed=cfg.seed + 977, argmax=True, algo=algo)
    _feed(h, returns)
    return h.hexdigest()


def greedy_rows(template) -> list[tuple]:
    """Trace rows of one greedy episode at ``SEED``."""
    env = env_mod.AssignmentEnv(template, seed=SEED)
    obs = env.reset()
    rows = []
    while not env.done:
        k = env_mod.greedy_policy(obs)
        node = obs.graph.action_node_ids()[k]
        result = env.step(k)
        rows.append((env.episode, result.info["step"], obs.clock, node, result.reward))
        obs = result.observation
    return rows


def greedy_digest(problem: str, policies) -> str:
    rows = greedy_rows(build_problem(problem, horizon=GREEDY_HORIZON))
    h = hashlib.sha256(repr(rows).encode())
    for policy in policies:
        _, _, returns = ppo.evaluate(policy, problem,
                                     episodes=GREEDY_EVAL_EPISODES, seed=SEED)
        _feed(h, returns)
    return h.hexdigest()


def turn_digest() -> str:
    return hashlib.sha256(repr(greedy_rows(build_net(TURN_NET))).encode()).hexdigest()


def main() -> None:
    print(f"ppo-graph   {ppo_digest('graph')}", flush=True)
    print(f"ppo-vector  {ppo_digest('vector')}", flush=True)
    print(f"greedy      {greedy_digest('p2', [env_mod.greedy_policy])}", flush=True)
    print(f"greedy-p3   {greedy_digest('p3', [env_mod.greedy_policy, env_mod.random_policy])}",
          flush=True)
    print(f"turn        {turn_digest()}", flush=True)


if __name__ == "__main__":
    main()

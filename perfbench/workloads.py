"""The benchmark workloads, driven through aepn's public API.

Every workload is a closed loop with one caller: each call waits for the
previous one.  A run sets the workload up repeatedly (the median is
``setup_s``), then repeats rounds until the time budget is spent.  An
operation is a PPO update on the training workloads and a whole episode on
the simulation; evaluation and timed episodes count as operations too.
Every operation is checked, and a failed check counts it as failed.
"""
from __future__ import annotations

import gc
import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass

import numpy as np

import aepn.env as env_mod
import aepn.nn.models as models
import aepn.nn.optim as optim
import aepn.ppo as ppo
import aepn.problems as problems

# every p2 task budget lies in [70, 130] or [170, 230], and at the default
# horizon each episode makes one decision per time unit
P2_DECISIONS = 10
P2_RETURN_RANGE = (P2_DECISIONS * 70.0, P2_DECISIONS * 230.0)
# one type-1 task arrives and one task is served per time unit, so greedy
# always has a type-1 task to pick
TYPE1_BUDGET = (170.0, 230.0)
SIM_HORIZON = 200

# set-ups per run: at least MIN_SETUPS and for SETUP_WINDOW_S; setup_s is
# their median
MIN_SETUPS, MAX_SETUPS, SETUP_WINDOW_S = 5, 1000, 1.0
EVAL_EPISODES = 50    # per ``evaluate`` pass, as train() uses it
# trained-policy episodes timed per round: 1000 decisions, so each round's
# p99 has ten samples beyond it
PROBE_EPISODES = 100

# end-to-end metric -> unit; every workload reports all of them
END_TO_END = {
    "setup_s": "s",
    "decisions_per_s": "1/s",
    "rollout_decisions_per_s": "1/s",
    "op_s_p50": "s",
    "eval_s": "s",
    "decision_ms_p50": "ms",
    "decision_ms_p99": "ms",
    "peak_rss_mb": "MB",
}


class Tally:
    """Operations attempted and the check failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problems_found: list[str]) -> None:
        self.attempted += 1
        if problems_found:
            self.failures.append(f"{what}: {'; '.join(problems_found)}")

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_frac(self) -> float:
        return self.failed / max(1, self.attempted)


# -- output checks; each returns the problems it found -----------------------


def check_sim_episode(decisions: int, reward_sum: float, cum_reward: float) -> list[str]:
    out = []
    if decisions != SIM_HORIZON:
        out.append(f"{decisions} decisions, want {SIM_HORIZON}")
    if not math.isclose(reward_sum, cum_reward, rel_tol=1e-9, abs_tol=1e-6):
        out.append(f"step rewards sum to {reward_sum!r}, net.cum_reward is {cum_reward!r}")
    mean = reward_sum / max(1, decisions)
    if not TYPE1_BUDGET[0] <= mean <= TYPE1_BUDGET[1]:
        out.append(f"mean reward per decision {mean:.3f} outside {TYPE1_BUDGET}")
    return out


def check_update(stats: dict, params_changed: bool) -> list[str]:
    out = [f"{key} is {value!r}" for key, value in stats.items()
           if not math.isfinite(value)]
    if not params_changed:
        out.append("parameters unchanged")
    return out


def check_return(ret: float) -> list[str]:
    lo, hi = P2_RETURN_RANGE
    return [] if lo <= ret <= hi else [f"return {ret!r} outside [{lo}, {hi}]"]


# -- helpers -----------------------------------------------------------------


def _unpack(out):
    if isinstance(out, env_mod.StepResult):
        return out.observation, out.reward, out.done
    vec, mask, reward, done, _ = out
    return (vec, mask), reward, done


def _fingerprint(params) -> np.ndarray:
    return np.array([float(p.data.sum()) for p in params])


def _quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- workloads ---------------------------------------------------------------
#
# One round of a workload is one operation plus the probes that time the
# remaining end-to-end metrics.  Probes run every round rather than once at
# the end, so every metric samples the whole measured window.


class TrainP2:
    """PPO on p2 at the PPOConfig defaults from a fresh model (graph or vector).

    A round is one rollout and ``ppo_update`` (the operation), one argmax
    ``evaluate`` pass as ``train`` makes it, and whole episodes of the
    current policy timed decision by decision.
    """

    def __init__(self, algo: str, seed: int):
        self.algo = algo
        self.seed = seed
        self.cfg = ppo.PPOConfig(seed=seed)
        self.rate: list[float] = []          # decisions / (rollout + update)
        self.rollout_rate: list[float] = []  # decisions / rollout
        self.update_s: list[float] = []
        self.eval_s: list[float] = []
        self.decision_ms: list[float] = []
        self.round_p99_ms: list[float] = []
        self.returns: list[float] = []
        self.probe_env = None

    def setup(self) -> None:
        cfg = self.cfg
        net = problems.build_problem("p2")
        seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.num_envs)
        if self.algo == "graph":
            envs = [env_mod.AssignmentEnv(net, seed=s) for s in seeds]
            model = models.GraphActorCritic(models.graph_registry(net), d=cfg.hidden,
                                            rounds=cfg.rounds, seed=cfg.seed)
        else:
            envs = [env_mod.VectorEnv(net, seed=s) for s in seeds]
            model = models.VectorActorCritic(envs[0].obs_dim, envs[0].n_actions,
                                             seed=cfg.seed)
        self.net = net
        self.model = model
        self.opt = optim.Adam(model.parameters(), lr=cfg.lr)
        self.rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 1)))
        self.state = ppo.RolloutState(envs, self.rng)

    def round(self, tally: Tally) -> None:
        t0 = time.perf_counter()
        buf = ppo.collect_rollouts(self.state, self.model, self.cfg)
        t1 = time.perf_counter()
        before = _fingerprint(self.model.parameters())
        t2 = time.perf_counter()
        stats = ppo.ppo_update(self.model, self.opt, buf, self.cfg, self.rng)
        t3 = time.perf_counter()
        changed = bool(np.any(_fingerprint(self.model.parameters()) != before))
        self.rate.append(len(buf) / ((t1 - t0) + (t3 - t2)))
        self.rollout_rate.append(len(buf) / (t1 - t0))
        self.update_s.append(t3 - t2)
        tally.record(f"update {len(self.update_s)}", check_update(stats, changed))

        t0 = time.perf_counter()
        _, _, returns = ppo.evaluate(self.model, "p2", episodes=EVAL_EPISODES,
                                     seed=self.seed + 977, argmax=True, algo=self.algo)
        self.eval_s.append(time.perf_counter() - t0)
        for ret in returns:
            tally.record("eval episode", check_return(float(ret)))
        self.returns.extend(returns.tolist())
        self._time_decisions(tally)

    def _time_decisions(self, tally: Tally) -> None:
        if self.probe_env is None:
            cls = env_mod.AssignmentEnv if self.algo == "graph" else env_mod.VectorEnv
            self.probe_env = cls(self.net, seed=np.random.SeedSequence((self.seed, 2)))
        env, rng = self.probe_env, np.random.default_rng(self.seed)
        first = len(self.decision_ms)
        for _ in range(PROBE_EPISODES):
            obs, total, done, n = env.reset(), 0.0, False, 0
            while not done:
                t0 = time.perf_counter()
                action = self.model.act(obs, rng, argmax=True)[0]
                obs, reward, done = _unpack(env.step(action))
                self.decision_ms.append((time.perf_counter() - t0) * 1e3)
                total += reward
                n += 1
            problems_found = check_return(total)
            if n != P2_DECISIONS:
                problems_found.append(f"{n} decisions, want {P2_DECISIONS}")
            tally.record("timed episode", problems_found)
            self.returns.append(total)
        self.round_p99_ms.append(_quantile(self.decision_ms[first:], 0.99))

    def metrics(self) -> dict[str, float]:
        return {
            "decisions_per_s": statistics.median(self.rate),
            "rollout_decisions_per_s": statistics.median(self.rollout_rate),
            "op_s_p50": statistics.median(self.update_s),
            "eval_s": statistics.median(self.eval_s),
            "decision_ms_p50": _quantile(self.decision_ms, 0.50),
            # slow stretches of the machine come in bursts that can fill a
            # run's top 1% on their own; the median round discounts them
            "decision_ms_p99": statistics.median(self.round_p99_ms),
        }


class SimGreedyP2H200:
    """greedy_policy on AssignmentEnv over p2 at horizon 200.

    A round is one whole episode timed decision by decision (the
    operation) and one ``evaluate`` pass of greedy_policy at the default
    horizon.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.rate: list[float] = []          # decisions / episode wall time
        self.rollout_rate: list[float] = []  # decisions / time in policy + step
        self.episode_s: list[float] = []
        self.eval_s: list[float] = []
        self.decision_ms: list[float] = []
        self.returns: list[float] = []

    def setup(self) -> None:
        net = problems.build_problem("p2", horizon=float(SIM_HORIZON))
        self.env = env_mod.AssignmentEnv(net, seed=np.random.SeedSequence(self.seed))
        self.env.reset()

    def round(self, tally: Tally) -> None:
        env = self.env
        first = len(self.decision_ms)
        t0 = time.perf_counter()
        obs = env.reset()
        total, n = 0.0, 0
        while not env.done:
            t1 = time.perf_counter()
            result = env.step(env_mod.greedy_policy(obs))
            self.decision_ms.append((time.perf_counter() - t1) * 1e3)
            obs = result.observation
            total += result.reward
            n += 1
        wall = time.perf_counter() - t0
        self.episode_s.append(wall)
        self.rate.append(n / wall)
        self.rollout_rate.append(n / (sum(self.decision_ms[first:]) / 1e3))
        self.returns.append(total)
        tally.record(f"episode {len(self.episode_s)}",
                     check_sim_episode(n, total, env.net.cum_reward))

        t0 = time.perf_counter()
        _, _, returns = ppo.evaluate(env_mod.greedy_policy, "p2",
                                     episodes=EVAL_EPISODES, seed=self.seed + 977)
        self.eval_s.append(time.perf_counter() - t0)
        for ret in returns:
            tally.record("eval episode", check_return(float(ret)))
        self.returns.extend(returns.tolist())

    def metrics(self) -> dict[str, float]:
        return {
            "decisions_per_s": statistics.median(self.rate),
            "rollout_decisions_per_s": statistics.median(self.rollout_rate),
            "op_s_p50": statistics.median(self.episode_s),
            "eval_s": statistics.median(self.eval_s),
            "decision_ms_p50": _quantile(self.decision_ms, 0.50),
            "decision_ms_p99": _quantile(self.decision_ms, 0.99),
        }


WORKLOADS = {
    "train-graph-p2": lambda seed: TrainP2("graph", seed),
    "train-vector-p2": lambda seed: TrainP2("vector", seed),
    "sim-greedy-p2-h200": SimGreedyP2H200,
}


@dataclass
class RunResult:
    workload: object
    tally: Tally
    setup_s: list[float]
    rounds: int
    work_s: float      # the rounds
    wall_s: float      # set-ups and rounds

    def metrics(self) -> dict[str, float]:
        out = {"setup_s": statistics.median(self.setup_s)}
        out.update(self.workload.metrics())
        out["peak_rss_mb"] = peak_rss_mb()
        return out


def run(name: str, seed: int, seconds: float, rounds: int | None = None) -> RunResult:
    """Set the workload up repeatedly, then run rounds for ``seconds``.

    With ``rounds`` given, set up once and run exactly that many rounds: the
    same work as an earlier run that made that many, since every input
    derives from ``seed``.
    """
    t_start = time.perf_counter()
    tally = Tally()
    setup_s: list[float] = []
    gc.collect()
    while True:
        workload = None  # free the previous set-up before making the next
        fresh = WORKLOADS[name](seed)
        t0 = time.perf_counter()
        fresh.setup()
        setup_s.append(time.perf_counter() - t0)
        workload = fresh
        if rounds is not None or len(setup_s) >= MAX_SETUPS or (
                len(setup_s) >= MIN_SETUPS and time.perf_counter() - t_start >= SETUP_WINDOW_S):
            break
    t0 = time.perf_counter()
    done = 0
    while (done < rounds) if rounds is not None else (
            done == 0 or time.perf_counter() - t0 < seconds):
        try:
            workload.round(tally)
        except Exception as exc:  # a failing operation is counted, not fatal
            traceback.print_exc()
            tally.record(f"round {done + 1}", [f"{type(exc).__name__}: {exc}"])
        done += 1
    t_end = time.perf_counter()
    return RunResult(workload, tally, setup_s, done, t_end - t0, t_end - t_start)

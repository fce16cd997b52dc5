"""Benchmark table harness: baselines and both PPO variants on p1-p3.

Runs Random, Greedy, PPO-Vector and PPO-Graph on the three benchmark
problems and collects per-(problem, policy) episode statistics into a
results table, emitted as CSV and as a formatted text grid.  The vector
variant is attempted through the regular fixed-length interface, so on p3
it reports the not-representable error instead of a score.
"""
from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field

import numpy as np

from .env import NotRepresentableError, greedy_policy, random_policy
from .ppo import PPOConfig, evaluate, train

POLICIES = ("random", "greedy", "ppo-vector", "ppo-graph")
NOT_REPRESENTABLE = "not representable"


@dataclass
class TableRow:
    problem: str
    policy: str
    episodes: int
    seed: int
    mean: float | str      # NOT_REPRESENTABLE when no score exists
    std: float | str
    runtime_s: float

    def cell(self) -> str:
        if isinstance(self.mean, str):
            return self.mean
        return f"{self.mean:.1f} +- {self.std:.1f}"


@dataclass
class ResultsTable:
    rows: list[TableRow] = field(default_factory=list)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["problem", "policy", "episodes", "seed",
                             "mean", "std", "runtime_s"])
            for r in self.rows:
                mean = r.mean if isinstance(r.mean, str) else f"{r.mean:.6f}"
                std = r.std if isinstance(r.std, str) else f"{r.std:.6f}"
                writer.writerow([r.problem, r.policy, r.episodes, r.seed,
                                 mean, std, f"{r.runtime_s:.3f}"])

    def formatted(self) -> str:
        problems = sorted({r.problem for r in self.rows})
        policies = [p for p in POLICIES
                    if any(r.policy == p for r in self.rows)]
        cells = {(r.problem, r.policy): r.cell() for r in self.rows}
        widths = [max(len("problem"), *(len(p) for p in problems))]
        for pol in policies:
            widths.append(max(len(pol), *(len(cells.get((pr, pol), "-"))
                                          for pr in problems)))
        out = io.StringIO()
        header = ["problem"] + list(policies)
        out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)) + "\n")
        out.write("  ".join("-" * w for w in widths) + "\n")
        for pr in problems:
            row = [pr] + [cells.get((pr, pol), "-") for pol in policies]
            out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)) + "\n")
        return out.getvalue()


def default_train_configs(seed: int) -> dict[str, PPOConfig]:
    """Desk-scale budgets: enough updates for each problem to converge."""
    return {
        "p1": PPOConfig(total_updates=30, eval_every=5, eval_episodes=50,
                        target_return=1999.0, seed=seed),
        "p2": PPOConfig(total_updates=60, eval_every=10, eval_episodes=50,
                        seed=seed),
        "p3": PPOConfig(total_updates=60, eval_every=10, eval_episodes=50,
                        seed=seed),
    }


def _baseline_row(problem: str, policy_name: str, policy, episodes: int,
                  seed: int) -> TableRow:
    t0 = time.time()
    mean, std, _ = evaluate(policy, problem, episodes=episodes, seed=seed)
    return TableRow(problem, policy_name, episodes, seed,
                    float(mean), float(std), time.time() - t0)


def _trained_row(problem: str, algo: str, cfg: PPOConfig, episodes: int,
                 seed: int, verbose: bool) -> TableRow:
    t0 = time.time()
    try:
        # train builds its environments before any work, so a net without
        # a fixed-length encoding fails here at no training cost
        model, _, _ = train(problem, cfg, algo=algo, verbose=verbose)
    except NotRepresentableError:
        return TableRow(problem, f"ppo-{algo}", episodes, seed,
                        NOT_REPRESENTABLE, NOT_REPRESENTABLE,
                        time.time() - t0)
    mean, std, _ = evaluate(model, problem, episodes=episodes, seed=seed,
                            argmax=True, algo=algo)
    return TableRow(problem, f"ppo-{algo}", episodes, seed,
                    float(mean), float(std), time.time() - t0)


def reproduce_table(episodes: int = 1000, seed: int = 0,
                    skip_train: bool = False,
                    train_configs: dict[str, PPOConfig] | None = None,
                    csv_path=None, verbose: bool = False) -> ResultsTable:
    """Evaluate every (problem, policy) pair and return the results table."""
    cfgs = train_configs or default_train_configs(seed)
    table = ResultsTable()
    for problem in ("p1", "p2", "p3"):
        table.rows.append(_baseline_row(problem, "random", random_policy,
                                        episodes, seed))
        table.rows.append(_baseline_row(problem, "greedy", greedy_policy,
                                        episodes, seed))
        if skip_train:
            continue
        for algo in ("vector", "graph"):
            table.rows.append(_trained_row(problem, algo, cfgs[problem],
                                           episodes, seed, verbose))
    if csv_path is not None:
        table.to_csv(csv_path)
    return table

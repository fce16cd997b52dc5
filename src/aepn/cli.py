"""Command-line front end: simulate, expand, map, train, evaluate, reproduce."""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .env import (AssignmentEnv, action_node_ids, greedy_policy, random_policy,
                  write_trace_csv)
from .expand import expand
from .graph import export_dot, map_to_graph, save_graph
from .net import AEPNError, load_net, save_net
from .nn.models import load_checkpoint
from .ppo import PPOConfig, evaluate, train
from .problems import PROBLEMS, build_problem

BASELINES = {"greedy": greedy_policy, "random": random_policy}


def _load_source(args, parser) -> "object":
    if getattr(args, "net", None):
        return load_net(args.net)
    if getattr(args, "problem", None):
        return build_problem(args.problem)
    parser.error("either --net or --problem is required")


def _cmd_simulate(args, parser) -> int:
    net = _load_source(args, parser)
    policy = BASELINES[args.policy]
    rng = np.random.default_rng(args.seed)
    env = AssignmentEnv(net, seed=np.random.SeedSequence(args.seed))
    returns, rows = [], []
    for episode in range(args.episodes):
        obs, done, total = env.reset(), False, 0.0
        while not done:
            k = policy(obs, rng)
            node = action_node_ids(obs.pairs)[k]
            result = env.step(k)
            rows.append((episode, result.info["step"], obs.clock, node, result.reward))
            print(f"episode {episode}  clock {result.info['clock']:7.3f}  "
                  f"fired {node}  reward {result.reward:.2f}")
            total += result.reward
            done = result.done
            obs = result.observation
        returns.append(total)
        print(f"episode {episode}  return {total:.2f}")
    print(f"mean return over {args.episodes} episode(s): "
          f"{float(np.mean(returns)):.2f}")
    if args.out:
        write_trace_csv(rows, args.out)
    return 0


def _cmd_expand(args, parser) -> int:
    net, _ = expand(load_net(args.net))
    save_net(net, args.out)
    print(f"expanded net written to {args.out}")
    return 0


def _cmd_map(args, parser) -> int:
    graph, _ = map_to_graph(load_net(args.net))
    if args.dot:
        text = export_dot(graph)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            print(text)
    else:
        if not args.out:
            parser.error("--out is required unless --dot prints to stdout")
        save_graph(graph, args.out)
    n_actions = sum(1 for n in graph.nodes if n.type == "A_Transition")
    print(f"graph: {len(graph.nodes)} nodes, {len(graph.edges)} edges, "
          f"{n_actions} action nodes", file=sys.stderr)
    return 0


def _cmd_train(args, parser) -> int:
    cfg = PPOConfig.from_json(args.config) if args.config else PPOConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    _, curve, steps = train(args.problem, cfg, algo=args.algo,
                            curve_csv=args.curve, checkpoint=args.out,
                            verbose=True)
    best = max(row[2] for row in curve) if curve else float("nan")
    print(f"trained {args.problem}/{args.algo}: {steps} decision steps, "
          f"best eval mean {best:.1f}")
    return 0


def _cmd_evaluate(args, parser) -> int:
    model, meta = load_checkpoint(args.checkpoint)
    extra = meta.get("extra", {})
    problem = args.problem or extra.get("problem")
    if not problem:
        parser.error("checkpoint does not name a problem; pass --problem")
    algo = extra.get("algo", model.kind)
    mean, std, returns = evaluate(model, problem, episodes=args.episodes,
                                  seed=args.seed, argmax=not args.sample,
                                  algo=algo)
    print(f"{problem} {algo} over {args.episodes} episodes: "
          f"mean {mean:.1f}  std {std:.1f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("episode,return\n")
            for i, r in enumerate(returns):
                fh.write(f"{i},{r:.6f}\n")
    return 0


def _cmd_reproduce(args, parser) -> int:
    from .reproduce import reproduce_table
    table = reproduce_table(episodes=args.episodes, seed=args.seed,
                            skip_train=args.skip_train, csv_path=args.out,
                            verbose=args.verbose)
    print(table.formatted(), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aepn",
        description="Task-assignment nets: simulation, graph mapping, PPO")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a net under a baseline policy")
    p.add_argument("--net", help="net description JSON")
    p.add_argument("--problem", choices=sorted(PROBLEMS),
                   help="built-in benchmark instead of --net")
    p.add_argument("--policy", choices=sorted(BASELINES), default="greedy")
    p.add_argument("--episodes", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the episode trace CSV here")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("expand", help="rewrite a net to single-token form")
    p.add_argument("--net", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0, help="unused; accepted "
                   "for interface uniformity")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("map", help="read an expanded net out as a graph")
    p.add_argument("--net", required=True, help="expanded net JSON")
    p.add_argument("--out")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    p.add_argument("--seed", type=int, default=0, help="unused; accepted "
                   "for interface uniformity")
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("train", help="train a policy on a benchmark problem")
    p.add_argument("--problem", required=True, choices=sorted(PROBLEMS))
    p.add_argument("--algo", choices=("graph", "vector"), default="graph")
    p.add_argument("--config", help="PPO config JSON")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--episodes", type=int, default=None, help="unused; "
                   "training length comes from the config")
    p.add_argument("--curve", help="write the learning curve CSV here")
    p.add_argument("--out", help="write the model checkpoint here")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="score a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--problem", choices=sorted(PROBLEMS))
    p.add_argument("--episodes", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample", action="store_true",
                   help="sample actions instead of argmax")
    p.add_argument("--out", help="write per-episode returns CSV here")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("reproduce", help="benchmark table over all problems")
    p.add_argument("--episodes", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--skip-train", action="store_true",
                   help="baselines only; skip both PPO variants")
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--out", help="write the results CSV here")
    p.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (AEPNError, ValueError, OSError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

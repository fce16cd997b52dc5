"""Command-line interface: subcommands, exit codes, determinism."""
import csv
import json

import pytest

from aepn.cli import main

GOLDEN = "tests/data/two_candidate_net.json"


def test_bad_arguments_exit_2(capsys):
    for argv in ([], ["frobnicate"], ["expand"], ["train"],
                 ["simulate", "--policy", "psychic"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv
        capsys.readouterr()


def test_map_without_sink_exit_2(capsys, tmp_path):
    expanded = tmp_path / "expanded.json"
    main(["expand", "--net", GOLDEN, "--out", str(expanded)])
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["map", "--net", str(expanded)])  # neither --out nor --dot
    assert err.value.code == 2
    assert "--out is required" in capsys.readouterr().err


def test_simulate_missing_source_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["simulate"])
    assert err.value.code == 2
    assert "--net or --problem" in capsys.readouterr().err


def test_runtime_failure_exit_1(capsys, tmp_path):
    assert main(["expand", "--net", "no/such/file.json",
                 "--out", str(tmp_path / "x.json")]) == 1
    assert "error:" in capsys.readouterr().err
    broken = tmp_path / "broken.json"
    broken.write_text('{"places": [{"id": "p"}], "transitions": [], '
                      '"arcs": [{"source": "p", "target": "p"}]}')
    assert main(["expand", "--net", str(broken),
                 "--out", str(tmp_path / "x.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_prints_trace_and_returns(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    code = main(["simulate", "--problem", "p1", "--policy", "greedy",
                 "--episodes", "2", "--seed", "0", "--out", str(trace)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("return 2000.00") == 2
    assert "mean return over 2 episode(s): 2000.00" in out
    assert "fired start#" in out
    with open(trace, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["episode", "step", "clock", "action", "reward"]
    assert len(rows) == 21


def test_simulate_deterministic_under_seed(capsys):
    def run():
        main(["simulate", "--problem", "p2", "--policy", "random",
              "--episodes", "2", "--seed", "11"])
        return capsys.readouterr().out

    assert run() == run()


def test_expand_then_map_pipeline(capsys, tmp_path):
    expanded = tmp_path / "expanded.json"
    graph = tmp_path / "graph.json"
    assert main(["expand", "--net", GOLDEN, "--out", str(expanded)]) == 0
    capsys.readouterr()
    assert main(["map", "--net", str(expanded), "--out", str(graph)]) == 0
    err = capsys.readouterr().err
    assert "graph: 5 nodes, 6 edges, 2 action nodes" in err
    doc = json.loads(graph.read_text())
    actions = [n for n in doc["nodes"] if n["type"] == "A_Transition"]
    assert len(actions) == 2
    assert {n["id"] for n in actions} == {"start#0", "start#1"}


def test_map_dot_output(capsys, tmp_path):
    expanded = tmp_path / "expanded.json"
    main(["expand", "--net", GOLDEN, "--out", str(expanded)])
    capsys.readouterr()
    assert main(["map", "--net", str(expanded), "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert '"start#0" [shape=box' in out


def test_map_rejects_unexpanded_net(capsys, tmp_path):
    assert main(["map", "--net", GOLDEN, "--dot"]) == 1
    assert "error:" in capsys.readouterr().err


def test_train_evaluate_cycle(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "total_updates": 1, "rollout": 16, "num_envs": 2, "minibatch": 8,
        "epochs": 1, "eval_every": 1, "eval_episodes": 2, "hidden": 8,
        "rounds": 1, "seed": 0}))
    ckpt = tmp_path / "model.npz"
    curve = tmp_path / "curve.csv"
    code = main(["train", "--problem", "p1", "--algo", "graph",
                 "--config", str(cfg), "--curve", str(curve),
                 "--out", str(ckpt)])
    out = capsys.readouterr().out
    assert code == 0
    assert "trained p1/graph: 16 decision steps" in out
    assert ckpt.exists() and curve.exists()

    returns_csv = tmp_path / "returns.csv"
    code = main(["evaluate", "--checkpoint", str(ckpt), "--episodes", "3",
                 "--seed", "1", "--out", str(returns_csv)])
    out = capsys.readouterr().out
    assert code == 0
    assert "p1 graph over 3 episodes" in out  # problem read from checkpoint
    with open(returns_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["episode", "return"]
    assert len(rows) == 4


def test_train_rejects_unknown_config_key(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"total_updates": 1, "warp_speed": 9}')
    assert main(["train", "--problem", "p1", "--config", str(cfg)]) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_evaluate_missing_checkpoint_exit_1(capsys):
    assert main(["evaluate", "--checkpoint", "no/such/model.npz"]) == 1
    assert "error:" in capsys.readouterr().err


def test_reproduce_skip_train(capsys, tmp_path):
    out_csv = tmp_path / "table.csv"
    code = main(["reproduce", "--episodes", "20", "--seed", "0",
                 "--skip-train", "--out", str(out_csv)])
    printed = capsys.readouterr().out
    assert code == 0
    for name in ("p1", "p2", "p3"):
        assert name in printed
    with open(out_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["problem", "policy", "episodes", "seed",
                       "mean", "std", "runtime_s"]
    body = rows[1:]
    assert len(body) == 6  # 3 problems x 2 baselines when training is skipped
    assert {r[0] for r in body} == {"p1", "p2", "p3"}
    assert {r[1] for r in body} == {"greedy", "random"}
    p1_greedy = next(r for r in body if r[0] == "p1" and r[1] == "greedy")
    assert float(p1_greedy[4]) == 2000.0 and float(p1_greedy[5]) == 0.0


def test_reproduce_deterministic_modulo_runtime(capsys, tmp_path):
    def run(path):
        main(["reproduce", "--episodes", "10", "--seed", "3",
              "--skip-train", "--out", str(path)])
        capsys.readouterr()
        with open(path, newline="", encoding="utf-8") as fh:
            return [row[:6] for row in csv.reader(fh)]  # drop runtime column

    a = run(tmp_path / "a.csv")
    b = run(tmp_path / "b.csv")
    assert a == b


def test_trained_row_reports_p3_vector_without_training(monkeypatch):
    import aepn.ppo
    from aepn.ppo import PPOConfig
    from aepn.reproduce import NOT_REPRESENTABLE, _trained_row

    def no_rollouts(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(aepn.ppo, "collect_rollouts", no_rollouts)
    row = _trained_row("p3", "vector", PPOConfig(total_updates=1), episodes=5,
                       seed=0, verbose=False)
    assert (row.problem, row.policy) == ("p3", "ppo-vector")
    assert row.mean == row.std == NOT_REPRESENTABLE
    assert row.cell() == NOT_REPRESENTABLE

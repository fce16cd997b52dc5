"""Tests of the benchmark harness itself: python3 -m pytest perfbench"""
import json
import re
from pathlib import Path

import pytest

import aepn.env
import spans
import workloads

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_self_time_on_synthetic_tree():
    # a [0,10] holds b [1,4] (which holds c [2,3]) and a second b [5,7]
    names = ["a", "b", "c", "b"]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 7.0]
    parent = [-1, 0, 1, 0]
    assert spans.self_times(names, start, end, parent) == {"a": 5.0, "b": 4.0, "c": 1.0}


def test_tracer_nests_spans_and_covers_top_level_only():
    tracer = spans.Tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.finish(inner)
    tracer.finish(outer)
    assert tracer.parent == [-1, 0]
    own = tracer.self_times()
    assert own["outer"] + own["inner"] == pytest.approx(tracer.covered())
    assert tracer.calls() == {"outer": 1, "inner": 1}


def _targets():
    return [spans._resolve(module, path) for _, module, path in spans.SPANS]


def test_wrappers_are_removed_after_a_traced_run():
    originals = [vars(owner)[attr] for owner, attr in _targets()]
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with spans.traced(tracer):
            assert all(vars(owner)[attr] is not raw
                       for (owner, attr), raw in zip(_targets(), originals))
            result = workloads.run("sim-greedy-p2-h200", seed=3, seconds=1, rounds=1)
            raise RuntimeError("leave the block by an exception")
    assert all(vars(owner)[attr] is raw for (owner, attr), raw in zip(_targets(), originals))
    recorded = len(tracer.names)
    assert recorded > 0 and result.tally.failed == 0
    workloads.run("sim-greedy-p2-h200", seed=3, seconds=1, rounds=1)
    assert len(tracer.names) == recorded


def test_a_missing_span_target_is_listed_not_fatal(monkeypatch):
    monkeypatch.setattr(spans, "SPANS", spans.SPANS + [("gone", "aepn.env", "no_such_callable")])
    tracer = spans.Tracer()
    with spans.traced(tracer):
        pass
    assert tracer.missing == ["aepn.env.no_such_callable"]


def test_traced_run_reports_every_layer_metric_and_changes_no_output():
    base = workloads.run("sim-greedy-p2-h200", seed=4, seconds=1, rounds=1)
    tracer = spans.Tracer()
    with spans.traced(tracer):
        again = workloads.run("sim-greedy-p2-h200", seed=4, seconds=1, rounds=1)
    assert again.workload.returns == base.workload.returns
    metrics = spans.layer_metrics(tracer, base.work_s, again.work_s, again.wall_s)
    assert set(metrics) == set(spans.PER_LAYER)
    assert metrics["env.greedy_policy.calls"] == 200 + workloads.EVAL_EPISODES * workloads.P2_DECISIONS
    assert metrics["nn.act.calls"] == 0
    assert metrics["graph.nodes_max"] > 500
    assert 0.0 <= metrics["trace.uncovered_frac"] < 0.1


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == workloads.END_TO_END
    assert declared_layer == spans.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for name in [*declared_e2e, *declared_layer, *workloads.WORKLOADS]:
        assert NAME_RE.match(name), name


def test_a_failed_output_check_shows_in_failed_frac(monkeypatch):
    tally = workloads.Tally()
    tally.record("good", workloads.check_sim_episode(200, 200 * 200.0, 200 * 200.0))
    tally.record("bad", workloads.check_sim_episode(200, 200 * 200.0, 200 * 200.0 + 5))
    assert (tally.attempted, tally.failed, tally.failed_frac) == (2, 1, 0.5)

    # a step reward that disagrees with the net's reward tally fails the episode
    real_step = aepn.env.AssignmentEnv.step

    def inflated(self, node_id):
        out = real_step(self, node_id)
        out.reward += 1.0
        return out

    monkeypatch.setattr(aepn.env.AssignmentEnv, "step", inflated)
    result = workloads.run("sim-greedy-p2-h200", seed=5, seconds=1, rounds=1)
    assert result.tally.failed >= 1
    assert result.tally.failed_frac > 0
    assert "cum_reward" in result.tally.failures[0]


@pytest.mark.parametrize("stats,changed,ok", [
    ({"policy_loss": 0.1, "value_loss": 2.0, "entropy": 0.5, "batches": 32}, True, True),
    ({"policy_loss": float("nan"), "value_loss": 2.0, "entropy": 0.5, "batches": 32}, True, False),
    ({"policy_loss": 0.1, "value_loss": 2.0, "entropy": 0.5, "batches": 32}, False, False),
])
def test_update_check(stats, changed, ok):
    assert (workloads.check_update(stats, changed) == []) is ok


def test_return_check_uses_the_reachable_p2_range():
    assert workloads.check_return(2000.0) == []
    assert workloads.check_return(699.0) != []
    assert workloads.check_return(2301.0) != []

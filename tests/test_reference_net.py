"""Differential test: MarkedAEPN against the reference interpreter.

Both sides start from the same net and seed.  Every firing is compared as
it happens (transition, binding value, clock, tag and reward), then every
decision's action pairs; the agent's pick (the first pair, or a seeded
random one) is fired on both sides.
"""
import importlib.util
import os
from pathlib import Path
from unittest import mock

import numpy as np

import aepn.net as net_mod
from aepn.net import LivelockError, build_net
from aepn.problems import build_problem
from helpers import random_net_spec
from reference_net import ReferenceNet, binding_key

# an agent can keep the turn forever at one clock (an action that gives its
# tokens straight back), so a run stops comparing after this many decisions
MAX_DECISIONS = 200
# low enough that the livelocking nets below reach it in milliseconds
LIVELOCK_LIMIT = 300


def _turn_net_spec() -> dict:
    """``TURN_NET`` of ``tools/digest.py``, which pins the A-E turn."""
    path = Path(__file__).resolve().parent.parent / "tools" / "digest.py"
    spec = importlib.util.spec_from_file_location("aepn_digest", path)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # the script pins BLAS threads on import
        spec.loader.exec_module(module)
    return module.TURN_NET


def _recording(net, rows: list) -> None:
    """Append a reference-style trace row to ``rows`` after every firing."""
    fire = net.fire

    def fire_and_record(tr, binding):
        delta = fire(tr, binding)
        tid = tr if isinstance(tr, str) else tr.id
        rows.append((tid, binding.value_key(), net.clock, net.tag, net.cum_reward))
        return delta

    net.fire = fire_and_record


def _run(step):
    try:
        return step(), None
    except LivelockError as exc:
        return None, exc


def compare(template, seed: int, policy_seed: int | None) -> str:
    """Run both sides to the horizon (or a livelock, or the decision cap);
    returns how the run ended."""
    real = template.clone()
    real.reseed(seed)
    ref = ReferenceNet(template, seed)
    rows: list = []
    _recording(real, rows)
    pick = None if policy_seed is None else np.random.default_rng(policy_seed)
    for decision in range(MAX_DECISIONS):
        real_pairs, real_err = _run(real.run_until_decision)
        ref_pairs, ref_err = _run(ref.run_until_decision)
        where = f"decision {decision}"
        for i, (got, want) in enumerate(zip(rows, ref.trace)):
            assert got == want, f"{where}, firing {i}"
        assert len(rows) == len(ref.trace), where
        assert (real_err is None) == (ref_err is None), f"{where}: {real_err or ref_err}"
        if real_err is not None:
            return "livelock"
        assert (real.clock, real.tag, real.cum_reward) == (ref.clock, ref.tag, ref.reward), where
        assert ([(tr.id, b.value_key()) for tr, b in real_pairs]
                == [(tr.id, binding_key(a)) for tr, a in ref_pairs]), where
        if not real_pairs:
            assert real.clock >= real.horizon, where
            return "horizon"
        k = 0 if pick is None else int(pick.integers(len(real_pairs)))
        real.fire(*real_pairs[k])
        ref.fire(*ref_pairs[k])
    return "cap"


def _corpus_net(seed: int, tag: str):
    spec = random_net_spec(np.random.default_rng(seed))
    spec["tag"] = tag
    return build_net(spec)


# nets the random corpus rarely or never produces
SPIN_NET = {  # an evolution that gives its token straight back: livelock
    "places": [{"id": "p", "schema": []}],
    "transitions": [{"id": "spin", "tag": "E"}],
    "arcs": [{"source": "p", "target": "spin"},
             {"source": "spin", "target": "p", "expr": {"kind": "identity"}}],
    "initial_marking": {"p": [{"time": 0.0, "attrs": {}}] * 2},
    "tag": "A", "horizon": 5.0,
}
CHAIN_NET = {  # zero-delay evolutions in a chain, and two action transitions
    "places": [{"id": "a", "schema": ["x"]}, {"id": "b", "schema": ["x"]},
               {"id": "c", "schema": ["x"]}, {"id": "r", "schema": []}],
    "transitions": [{"id": "ab", "tag": "E", "reward": 1.0},
                    {"id": "bc", "tag": "E", "reward": "b.x"},
                    {"id": "take", "tag": "A", "reward": "c.x"},
                    {"id": "skip", "tag": "A", "reward": -1.0, "guard": "c.x > 0.5"},
                    {"id": "refill", "tag": "E"}],
    "arcs": [{"source": "a", "target": "ab"},
             {"source": "ab", "target": "b", "expr": {"kind": "identity"}},
             {"source": "b", "target": "bc"},
             {"source": "bc", "target": "c", "expr": {"kind": "identity"}},
             {"source": "c", "target": "take"}, {"source": "r", "target": "take"},
             {"source": "take", "target": "r",
              "expr": {"kind": "identity", "from": "r", "delay": 0.5}},
             {"source": "c", "target": "skip"},
             {"source": "r", "target": "refill"},
             {"source": "refill", "target": "r",
              "expr": {"kind": "identity", "delay": {"dist": "exponential", "rate": 2.0}}},
             {"source": "refill", "target": "a", "expr": {"kind": "emit", "attrs": {
                 "x": {"dist": "uniform", "low": 0, "high": 1, "round": 3}}}}],
    "initial_marking": {"a": [{"time": 0.0, "attrs": {"x": v}} for v in (0.2, 0.7, 0.9)],
                        "r": [{"time": 0.0, "attrs": {}}]},
    "tag": "E", "horizon": 8.0,
}


def _nets():
    for seed in range(60):
        for tag in ("A", "E"):
            yield f"corpus{seed}-{tag}", _corpus_net(seed, tag)
    for problem in ("p1", "p2", "p3"):
        yield problem, build_problem(problem)
    yield "turn", build_net(_turn_net_spec())
    yield "spin", build_net(SPIN_NET)
    yield "chain", build_net(CHAIN_NET)


def test_marked_net_matches_the_reference_interpreter(monkeypatch):
    monkeypatch.setattr(net_mod, "LIVELOCK_LIMIT", LIVELOCK_LIMIT)
    endings: dict[str, int] = {}
    for name, template in _nets():
        for seed, policy_seed in ((0, None), (1, 7)):
            try:
                ending = compare(template, seed, policy_seed)
            except AssertionError as exc:
                raise AssertionError(f"{name}, seed {seed}, policy seed "
                                     f"{policy_seed}: {exc}") from None
            endings[ending] = endings.get(ending, 0) + 1
    # the cases reach every way a run can end
    assert endings.get("horizon", 0) > 100 and endings.get("livelock", 0) >= 2, endings

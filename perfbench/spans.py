"""In-memory span tracing of aepn's public callables, from outside the package.

``traced(tracer)`` replaces each callable named in ``SPANS`` by a wrapper
that records one span (name, start, end, parent) per call, and puts the
original objects back when the block ends, so untraced runs execute the
unwrapped code.  A few wrappers also count work at the same boundary
(bindings enumerated, graph sizes, parameters updated).

A span's self time is its duration minus the time its direct children
cover; summed over all spans it equals the time covered by top-level spans.
"""
from __future__ import annotations

import collections
import contextlib
import importlib
import math
import time

import numpy as np

from aepn.net import TAG_EVOLUTION

# (span name, module, attribute path).  Each target is patched under the name
# its callers look it up by: ``expand`` and ``map_to_graph`` are called from
# ``aepn.env``, ``compute_gae``/``clip_grad_norm``/``build_problem`` from
# ``aepn.ppo``; the benchmark itself calls through module attributes.
SPANS = [
    ("net.run_until_decision", "aepn.net", "MarkedAEPN.run_until_decision"),
    ("net.fire", "aepn.net", "MarkedAEPN.fire"),
    ("net.enabled_bindings", "aepn.net", "MarkedAEPN.enabled_bindings"),
    ("net.clock_advance_target", "aepn.net", "MarkedAEPN.clock_advance_target"),
    ("net.clone", "aepn.net", "MarkedAEPN.clone"),
    ("expand.expand", "aepn.env", "expand"),
    ("graph.map_to_graph", "aepn.env", "map_to_graph"),
    ("env.AssignmentEnv.step", "aepn.env", "AssignmentEnv.step"),
    ("env.AssignmentEnv.reset", "aepn.env", "AssignmentEnv.reset"),
    ("env.VectorEnv.step", "aepn.env", "VectorEnv.step"),
    ("env.VectorEnv.reset", "aepn.env", "VectorEnv.reset"),
    ("env.VectorEnv.init", "aepn.env", "VectorEnv.__init__"),
    ("env.greedy_policy", "aepn.env", "greedy_policy"),
    ("nn.GraphBatch.from_graphs", "aepn.nn.models", "GraphBatch.from_graphs"),
    ("nn.HeteroGNN.encode", "aepn.nn.models", "HeteroGNN.encode"),
    ("nn.act", "aepn.nn.models", "GraphActorCritic.act"),
    ("nn.act", "aepn.nn.models", "VectorActorCritic.act"),
    ("nn.state_value", "aepn.nn.models", "GraphActorCritic.state_value"),
    ("nn.state_value", "aepn.nn.models", "VectorActorCritic.state_value"),
    ("nn.evaluate_batch", "aepn.nn.models", "GraphActorCritic.evaluate_batch"),
    ("nn.evaluate_batch", "aepn.nn.models", "VectorActorCritic.evaluate_batch"),
    ("nn.model_init", "aepn.nn.models", "GraphActorCritic.__init__"),
    ("nn.model_init", "aepn.nn.models", "VectorActorCritic.__init__"),
    ("nn.tensor.backward", "aepn.nn.tensor", "Tensor.backward"),
    ("nn.optim.Adam.step", "aepn.nn.optim", "Adam.step"),
    ("nn.optim.clip_grad_norm", "aepn.ppo", "clip_grad_norm"),
    ("ppo.collect_rollouts", "aepn.ppo", "collect_rollouts"),
    ("ppo.ppo_update", "aepn.ppo", "ppo_update"),
    ("ppo.compute_gae", "aepn.ppo", "compute_gae"),
    ("ppo.evaluate", "aepn.ppo", "evaluate"),
    ("problems.build_problem", "aepn.problems", "build_problem"),
    ("problems.build_problem", "aepn.ppo", "build_problem"),
]

_ROOT = -1

# per-layer metric -> unit: calls and self time of every span name, then the
# counts kept at span boundaries and the tracing harness's own figures
PER_LAYER = {}
for _name in sorted({n for n, _, _ in SPANS}):
    PER_LAYER[f"{_name}.calls"] = "count"
    PER_LAYER[f"{_name}.self_s"] = "s"
PER_LAYER.update({
    "net.binding_combos": "count",       # token combinations enumerated
    "net.bindings_enabled": "count",
    "net.binding_yield": "frac",         # enabled over combinations
    "net.evolution_firings": "count",
    "net.clock_jumps": "count",          # clock advances inside the horizon
    "graph.nodes_mean": "count",
    "graph.nodes_max": "count",
    "graph.edges_mean": "count",
    "graph.actions_mean": "count",
    "nn.batch_graphs_mean": "count",     # graphs per GraphBatch
    "nn.optim.param_scalars": "count",   # scalars Adam updates per step
    "trace.overhead_frac": "frac",       # traced over untraced work time, minus 1
    "trace.uncovered_frac": "frac",      # share of traced wall time in no span
})


class Tracer:
    """Spans as parallel lists, plus counters kept at the span boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self._open: list[int] = []
        # input places per transition, keyed by the id of a net's arc list;
        # clones share their template's list, which is kept alive beside
        # its entry so the id cannot be reused
        self._inputs: dict[int, tuple[list, dict[str, list[str]]]] = {}
        self.missing: list[str] = []  # SPANS targets the program no longer has

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._open[-1] if self._open else _ROOT)
        self.end.append(math.nan)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def add(self, key: str, value: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def calls(self) -> dict[str, int]:
        return dict(collections.Counter(self.names))

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time direct children cover."""
        return self_times(self.names, self.start, self.end, self.parent)

    def covered(self) -> float:
        """Wall time inside some top-level span."""
        return sum(e - s for s, e, p in zip(self.start, self.end, self.parent)
                   if p == _ROOT)

    def save(self, path) -> None:
        names = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(names)}
        np.savez(path, names=np.asarray(names),
                 name=np.asarray([ids[n] for n in self.names], dtype=np.int32),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent, dtype=np.int64))


def self_times(names, start, end, parent) -> dict[str, float]:
    """Self time per span name from parallel span lists (parent -1: top level)."""
    dur = [e - s for s, e in zip(start, end)]
    own = list(dur)
    for i, p in enumerate(parent):
        if p != _ROOT:
            own[p] -= dur[i]
    out: dict[str, float] = {}
    for name, t in zip(names, own):
        out[name] = out.get(name, 0.0) + t
    return out


# -- counters kept at span boundaries ---------------------------------------

def _input_places(tracer: Tracer, net, tid: str) -> list[str]:
    entry = tracer._inputs.get(id(net.arcs))
    if entry is None:
        table: dict[str, list[str]] = {}
        for arc in net.arcs:
            if arc.source in net.places:
                table.setdefault(arc.target, []).append(arc.source)
        entry = tracer._inputs[id(net.arcs)] = (net.arcs, table)
    return entry[1].get(tid, [])


def _count_bindings(tracer: Tracer, args, out) -> None:
    net, tr = args[0], args[1]
    tid = tr if isinstance(tr, str) else tr.id
    combos = 1
    for pid in _input_places(tracer, net, tid):
        combos *= len(net.places[pid].tokens)
    tracer.add("net.binding_combos", combos)
    tracer.add("net.bindings_enabled", len(out))


def _count_fire(tracer: Tracer, args, out) -> None:
    net, tr = args[0], args[1]
    tid = tr if isinstance(tr, str) else tr.id
    if net.transitions[tid].tag == TAG_EVOLUTION:
        tracer.add("net.evolution_firings")


def _count_jump(tracer: Tracer, args, out) -> None:
    if out < args[0].horizon:
        tracer.add("net.clock_jumps")


def _count_graph(tracer: Tracer, args, out) -> None:
    graph, prov = out
    tracer.add("graph.nodes", len(graph.nodes))
    tracer.add("graph.edges", len(graph.edges))
    tracer.add("graph.actions", len(prov.action_origin))
    tracer.peak("graph.nodes_max", len(graph.nodes))


def _count_batch(tracer: Tracer, args, out) -> None:
    tracer.add("nn.batch_graphs", len(args[1]))


def _count_params(tracer: Tracer, args, out) -> None:
    tracer.peak("nn.optim.param_scalars", sum(p.data.size for p in args[0].params))


_COUNTERS = {
    "net.enabled_bindings": _count_bindings,
    "net.fire": _count_fire,
    "net.clock_advance_target": _count_jump,
    "graph.map_to_graph": _count_graph,
    "nn.GraphBatch.from_graphs": _count_batch,
    "nn.optim.Adam.step": _count_params,
}


def _wrap(fn, name: str, tracer: Tracer):
    count = _COUNTERS.get(name)

    def traced_call(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.finish(idx)
        if count is not None:
            count(tracer, args, out)
        return out

    traced_call.__wrapped__ = fn
    return traced_call


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Patch every ``SPANS`` target for the block; restore them on exit.

    A target that no longer exists is listed in ``tracer.missing`` and its
    span reports no calls.
    """
    saved = []
    try:
        for name, module, path in SPANS:
            try:
                owner, attr = _resolve(module, path)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                tracer.missing.append(f"{module}.{path}")
                continue
            if isinstance(raw, classmethod):
                patched = classmethod(_wrap(raw.__func__, name, tracer))
            else:
                patched = _wrap(raw, name, tracer)
            saved.append((owner, attr, raw))
            setattr(owner, attr, patched)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def layer_metrics(tracer: Tracer, untraced_work_s: float, traced_work_s: float,
                  traced_wall_s: float) -> dict[str, float]:
    """Every ``PER_LAYER`` metric of one traced run."""
    calls = tracer.calls()
    own = tracer.self_times()
    counts, maxima = tracer.counts, tracer.maxima

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name in sorted({n for n, _, _ in SPANS}):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = own.get(name, 0.0)
    maps = calls.get("graph.map_to_graph", 0)
    combos = counts.get("net.binding_combos", 0.0)
    out.update({
        "net.binding_combos": combos,
        "net.bindings_enabled": counts.get("net.bindings_enabled", 0.0),
        "net.binding_yield": ratio(counts.get("net.bindings_enabled", 0.0), combos),
        "net.evolution_firings": counts.get("net.evolution_firings", 0.0),
        "net.clock_jumps": counts.get("net.clock_jumps", 0.0),
        "graph.nodes_mean": ratio(counts.get("graph.nodes", 0.0), maps),
        "graph.nodes_max": maxima.get("graph.nodes_max", 0.0),
        "graph.edges_mean": ratio(counts.get("graph.edges", 0.0), maps),
        "graph.actions_mean": ratio(counts.get("graph.actions", 0.0), maps),
        "nn.batch_graphs_mean": ratio(counts.get("nn.batch_graphs", 0.0),
                                      calls.get("nn.GraphBatch.from_graphs", 0)),
        "nn.optim.param_scalars": maxima.get("nn.optim.param_scalars", 0.0),
        "trace.overhead_frac": traced_work_s / untraced_work_s - 1.0,
        "trace.uncovered_frac": 1.0 - tracer.covered() / traced_wall_s,
    })
    return out

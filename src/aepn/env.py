"""Decision-point environment over a marked net.

``AssignmentEnv`` exposes the net as a sequential decision process: every
observation is the assignment graph of the current expanded net, an action
is the id of one of its ``A_Transition`` nodes, and stepping fires the bound
source transition.  Evolution firings and clock advances run automatically
between decisions; their rewards are credited to the step that triggered
them.  Episodes end when the clock reaches the horizon.

``VectorEnv`` is the fixed-length alternative used by the flat-observation
baseline: token counts per declared color bucket, actions indexed by bucket
combination and resolved FIFO to the first matching enabled binding.  Nets
without a declared finite color space cannot use it and raise
:class:`NotRepresentableError`.
"""
from __future__ import annotations

import csv
import itertools
import weakref
from dataclasses import dataclass, field

import numpy as np

from .expand import expand
from .graph import AssignmentGraph, NodeProvenance, map_to_graph
from .net import AEPNError, Binding, MarkedAEPN, TAG_ACTION, Token


class NotRepresentableError(AEPNError):
    """The net has no finite color space, so no fixed-length encoding exists."""


@dataclass
class Observation:
    graph: AssignmentGraph
    provenance: NodeProvenance
    action_node_ids: list[str]
    clock: float


@dataclass
class StepResult:
    observation: Observation
    reward: float
    done: bool
    info: dict = field(default_factory=dict)


class AssignmentEnv:
    """Graph-observation environment over a net template."""

    def __init__(self, template: MarkedAEPN, seed=None):
        self.template = template
        self._seeds = (seed if isinstance(seed, np.random.SeedSequence)
                       else np.random.SeedSequence(seed))
        self.net: MarkedAEPN | None = None
        self.done = True
        self.episode = -1
        self._step = 0
        self.trace_rows: list[tuple] = []

    def reset(self, seed=None) -> Observation:
        self.net = self.template.clone()
        self.net.reseed(self._seeds.spawn(1)[0] if seed is None else seed)
        self.net.cum_reward = 0.0
        self.net.run_until_decision()
        self.done = self.net.clock >= self.net.horizon
        self.episode += 1
        self._step = 0
        self._obs = self._observe()
        return self._obs

    def _observe(self) -> Observation:
        expanded, emap = expand(self.net)
        graph, prov = map_to_graph(expanded, emap)
        return Observation(graph, prov, graph.action_node_ids(), self.net.clock)

    def step(self, node_id: str) -> StepResult:
        if self.done or self.net is None:
            raise AEPNError("step called on a finished episode; call reset first")
        origin = self._obs.provenance.action_origin.get(node_id)
        if origin is None:
            raise AEPNError(f"{node_id!r} is not an action node of the current observation")
        tid, binding = origin
        before = self.net.cum_reward
        clock = self.net.clock
        self.net.fire(tid, binding)
        if not (self.net.clock < self.net.horizon and self.net.any_action_binding()):
            self.net.run_until_decision()
        self.done = self.net.clock >= self.net.horizon
        reward = self.net.cum_reward - before
        self._obs = self._observe()
        self._step += 1
        self.trace_rows.append((self.episode, self._step, clock, node_id, reward))
        return StepResult(self._obs, reward, self.done,
                          {"clock": self.net.clock, "step": self._step})


def write_trace_csv(rows, path) -> None:
    """Episode trace rows (episode, step, clock, action, reward) as CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "step", "clock", "action", "reward"])
        writer.writerows(rows)


# -- baseline policies -----------------------------------------------------


def _binding_budget(binding: Binding) -> float:
    vals = [tok.attrs["budget"] for tok in binding.assignments.values()
            if "budget" in tok.attrs]
    return max(vals) if vals else 0.0


def greedy_policy(obs: Observation, rng=None) -> str:
    """Action node whose bound task has the largest budget; ties by node id."""
    def rank(nid: str):
        _, binding = obs.provenance.action_origin[nid]
        return (-_binding_budget(binding), nid)
    return min(obs.action_node_ids, key=rank)


def random_policy(obs: Observation, rng: np.random.Generator) -> str:
    return obs.action_node_ids[int(rng.integers(len(obs.action_node_ids)))]


# -- fixed-length (vector) interface ---------------------------------------


def _bucket_matches(bucket: dict, tok: Token) -> bool:
    for attr, spec in bucket.items():
        v = tok.attrs.get(attr)
        if v is None:
            return False
        if isinstance(spec, dict):
            if not (spec["min"] <= v < spec["max"]):
                return False
        elif v != spec:
            return False
    return True


class _ColorIndex:
    """Per-place bucket lookup: exact-valued buckets resolve by hash, the
    open (range) buckets by scan.  Returns the lowest matching index, the
    same answer the plain scan gives."""

    def __init__(self, buckets: list[dict]):
        self.buckets = buckets
        self.exact: dict[tuple, dict[tuple, int]] = {}
        self.ranged: list[int] = []
        for i, bucket in enumerate(buckets):
            if any(isinstance(v, dict) for v in bucket.values()):
                self.ranged.append(i)
            else:
                names = tuple(sorted(bucket))
                vals = tuple(bucket[k] for k in names)
                self.exact.setdefault(names, {}).setdefault(vals, i)

    def find(self, tok: Token):
        best = None
        for names, table in self.exact.items():
            try:
                vals = tuple(tok.attrs[k] for k in names)
            except KeyError:
                continue
            hit = table.get(vals)
            if hit is not None and (best is None or hit < best):
                best = hit
        for i in self.ranged:
            if best is not None and i > best:
                break
            if _bucket_matches(self.buckets[i], tok):
                best = i if best is None else min(best, i)
                break
        return best


def _bucket_index(buckets: list[dict], tok: Token, pid: str,
                  index: _ColorIndex | None = None) -> int:
    if index is not None:
        hit = index.find(tok)
        if hit is None:
            raise NotRepresentableError(
                f"token {tok!r} in {pid!r} matches no declared color")
        return hit
    for i, bucket in enumerate(buckets):
        if _bucket_matches(bucket, tok):
            return i
    raise NotRepresentableError(f"token {tok!r} in {pid!r} matches no declared color")


def vector_observation(net: MarkedAEPN, indexes=None) -> np.ndarray:
    """Token counts per (place, color bucket), concatenated in net order."""
    if net.color_spec is None:
        raise NotRepresentableError(
            "net declares no finite color space; the fixed-length observation "
            "is not representable")
    hits: list[int] = []
    offset = 0
    for pid, place in net.places.items():
        buckets = net.color_spec.get(pid)
        if buckets is None:
            raise NotRepresentableError(f"place {pid!r} has no declared colors")
        index = indexes.get(pid) if indexes else None
        for tok in place.tokens:
            hits.append(offset + _bucket_index(buckets, tok, pid, index))
        offset += len(buckets)
    return np.bincount(np.asarray(hits, dtype=np.intp),
                       minlength=offset).astype(np.float64)


def vector_action_table(template: MarkedAEPN) -> list[tuple]:
    """Every (action transition, per-place color combination); fixed order."""
    if template.color_spec is None:
        raise NotRepresentableError(
            "net declares no finite color space; the fixed-length action "
            "space is not representable")
    table: list[tuple] = []
    for tid in sorted(t.id for t in template.transitions.values()
                      if t.tag == TAG_ACTION):
        pids = template._in[tid]
        pools = [range(len(template.color_spec[pid])) for pid in pids]
        for combo in itertools.product(*pools):
            table.append((tid, tuple(zip(pids, combo))))
    return table


# per template: action table, its key -> index dict, per-place color index;
# built once and shared read-only by every VectorEnv over that template
_VECTOR_TABLES: "weakref.WeakKeyDictionary[MarkedAEPN, tuple]" = weakref.WeakKeyDictionary()


def _vector_tables(template: MarkedAEPN) -> tuple:
    tables = _VECTOR_TABLES.get(template)
    if tables is None:
        actions = vector_action_table(template)
        tables = _VECTOR_TABLES[template] = (
            actions, {key: i for i, key in enumerate(actions)},
            {pid: _ColorIndex(b) for pid, b in template.color_spec.items()})
    return tables


class VectorEnv:
    """Count-vector view of :class:`AssignmentEnv` with bucket-indexed actions."""

    def __init__(self, template: MarkedAEPN, seed=None):
        self.env = AssignmentEnv(template, seed)
        self.actions, self._index, self._color_index = _vector_tables(template)
        self.n_actions = len(self.actions)
        self.obs_dim = sum(len(b) for b in template.color_spec.values())

    @property
    def done(self) -> bool:
        return self.env.done

    def _snapshot(self):
        vec = vector_observation(self.env.net, self._color_index)
        mask = np.zeros(self.n_actions, dtype=bool)
        self._node_for: dict[int, str] = {}
        obs = self.env._obs
        spec = self.env.net.color_spec
        for nid in obs.action_node_ids:
            tid, binding = obs.provenance.action_origin[nid]
            key = (tid, tuple((pid, _bucket_index(spec[pid], tok, pid,
                                                  self._color_index[pid]))
                              for pid, tok in sorted(binding.assignments.items())))
            idx = self._index[key]
            if not mask[idx]:
                # FIFO: the first enabled binding claims the bucket combination
                mask[idx] = True
                self._node_for[idx] = nid
        return vec, mask

    def reset(self, seed=None):
        self.env.reset(seed)
        return self._snapshot()

    def step(self, action: int):
        node = self._node_for.get(int(action))
        if node is None:
            raise AEPNError(f"vector action {action} is not enabled")
        result = self.env.step(node)
        vec, mask = self._snapshot()
        return vec, mask, result.reward, result.done, result.info

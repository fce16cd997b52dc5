"""Decision-point environment over a marked net.

``AssignmentEnv`` exposes the net as a sequential decision process: every
observation is the assignment graph of the current marking, compiled to
arrays (:func:`~aepn.graph.compile_decision`), plus the ``(transition id,
binding)`` pairs its action nodes stand for, and action ``k`` fires
``pairs[k]``, the graph's ``k``-th ``A_Transition`` node.
Evolution firings and clock advances run automatically between decisions;
their rewards are credited to the step that triggered them.  Episodes end
when the clock reaches the horizon.

``VectorEnv`` is the fixed-length alternative used by the flat-observation
baseline.  It reads the net's enabled bindings, not the graph: token counts
per declared color bucket, actions indexed by bucket combination and
resolved FIFO to the first matching enabled binding.  Nets without a
declared finite color space cannot use it and raise
:class:`NotRepresentableError`.  On both environments an action is an
integer index, anything else raises :class:`AEPNError`, and stepping
returns a :class:`StepResult`.
"""
from __future__ import annotations

import csv
import itertools
import weakref
from dataclasses import dataclass, field

import numpy as np

from .graph import DecisionGraph, compile_decision
from .net import AEPNError, Binding, MarkedAEPN, TAG_ACTION, Token


class NotRepresentableError(AEPNError):
    """The net has no finite color space, so no fixed-length encoding exists."""


@dataclass
class Observation:
    graph: DecisionGraph
    pairs: list[tuple[str, Binding]]  # action k fires pairs[k]
    clock: float


@dataclass
class StepResult:
    observation: Observation | tuple[np.ndarray, np.ndarray]  # graph, or (vec, mask)
    reward: float
    done: bool
    info: dict = field(default_factory=dict)


class _Episode:
    """Episode core of both environments: clone and reseed the template, run
    to decisions, fire the chosen binding, count steps, then ``_observe``,
    which also sets ``_choices``, the enabled action index -> pair map."""

    def __init__(self, template: MarkedAEPN, seed=None):
        self.template = template
        self._seeds = (seed if isinstance(seed, np.random.SeedSequence)
                       else np.random.SeedSequence(seed))
        self.net: MarkedAEPN | None = None
        self.done = True
        self.episode = -1
        self._step = 0

    def _begin(self, seed):
        self.net = self.template.clone()
        self.net.reseed(self._seeds.spawn(1)[0] if seed is None else seed)
        self.net.cum_reward = 0.0
        pairs = self.net.run_until_decision()
        self.done = self.net.clock >= self.net.horizon
        self.episode += 1
        self._step = 0
        return self._observe(pairs)

    def _act(self, action) -> StepResult:
        if self.done:
            raise AEPNError("step called on a finished episode; call reset first")
        origin = (self._choices.get(action)
                  if isinstance(action, (int, np.integer)) else None)
        if origin is None:
            raise AEPNError(f"action {action!r} is not enabled")
        tid, binding = origin
        before = self.net.cum_reward
        self.net.fire(tid, binding)
        pairs = self.net.run_until_decision()
        self.done = self.net.clock >= self.net.horizon
        self._step += 1
        return StepResult(self._observe(pairs), self.net.cum_reward - before,
                          self.done, {"clock": self.net.clock, "step": self._step})


class AssignmentEnv(_Episode):
    """Graph-observation environment over a net template."""

    def reset(self, seed=None) -> Observation:
        return self._begin(seed)

    def _observe(self, pairs) -> Observation:
        if self.done:
            # the terminal graph shows the bindings enabled at the horizon;
            # run_until_decision hands none down there
            pairs = self.net.enabled_pairs(TAG_ACTION)
        graph = compile_decision(self.net, pairs)
        pairs = [(tr.id, binding) for tr, binding in pairs]
        self._choices = dict(enumerate(pairs))
        return Observation(graph, pairs, self.net.clock)

    def step(self, action: int) -> StepResult:
        return self._act(action)


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


def action_node_ids(pairs) -> list[str]:
    """Node id of each action as ``expand`` names its copies: ``f"{tid}#{j}"``
    for the ``j``-th binding of transition ``tid``."""
    seen: dict[str, int] = {}
    ids = []
    for tid, _ in pairs:
        j = seen[tid] = seen.get(tid, -1) + 1
        ids.append(f"{tid}#{j}")
    return ids


def greedy_policy(obs: Observation, rng=None) -> int:
    """Action whose bound task has the largest budget; ties go to the
    smaller action node id as a string (``"start#10" < "start#2"``)."""
    node_ids = action_node_ids(obs.pairs)
    return min(range(len(obs.pairs)),
               key=lambda k: (-_binding_budget(obs.pairs[k][1]), node_ids[k]))


def random_policy(obs: Observation, rng: np.random.Generator) -> int:
    return int(rng.integers(len(obs.pairs)))


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
    answer a first-match scan with ``_bucket_matches`` gives."""

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
                best = i
                break
        return best


def _bucket_index(index: _ColorIndex, tok: Token, pid: str) -> int:
    hit = index.find(tok)
    if hit is None:
        raise NotRepresentableError(f"token {tok!r} in {pid!r} matches no declared color")
    return hit


def vector_observation(net: MarkedAEPN, indexes=None) -> np.ndarray:
    """Token counts per (place, color bucket), concatenated in net order."""
    if net.color_spec is None:
        raise NotRepresentableError(
            "net declares no finite color space; the fixed-length observation "
            "is not representable")
    if indexes is None:
        indexes = {pid: _ColorIndex(b) for pid, b in net.color_spec.items()}
    hits: list[int] = []
    offset = 0
    for pid, place in net.places.items():
        index = indexes.get(pid)
        if index is None:
            raise NotRepresentableError(f"place {pid!r} has no declared colors")
        for tok in place.tokens:
            hits.append(offset + _bucket_index(index, tok, pid))
        offset += len(index.buckets)
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


class VectorEnv(_Episode):
    """``(vec, mask)`` view of the net's marking and enabled bindings; no graph."""

    def __init__(self, template: MarkedAEPN, seed=None):
        self.actions, self._index, self._color_index = _vector_tables(template)
        super().__init__(template, seed)
        self.n_actions = len(self.actions)
        self.obs_dim = sum(len(b) for b in template.color_spec.values())

    def _observe(self, pairs):
        vec = vector_observation(self.net, self._color_index)
        mask = np.zeros(self.n_actions, dtype=bool)
        self._choices: dict[int, tuple[str, Binding]] = {}
        if self.done:
            # the terminal mask shows the bindings enabled at the horizon, as
            # the graph does; run_until_decision hands none down there
            pairs = self.net.enabled_pairs(TAG_ACTION)
        # net order, then enumeration order: the order of expand's action copies
        for tr, binding in pairs:
            key = (tr.id, tuple((pid, _bucket_index(self._color_index[pid], tok, pid))
                                for pid, tok in sorted(binding.assignments.items())))
            idx = self._index[key]
            if not mask[idx]:
                # FIFO: the first enabled binding claims the bucket combination
                mask[idx] = True
                self._choices[idx] = (tr.id, binding)
        return vec, mask

    def reset(self, seed=None):
        return self._begin(seed)

    def step(self, action: int) -> StepResult:
        return self._act(action)

"""Reference interpreter for timed A-E net semantics.

Written to be obviously correct, not fast, and to be driven beside
:class:`aepn.net.MarkedAEPN` so that whole trajectories can be compared.
It copies a built net's structure, marking, clock, tag and horizon, and
from then on keeps its own state:

* **Bindings.**  A binding picks one token per input place.  At every step
  every binding of every transition is rebuilt from scratch with
  ``itertools.product`` over the input places sorted by id, tokens in
  insertion order.  A binding is enabled at time ``t`` when its latest
  token is available at ``t`` and the guard holds at ``t``.  Pairs come in
  net transition order, then product order.
* **Turns.**  From the tag held on entry, a phase with enabled pairs keeps
  the turn: the Action phase hands its pairs to the agent as the decision,
  the Evolution phase fires one of them.  A phase with none hands the turn
  to the other tag.  When neither phase has any, the clock jumps to the
  earliest future token time at which some binding is enabled (or to the
  horizon, where everything stops) and the Evolution phase moves first.
  Guard thresholds such as ``clock > q.due`` are not candidate times.
* **Draws.**  Each evolution firing draws ``rng.integers(len(pairs))`` for
  its pick, then the output arcs draw their samplers in arc order.
* **Livelock.**  More than ``aepn.net.LIVELOCK_LIMIT`` evolution firings at
  one clock value raise :class:`~aepn.net.LivelockError`.

Only ``Guard.evaluate``, ``ArcExpr.produce`` and ``Token.value_key`` are
shared with the implementation under test.
"""
from __future__ import annotations

import itertools

import numpy as np

import aepn.net as net_mod
from aepn.net import TAG_ACTION, TAG_EVOLUTION, LivelockError, MarkedAEPN


def binding_key(assignment: dict) -> tuple:
    """Value identity of a binding: sorted (place id, token value) pairs."""
    return tuple(sorted((pid, tok.value_key()) for pid, tok in assignment.items()))


class ReferenceNet:
    """Marking, clock, tag and reward of one net, run by the rules above.

    ``trace`` gets one ``(transition id, binding key, clock, tag, reward)``
    row per firing, evolution and action alike, taken after the firing.
    """

    def __init__(self, net: MarkedAEPN, seed):
        self.tokens = {pid: list(p.tokens) for pid, p in net.places.items()}
        self.origin = {pid: p.origin for pid, p in net.places.items()}
        self.transitions = list(net.transitions.values())
        self.inputs = {tr.id: sorted(a.source for a in net.arcs if a.target == tr.id)
                       for tr in self.transitions}
        self.outputs = {tr.id: [a for a in net.arcs if a.source == tr.id]
                        for tr in self.transitions}
        self.tag = net.tag
        self.clock = net.clock
        self.horizon = net.horizon
        self.reward = net.cum_reward
        self.rng = np.random.default_rng(seed)
        self.trace: list[tuple] = []

    def enabled(self, tr, at: float) -> list[tuple]:
        """Every ``(transition, assignment)`` of ``tr`` enabled at time ``at``."""
        pids = self.inputs[tr.id]
        out = []
        for combo in itertools.product(*(self.tokens[p] for p in pids)):
            if max(tok.time for tok in combo) > at:
                continue
            by_origin = {self.origin[p]: tok for p, tok in zip(pids, combo)}
            if tr.guard is None or tr.guard.evaluate(by_origin, at):
                out.append((tr, dict(zip(pids, combo))))
        return out

    def pairs(self, tag: str) -> list[tuple]:
        return [pair for tr in self.transitions if tr.tag == tag
                for pair in self.enabled(tr, self.clock)]

    def fire(self, tr, assignment: dict) -> None:
        by_origin = {self.origin[p]: tok for p, tok in assignment.items()}
        for pid, tok in assignment.items():
            pool = self.tokens[pid]
            del pool[next(i for i, t in enumerate(pool) if t is tok)]
        for arc in self.outputs[tr.id]:
            self.tokens[arc.target].append(arc.expr.produce(self.rng, self.clock, by_origin))
        if isinstance(tr.reward, tuple):
            _, place, attr = tr.reward
            self.reward += by_origin[place].attrs[attr]
        else:
            self.reward += tr.reward
        self.trace.append((tr.id, binding_key(assignment), self.clock, self.tag,
                           self.reward))

    def next_clock(self) -> float:
        """Earliest future token time with an enabled binding, else the horizon."""
        times = sorted({tok.time for pool in self.tokens.values() for tok in pool
                        if tok.time > self.clock})
        for t in times:
            if t >= self.horizon:
                break
            if any(self.enabled(tr, t) for tr in self.transitions):
                return t
        return self.horizon

    def run_until_decision(self) -> list[tuple]:
        """The decision's action pairs, or ``[]`` once the horizon is reached."""
        fired_here = 0   # evolution firings at this clock value
        idle = 0         # phases in a row that had nothing enabled
        while self.clock < self.horizon:
            pairs = self.pairs(self.tag)
            if pairs and self.tag == TAG_ACTION:
                return pairs
            if pairs:
                self.fire(*pairs[int(self.rng.integers(len(pairs)))])
                fired_here += 1
                if fired_here > net_mod.LIVELOCK_LIMIT:
                    raise LivelockError(f"livelock at clock {self.clock:g}")
                idle = 0
            elif idle == 0:
                idle = 1
                self.tag = TAG_EVOLUTION if self.tag == TAG_ACTION else TAG_ACTION
            else:
                self.clock = self.next_clock()
                self.tag = TAG_EVOLUTION
                fired_here = idle = 0
        return []

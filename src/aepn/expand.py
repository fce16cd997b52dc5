"""Single-token expansion of a marked net.

At a decision point the marked net is rewritten so that every place holds at
most one token and every enabled binding of an action transition becomes its
own transition.  The rewrite makes both the state and the action set explicit
as net structure, which is what the graph mapping feeds to a policy.

Rules:

* a place with n tokens becomes n copies ``id#0 .. id#n-1`` (token insertion
  order), each holding one token; an empty place is kept as a single empty
  copy under its original id,
* an evolution transition is copied once and wired to every copy of its
  input and output places; these arcs record connectivity only, the copy is
  never fired in the expanded form,
* an action transition becomes one copy ``id#j`` per enabled binding, its
  input arcs come from exactly the copies holding the binding's tokens, and
  each output arc targets the copy holding the binding's token of that place
  when the place is also an input, otherwise the first copy.

Firing an expanded action copy must change the marking (projected through
place origins) and the reward exactly as firing the source binding would;
:func:`validate_expanded` replays both sides to check this.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field

from .net import (Arc, Binding, MarkedAEPN, Place, TAG_EVOLUTION, Transition)


@dataclass
class ExpansionMap:
    """Provenance of an expansion, keyed by target element ids."""

    source: MarkedAEPN
    place_pairs: list[tuple[str, str]] = field(default_factory=list)
    # target action transition id -> (source transition id, binding)
    action_origin: dict[str, tuple[str, Binding]] = field(default_factory=dict)


def expand(net: MarkedAEPN) -> tuple[MarkedAEPN, ExpansionMap]:
    """Rewrite ``net`` into its single-token form; the source is untouched."""
    emap = ExpansionMap(net)
    places: list[Place] = []
    copies: dict[str, list[str]] = {}
    copy_of: dict[tuple[str, int], str] = {}  # (place id, token object id) -> copy id
    for pid, place in net.places.items():
        ids = []
        if place.tokens:
            for k, tok in enumerate(place.tokens):
                cid = f"{pid}#{k}"
                places.append(Place(cid, place.schema, [tok], place.origin))
                copy_of[(pid, id(tok))] = cid
                ids.append(cid)
        else:
            places.append(Place(pid, place.schema, [], place.origin))
            ids.append(pid)
        copies[pid] = ids
        emap.place_pairs.extend((pid, cid) for cid in ids)

    transitions: list[Transition] = []
    arcs: list[Arc] = []
    for tid, tr in net.transitions.items():
        if tr.tag == TAG_EVOLUTION:
            transitions.append(Transition(tid, tr.tag, tr.reward, tr.guard))
            for pid in net._in[tid]:
                arcs.extend(Arc(cid, tid) for cid in copies[pid])
            seen: set[tuple[str, str]] = set()
            for arc in net._out[tid]:
                for cid in copies[arc.target]:
                    if (tid, cid) not in seen:
                        seen.add((tid, cid))
                        arcs.append(Arc(tid, cid, arc.expr))
        else:
            for j, binding in enumerate(net.enabled_bindings(tr)):
                cid = f"{tid}#{j}"
                transitions.append(Transition(cid, tr.tag, tr.reward, tr.guard))
                emap.action_origin[cid] = (tid, binding)
                for pid in net._in[tid]:
                    arcs.append(Arc(copy_of[(pid, id(binding.assignments[pid]))], cid))
                for arc in net._out[tid]:
                    tok = binding.assignments.get(arc.target)
                    if tok is not None:
                        out_pid = copy_of[(arc.target, id(tok))]
                    else:
                        out_pid = copies[arc.target][0]
                    arcs.append(Arc(cid, out_pid, arc.expr))

    expanded = MarkedAEPN(places, transitions, arcs, tag=net.tag,
                          horizon=net.horizon, clock=net.clock,
                          cum_reward=net.cum_reward)
    expanded.rng = copy.deepcopy(net.rng)
    return expanded, emap


def validate_expanded(target: MarkedAEPN, emap: ExpansionMap) -> list[str]:
    """Check the expansion invariants; returns a list of violations.

    Beyond the structural rules (single tokens, one binding per action copy)
    this replays every action copy against its source binding on cloned nets
    with synchronized RNG state and compares reward deltas and the resulting
    markings projected through place origins.
    """
    source = emap.source
    violations: list[str] = []
    for pid, place in target.places.items():
        if len(place.tokens) > 1:
            violations.append(f"place {pid} holds {len(place.tokens)} tokens")
    known = {tgt for _, tgt in emap.place_pairs}
    for pid in target.places:
        if pid not in known:
            violations.append(f"place {pid} missing from the expansion map")
    if target.marking_key() != source.marking_key():
        violations.append("target marking does not project onto the source marking")

    action_ids = [tid for tid, tr in target.transitions.items()
                  if tr.tag != TAG_EVOLUTION]
    for tid in action_ids:
        if tid not in emap.action_origin:
            violations.append(f"action copy {tid} has no source binding")
    source_keys = sorted((tid, b.value_key())
                         for tid, tr in source.transitions.items()
                         if tr.tag != TAG_EVOLUTION
                         for b in source.enabled_bindings(tr))
    mapped_keys = sorted((src, b.value_key())
                         for src, b in emap.action_origin.values())
    if source_keys != mapped_keys:
        violations.append("action copies are not in bijection with enabled source bindings")

    for tid in action_ids:
        if tid not in emap.action_origin:
            continue
        bindings = target.enabled_bindings(tid)
        if len(bindings) != 1:
            violations.append(f"action copy {tid} has {len(bindings)} enabled bindings")
            continue
        src_tid, src_binding = emap.action_origin[tid]
        src_clone = source.clone()
        tgt_clone = target.clone()
        state = copy.deepcopy(src_clone.rng)
        tgt_clone.rng = copy.deepcopy(state)
        src_clone.rng = state
        # replay from the decision phase regardless of how we were called
        src_clone.tag = src_clone.transitions[src_tid].tag
        tgt_clone.tag = tgt_clone.transitions[tid].tag
        # clones share token objects with the originals, so the recorded
        # source binding is directly fireable on the clone
        r_src = src_clone.fire(src_tid, src_binding)
        r_tgt = tgt_clone.fire(tid, bindings[0])
        if r_src != r_tgt:
            violations.append(f"firing {tid} yields reward {r_tgt}, source gives {r_src}")
        if src_clone.marking_key() != tgt_clone.marking_key():
            violations.append(f"firing {tid} diverges from the source marking")
    return violations

"""Attributed Action-Evolution Petri net core.

A marked net carries timed, attribute-valued tokens on places and alternates
between two phases: Evolution transitions model the environment (arrivals,
expirations, completions) and fire automatically, Action transitions model
assignment decisions and fire only when an agent picks one of their enabled
bindings.  A binding selects one token per input place (every transition
needs at least one); it is enabled when every chosen token's availability
time is at or before the global clock and the transition guard holds.

Guards, rewards and output-arc expressions use a small declarative form so
nets round-trip through JSON without any code execution:

* guard strings: ``"waiting.type == resources.type and clock > waiting.due"``
* rewards: a constant or an attribute reference like ``"waiting.budget"``
* output expressions: copy a consumed token (``identity``), override or add
  attributes (``set_attrs``), or mint a fresh token (``emit``), each with an
  optional delay that is a constant, a sampled value, or an attribute
  reference.  Produced tokens become available at ``clock + delay``; a
  negative delay, sampled or referenced, is an error.

Attribute references resolve against the *origin* id of a place, so they stay
valid after a net is rewritten into its single-token expanded form.
"""
from __future__ import annotations

import copy
import itertools
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

TAG_ACTION = "A"
TAG_EVOLUTION = "E"

# evolution firings allowed at one clock value before we declare a livelock
LIVELOCK_LIMIT = 100_000

_ID_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_#\-]*$")


class AEPNError(Exception):
    """Base class for net construction and execution errors."""


class NetValidationError(AEPNError):
    """Net description violates a structural rule."""


class TagMismatchError(AEPNError):
    """Fired transition's tag does not match the net tag."""


class StaleBindingError(AEPNError):
    """Binding references a token that is no longer in its place."""


class LivelockError(AEPNError):
    """Evolution firings do not quiesce at a fixed clock value."""


class Token:
    """Timestamped attribute record.  Treated as immutable once created."""

    __slots__ = ("attrs", "time")

    def __init__(self, attrs: dict[str, float] | None = None, time: float = 0.0):
        self.attrs = {k: float(v) for k, v in (attrs or {}).items()}
        self.time = float(time)

    def value_key(self) -> tuple:
        """Value identity (time plus sorted attributes), ignoring object id."""
        return (self.time, tuple(sorted(self.attrs.items())))

    def to_json(self) -> dict:
        return {"time": self.time, "attrs": dict(self.attrs)}

    @staticmethod
    def from_json(obj: dict) -> "Token":
        return Token(obj.get("attrs", {}), obj.get("time", 0.0))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in self.attrs.items())
        return f"Token(t={self.time:g}, {inner})"


@dataclass(frozen=True)
class Sampler:
    """Distribution spec for sampled attribute values and delays."""

    dist: str  # constant | uniform | normal | exponential
    params: tuple[float, ...]
    round_to: int | None = None
    plus_clock: bool = False

    def draw(self, rng: np.random.Generator, clock: float) -> float:
        if self.dist == "constant":
            v = self.params[0]
        elif self.dist == "uniform":
            v = float(rng.uniform(self.params[0], self.params[1]))
        elif self.dist == "normal":
            v = float(rng.normal(self.params[0], self.params[1]))
        elif self.dist == "exponential":
            # params[0] is the rate, numpy wants the scale
            v = float(rng.exponential(1.0 / self.params[0]))
        else:  # pragma: no cover - rejected at parse time
            raise NetValidationError(f"unknown distribution {self.dist!r}")
        if self.round_to is not None:
            v = round(v, self.round_to)
        if self.plus_clock:
            v += clock
        return v

    @staticmethod
    def parse(spec) -> "Sampler":
        if isinstance(spec, (int, float)):
            return Sampler("constant", (float(spec),))
        if not isinstance(spec, dict):
            raise NetValidationError(f"bad sampler spec: {spec!r}")
        dist = spec.get("dist", "constant")
        if dist == "constant":
            params = (float(spec["value"]),)
        elif dist == "uniform":
            params = (float(spec["low"]), float(spec["high"]))
        elif dist == "normal":
            params = (float(spec["mean"]), float(spec["std"]))
        elif dist == "exponential":
            rate = float(spec["rate"])
            if rate <= 0:
                raise NetValidationError("exponential rate must be positive")
            params = (rate,)
        else:
            raise NetValidationError(f"unknown distribution {dist!r}")
        rnd = spec.get("round")
        return Sampler(dist, params, None if rnd is None else int(rnd),
                       bool(spec.get("plus_clock", False)))

    def to_json(self):
        if self.dist == "constant" and self.round_to is None and not self.plus_clock:
            return self.params[0]
        out: dict = {"dist": self.dist}
        if self.dist == "constant":
            out["value"] = self.params[0]
        elif self.dist == "uniform":
            out["low"], out["high"] = self.params
        elif self.dist == "normal":
            out["mean"], out["std"] = self.params
        elif self.dist == "exponential":
            out["rate"] = self.params[0]
        if self.round_to is not None:
            out["round"] = self.round_to
        if self.plus_clock:
            out["plus_clock"] = True
        return out


# term kinds inside guard clauses and reward/delay references
_CONST = "const"
_ATTR = "attr"
_CLOCK = "clock"

_OPS = {
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
}
_CLAUSE_RE = re.compile(r"^(\S+)\s*(<=|>=|==|!=|<|>)\s*(\S+)$")


def _parse_term(text: str) -> tuple:
    text = text.strip()
    if text == "clock":
        return (_CLOCK,)
    try:
        return (_CONST, float(text))
    except ValueError:
        pass
    if "." in text:
        place, attr = text.split(".", 1)
        if place and attr:
            return (_ATTR, place, attr)
    raise NetValidationError(f"cannot parse term {text!r}")


def _eval_term(term: tuple, by_origin: dict[str, Token], clock: float) -> float:
    if term[0] == _CONST:
        return term[1]
    if term[0] == _CLOCK:
        return clock
    tok = by_origin.get(term[1])
    if tok is None:
        raise AEPNError(f"no bound token for place {term[1]!r}")
    return tok.attrs[term[2]]


@dataclass(frozen=True)
class Guard:
    """Conjunction of comparisons over bound-token attributes and the clock."""

    text: str
    clauses: tuple[tuple, ...]  # (lhs_term, op_str, rhs_term)

    def evaluate(self, by_origin: dict[str, Token], clock: float) -> bool:
        for lhs, op, rhs in self.clauses:
            if not _OPS[op](_eval_term(lhs, by_origin, clock),
                            _eval_term(rhs, by_origin, clock)):
                return False
        return True

    def referenced(self) -> list[tuple[str, str]]:
        refs = []
        for lhs, _, rhs in self.clauses:
            for term in (lhs, rhs):
                if term[0] == _ATTR:
                    refs.append((term[1], term[2]))
        return refs

    @staticmethod
    def parse(text: str) -> "Guard":
        clauses = []
        for part in text.split(" and "):
            m = _CLAUSE_RE.match(part.strip())
            if m is None:
                raise NetValidationError(f"cannot parse guard clause {part!r}")
            clauses.append((_parse_term(m.group(1)), m.group(2), _parse_term(m.group(3))))
        return Guard(text, tuple(clauses))


@dataclass
class ArcExpr:
    """Token producer attached to a transition-to-place arc.

    kinds: identity (copy the token consumed from ``source``), set_attrs
    (copy then override or extend attributes), emit (fresh token built only
    from ``attrs``).  ``delay`` shifts the produced token's availability past
    the firing clock and may be a sampler or a ``place.attr`` reference.
    """

    kind: str  # identity | set_attrs | emit
    source: str | None = None               # origin id of an input place
    attrs: tuple[tuple[str, Sampler], ...] = ()
    delay: Sampler | tuple | None = None    # sampler or attr-reference term

    def produce(self, rng: np.random.Generator, clock: float,
                by_origin: dict[str, Token]) -> Token:
        if self.kind == "emit":
            values: dict[str, float] = {}
        else:
            values = dict(by_origin[self.source].attrs)
        for name, sampler in self.attrs:
            values[name] = sampler.draw(rng, clock)
        d = 0.0
        if isinstance(self.delay, Sampler):
            d = self.delay.draw(rng, clock)
        elif isinstance(self.delay, tuple):
            d = _eval_term(self.delay, by_origin, clock)
        if d < 0:
            raise AEPNError(f"negative delay {d!r} would place a token before "
                            f"the clock {clock!r}")
        return Token(values, clock + d)

    @staticmethod
    def parse(spec: dict) -> "ArcExpr":
        kind = spec.get("kind")
        if kind is None:
            kind = "emit" if ("attrs" in spec and "from" not in spec) else (
                "set_attrs" if "attrs" in spec else "identity")
        if kind not in ("identity", "set_attrs", "emit"):
            raise NetValidationError(f"unknown arc expression kind {kind!r}")
        attrs = tuple((k, Sampler.parse(v)) for k, v in spec.get("attrs", {}).items())
        delay = spec.get("delay")
        if delay is not None:
            if isinstance(delay, str):
                delay = _parse_term(delay)
                if delay[0] != _ATTR:
                    raise NetValidationError("delay reference must be place.attr")
            else:
                delay = Sampler.parse(delay)
        return ArcExpr(kind, spec.get("from"), attrs, delay)

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.source is not None:
            out["from"] = self.source
        if self.attrs:
            out["attrs"] = {k: s.to_json() for k, s in self.attrs}
        if isinstance(self.delay, Sampler):
            out["delay"] = self.delay.to_json()
        elif isinstance(self.delay, tuple):
            out["delay"] = f"{self.delay[1]}.{self.delay[2]}"
        return out


@dataclass
class Place:
    """Typed token container.  ``origin`` tracks the pre-expansion id."""

    id: str
    schema: tuple[str, ...]
    tokens: list[Token] = field(default_factory=list)
    origin: str | None = None

    def __post_init__(self):
        if self.origin is None:
            self.origin = self.id


@dataclass
class Transition:
    id: str
    tag: str  # TAG_ACTION | TAG_EVOLUTION
    reward: float | tuple = 0.0  # constant or attr-reference term
    guard: Guard | None = None


@dataclass
class Arc:
    source: str
    target: str
    expr: ArcExpr | None = None


class Binding:
    """One token per input place of a transition, plus its enabling time."""

    __slots__ = ("assignments", "enabling_time")

    def __init__(self, assignments: dict[str, Token], enabling_time: float):
        self.assignments = assignments
        self.enabling_time = enabling_time

    def value_key(self) -> tuple:
        """Value identity used for provenance maps and replay lookups."""
        return tuple(sorted((pid, tok.value_key()) for pid, tok in self.assignments.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}:{t!r}" for p, t in sorted(self.assignments.items()))
        return f"Binding({inner})"


class MarkedAEPN:
    """Attributed A-E Petri net with marking, clock, tag and reward tally."""

    def __init__(self, places: list[Place], transitions: list[Transition],
                 arcs: list[Arc], tag: str = TAG_ACTION, horizon: float = 10.0,
                 clock: float = 0.0, cum_reward: float = 0.0,
                 seed: int | None = None, color_spec: dict | None = None):
        self.places: dict[str, Place] = {p.id: p for p in places}
        self.transitions: dict[str, Transition] = {t.id: t for t in transitions}
        self.arcs = list(arcs)
        self.tag = tag
        self.horizon = float(horizon)
        self.clock = float(clock)
        self.cum_reward = float(cum_reward)
        self.seed = seed
        self.color_spec = color_spec
        self.rng = np.random.default_rng(seed)
        self._index()

    # -- construction ------------------------------------------------------

    def _index(self) -> None:
        self._in: dict[str, list[str]] = {t: [] for t in self.transitions}
        self._out: dict[str, list[Arc]] = {t: [] for t in self.transitions}
        for arc in self.arcs:
            if arc.source in self.places and arc.target in self.transitions:
                self._in[arc.target].append(arc.source)
            elif arc.source in self.transitions and arc.target in self.places:
                self._out[arc.source].append(arc)
            # anything else is caught by validate()
        for pids in self._in.values():
            pids.sort()

    def validate(self) -> None:
        for pid, place in self.places.items():
            if not _ID_RE.match(pid):
                raise NetValidationError(f"bad place id {pid!r}")
            if len(set(place.schema)) != len(place.schema):
                raise NetValidationError(f"duplicate attribute in schema of {pid!r}")
            for tok in place.tokens:
                self._check_token(pid, tok)
        for tid, tr in self.transitions.items():
            if not _ID_RE.match(tid):
                raise NetValidationError(f"bad transition id {tid!r}")
            if tid in self.places:
                raise NetValidationError(f"id {tid!r} used for both place and transition")
            if tr.tag not in (TAG_ACTION, TAG_EVOLUTION):
                raise NetValidationError(f"bad tag {tr.tag!r} on {tid!r}")
        if self.tag not in (TAG_ACTION, TAG_EVOLUTION):
            raise NetValidationError(f"bad net tag {self.tag!r}")
        if self.horizon <= 0:
            raise NetValidationError("horizon must be positive")
        for arc in self.arcs:
            sp, tp = arc.source in self.places, arc.target in self.places
            st, tt = arc.source in self.transitions, arc.target in self.transitions
            if not ((sp and tt) or (st and tp)):
                raise NetValidationError(f"arc {arc.source!r}->{arc.target!r} must join a place and a transition")
            if sp and arc.expr is not None:
                raise NetValidationError(f"input arc {arc.source!r}->{arc.target!r} cannot carry an expression")
            if st and arc.expr is None:
                raise NetValidationError(f"output arc {arc.source!r}->{arc.target!r} needs an expression")
        for tid, pids in self._in.items():
            if not pids:
                raise NetValidationError(f"transition {tid!r} has no input places and could never fire")
            if len(set(pids)) != len(pids):
                raise NetValidationError(f"transition {tid!r} has two input arcs from one place")
        for tid, tr in self.transitions.items():
            origins = {self.places[p].origin: p for p in self._in[tid]}
            if isinstance(tr.reward, tuple):
                self._check_ref(tid, tr.reward, origins)
            if tr.guard is not None:
                for place, attr in tr.guard.referenced():
                    self._check_ref(tid, (_ATTR, place, attr), origins)
            for arc in self._out[tid]:
                self._check_expr(tid, arc, origins)

    def _check_token(self, pid: str, tok: Token) -> None:
        schema = self.places[pid].schema
        if set(tok.attrs) != set(schema):
            raise NetValidationError(
                f"token {tok!r} does not match schema {schema} of place {pid!r}")
        if tok.time < 0:
            raise NetValidationError(f"token in {pid!r} has negative time")

    def _check_ref(self, tid: str, term: tuple, origins: dict[str, str]) -> None:
        _, origin, attr = term
        pid = origins.get(origin)
        if pid is None:
            raise NetValidationError(
                f"{tid!r} references {origin!r} which is not one of its input places")
        if attr not in self.places[pid].schema:
            raise NetValidationError(f"{tid!r} references unknown attribute {origin}.{attr}")

    def _check_expr(self, tid: str, arc: Arc, origins: dict[str, str]) -> None:
        expr, target = arc.expr, self.places[arc.target]
        produced: set[str] = set()
        if expr.kind != "emit":
            src = expr.source
            if src is None and len(origins) == 1:
                src = next(iter(origins))
                expr.source = src  # normalize: lone input place is the implied source
            if src not in origins:
                raise NetValidationError(
                    f"arc {tid!r}->{target.id!r}: source place {src!r} is not an input")
            produced = set(self.places[origins[src]].schema)
        produced |= {k for k, _ in expr.attrs}
        if produced != set(target.schema):
            raise NetValidationError(
                f"arc {tid!r}->{target.id!r} produces attrs {sorted(produced)} "
                f"but place schema is {sorted(target.schema)}")
        if isinstance(expr.delay, tuple):
            self._check_ref(tid, expr.delay, origins)

    # -- semantics ---------------------------------------------------------

    def _by_origin(self, binding: Binding) -> dict[str, Token]:
        return {self.places[pid].origin: tok for pid, tok in binding.assignments.items()}

    def enabled_bindings(self, tr: Transition | str) -> list[Binding]:
        """All bindings of ``tr`` enabled at the current clock.

        Deterministic order: input places sorted by id, token choices in
        insertion order, combinations lexicographic.
        """
        if isinstance(tr, str):
            tr = self.transitions[tr]
        pids = self._in[tr.id]
        if not pids:
            return []
        pools = [self.places[p].tokens for p in pids]
        if any(not pool for pool in pools):
            return []
        out = []
        for combo in itertools.product(*pools):
            t_enable = max(tok.time for tok in combo)
            if t_enable > self.clock:
                continue
            binding = Binding(dict(zip(pids, combo)), t_enable)
            if tr.guard is not None and not tr.guard.evaluate(
                    self._by_origin(binding), self.clock):
                continue
            out.append(binding)
        return out

    def action_bindings(self) -> list[tuple[Transition, Binding]]:
        out = []
        for tr in self.transitions.values():
            if tr.tag == TAG_ACTION:
                out.extend((tr, b) for b in self.enabled_bindings(tr))
        return out

    def any_action_binding(self) -> bool:
        for tr in self.transitions.values():
            if tr.tag == TAG_ACTION and self.enabled_bindings(tr):
                return True
        return False

    def fire(self, tr: Transition | str, binding: Binding) -> float:
        """Fire ``tr`` under ``binding``; returns the reward delta."""
        if isinstance(tr, str):
            tr = self.transitions[tr]
        if tr.tag != self.tag:
            raise TagMismatchError(f"transition {tr.id!r} has tag {tr.tag}, net tag is {self.tag}")
        for pid, tok in binding.assignments.items():
            place = self.places.get(pid)
            if place is None or not any(t is tok for t in place.tokens):
                raise StaleBindingError(f"binding token for place {pid!r} is gone")
        by_origin = self._by_origin(binding)
        for pid, tok in binding.assignments.items():
            self.places[pid].tokens.remove(tok)
        for arc in self._out[tr.id]:
            produced = arc.expr.produce(self.rng, self.clock, by_origin)
            self._check_token(arc.target, produced)
            self.places[arc.target].tokens.append(produced)
        if isinstance(tr.reward, tuple):
            delta = _eval_term(tr.reward, by_origin, self.clock)
        else:
            delta = tr.reward
        self.cum_reward += delta
        return delta

    def _evolution_pairs(self) -> list[tuple[Transition, Binding]]:
        out = []
        for tr in self.transitions.values():
            if tr.tag == TAG_EVOLUTION:
                out.extend((tr, b) for b in self.enabled_bindings(tr))
        return out

    def clock_advance_target(self) -> float:
        """Earliest future time at which some transition becomes enabled.

        Considers every combination of input tokens; a combination counts if
        its enabling time lies in the future and the guard holds when the
        clock is moved there.  Returns ``inf`` when nothing is pending.
        """
        best = math.inf
        for tr in self.transitions.values():
            pids = self._in[tr.id]
            if not pids:
                continue
            pools = [self.places[p].tokens for p in pids]
            if any(not pool for pool in pools):
                continue
            for combo in itertools.product(*pools):
                t = max(tok.time for tok in combo)
                if t <= self.clock or t >= best:
                    continue
                if tr.guard is not None:
                    by_origin = {self.places[p].origin: tok
                                 for p, tok in zip(pids, combo)}
                    if not tr.guard.evaluate(by_origin, t):
                        continue
                best = t
        return best

    def run_until_decision(self) -> None:
        """Advance the net to the next decision point or to the horizon.

        Evolution transitions fire (uniformly at random among enabled pairs)
        until quiescent at the current clock, then the tag flips to Action if
        any action binding exists; otherwise the clock jumps to the earliest
        future enabling time.  Past the horizon the net simply stops.
        """
        fired_here = 0
        while True:
            if self.clock >= self.horizon:
                return
            evo = self._evolution_pairs()
            if evo:
                self.tag = TAG_EVOLUTION
                tr, binding = evo[int(self.rng.integers(len(evo)))]
                self.fire(tr, binding)
                fired_here += 1
                if fired_here > LIVELOCK_LIMIT:
                    raise LivelockError(
                        f"{fired_here} evolution firings at clock {self.clock:g}")
                continue
            if self.any_action_binding():
                self.tag = TAG_ACTION
                return
            target = self.clock_advance_target()
            if not math.isfinite(target) or target >= self.horizon:
                self.clock = self.horizon
                return
            self.tag = TAG_EVOLUTION
            self.clock = target
            fired_here = 0

    # -- lifecycle ---------------------------------------------------------

    def reseed(self, seed: int | np.random.SeedSequence | None) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def clone(self) -> "MarkedAEPN":
        """Independent copy.  Tokens are shared (immutable), RNG state is duplicated."""
        dup = MarkedAEPN.__new__(MarkedAEPN)
        dup.places = {pid: Place(p.id, p.schema, list(p.tokens), p.origin)
                      for pid, p in self.places.items()}
        dup.transitions = dict(self.transitions)
        dup.arcs = self.arcs
        dup.tag = self.tag
        dup.horizon = self.horizon
        dup.clock = self.clock
        dup.cum_reward = self.cum_reward
        dup.seed = self.seed
        dup.color_spec = self.color_spec
        dup.rng = copy.deepcopy(self.rng)
        dup._in = self._in
        dup._out = self._out
        return dup

    def marking_key(self) -> tuple:
        """Multiset of (place origin, token value) pairs, order independent."""
        items = []
        for place in self.places.values():
            items.extend((place.origin, tok.value_key()) for tok in place.tokens)
        return tuple(sorted(items))

    def __repr__(self) -> str:
        n_tok = sum(len(p.tokens) for p in self.places.values())
        return (f"MarkedAEPN(tag={self.tag}, clock={self.clock:g}, "
                f"places={len(self.places)}, transitions={len(self.transitions)}, "
                f"tokens={n_tok}, reward={self.cum_reward:g})")


# -- JSON interface --------------------------------------------------------


def build_net(spec: dict) -> MarkedAEPN:
    """Build and validate a marked net from its JSON-style description."""
    places = []
    for pspec in spec.get("places", []):
        places.append(Place(pspec["id"], tuple(pspec.get("schema", ())),
                            origin=pspec.get("origin")))
    seen = set()
    for p in places:
        if p.id in seen:
            raise NetValidationError(f"duplicate place id {p.id!r}")
        seen.add(p.id)
    transitions = []
    for tspec in spec.get("transitions", []):
        reward = tspec.get("reward", 0.0)
        if isinstance(reward, str):
            reward = _parse_term(reward)
            if reward[0] != _ATTR:
                raise NetValidationError("reward reference must be place.attr")
        else:
            reward = float(reward)
        guard = tspec.get("guard")
        transitions.append(Transition(
            tspec["id"], tspec["tag"], reward,
            None if guard is None else Guard.parse(guard)))
    if len({t.id for t in transitions}) != len(transitions):
        raise NetValidationError("duplicate transition id")
    arcs = []
    for aspec in spec.get("arcs", []):
        expr = aspec.get("expr")
        arcs.append(Arc(aspec["source"], aspec["target"],
                        None if expr is None else ArcExpr.parse(expr)))
    net = MarkedAEPN(
        places, transitions, arcs,
        tag=spec.get("tag", TAG_ACTION),
        horizon=spec.get("horizon", 10.0),
        clock=spec.get("clock", 0.0),
        cum_reward=spec.get("cum_reward", 0.0),
        seed=spec.get("seed"),
        color_spec=spec.get("color_spec"))
    by_id = net.places
    for pid, toks in spec.get("initial_marking", {}).items():
        if pid not in by_id:
            raise NetValidationError(f"initial marking refers to unknown place {pid!r}")
        by_id[pid].tokens.extend(Token.from_json(t) for t in toks)
    net.validate()
    return net


def net_to_json(net: MarkedAEPN) -> dict:
    """Serializable description; inverse of :func:`build_net`."""
    def reward_json(r):
        return f"{r[1]}.{r[2]}" if isinstance(r, tuple) else r

    out: dict = {
        "places": [{"id": p.id, "schema": list(p.schema),
                    **({"origin": p.origin} if p.origin != p.id else {})}
                   for p in net.places.values()],
        "transitions": [],
        "arcs": [],
        "initial_marking": {p.id: [t.to_json() for t in p.tokens]
                            for p in net.places.values() if p.tokens},
        "tag": net.tag,
        "horizon": net.horizon,
    }
    for tr in net.transitions.values():
        tspec: dict = {"id": tr.id, "tag": tr.tag, "reward": reward_json(tr.reward)}
        if tr.guard is not None:
            tspec["guard"] = tr.guard.text
        out["transitions"].append(tspec)
    for arc in net.arcs:
        aspec: dict = {"source": arc.source, "target": arc.target}
        if arc.expr is not None:
            aspec["expr"] = arc.expr.to_json()
        out["arcs"].append(aspec)
    if net.clock:
        out["clock"] = net.clock
    if net.cum_reward:
        out["cum_reward"] = net.cum_reward
    if net.color_spec is not None:
        out["color_spec"] = net.color_spec
    return out


def load_net(path) -> MarkedAEPN:
    with open(path, "r", encoding="utf-8") as fh:
        return build_net(json.load(fh))


def save_net(net: MarkedAEPN, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(net_to_json(net), fh, indent=2)
        fh.write("\n")

"""Shared test utilities: randomized net corpus and reference oracles."""
from __future__ import annotations

import numpy as np

from aepn.env import AssignmentEnv, random_policy
from aepn.expand import expand
from aepn.graph import A_TRANSITION, AssignmentGraph, DecisionGraph, map_to_graph
from aepn.net import MarkedAEPN, build_net
from aepn.problems import build_problem

ATTRS = ("a", "b", "c")


def _schema(rng) -> list[str]:
    k = int(rng.integers(0, 3))
    if k == 0:
        return []
    picks = rng.choice(len(ATTRS), size=k, replace=False)
    return [ATTRS[i] for i in sorted(picks)]


def random_net_spec(rng: np.random.Generator) -> dict:
    """Valid random net: multi-token and empty places, guarded action and
    evolution transitions, identity/set_attrs/emit outputs, constant and
    attribute-reference delays and rewards."""
    n_places = int(rng.integers(2, 6))
    schemas = [_schema(rng) for _ in range(n_places)]
    places = [{"id": f"p{i}", "schema": schemas[i]} for i in range(n_places)]

    marking: dict[str, list[dict]] = {}
    for i in range(n_places):
        toks = []
        for _ in range(int(rng.integers(0, 5))):
            attrs = {a: round(float(rng.uniform(0, 10)), 3) for a in schemas[i]}
            time = float(rng.choice([0.0, 0.0, 0.0, 0.5, 1.5]))
            toks.append({"time": time, "attrs": attrs})
        if toks:
            marking[f"p{i}"] = toks

    transitions, arcs = [], []
    n_tr = int(rng.integers(1, 4))
    for j in range(n_tr):
        tid = f"t{j}"
        tag = "A" if (j == 0 or rng.random() < 0.6) else "E"
        n_in = int(rng.integers(1, min(3, n_places) + 1))
        ins = sorted(rng.choice(n_places, size=n_in, replace=False).tolist())
        ref_pool = [(i, a) for i in ins for a in schemas[i]]

        def ref() -> str:
            i, a = ref_pool[int(rng.integers(len(ref_pool)))]
            return f"p{i}.{a}"

        tspec: dict = {"id": tid, "tag": tag}
        if ref_pool and rng.random() < 0.5:
            tspec["reward"] = ref()
        elif rng.random() < 0.5:
            tspec["reward"] = round(float(rng.uniform(-1, 5)), 2)
        if ref_pool and rng.random() < 0.4:
            op = ("<", ">", "<=", ">=")[int(rng.integers(4))]
            tspec["guard"] = f"{ref()} {op} {round(float(rng.uniform(0, 10)), 2)}"
            if rng.random() < 0.3:
                tspec["guard"] += " and clock >= 0"
        transitions.append(tspec)

        for i in ins:
            arcs.append({"source": f"p{i}", "target": tid})
        for o in rng.choice(n_places, size=int(rng.integers(0, 3)),
                            replace=False).tolist():
            same = [i for i in ins if set(schemas[i]) == set(schemas[o])]
            roll = rng.random()
            if same and roll < 0.35:
                expr: dict = {"kind": "identity",
                              "from": f"p{same[int(rng.integers(len(same)))]}"}
            elif same and schemas[o] and roll < 0.55:
                src = same[int(rng.integers(len(same)))]
                over = schemas[o][int(rng.integers(len(schemas[o])))]
                expr = {"kind": "set_attrs", "from": f"p{src}",
                        "attrs": {over: round(float(rng.uniform(0, 10)), 2)}}
            else:
                expr = {"kind": "emit",
                        "attrs": {a: round(float(rng.uniform(0, 10)), 2)
                                  for a in schemas[o]}}
            if ref_pool and rng.random() < 0.3:
                expr["delay"] = ref()
            elif rng.random() < 0.6:
                expr["delay"] = round(float(rng.uniform(0, 2)), 2)
            arcs.append({"source": tid, "target": f"p{o}", "expr": expr})

    return {"places": places, "transitions": transitions, "arcs": arcs,
            "initial_marking": marking, "tag": "A", "horizon": 10.0,
            "seed": int(rng.integers(2 ** 31))}


def random_marked_net(seed: int) -> MarkedAEPN:
    return build_net(random_net_spec(np.random.default_rng(seed)))


def expected_counts(net) -> tuple[int, int]:
    """Node/edge totals of the mapped graph, derived from the source net
    alone.

    Nodes: one per token, one per enabled action binding, one per evolution
    transition.  Edges: action copies connect to every input and to each
    output arc whose landing place holds a token (an output to a non-input
    place lands on its first copy, so it needs that place to be non-empty);
    evolution transitions fan out to every token-holding copy, with repeated
    output targets wired once.
    """
    tokens = {pid: len(p.tokens) for pid, p in net.places.items()}
    nodes = sum(tokens.values())
    edges = 0
    for tid, tr in net.transitions.items():
        ins = net._in[tid]
        outs = [a.target for a in net._out[tid]]
        if tr.tag == "A":
            bindings = net.enabled_bindings(tid)
            nodes += len(bindings)
            for _ in bindings:
                edges += len(ins)
                edges += sum(1 if q in ins else (tokens[q] > 0) for q in outs)
        else:
            nodes += 1
            edges += sum(tokens[p] for p in ins)
            edges += sum(tokens[q] for q in dict.fromkeys(outs))
    return nodes, edges


def brute_force_gae(r, v, d, last_value, gamma, lam):
    """Explicit double sum: adv_t = sum_l (gamma*lam)^l delta_{t+l}, cut at
    episode ends; the bootstrap after the final step is last_value."""
    T = len(r)

    def delta(l):
        if d[l]:
            nxt = 0.0
        elif l + 1 < T:
            nxt = v[l + 1]
        else:
            nxt = last_value
        return r[l] + gamma * nxt - v[l]

    adv = np.zeros(T)
    for t in range(T):
        acc, w = 0.0, 1.0
        for l in range(t, T):
            acc += w * delta(l)
            if d[l]:
                break
            w *= gamma * lam
        adv[t] = acc
    return adv, adv + np.asarray(v)


def _random_decisions(problem: str, episodes: int, seed: int):
    """``(env, obs)`` at every decision of random-policy episodes."""
    env = AssignmentEnv(build_problem(problem), seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(episodes):
        obs = env.reset()
        while True:
            yield env, obs
            res = env.step(random_policy(obs, rng))
            obs = res.observation
            if res.done:
                break


def collect_observations(problem: str, episodes: int, seed: int = 0) -> list:
    """Graph observations from random-policy episodes, decision by decision."""
    return [obs for _, obs in _random_decisions(problem, episodes, seed)]


def collect_reference_graphs(problem: str, episodes: int, seed: int = 0) -> list:
    """``map_to_graph(*expand(net))`` at the decisions of
    :func:`collect_observations` with the same arguments."""
    return [map_to_graph(*expand(env.net))[0]
            for env, _ in _random_decisions(problem, episodes, seed)]


def decision_graph(graph: AssignmentGraph) -> DecisionGraph:
    """The arrays of a reference graph: rows per node type in node order,
    ``(src, dst)`` rows per relation in edge order."""
    rows: dict[str, list] = {}
    where: dict[str, tuple[str, int]] = {}
    for node in graph.nodes:
        bucket = rows.setdefault(node.type, [])
        where[node.id] = (node.type, len(bucket))
        bucket.append(node.attrs)
    edges: dict[tuple, tuple[list, list]] = {}
    for src, dst in graph.edges:
        (ts, rs), (td, rd) = where[src], where[dst]
        pair = edges.setdefault((ts, td), ([], []))
        pair[0].append(rs)
        pair[1].append(rd)
    return DecisionGraph(
        {t: np.asarray(r, dtype=np.float64) for t, r in rows.items()},
        {rel: (np.asarray(s, dtype=np.intp), np.asarray(d, dtype=np.intp))
         for rel, (s, d) in edges.items()},
        len(rows.get(A_TRANSITION, ())))


def assert_same_decision_graph(got: DecisionGraph, want: DecisionGraph, where="") -> None:
    """Bitwise equality: the same types, rows, relations and edge order."""
    assert got.n_actions == want.n_actions, where
    assert got.feats.keys() == want.feats.keys(), where
    for t, m in want.feats.items():
        assert got.feats[t].dtype == m.dtype and got.feats[t].shape == m.shape, (where, t)
        assert got.feats[t].tobytes() == m.tobytes(), (where, t)
    assert got.edges.keys() == want.edges.keys(), where
    for rel, (s, d) in want.edges.items():
        gs, gd = got.edges[rel]
        assert gs.dtype == s.dtype and gd.dtype == d.dtype, (where, rel)
        assert np.array_equal(gs, s) and np.array_equal(gd, d), (where, rel)

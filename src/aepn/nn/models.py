"""Policy and value networks over assignment graphs and count vectors.

The graph nets share one architecture: per-type linear projection to a
common width, then message-passing rounds with additive attention per
edge type and a per-node softmax mixing the per-edge-type messages,
applied as a residual.  Policy scores action nodes and normalizes with a
per-graph (segment) softmax; value averages all node embeddings per
graph.  Policy and value keep separate encoders.
"""

from __future__ import annotations

import json

import numpy as np

from ..graph import A_TRANSITION, AssignmentGraph, edge_type_table, type_registry
from .tensor import Tensor, no_grad

ATTN_SLOPE = 0.2
LOGP_FLOOR = -30.0


def graph_registry(net) -> dict:
    """Node/edge type tables shared by every graph a net family produces."""
    return {"types": {t: list(a) for t, a in type_registry(net).items()},
            "relations": [list(r) for r in edge_type_table(net)]}


def _norm_registry(registry: dict) -> dict:
    return {"types": {t: tuple(a) for t, a in registry["types"].items()},
            "relations": [tuple(r) for r in registry["relations"]]}


def _init(rng, fan_in: int, fan_out: int, shape) -> Tensor:
    lim = np.sqrt(6.0 / max(1, fan_in + fan_out))
    return Tensor(rng.uniform(-lim, lim, size=shape), requires_grad=True)


class Linear:
    def __init__(self, rng, d_in: int, d_out: int):
        self.w = _init(rng, d_in, d_out, (d_in, d_out))
        self.b = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.w + self.b

    def parameters(self) -> list[Tensor]:
        return [self.w, self.b]


class MLPHead:
    """Two dense layers with a rectifier in between."""

    def __init__(self, rng, d_in: int, d_hidden: int, d_out: int):
        self.l1 = Linear(rng, d_in, d_hidden)
        self.l2 = Linear(rng, d_hidden, d_out)

    def __call__(self, x: Tensor) -> Tensor:
        return self.l2(self.l1(x).relu())

    def parameters(self) -> list[Tensor]:
        return self.l1.parameters() + self.l2.parameters()


def _pick(probs: np.ndarray, rng, argmax: bool) -> tuple[int, float]:
    """Index drawn from (or the mode of) one probability vector, and its logp."""
    if argmax:
        k = int(np.argmax(probs))
    else:
        k = int(rng.choice(probs.size, p=probs / probs.sum()))
    return k, float(np.log(max(probs[k], 1e-30)))


def segment_softmax(scores: Tensor, segments, num_segments: int) -> Tensor:
    """Softmax over rows of a column vector, independently per segment."""
    seg = np.asarray(segments, dtype=np.intp)
    peak = np.full(num_segments, -np.inf)
    if seg.size:
        np.maximum.at(peak, seg, scores.data[:, 0])
    peak = np.where(np.isfinite(peak), peak, 0.0)
    shifted = scores - Tensor(peak[seg].reshape(-1, 1))
    e = shifted.exp()
    denom = e.segment_sum(seg, num_segments)
    return e / denom.gather_rows(seg)


class GraphBatch:
    """Block-diagonal batch of assignment graphs, bucketed by node type.

    Node order inside each type bucket follows graph order then node
    order within the graph, so action-node rows line up with the
    environment's action list.
    """

    def __init__(self, registry: dict):
        reg = _norm_registry(registry)
        self.types = reg["types"]
        self.relations = reg["relations"]

    @classmethod
    def from_graphs(cls, graphs: list[AssignmentGraph], registry: dict) -> "GraphBatch":
        b = cls(registry)
        feats: dict[str, list] = {t: [] for t in b.types}
        node_graph: dict[str, list] = {t: [] for t in b.types}
        edges: dict[tuple, tuple[list, list]] = {r: ([], []) for r in b.relations}
        lookup: dict[tuple, tuple[str, int]] = {}
        counts, action_counts = [], []
        for gi, g in enumerate(graphs):
            n_actions = 0
            for node in g.nodes:
                if node.type not in feats:
                    raise KeyError(f"unregistered node type {node.type!r}")
                lookup[(gi, node.id)] = (node.type, len(feats[node.type]))
                feats[node.type].append(node.attrs)
                node_graph[node.type].append(gi)
                if node.type == A_TRANSITION:
                    n_actions += 1
            for src, dst in g.edges:
                ts, rs = lookup[(gi, src)]
                td, rd = lookup[(gi, dst)]
                if (ts, td) not in edges:
                    raise KeyError(f"unregistered edge type {(ts, td)!r}")
                edges[(ts, td)][0].append(rs)
                edges[(ts, td)][1].append(rd)
            counts.append(len(g.nodes))
            action_counts.append(n_actions)
        b.num_graphs = len(graphs)
        b.feats = {t: np.asarray(rows, dtype=np.float64).reshape(len(rows), len(b.types[t]))
                   for t, rows in feats.items()}
        b.node_graph = {t: np.asarray(ix, dtype=np.intp) for t, ix in node_graph.items()}
        b.edges = {r: (np.asarray(s, dtype=np.intp), np.asarray(d, dtype=np.intp))
                   for r, (s, d) in edges.items()}
        b.counts = np.asarray(counts, dtype=np.float64)
        b.action_counts = np.asarray(action_counts, dtype=np.intp)
        b.action_offsets = np.concatenate(([0], np.cumsum(b.action_counts)[:-1]))
        return b


class HeteroGNN:
    """Typed message-passing encoder; see the module docstring."""

    def __init__(self, registry: dict, d: int = 64, rounds: int = 2, seed: int = 0):
        reg = _norm_registry(registry)
        self.registry = reg
        self.d = d
        self.rounds = rounds
        rng = np.random.default_rng(seed)
        self.proj = {t: Linear(rng, len(attrs), d)
                     for t, attrs in sorted(reg["types"].items())}
        self.layers: list[dict] = []
        for _ in range(rounds):
            layer = {}
            for rel in reg["relations"]:
                layer[rel] = {
                    "w": _init(rng, d, d, (d, d)),
                    "a_src": _init(rng, d, 1, (d, 1)),
                    "a_dst": _init(rng, d, 1, (d, 1)),
                    "q": _init(rng, d, 1, (d, 1)),
                    "c": Tensor(0.0, requires_grad=True),
                }
            self.layers.append(layer)

    def parameters(self) -> list[Tensor]:
        out: list[Tensor] = []
        for t in sorted(self.proj):
            out.extend(self.proj[t].parameters())
        for layer in self.layers:
            for rel in self.registry["relations"]:
                p = layer[rel]
                out.extend([p["w"], p["a_src"], p["a_dst"], p["q"], p["c"]])
        return out

    def encode(self, batch: GraphBatch) -> dict[str, Tensor]:
        h = {t: self.proj[t](Tensor(batch.feats[t])) for t in batch.feats}
        for layer in self.layers:
            msgs: dict[tuple, Tensor] = {}
            for rel, p in layer.items():
                ts, td = rel
                src_idx, dst_idx = batch.edges[rel]
                n_dst = h[td].shape[0]
                if src_idx.size == 0:
                    msgs[rel] = Tensor(np.zeros((n_dst, self.d)))
                    continue
                z = h[ts] @ p["w"]
                s_src = (z @ p["a_src"]).gather_rows(src_idx)
                s_dst = ((h[td] @ p["w"]) @ p["a_dst"]).gather_rows(dst_idx)
                score = (s_src + s_dst).leaky_relu(ATTN_SLOPE)
                alpha = segment_softmax(score, dst_idx, n_dst)
                msgs[rel] = (alpha * z.gather_rows(src_idx)).segment_sum(dst_idx, n_dst)
            out = {}
            for t, ht in h.items():
                rels = [r for r in layer if r[1] == t]
                if not rels:
                    out[t] = ht
                    continue
                # per-node mixing weights across incoming edge types
                scores = [msgs[r] @ layer[r]["q"] + layer[r]["c"] for r in rels]
                peak = np.maximum.reduce([s.data for s in scores])
                exps = [(s - Tensor(peak)).exp() for s in scores]
                denom = exps[0]
                for e in exps[1:]:
                    denom = denom + e
                mixed = None
                for e, r in zip(exps, rels):
                    term = (e / denom) * msgs[r]
                    mixed = term if mixed is None else mixed + term
                out[t] = ht + mixed
            h = out
        return h


class GraphActorCritic:
    """Node-selection policy and state value over assignment graphs."""

    kind = "graph"

    def __init__(self, registry: dict, d: int = 64, rounds: int = 2, seed: int = 0):
        self.registry = _norm_registry(registry)
        self.d = d
        self.rounds = rounds
        self.seed = seed
        self.policy_enc = HeteroGNN(registry, d, rounds, seed=seed)
        self.value_enc = HeteroGNN(registry, d, rounds, seed=seed + 1)
        rng = np.random.default_rng(seed + 2)
        self.policy_head = MLPHead(rng, d, d, 1)
        self.value_head = MLPHead(rng, d, d, 1)

    def parameters(self) -> list[Tensor]:
        return (self.policy_enc.parameters() + self.policy_head.parameters()
                + self.value_enc.parameters() + self.value_head.parameters())

    def meta(self) -> dict:
        return {"registry": {"types": {t: list(a) for t, a in self.registry["types"].items()},
                             "relations": [list(r) for r in self.registry["relations"]]},
                "d": self.d, "rounds": self.rounds, "seed": self.seed}

    def batch(self, graphs: list[AssignmentGraph]) -> GraphBatch:
        return GraphBatch.from_graphs(graphs, self.registry)

    def policy_forward(self, batch: GraphBatch) -> Tensor:
        """Per-action-node probabilities, normalized within each graph."""
        if np.any(batch.action_counts == 0):
            raise ValueError("a graph in the batch has no action nodes")
        h = self.policy_enc.encode(batch)
        scores = self.policy_head(h[A_TRANSITION])
        return segment_softmax(scores, batch.node_graph[A_TRANSITION], batch.num_graphs)

    def value_forward(self, batch: GraphBatch) -> Tensor:
        """One value per graph: head applied to the mean node embedding."""
        if np.any(batch.counts == 0):
            raise ValueError("empty graph in the batch")
        h = self.value_enc.encode(batch)
        total = None
        for t, ht in h.items():
            part = ht.segment_sum(batch.node_graph[t], batch.num_graphs)
            total = part if total is None else total + part
        mean = total / Tensor(batch.counts.reshape(-1, 1))
        return self.value_head(mean)

    def act_batch(self, obs_list, rng, argmax: bool = False) -> list[tuple]:
        """One decision per observation from one batched forward; each is
        (env action, stored obs, action index, logp, value), picked in list
        order from ``rng``."""
        batch = self.batch([obs.graph for obs in obs_list])
        with no_grad():
            probs = self.policy_forward(batch).data[:, 0]
            values = self.value_forward(batch).data[:, 0]
        out = []
        for i, obs in enumerate(obs_list):
            lo = batch.action_offsets[i]
            k, logp = _pick(probs[lo:lo + batch.action_counts[i]], rng, argmax)
            out.append((obs.action_node_ids[k], obs.graph, k, logp, float(values[i])))
        return out

    def act(self, obs, rng, argmax: bool = False):
        """One decision: returns (env action, stored obs, action index, logp, value)."""
        return self.act_batch([obs], rng, argmax)[0]

    def state_values(self, obs_list) -> np.ndarray:
        with no_grad():
            return self.value_forward(self.batch([obs.graph for obs in obs_list])).data[:, 0]

    def state_value(self, obs) -> float:
        return float(self.state_values([obs])[0])

    def evaluate_batch(self, obs_list, actions):
        """Log-probs, entropies, and values for stored decisions; (B,1) each."""
        batch = self.batch(list(obs_list))
        probs = self.policy_forward(batch)
        pos = batch.action_offsets + np.asarray(actions, dtype=np.intp)
        logp = probs.gather_rows(pos).clamp(1e-30, np.inf).log().clamp(LOGP_FLOOR, 0.0)
        plogp = probs * probs.clamp(1e-30, np.inf).log()
        ent = -plogp.segment_sum(batch.node_graph[A_TRANSITION], batch.num_graphs)
        values = self.value_forward(batch)
        return logp, ent, values


class VectorActorCritic:
    """Masked-softmax policy and value over count-vector observations."""

    kind = "vector"

    def __init__(self, obs_dim: int, n_actions: int, hidden: int = 128, seed: int = 0):
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        self.hidden = hidden
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.pi = [Linear(rng, obs_dim, hidden), Linear(rng, hidden, hidden),
                   Linear(rng, hidden, n_actions)]
        self.vf = [Linear(rng, obs_dim, hidden), Linear(rng, hidden, hidden),
                   Linear(rng, hidden, 1)]

    def parameters(self) -> list[Tensor]:
        out: list[Tensor] = []
        for layer in self.pi + self.vf:
            out.extend(layer.parameters())
        return out

    def meta(self) -> dict:
        return {"obs_dim": self.obs_dim, "n_actions": self.n_actions,
                "hidden": self.hidden, "seed": self.seed}

    def policy_forward(self, X: np.ndarray, masks: np.ndarray) -> Tensor:
        """Action probabilities per row; disabled actions get probability 0."""
        z = self.pi[2](self.pi[1](self.pi[0](Tensor(X)).tanh()).tanh())
        z = z + Tensor((masks.astype(np.float64) - 1.0) * 1e9)
        peak = z.data.max(axis=1, keepdims=True)
        e = (z - Tensor(peak)).exp()
        return e / e.sum(axis=1, keepdims=True)

    def value_forward(self, X: np.ndarray) -> Tensor:
        return self.vf[2](self.vf[1](self.vf[0](Tensor(X)).tanh()).tanh())

    def act_batch(self, obs_list, rng, argmax: bool = False) -> list[tuple]:
        """Same contract as :meth:`GraphActorCritic.act_batch`; the stored
        observation is the row pair of the stacked batch."""
        X = np.stack([vec for vec, _ in obs_list])
        masks = np.stack([mask for _, mask in obs_list])
        with no_grad():
            probs = self.policy_forward(X, masks).data
            values = self.value_forward(X).data[:, 0]
        out = []
        for i in range(len(obs_list)):
            k, logp = _pick(probs[i], rng, argmax)
            out.append((k, (X[i], masks[i]), k, logp, float(values[i])))
        return out

    def act(self, obs, rng, argmax: bool = False):
        return self.act_batch([obs], rng, argmax)[0]

    def state_values(self, obs_list) -> np.ndarray:
        with no_grad():
            return self.value_forward(np.stack([vec for vec, _ in obs_list])).data[:, 0]

    def state_value(self, obs) -> float:
        return float(self.state_values([obs])[0])

    def evaluate_batch(self, obs_list, actions):
        X = np.stack([vec for vec, _ in obs_list])
        masks = np.stack([m for _, m in obs_list])
        acts = np.asarray(actions, dtype=np.intp)
        probs = self.policy_forward(X, masks)
        onehot = np.zeros((len(acts), self.n_actions))
        onehot[np.arange(len(acts)), acts] = 1.0
        chosen = (probs * Tensor(onehot)).sum(axis=1, keepdims=True)
        logp = chosen.clamp(1e-30, np.inf).log().clamp(LOGP_FLOOR, 0.0)
        plogp = probs * probs.clamp(1e-30, np.inf).log()
        ent = -plogp.sum(axis=1, keepdims=True)
        values = self.value_forward(X)
        return logp, ent, values


def save_checkpoint(path, model, extra: dict | None = None) -> None:
    """Named-array checkpoint with a JSON header; loadable without the net."""
    meta = {"format": 1, "kind": model.kind, **model.meta(), "extra": extra or {}}
    arrays = {f"p{i}": p.data for i, p in enumerate(model.parameters())}
    header = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, __meta__=header, **arrays)


def load_checkpoint(path):
    """Rebuild the model a checkpoint describes; returns (model, meta)."""
    with np.load(path) as z:
        meta = json.loads(bytes(z["__meta__"].tobytes()).decode("utf-8"))
        if meta["kind"] == "graph":
            model = GraphActorCritic(meta["registry"], d=meta["d"],
                                     rounds=meta["rounds"], seed=meta["seed"])
        elif meta["kind"] == "vector":
            model = VectorActorCritic(meta["obs_dim"], meta["n_actions"],
                                      hidden=meta["hidden"], seed=meta["seed"])
        else:
            raise ValueError(f"unknown checkpoint kind {meta['kind']!r}")
        for i, p in enumerate(model.parameters()):
            arr = z[f"p{i}"]
            if arr.shape != p.data.shape:
                raise ValueError(f"checkpoint parameter {i} has shape {arr.shape}, "
                                 f"model expects {p.data.shape}")
            p.data[...] = arr
    return model, meta

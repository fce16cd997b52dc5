"""Networks: forward oracle, batching, invariances, checkpoints."""
import numpy as np
import pytest

from aepn.env import AssignmentEnv, VectorEnv, random_policy
from aepn.graph import A_TRANSITION, AssignmentGraph, GraphNode
from aepn.nn.models import (
    ATTN_SLOPE,
    GraphActorCritic,
    Linear,
    VectorActorCritic,
    graph_registry,
    load_checkpoint,
    save_checkpoint,
    segment_softmax,
)
from aepn.nn.tensor import Tensor
from aepn.problems import build_problem
from helpers import collect_observations


# -- numpy mirror of the forward pass ---------------------------------------


def np_segment_softmax(score, seg, n):
    peak = np.full(n, -np.inf)
    np.maximum.at(peak, seg, score[:, 0])
    peak = np.where(np.isfinite(peak), peak, 0.0)
    e = np.exp(score - peak[seg].reshape(-1, 1))
    den = np.zeros(n)
    np.add.at(den, seg, e[:, 0])
    return e / den[seg].reshape(-1, 1)


def np_encode(enc, batch):
    h = {t: batch.feats[t] @ enc.proj[t].w.data + enc.proj[t].b.data
         for t in batch.feats}
    for layer in enc.layers:
        msgs = {}
        for rel, p in layer.items():
            ts, td = rel
            s_idx, d_idx = batch.edges[rel]
            n_dst = h[td].shape[0]
            if s_idx.size == 0:
                msgs[rel] = np.zeros((n_dst, enc.d))
                continue
            z = h[ts] @ p["w"].data
            score = (z @ p["a_src"].data)[s_idx] + \
                ((h[td] @ p["w"].data) @ p["a_dst"].data)[d_idx]
            score = np.where(score > 0, score, ATTN_SLOPE * score)
            alpha = np_segment_softmax(score, d_idx, n_dst)
            m = np.zeros((n_dst, enc.d))
            np.add.at(m, d_idx, alpha * z[s_idx])
            msgs[rel] = m
        nxt = {}
        for t, ht in h.items():
            rels = [r for r in layer if r[1] == t]
            if not rels:
                nxt[t] = ht
                continue
            scores = [msgs[r] @ layer[r]["q"].data + layer[r]["c"].data
                      for r in rels]
            peak = np.maximum.reduce(scores)
            exps = [np.exp(s - peak) for s in scores]
            denom = np.sum(exps, axis=0)
            mixed = np.sum([(e / denom) * msgs[r]
                            for e, r in zip(exps, rels)], axis=0)
            nxt[t] = ht + mixed
        h = nxt
    return h


def np_head(head, x):
    z = x @ head.l1.w.data + head.l1.b.data
    z = np.maximum(z, 0.0)
    return z @ head.l2.w.data + head.l2.b.data


def np_policy(model, batch):
    h = np_encode(model.policy_enc, batch)
    scores = np_head(model.policy_head, h[A_TRANSITION])
    return np_segment_softmax(scores, batch.node_graph[A_TRANSITION],
                              batch.num_graphs)


def np_value(model, batch):
    h = np_encode(model.value_enc, batch)
    total = np.zeros((batch.num_graphs, model.d))
    for t, ht in h.items():
        np.add.at(total, batch.node_graph[t], ht)
    return np_head(model.value_head, total / batch.counts.reshape(-1, 1))


def test_forward_matches_numpy_mirror():
    template = build_problem("p2")
    model = GraphActorCritic(graph_registry(template), d=6, rounds=2, seed=3)
    obs = collect_observations("p2", 2, seed=4)
    batch = model.batch([o.graph for o in obs])
    assert np.allclose(model.policy_forward(batch).data, np_policy(model, batch),
                       atol=1e-12)
    assert np.allclose(model.value_forward(batch).data, np_value(model, batch),
                       atol=1e-12)


def test_linear_is_affine_map():
    rng = np.random.default_rng(0)
    lin = Linear(rng, 3, 2)
    x = rng.standard_normal((5, 3))
    assert np.allclose(lin(Tensor(x)).data, x @ lin.w.data + lin.b.data)
    lim = np.sqrt(6.0 / 5.0)
    assert (np.abs(lin.w.data) <= lim).all()
    assert (lin.b.data == 0).all()


def _lone_node_graph(registry, attrs):
    g = AssignmentGraph(
        [GraphNode("n0", "place(type,budget)", attrs),
         GraphNode("a0", A_TRANSITION, ())],
        [], {t: tuple(a) for t, a in registry["types"].items()})
    return g


def test_isolated_node_embedding_is_projection():
    registry = graph_registry(build_problem("p1"))
    model = GraphActorCritic(registry, d=5, rounds=3, seed=0)
    g = _lone_node_graph(registry, (0.5, 1.0, 200.0))
    batch = model.batch([g])
    h = model.policy_enc.encode(batch)
    proj = model.policy_enc.proj["place(type,budget)"]
    want = np.array([0.5, 1.0, 200.0]) @ proj.w.data + proj.b.data
    assert np.allclose(h["place(type,budget)"].data[0], want, atol=1e-12)
    # featureless transition node: embedding is exactly the projection bias
    bias = model.policy_enc.proj[A_TRANSITION].b.data
    assert np.allclose(h[A_TRANSITION].data[0], bias, atol=1e-12)


def test_singleton_action_probability_one():
    registry = graph_registry(build_problem("p1"))
    model = GraphActorCritic(registry, d=4, rounds=1, seed=1)
    g = _lone_node_graph(registry, (0.0, 0.0, 100.0))
    probs = model.policy_forward(model.batch([g]))
    assert probs.data.shape == (1, 1)
    assert probs.data[0, 0] == 1.0


def test_batch_equals_singletons():
    template = build_problem("p2")
    model = GraphActorCritic(graph_registry(template), d=8, rounds=2, seed=0)
    graphs = [o.graph for o in collect_observations("p2", 2, seed=1)][:25]
    big = model.batch(graphs)
    probs = model.policy_forward(big).data
    values = model.value_forward(big).data
    row = 0
    for gi, g in enumerate(graphs):
        single = model.batch([g])
        p1 = model.policy_forward(single).data
        v1 = model.value_forward(single).data
        n = p1.shape[0]
        assert np.abs(probs[row:row + n] - p1).max() < 1e-6
        assert abs(values[gi, 0] - v1[0, 0]) < 1e-6
        row += n
    assert row == probs.shape[0]


def test_batch_gradients_match_singletons():
    template = build_problem("p1")
    model = GraphActorCritic(graph_registry(template), d=4, rounds=1, seed=2)
    graphs = [o.graph for o in collect_observations("p1", 1, seed=2)][:6]
    actions = [i % 2 for i in range(len(graphs))]

    def grads_of(loss):
        for p in model.parameters():
            p.grad = None
        loss.backward()
        return [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in model.parameters()]

    logp, _, values = model.evaluate_batch(graphs, actions)
    batched = grads_of(logp.sum() + values.sum())
    total = None
    for g, a in zip(graphs, actions):
        lp, _, v = model.evaluate_batch([g], [a])
        gs = grads_of(lp.sum() + v.sum())
        total = gs if total is None else [t + x for t, x in zip(total, gs)]
    worst = max(np.max(np.abs(b - t), initial=0.0)
                for b, t in zip(batched, total))
    assert worst < 1e-8


def _permute_graph(g, rng):
    order = rng.permutation(len(g.nodes))
    nodes = [g.nodes[i] for i in order]
    edges = [g.edges[i] for i in rng.permutation(len(g.edges))]
    return AssignmentGraph(nodes, edges, g.types)


def test_permutation_invariance():
    template = build_problem("p2")
    model = GraphActorCritic(graph_registry(template), d=8, rounds=2, seed=5)
    rng = np.random.default_rng(9)
    for obs in collect_observations("p2", 1, seed=6)[:8]:
        g = obs.graph
        p = _permute_graph(g, rng)
        probs_g = model.policy_forward(model.batch([g])).data[:, 0]
        probs_p = model.policy_forward(model.batch([p])).data[:, 0]
        by_node_g = dict(zip([n.id for n in g.nodes if n.type == A_TRANSITION],
                             probs_g))
        by_node_p = dict(zip([n.id for n in p.nodes if n.type == A_TRANSITION],
                             probs_p))
        assert set(by_node_g) == set(by_node_p)
        for nid in by_node_g:
            assert abs(by_node_g[nid] - by_node_p[nid]) < 1e-9
        v_g = model.value_forward(model.batch([g])).data[0, 0]
        v_p = model.value_forward(model.batch([p])).data[0, 0]
        assert abs(v_g - v_p) < 1e-9


def test_unregistered_types_rejected():
    registry = graph_registry(build_problem("p1"))
    model = GraphActorCritic(registry, d=4, rounds=1, seed=0)
    alien = AssignmentGraph([GraphNode("x", "place(mystery)", (0.0, 1.0))], [],
                            {"place(mystery)": ("TIME", "mystery")})
    with pytest.raises(KeyError, match="unregistered node type"):
        model.batch([alien])
    bad_edge = AssignmentGraph(
        [GraphNode("x", A_TRANSITION, ()), GraphNode("y", A_TRANSITION, ())],
        [("x", "y")], {t: tuple(a) for t, a in registry["types"].items()})
    with pytest.raises(KeyError, match="unregistered edge type"):
        model.batch([bad_edge])


def test_actionless_graph_rejected_by_policy():
    registry = graph_registry(build_problem("p1"))
    model = GraphActorCritic(registry, d=4, rounds=1, seed=0)
    g = AssignmentGraph([GraphNode("n", "place()", (0.0,))], [],
                        {t: tuple(a) for t, a in registry["types"].items()})
    with pytest.raises(ValueError, match="no action nodes"):
        model.policy_forward(model.batch([g]))


def test_act_samples_and_argmax():
    obs = collect_observations("p1", 1, seed=0)[0]
    model = GraphActorCritic(graph_registry(build_problem("p1")), d=8,
                             rounds=2, seed=0)
    rng = np.random.default_rng(0)
    nid, stored, k, logp, value = model.act(obs, rng)
    assert nid == obs.action_node_ids[k]
    assert stored is obs.graph
    assert logp <= 0.0 and np.isfinite(value)
    picks = {model.act(obs, rng, argmax=True)[2] for _ in range(5)}
    assert len(picks) == 1  # argmax is deterministic


def _assert_same_decisions(batched, singles):
    assert len(batched) == len(singles)
    for (a, _, k_a, logp_a, v_a), (b, _, k_b, logp_b, v_b) in zip(batched, singles):
        assert (a, k_a) == (b, k_b)
        assert abs(logp_a - logp_b) < 1e-9 and abs(v_a - v_b) < 1e-9


def test_graph_act_batch_matches_single_acts():
    model = GraphActorCritic(graph_registry(build_problem("p2")), d=8,
                             rounds=2, seed=1)
    obs = collect_observations("p2", 1, seed=3)[:7]
    for argmax in (False, True):
        batched = model.act_batch(obs, np.random.default_rng(7), argmax)
        rng = np.random.default_rng(7)
        singles = [model.act(o, rng, argmax) for o in obs]
        _assert_same_decisions(batched, singles)
        assert all(d[1] is o.graph for d, o in zip(batched, obs))
    values = model.state_values(obs)
    assert np.abs(values - [d[4] for d in batched]).max() < 1e-9
    assert abs(model.state_value(obs[0]) - values[0]) < 1e-9


def test_vector_act_batch_matches_single_acts():
    env = VectorEnv(build_problem("p1"), seed=2)
    model = VectorActorCritic(env.obs_dim, env.n_actions, hidden=8, seed=0)
    rng = np.random.default_rng(2)
    obs = [env.reset()]
    while len(obs) < 7:
        vec, mask, _, done, _ = env.step(int(rng.choice(np.flatnonzero(obs[-1][1]))))
        obs.append(env.reset() if done else (vec, mask))
    for argmax in (False, True):
        batched = model.act_batch(obs, np.random.default_rng(7), argmax)
        rng = np.random.default_rng(7)
        singles = [model.act(o, rng, argmax) for o in obs]
        _assert_same_decisions(batched, singles)
        for (_, (vec, mask), *_), (o_vec, o_mask) in zip(batched, obs):
            assert np.array_equal(vec, o_vec) and np.array_equal(mask, o_mask)
    values = model.state_values(obs)
    assert np.abs(values - [d[4] for d in batched]).max() < 1e-9


def test_graph_checkpoint_round_trip(tmp_path):
    registry = graph_registry(build_problem("p2"))
    model = GraphActorCritic(registry, d=6, rounds=2, seed=7)
    path = tmp_path / "model.npz"
    save_checkpoint(path, model, extra={"problem": "p2", "note": 1})
    clone, meta = load_checkpoint(path)
    assert meta["kind"] == "graph" and meta["extra"]["problem"] == "p2"
    for a, b in zip(model.parameters(), clone.parameters()):
        assert (a.data == b.data).all()
    obs = collect_observations("p2", 1, seed=1)[0]
    batch = model.batch([obs.graph])
    assert np.array_equal(model.policy_forward(batch).data,
                          clone.policy_forward(clone.batch([obs.graph])).data)


def test_vector_checkpoint_round_trip(tmp_path):
    model = VectorActorCritic(6, 2, hidden=16, seed=3)
    path = tmp_path / "vec.npz"
    save_checkpoint(path, model)
    clone, meta = load_checkpoint(path)
    assert meta["kind"] == "vector" and meta["hidden"] == 16
    X = np.random.default_rng(0).standard_normal((4, 6))
    masks = np.ones((4, 2), dtype=bool)
    assert np.array_equal(model.policy_forward(X, masks).data,
                          clone.policy_forward(X, masks).data)


def test_checkpoint_shape_mismatch_rejected(tmp_path):
    model = VectorActorCritic(4, 2, hidden=8, seed=0)
    path = tmp_path / "vec.npz"
    save_checkpoint(path, model)
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    arrays["p0"] = arrays["p0"][:, :-1]  # truncate one parameter
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="shape"):
        load_checkpoint(path)


def test_vector_masking_and_normalization():
    model = VectorActorCritic(5, 4, hidden=12, seed=0)
    X = np.random.default_rng(1).standard_normal((3, 5))
    masks = np.array([[True, True, False, False],
                      [True, True, True, True],
                      [False, True, False, False]])
    probs = model.policy_forward(X, masks).data
    assert (probs[~masks] == 0.0).all()
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert probs[2, 1] == 1.0  # single enabled action takes all the mass


def test_vector_evaluate_batch_consistent():
    model = VectorActorCritic(5, 3, hidden=8, seed=2)
    rng = np.random.default_rng(4)
    obs = [(rng.standard_normal(5), np.array([True, True, False]))
           for _ in range(6)]
    actions = [0, 1, 0, 1, 1, 0]
    logp, ent, values = model.evaluate_batch(obs, actions)
    probs = model.policy_forward(np.stack([v for v, _ in obs]),
                                 np.stack([m for _, m in obs])).data
    want = np.log(probs[np.arange(6), actions]).reshape(-1, 1)
    assert np.allclose(logp.data, want, atol=1e-12)
    assert (ent.data >= 0).all()
    assert values.shape == (6, 1)


def test_vector_env_and_model_agree_on_shapes():
    tv = VectorEnv(build_problem("p1"), seed=0)
    model = VectorActorCritic(tv.obs_dim, tv.n_actions, hidden=8, seed=0)
    obs = tv.reset()
    k, stored, k2, logp, value = model.act(obs, np.random.default_rng(0))
    assert k == k2 and 0 <= k < tv.n_actions
    tv.step(k)


def test_segment_softmax_values_and_grads():
    rng = np.random.default_rng(0)
    scores = rng.standard_normal((7, 1))
    seg = np.array([0, 0, 1, 1, 1, 3, 3])
    S = Tensor(scores, requires_grad=True)
    out = segment_softmax(S, seg, 4)
    for k in (0, 1, 3):
        rows = out.data[seg == k, 0]
        assert abs(rows.sum() - 1.0) < 1e-12
        raw = np.exp(scores[seg == k, 0])
        assert np.allclose(rows, raw / raw.sum(), atol=1e-12)
    w = rng.standard_normal((7, 1))
    (out * w).sum().backward()
    h = 1e-6
    i = 2  # spot finite-difference check on one entry
    keep = scores[i, 0]
    scores[i, 0] = keep + h
    fp = (segment_softmax(Tensor(scores), seg, 4).data * w).sum()
    scores[i, 0] = keep - h
    fm = (segment_softmax(Tensor(scores), seg, 4).data * w).sum()
    scores[i, 0] = keep
    assert abs(S.grad[i, 0] - (fp - fm) / (2 * h)) < 1e-6


def test_model_seeds_give_distinct_parameters():
    registry = graph_registry(build_problem("p1"))
    a = GraphActorCritic(registry, d=4, rounds=1, seed=0)
    b = GraphActorCritic(registry, d=4, rounds=1, seed=0)
    c = GraphActorCritic(registry, d=4, rounds=1, seed=1)
    assert all((x.data == y.data).all()
               for x, y in zip(a.parameters(), b.parameters()))
    assert any((x.data != y.data).any()
               for x, y in zip(a.parameters(), c.parameters()))

from __future__ import annotations

import random

import numpy as np
import pytest

from kgslice.errors import MissingFeature
from kgslice.graph import subgraph_from_triples
from kgslice.rgcn import (
    RgcnReferenceModel,
    influence_fd,
    message_reach,
    prune_outside_reach,
    random_features,
    rgcn_forward,
)

from conftest import EX, constant_features, make_kg, nt, random_kg
from oracles import bfs_distances, dense_rgcn_forward, dense_rgcn_jacobian


def full_subgraph(kg):
    return subgraph_from_triples(kg, kg.triples)


def test_zero_layers_identity(rng):
    kg = random_kg(rng, n_vertices=10, n_triples=20)
    sg = full_subgraph(kg)
    model = RgcnReferenceModel(layers=0, dim=4, seed=1)
    feats = random_features(sg.entity_vertices(), 4, seed=2)
    out = rgcn_forward(model, sg, feats)
    for v, emb in out.items():
        assert np.array_equal(emb, feats[v])


def test_single_vertex_self_loop_only():
    kg = make_kg([nt("a", "a", "T")])
    sg = full_subgraph(kg)
    a = kg.vertex_id(f"{EX}a")
    model = RgcnReferenceModel(layers=1, dim=4, seed=3)
    feats = random_features([a], 4, seed=4)
    out = rgcn_forward(model, sg, feats)
    expected = np.maximum(model.self_weight(0) @ feats[a], 0.0)
    assert np.allclose(out[a], expected, atol=0, rtol=0)


def test_missing_feature():
    kg = make_kg([nt("a", "p0", "b")])
    sg = full_subgraph(kg)
    model = RgcnReferenceModel(layers=1, dim=4)
    with pytest.raises(MissingFeature):
        rgcn_forward(model, sg, {kg.vertex_id(f"{EX}a"): np.zeros(4)})


@pytest.mark.parametrize("inverse", [True, False])
def test_forward_matches_dense_oracle(inverse, rng):
    for trial in range(4):
        local = random.Random(900 + trial)
        kg = random_kg(local, n_vertices=20, n_triples=60, n_predicates=3)
        sg = full_subgraph(kg)
        model = RgcnReferenceModel(layers=2, dim=6, seed=trial, inverse_relations=inverse)
        feats = random_features(sg.entity_vertices(), 6, seed=trial + 50)
        mine = rgcn_forward(model, sg, feats)
        oracle = dense_rgcn_forward(model, sg, feats)
        for v in mine:
            assert np.max(np.abs(mine[v] - oracle[v])) <= 1e-9


def test_seed_reproducibility(rng):
    kg = random_kg(rng, n_vertices=15, n_triples=40)
    sg = full_subgraph(kg)
    feats = random_features(sg.entity_vertices(), 5, seed=9)
    a = rgcn_forward(RgcnReferenceModel(layers=2, dim=5, seed=11), sg, feats)
    b = rgcn_forward(RgcnReferenceModel(layers=2, dim=5, seed=11), sg, feats)
    for v in a:
        assert np.array_equal(a[v], b[v])


def test_pruning_invariance_bit_identical(rng):
    for trial in range(6):
        local = random.Random(7000 + trial)
        kg = random_kg(local, n_vertices=80, n_triples=160)
        sg = full_subgraph(kg)
        targets = kg.vertices_of_type(0)[:5]
        if not targets:
            continue
        model = RgcnReferenceModel(layers=2, dim=8, seed=trial)
        feats = random_features(sg.entity_vertices(), 8, seed=trial)
        full = rgcn_forward(model, sg, feats)
        pruned_sg = prune_outside_reach(sg, targets, hops=model.layers)
        assert len(pruned_sg.vertices) <= len(sg.vertices)
        pruned = rgcn_forward(model, pruned_sg, feats)
        for t in targets:
            if t in pruned:
                assert np.array_equal(full[t], pruned[t])


def test_locality_perturbation_outside_neighborhood(rng):
    kg = random_kg(rng, n_vertices=60, n_triples=120)
    sg = full_subgraph(kg)
    targets = kg.vertices_of_type(0)[:3]
    model = RgcnReferenceModel(layers=2, dim=6, seed=5)
    feats = random_features(sg.entity_vertices(), 6, seed=6)
    reach = message_reach(sg, targets, hops=model.layers)
    outside = [v for v in sg.entity_vertices() if v not in reach]
    if not outside:
        pytest.skip("random graph had no vertex outside the neighborhood")
    base = rgcn_forward(model, sg, feats)
    bumped = dict(feats)
    bumped[outside[0]] = feats[outside[0]] + 10.0
    moved = rgcn_forward(model, sg, bumped)
    for t in targets:
        assert np.array_equal(base[t], moved[t])


@pytest.mark.parametrize("inverse", [True, False])
@pytest.mark.parametrize("hops", [0, 1, 2, 3])
def test_message_reach_matches_bfs_oracle(hops, inverse):
    rng = random.Random(700 + 10 * hops + inverse)
    for _ in range(15):
        kg = random_kg(
            rng,
            n_vertices=rng.randrange(20, 70),
            n_triples=rng.randrange(20, 150),
            literal_fraction=0.15,
        )
        kept = [t for t in kg.triples if rng.random() < 0.7]
        sg = subgraph_from_triples(kg, kept)
        targets = rng.sample(range(kg.vertex_count()), rng.randrange(1, 6))
        # who sends messages to whom, from the raw triples
        senders: dict[int, set[int]] = {}
        for s, p, o in sg.triples:
            if p == kg.type_predicate or "literal" in (kg.kind(s), kg.kind(o)):
                continue
            senders.setdefault(o, set()).add(s)
            if inverse:
                senders.setdefault(s, set()).add(o)
        dist = bfs_distances(senders, [t for t in targets if t in sg.vertices])
        expected = {v for v, d in dist.items() if d <= hops}
        assert message_reach(sg, targets, hops, inverse_relations=inverse) == expected


def test_influence_positive_for_self():
    kg = make_kg([nt("a", "a", "T"), nt("a", "p0", "b")])
    sg = full_subgraph(kg)
    a = kg.vertex_id(f"{EX}a")
    model = RgcnReferenceModel(layers=1, dim=4, seed=8)
    feats = random_features(sg.entity_vertices(), 4, seed=8)
    assert influence_fd(model, sg, feats, a, a) > 0.0


def test_influence_zero_for_unreachable():
    kg = make_kg([nt("a", "p0", "b"), nt("x", "p0", "y")])
    sg = full_subgraph(kg)
    a, y = kg.vertex_id(f"{EX}a"), kg.vertex_id(f"{EX}y")
    model = RgcnReferenceModel(layers=2, dim=4, seed=2)
    feats = random_features(sg.entity_vertices(), 4, seed=2)
    assert influence_fd(model, sg, feats, a, y) <= 1e-6


def test_influence_matches_analytic_jacobian(rng):
    for trial in range(3):
        local = random.Random(3000 + trial)
        kg = random_kg(local, n_vertices=10, n_triples=25, n_predicates=2)
        sg = full_subgraph(kg)
        verts = sg.entity_vertices()
        model = RgcnReferenceModel(layers=2, dim=4, seed=trial + 1)
        feats = random_features(verts, 4, seed=trial + 60)
        v, u = verts[0], verts[-1]
        fd = influence_fd(model, sg, feats, v, u, step=1e-5)
        jac = dense_rgcn_jacobian(model, sg, feats, v, u)
        assert abs(fd - float(np.abs(jac).sum())) <= 1e-4


def test_influence_zero_iff_outside_reach(rng):
    # unreachable pairs are exactly zero; reachable pairs agree with the
    # analytic Jacobian (ReLU saturation may legitimately zero some of them)
    kg = random_kg(rng, n_vertices=40, n_triples=80)
    sg = full_subgraph(kg)
    verts = sg.entity_vertices()
    model = RgcnReferenceModel(layers=2, dim=4, seed=13)
    feats = random_features(verts, 4, seed=13)
    u = verts[0]
    reach = message_reach(sg, [u], hops=model.layers)
    saw_positive = False
    for v in verts[:10]:
        inf = influence_fd(model, sg, feats, v, u)
        if v in reach:
            jac = dense_rgcn_jacobian(model, sg, feats, v, u)
            assert abs(inf - float(np.abs(jac).sum())) <= 1e-4
            saw_positive = saw_positive or inf > 1e-8
        else:
            assert inf <= 1e-6
    assert saw_positive  # at least the self pair carries influence


def test_constant_features_shape():
    feats = constant_features([1, 2], 3, value=0.5)
    assert np.array_equal(feats[1], np.array([0.5, 0.5, 0.5]))

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgslice.errors import MissingFeature, UnsupportedParams
from kgslice.graph import subgraph_from_triples
from kgslice.rgcn import (
    RgcnReferenceModel,
    message_reach,
    prune_outside_reach,
    random_features,
    rgcn_forward,
)

from conftest import (
    EX,
    constant_features,
    make_kg,
    nt,
    random_kg,
    random_kg_lines,
    types_in_order,
)
from oracles import (
    bfs_distances,
    dense_rgcn_forward,
    dense_rgcn_jacobian,
    influence_fd,
    reference_rgcn_forward,
)


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


def test_forward_matches_dense_oracle(rng):
    for trial in range(4):
        local = random.Random(900 + trial)
        kg = random_kg(local, n_vertices=20, n_triples=60, n_predicates=3)
        sg = full_subgraph(kg)
        model = RgcnReferenceModel(layers=2, dim=6, seed=trial)
        feats = random_features(sg.entity_vertices(), 6, seed=trial + 50)
        mine = rgcn_forward(model, sg, feats)
        oracle = dense_rgcn_forward(model, sg, feats)
        for v in mine:
            assert np.max(np.abs(mine[v] - oracle[v])) <= 1e-9


def _reference_cases():
    """(name, subgraph, targets) slices of random graphs for the bit-for-bit test."""
    for trial in range(3):
        local = random.Random(5100 + trial)
        lines = random_kg_lines(
            local, n_vertices=40, n_predicates=3, n_triples=120, literal_fraction=0.15
        )
        # self-loops
        lines += [nt("v1", "p0", "v1"), nt("v2", "p1", "v2"), nt("v2", "p0", "v2")]
        # two predicates between the same pair, in both directions
        lines += [nt("v3", "p0", "v4"), nt("v3", "p1", "v4"), nt("v4", "p0", "v3")]
        lines += [nt("v4", "p1", "v3")]
        # 30 senders under one key: numpy sums them pairwise at dim 1
        lines += [nt(f"v{i}", "p2", "hub") for i in range(5, 35)]
        kg = make_kg(lines)
        first_type = types_in_order(kg)[0]
        targets = kg.vertices_of_type(first_type)[:4] + [kg.vertex_id(f"{EX}hub")]
        yield "full", subgraph_from_triples(kg, kg.triples), targets
        kept = [t for t in kg.triples if local.random() < 0.7]
        yield "sampled", subgraph_from_triples(kg, kept), targets
        literal = kg.literal_mask()
        no_entity_edges = [
            t for t in kg.triples if t[1] == kg.type_predicate or literal[t[0]] or literal[t[2]]
        ]
        yield "no entity edges", subgraph_from_triples(kg, no_entity_edges), targets
        yield "empty", subgraph_from_triples(kg, []), targets


@pytest.mark.parametrize("dim", [1, 4, 8, 16, 64])
def test_forward_matches_reference_bit_for_bit(dim):
    for name, sg, targets in _reference_cases():
        feats = random_features(sg.entity_vertices(), dim, seed=dim)
        for layers in range(4):
            model = RgcnReferenceModel(layers=layers, dim=dim, seed=layers)
            pruned_sg = prune_outside_reach(sg, targets, hops=layers)
            for case, g in ((name, sg), (f"{name}, pruned", pruned_sg)):
                mine = rgcn_forward(model, g, feats)
                oracle = reference_rgcn_forward(model, g, feats)
                assert mine.keys() == oracle.keys(), case
                for v in oracle:
                    assert np.array_equal(mine[v], oracle[v]), (case, layers, v)


def test_impossible_shapes_fail_loudly():
    kg = make_kg([nt("a", "p0", "b")])
    sg = full_subgraph(kg)
    with pytest.raises(UnsupportedParams):
        RgcnReferenceModel(layers=-1, dim=4)
    for dim in (0, -3):
        with pytest.raises(UnsupportedParams):
            RgcnReferenceModel(layers=2, dim=dim)
    with pytest.raises(ValueError):
        prune_outside_reach(sg, [kg.vertex_id(f"{EX}a")], hops=-1)


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
        targets = kg.vertices_of_type(types_in_order(kg)[0])[:5]
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
    targets = kg.vertices_of_type(types_in_order(kg)[0])[:3]
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


@pytest.mark.parametrize("hops", [0, 1, 2, 3])
def test_message_reach_matches_bfs_oracle(hops):
    rng = random.Random(701 + 10 * hops)
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
            senders.setdefault(s, set()).add(o)
        dist = bfs_distances(senders, [t for t in targets if t in sg.vertices])
        expected = {v for v, d in dist.items() if d <= hops}
        assert set(message_reach(sg, targets, hops).tolist()) == expected


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


@given(
    st.lists(st.integers(0, 10**9), min_size=1, max_size=40),
    st.integers(0, 39),
    st.integers(1, 16),
    st.integers(0, 2**32),
)
@settings(max_examples=60, deadline=None)
def test_feature_row_does_not_depend_on_the_other_vertices(vs, i, dim, seed):
    # validate gives the full and the pruned slice one feature dict, so a
    # vertex's row must be the one it would get alone
    v = vs[i % len(vs)]
    assert np.array_equal(random_features(vs, dim, seed)[v], random_features([v], dim, seed)[v])


@pytest.mark.parametrize("dim", [1, 3, 8, 64])
def test_features_and_weights_are_float64_in_range(dim):
    feats = random_features(range(200), dim, seed=dim)
    model = RgcnReferenceModel(layers=2, dim=dim, seed=dim)
    weights = [model.self_weight(1), model.relation_weight(0, 3), model.relation_weight(0, 3, True)]
    for row in feats.values():
        assert row.dtype == np.float64 and row.shape == (dim,)
    for w in weights:
        assert w.dtype == np.float64 and w.shape == (dim, dim)
    for a in [np.stack(list(feats.values())), *weights]:
        assert a.min() >= -0.5 and a.max() < 0.5
    assert random_features([], dim) == {}


def test_derivation_golden_values():
    # a changed derivation changes every embedding; it should not do so silently
    row = random_features([7], 4, seed=3)[7]
    assert row.tolist() == [
        0.3702098276641629, -0.3517505192226056, -0.19954185728316343, 0.4523277682019451
    ]
    model = RgcnReferenceModel(layers=2, dim=3, seed=5)
    assert model.relation_weight(1, 4, inverse=True)[0, 2] == -0.3997769899590867


def test_constant_features_shape():
    feats = constant_features([1, 2], 3, value=0.5)
    assert np.array_equal(feats[1], np.array([0.5, 0.5, 0.5]))

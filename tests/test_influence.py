from __future__ import annotations

import itertools
import math
import random
import weakref

import pytest

from kgslice import influence
from kgslice.errors import DuplicateTarget, EmptyTargetSet, KgsliceError
from kgslice.graph import BOTH, Subgraph
from kgslice.influence import (
    InfluenceScores,
    PprParams,
    approximate_ppr,
    build_partition,
    extract_influence,
    influence_scores,
    select_topk,
)
from kgslice.tasks import TaskSpec

from conftest import EX, Budget, make_kg, nt, random_kg
from oracles import power_iteration_ppr, ppr_mass, reference_forward_push, rescan_partition


def nc_task(kg, type_name="T"):
    return TaskSpec(kind="nc", target_type=kg.type_id(f"{EX}{type_name}"),
                    target_predicate=0)


def test_ppr_params_validation():
    with pytest.raises(Exception):
        PprParams(alpha=0.0)
    with pytest.raises(Exception):
        PprParams(epsilon=0.0)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
def test_ppr_params_rejects_non_finite_epsilon(epsilon):
    # a non-finite epsilon would stop every push before it starts
    with pytest.raises(KgsliceError, match="epsilon must be finite and > 0"):
        PprParams(epsilon=epsilon)


def test_isolated_source_all_mass_returns():
    kg = make_kg([nt("a", "a", "T")])
    a = kg.vertex_id(f"{EX}a")
    inf = approximate_ppr(kg, a, PprParams())
    assert inf.scores == {a: 1.0}
    assert inf.residuals == {}


def test_symmetric_pair_closed_form():
    kg = make_kg([nt("a", "p0", "b"), nt("b", "p0", "a")])
    a = kg.vertex_id(f"{EX}a")
    b = kg.vertex_id(f"{EX}b")
    params = PprParams(alpha=0.5, epsilon=1e-7)
    inf = approximate_ppr(kg, a, params)
    # geometric series: p(a) = alpha / (1 - (1-alpha)^2) = 2/3, p(b) = 1/3
    assert abs(inf.scores[a] - 2 / 3) <= params.epsilon * 1
    assert abs(inf.scores[b] - 1 / 3) <= params.epsilon * 1


def test_push_matches_power_iteration(rng):
    kg = random_kg(rng, n_vertices=150, n_triples=450)
    params = PprParams(alpha=0.25, epsilon=0.0002)
    adj = kg.walk_adjacency(BOTH)
    n = kg.vertex_count()
    for source in rng.sample(range(n), 5):
        inf = approximate_ppr(kg, source, params)
        exact = power_iteration_ppr(adj, n, source, params.alpha)
        for u in range(n):
            deg = len(adj.get(u, ()))
            bound = params.epsilon * deg
            assert abs(inf.scores.get(u, 0.0) - exact[u]) <= bound + 1e-12


def test_residual_certificate_and_mass(rng):
    kg = random_kg(rng, n_vertices=120, n_triples=300)
    params = PprParams()
    adj = kg.walk_adjacency(BOTH)
    for source in rng.sample(range(kg.vertex_count()), 8):
        inf = approximate_ppr(kg, source, params)
        assert abs(ppr_mass(inf) - 1.0) <= 1e-9
        assert all(s >= 0 for s in inf.scores.values())
        for u, ru in inf.residuals.items():
            deg = len(adj.get(u, ()))
            assert deg > 0 and ru < params.epsilon * deg


def test_zero_score_iff_unreachable():
    lines = [nt("a", "p0", "b"), nt("b", "p0", "c"), nt("x", "p0", "y")]
    kg = make_kg(lines)
    a = kg.vertex_id(f"{EX}a")
    inf = approximate_ppr(kg, a, PprParams())
    reachable = {a, kg.vertex_id(f"{EX}b"), kg.vertex_id(f"{EX}c")}
    assert set(inf.scores) <= reachable
    assert kg.vertex_id(f"{EX}x") not in inf.scores
    assert kg.vertex_id(f"{EX}y") not in inf.scores


def test_influence_scores_singleton(rng):
    kg = random_kg(rng, n_vertices=30, n_triples=80)
    out = list(influence_scores(kg, [3], PprParams()))
    assert len(out) == 1 and out[0].source == 3


def test_influence_scores_rejects_duplicates(rng):
    kg = random_kg(rng, n_vertices=30, n_triples=80)
    with pytest.raises(DuplicateTarget):
        influence_scores(kg, [3, 3], PprParams())
    with pytest.raises(EmptyTargetSet):
        influence_scores(kg, [], PprParams())


def test_influence_scores_match_standalone(rng):
    kg = random_kg(rng, n_vertices=150, n_triples=400)
    targets = rng.sample(range(kg.vertex_count()), 20)
    params = PprParams()
    batch = influence_scores(kg, targets, params)
    for t, inf in zip(targets, batch):
        solo = approximate_ppr(kg, t, params)
        assert inf.scores == solo.scores


def edge_case_kg():
    """Parallel edges, a self-loop, a literal, a leaf, an isolated vertex."""
    return make_kg([
        nt("a", "p0", "b"), nt("a", "p1", "b"), nt("a", "p0", "a"),
        nt("a", "p0", '"lit"'), nt("b", "p0", "c"), nt("z", "a", "T"),
    ])


def random_push_kg(rng, n=50, m=140):
    lines = [nt(f"v{v}", "a", "T") for v in range(n)]
    for _ in range(m):
        s, o, roll = rng.randrange(n), rng.randrange(n), rng.random()
        if roll < 0.1:
            lines.append(nt(f"v{s}", "p0", f'"lit{o % 7}"'))
        elif roll < 0.2:
            lines.append(nt(f"v{s}", "p0", f"v{s}"))
        else:
            lines.append(nt(f"v{s}", "p0", f"v{o}"))
            if roll < 0.35:
                lines.append(nt(f"v{s}", "p1", f"v{o}"))
    return make_kg(lines)


def multigraph_push_kg(rng, n=30, m=60):
    """1-3 predicates per linked pair, half of them also reversed: most lists repeat."""
    lines = [nt(f"v{v}", "a", "T") for v in range(n)]
    for _ in range(m):
        s, o = rng.sample(range(n), 2)
        for p in rng.sample(["p0", "p1", "p2"], rng.randint(1, 3)):
            lines.append(nt(f"v{s}", p, f"v{o}"))
            if rng.random() < 0.5:
                lines.append(nt(f"v{o}", p, f"v{s}"))
    return make_kg(lines)


def test_push_matches_reference_bit_for_bit():
    kgs = [edge_case_kg()] + [random_push_kg(random.Random(seed)) for seed in range(3)]
    multigraphs = [multigraph_push_kg(random.Random(seed)) for seed in range(3)]
    neighbors, degree = kgs[0].walk_index()
    a, b, c, z = (kgs[0].vertex_id(f"{EX}{name}") for name in "abcz")
    assert len(set(neighbors[a])) < len(neighbors[a])  # parallel edges
    assert degree[z] == 0
    assert degree[c] == 1
    for kg in multigraphs:
        lists = [nbrs for nbrs in kg.walk_index().neighbors if nbrs]
        assert sum(len(set(nbrs)) < len(nbrs) for nbrs in lists) > len(lists) / 2
    for kg in kgs + multigraphs:
        adj = kg.walk_adjacency(BOTH)
        for params in (
            PprParams(),
            PprParams(alpha=0.15, epsilon=1e-5),
            PprParams(alpha=0.9, epsilon=0.05),
        ):
            for source in range(kg.vertex_count()):
                inf = approximate_ppr(kg, source, params)
                scores, residuals = reference_forward_push(
                    adj, source, params.alpha, params.epsilon)
                assert inf.scores == scores
                assert inf.residuals == residuals


def test_select_topk_single_entry():
    inf = InfluenceScores(source=0, scores={0: 0.9, 7: 0.1})
    assert select_topk([0], [inf], 5) == [(0, 7)]


def test_select_topk_tie_break():
    inf = InfluenceScores(source=0, scores={5: 0.2, 3: 0.2})
    assert select_topk([0], [inf], 1) == [(0, 3)]


@pytest.mark.parametrize("n_scores", [1, 3])
def test_select_topk_rejects_length_mismatch(n_scores):
    targets = [0, 1]
    scores = [InfluenceScores(source=i, scores={i: 0.5, 9: 0.5}) for i in range(n_scores)]
    with pytest.raises(ValueError):
        select_topk(targets, iter(scores), 1)


def streaming_cases():
    """random_kg graphs with parallel edges, each with its T0 targets, some isolated."""
    cases = []
    for seed in range(4):
        kg = random_kg(random.Random(seed), n_vertices=100, n_triples=150, n_predicates=2)
        neighbors, degree = kg.walk_index()
        targets = kg.vertices_of_type(kg.type_id(f"{EX}T0"))
        random.Random(seed).shuffle(targets)
        assert any(len(set(nbrs)) < len(nbrs) for nbrs in neighbors)
        assert any(degree[t] == 0 for t in targets)
        cases.append((kg, targets))
    return cases


def test_streamed_topk_matches_batched():
    params = PprParams()
    for kg, targets in streaming_cases():
        for k in (1, 4, 16):
            batched = [approximate_ppr(kg, t, params) for t in targets]
            streamed = select_topk(targets, influence_scores(kg, targets, params), k)
            assert streamed == select_topk(targets, batched, k)


def test_extract_keeps_one_ppr_run_alive(monkeypatch):
    kg, targets = streaming_cases()[0]
    task = nc_task(kg, "T0")
    runs: list[weakref.ref] = []
    most_alive = 0
    original = influence.approximate_ppr

    def recording_ppr(kg, source, params):
        nonlocal most_alive
        most_alive = max(most_alive, sum(ref() is not None for ref in runs))
        inf = original(kg, source, params)
        runs.append(weakref.ref(inf))
        return inf

    monkeypatch.setattr(influence, "approximate_ppr", recording_ppr)
    extract_influence(kg, task, bs=5, k=4, params=PprParams(), seed=1)
    assert len(runs) == len(targets) > 2
    assert most_alive <= 1


def test_select_topk_matches_sort_oracle(rng):
    scores = []
    targets = list(range(10))
    for t in targets:
        s = {u: rng.random() for u in rng.sample(range(200), 40)}
        s[t] = 1.0
        scores.append(InfluenceScores(source=t, scores=s))
    pairs = select_topk(targets, scores, 16)
    for t, inf in zip(targets, scores):
        mine = [u for tt, u in pairs if tt == t]
        oracle = sorted(
            (u for u in inf.scores if u != t),
            key=lambda u: (-inf.scores[u], u),
        )[:16]
        assert mine == oracle


def test_build_partition_takes_everything():
    pairs = [(1, 10), (1, 11), (2, 11), (2, 12)]
    got = build_partition(pairs, bs=10, rng=random.Random(0))
    assert got == {1, 2, 10, 11, 12}


def test_build_partition_bs_one():
    pairs = [(1, 10), (1, 11), (2, 12)]
    got = build_partition(pairs, bs=1, rng=random.Random(0))
    assert got in ({1, 10, 11}, {2, 12})


def test_build_partition_prefers_overlapping_cluster():
    # two clusters of 3 targets; within a cluster every target shares the
    # same neighbor pool, across clusters nothing is shared
    pairs = []
    for t in (1, 2, 3):
        pairs += [(t, 100), (t, 101), (t, 102)]
    for t in (7, 8, 9):
        pairs += [(t, 200), (t, 201), (t, 202)]
    for seed in range(6):
        got = build_partition(pairs, bs=3, rng=random.Random(seed))
        assert got in (
            {1, 2, 3, 100, 101, 102},
            {7, 8, 9, 200, 201, 202},
        )
    # exhaustive check: a single full cluster is the max-overlap choice
    neighbor_sets = {1: {100, 101, 102}, 2: {100, 101, 102}, 3: {100, 101, 102},
                     7: {200, 201, 202}, 8: {200, 201, 202}, 9: {200, 201, 202}}

    def overlap(subset):
        return sum(
            len(neighbor_sets[a] & neighbor_sets[b])
            for a, b in itertools.combinations(subset, 2)
        )

    best = max(itertools.combinations(neighbor_sets, 3), key=overlap)
    assert set(best) in ({1, 2, 3}, {7, 8, 9})


def test_build_partition_matches_rescan_oracle():
    for trial in range(300):
        local = random.Random(trial)
        n_targets = 1 if trial % 50 == 0 else local.randint(2, 30)
        # targets and neighbors share one id range, so targets are also
        # other targets' neighbors
        pairs = [
            (t, u)
            for t in local.sample(range(60), n_targets)
            for u in local.sample(range(60), local.randint(1, 8))
        ]
        local.shuffle(pairs)
        for bs in (1, local.randint(1, n_targets), n_targets, n_targets + 5):
            got = build_partition(pairs, bs, random.Random(trial))
            assert got == rescan_partition(pairs, bs, random.Random(trial)), (trial, bs)


def test_build_partition_budget_20k_targets():
    local = random.Random(5)
    pairs = [(t, u) for t in range(20000) for u in local.sample(range(200000), 16)]
    with Budget("ibs-partition-20k", 10.0):
        got = build_partition(pairs, bs=20000, rng=random.Random(0))
    assert got == set(range(20000)) | {u for _, u in pairs}


@pytest.mark.parametrize("bs", [0, -3])
def test_extract_rejects_batch_size_below_one(monkeypatch, bs):
    kg = make_kg([nt("a", "a", "T"), nt("a", "p0", "b")])

    def no_ppr(*args):
        raise AssertionError("a PPR run started")

    monkeypatch.setattr(influence, "approximate_ppr", no_ppr)
    with pytest.raises(KgsliceError, match="batch size must be >= 1"):
        extract_influence(kg, nc_task(kg), bs=bs, k=2, params=PprParams())


def test_extract_isolated_targets():
    kg = make_kg([nt("a", "a", "T"), nt("b", "a", "T")])
    sg = extract_influence(kg, nc_task(kg), bs=5, k=2, params=PprParams())
    assert sg.non_type_triples == ()
    assert sg.vertices == {kg.vertex_id(f"{EX}a"), kg.vertex_id(f"{EX}b")}


def test_extract_star_top2():
    lines = [nt("hub", "a", "T")] + [nt("hub", "p0", f"leaf{i}") for i in range(5)]
    kg = make_kg(lines)
    sg = extract_influence(kg, nc_task(kg), bs=1, k=2, params=PprParams())
    hub = kg.vertex_id(f"{EX}hub")
    leaves = sorted(kg.vertex_id(f"{EX}leaf{i}") for i in range(5))
    # symmetric leaves tie; the two smallest ids win
    assert sg.vertices == {hub, leaves[0], leaves[1]}
    assert len(sg.non_type_triples) == 2


def test_extract_prunes_a_stray_from_its_own_slice(monkeypatch):
    # u outscores each w for t (three paths lead there), so the top-1
    # partition is {t, u}: u is in the induced slice, by its type triple,
    # with no edge to t
    lines = [nt("t", "a", "T"), nt("u", "a", "U"), nt("u", "p1", "x")]
    for i in range(3):
        lines += [nt("t", "p0", f"w{i}"), nt(f"w{i}", "p0", "u")]
    kg = make_kg(lines)
    cuts = []
    restricted = Subgraph.restricted

    def spy(sg, keep):
        cuts.append(sg.spo.tolist())
        return restricted(sg, keep)

    monkeypatch.setattr(Subgraph, "restricted", spy)
    sg = extract_influence(kg, nc_task(kg), bs=1, k=1, params=PprParams())
    t, u = kg.vertex_id(f"{EX}t"), kg.vertex_id(f"{EX}u")
    a = kg.type_predicate
    ct, cu = kg.type_id(f"{EX}T"), kg.type_id(f"{EX}U")
    assert cuts == [[[t, a, ct], [u, a, cu]]]
    # the rows that inducing the reached vertices on the parent gives
    assert sg.spo.tolist() == kg.induced_subgraph([t]).spo.tolist() == [[t, a, ct]]
    assert sg.provenance["engine"] == "ibs"


def test_extract_cannot_cross_components(rng):
    lines = [nt("t0", "a", "T")]
    for i in range(8):
        lines.append(nt("t0", "pa", f"a{i}"))
    for i in range(8):
        lines.append(nt(f"b{i}", "pb", f"b{(i + 1) % 8}"))
    kg = make_kg(lines)
    b_vertices = {kg.vertex_id(f"{EX}b{i}") for i in range(8)}
    for seed in range(5):
        sg = extract_influence(kg, nc_task(kg), bs=4, k=8, params=PprParams(), seed=seed)
        assert not (sg.vertices & b_vertices)


def test_extract_deterministic(rng):
    kg = random_kg(rng, n_vertices=100, n_triples=300)
    task = nc_task(kg, "T0")
    a = extract_influence(kg, task, bs=5, k=4, params=PprParams(), seed=21)
    b = extract_influence(kg, task, bs=5, k=4, params=PprParams(), seed=21)
    assert a.triples == b.triples


def test_extract_keeps_targets_connected(rng):
    for trial in range(5):
        local = random.Random(1000 + trial)
        kg = random_kg(local, n_vertices=120, n_triples=250)
        task = nc_task(kg, "T0")
        sg = extract_influence(kg, task, bs=6, k=5, params=PprParams(), seed=trial)
        targets = set(kg.vertices_of_type(task.target_type)) & sg.vertices
        adj: dict[int, set[int]] = {}
        for s, _, o in sg.non_type_triples:
            adj.setdefault(s, set()).add(o)
            adj.setdefault(o, set()).add(s)
        seen = set(targets)
        frontier = list(targets)
        while frontier:
            u = frontier.pop()
            for w in adj.get(u, ()):
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        assert sg.vertices <= seen

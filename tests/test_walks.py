from __future__ import annotations

import random
import tracemalloc

import pytest

from kgslice.errors import EmptyTargetSet, KgsliceError, UnknownVertex
from kgslice.graph import BOTH, OUTGOING
from kgslice.tasks import TaskSpec
from kgslice.walks import (
    WalkParams,
    extract_random_walk,
    get_initial_vertices,
    random_walk_sample,
)

from conftest import EX, make_kg, nt, pattern_oracle_kgs, random_kg
from oracles import bfs_distances, reference_random_walk, undirected_adjacency


def brw_task(kg, type_name="T"):
    # NC resolution: every vertex of the type (predicate only labels)
    return TaskSpec(kind="nc", target_type=kg.type_id(f"{EX}{type_name}"),
                    target_predicate=0)


def test_initial_vertices_whole_target_set():
    assert get_initial_vertices(10, [3, 1, 2], seed=0) == [1, 2, 3]


def test_initial_vertices_single():
    assert get_initial_vertices(1, [5], seed=0) == [5]


def test_initial_vertices_empty():
    with pytest.raises(EmptyTargetSet):
        get_initial_vertices(5, [], seed=0)


def test_initial_vertices_seed_contract():
    targets = list(range(1000))
    a = get_initial_vertices(100, targets, seed=1)
    b = get_initial_vertices(100, targets, seed=1)
    c = get_initial_vertices(100, targets, seed=2)
    assert a == b
    assert a != c
    assert len(a) == 100 and len(set(a)) == 100


def test_walk_isolated_vertex():
    # only a type triple: the walk graph is empty around it
    kg = make_kg([nt("a", "a", "T")])
    a = kg.vertex_id(f"{EX}a")
    assert random_walk_sample(kg, a, 3, BOTH, random.Random(0)) == {a}


def test_walk_forced_chain():
    kg = make_kg([nt("a", "p0", "b"), nt("b", "p0", "c")])
    a = kg.vertex_id(f"{EX}a")
    expected = {a, kg.vertex_id(f"{EX}b"), kg.vertex_id(f"{EX}c")}
    assert random_walk_sample(kg, a, 2, OUTGOING, random.Random(0)) == expected


@pytest.mark.parametrize("start", [99, -1, 3])
def test_walk_rejects_unknown_start(start):
    kg = make_kg([nt("a", "p0", "b"), nt("b", "p0", "c")])
    assert kg.vertex_count() == 3
    with pytest.raises(UnknownVertex):
        random_walk_sample(kg, start, 2, BOTH, random.Random(0))


@pytest.mark.parametrize("h", [-1, -2])
def test_walk_rejects_negative_length(h):
    kg = make_kg([nt("a", "p0", "b")])
    with pytest.raises(KgsliceError):
        random_walk_sample(kg, kg.vertex_id(f"{EX}a"), h, BOTH, random.Random(0))


def test_walk_zero_steps_visits_only_start():
    kg = make_kg([nt("a", "p0", "b")])
    a = kg.vertex_id(f"{EX}a")
    assert random_walk_sample(kg, a, 0, BOTH, random.Random(0)) == {a}


def test_walk_visits_form_connected_path(rng):
    kg = random_kg(rng, n_vertices=100, n_triples=300)
    adj = undirected_adjacency(kg, include_literals=False)
    for trial in range(50):
        v = rng.randrange(kg.vertex_count())
        visited = random_walk_sample(kg, v, 3, BOTH, random.Random(trial))
        assert v in visited
        assert len(visited) <= 4
        # connected using only edges among the visited vertices
        inner = {u: (adj.get(u, set()) & visited) for u in visited}
        dist = bfs_distances(inner, [v])
        assert set(dist) == visited


def test_extract_isolated_targets():
    kg = make_kg([nt("a", "a", "T"), nt("b", "a", "T")])
    sg = extract_random_walk(kg, brw_task(kg), WalkParams(walk_length=2, batch_size=5))
    assert sg.non_type_triples == ()
    assert len(sg.type_triples) == 2
    assert sg.vertices == {kg.vertex_id(f"{EX}a"), kg.vertex_id(f"{EX}b")}


def test_extract_star_single_forced_step():
    lines = [nt("hub", "a", "T")] + [nt("hub", "p0", f"leaf{i}") for i in range(5)]
    kg = make_kg(lines)
    sg = extract_random_walk(
        kg, brw_task(kg), WalkParams(walk_length=1, batch_size=1, seed=9)
    )
    hub = kg.vertex_id(f"{EX}hub")
    assert hub in sg.vertices
    assert len(sg.non_type_triples) == 1
    s, _, o = sg.non_type_triples[0]
    assert s == hub and o in sg.vertices
    assert len(sg.vertices) == 2


def test_extract_never_reaches_disconnected_community(rng):
    lines = [nt("t0", "a", "T"), nt("t1", "a", "T")]
    for i in range(10):  # community A, reachable
        lines.append(nt("t0", "pa", f"a{i}"))
        lines.append(nt(f"a{i}", "pa", f"a{(i + 1) % 10}"))
    for i in range(10):  # community B, no path from targets
        lines.append(nt(f"b{i}", "pb", f"b{(i + 1) % 10}"))
    kg = make_kg(lines)
    b_vertices = {kg.vertex_id(f"{EX}b{i}") for i in range(10)}
    for seed in range(20):
        sg = extract_random_walk(
            kg, brw_task(kg), WalkParams(walk_length=4, batch_size=10, seed=seed)
        )
        assert not (sg.vertices & b_vertices)


def test_extract_deterministic(rng):
    kg = random_kg(rng, n_vertices=120, n_triples=400)
    task = brw_task(kg, "T0")
    params = WalkParams(walk_length=3, batch_size=8, seed=77)
    sg1 = extract_random_walk(kg, task, params)
    sg2 = extract_random_walk(kg, task, params)
    assert sg1.triples == sg2.triples
    assert sg1.vertices == sg2.vertices


def test_extract_monotone_in_walks_per_seed(rng):
    kg = random_kg(rng, n_vertices=120, n_triples=400)
    task = brw_task(kg, "T0")
    prev = set()
    for wps in (1, 2, 4):
        sg = extract_random_walk(
            kg, task, WalkParams(walk_length=3, batch_size=8, seed=5, walks_per_seed=wps)
        )
        assert prev <= sg.vertices
        prev = set(sg.vertices)


def test_extract_vertex_budget(rng):
    kg = random_kg(rng, n_vertices=200, n_triples=800)
    task = brw_task(kg, "T0")
    params = WalkParams(walk_length=3, batch_size=6, walks_per_seed=2, seed=11)
    sg = extract_random_walk(kg, task, params)
    assert len(sg.vertices) <= params.batch_size * params.walks_per_seed * (params.walk_length + 1)


def test_every_subgraph_vertex_within_h_of_a_target(rng):
    kg = random_kg(rng, n_vertices=150, n_triples=500)
    task = brw_task(kg, "T0")
    params = WalkParams(walk_length=3, batch_size=10, seed=3)
    sg = extract_random_walk(kg, task, params)
    targets = set(kg.vertices_of_type(task.target_type)) & sg.vertices
    sg_adj: dict[int, set[int]] = {}
    for s, p, o in sg.non_type_triples:
        sg_adj.setdefault(s, set()).add(o)
        sg_adj.setdefault(o, set()).add(s)
    dist = bfs_distances(sg_adj, sorted(targets))
    for v in sg.vertices:
        assert dist.get(v, 99) <= params.walk_length


def test_provenance_recorded(rng):
    kg = random_kg(rng, n_vertices=50, n_triples=150)
    sg = extract_random_walk(kg, brw_task(kg, "T0"), WalkParams(seed=4))
    assert sg.provenance["engine"] == "brw"
    assert sg.provenance["seed"] == 4


@pytest.mark.parametrize("direction", [OUTGOING, BOTH])
def test_extract_equals_reference_walk_on_random_kgs(direction):
    """Each slice is the induced subgraph of the reference walk's visits, row for row."""
    for kg in pattern_oracle_kgs():
        task = brw_task(kg, "T0")
        for walks_per_seed in (1, 3):
            for walk_length in (1, 3):
                params = WalkParams(walk_length, 20000, walks_per_seed, 5, direction)
                expected = kg.induced_subgraph(reference_random_walk(kg, task, params))
                sg = extract_random_walk(kg, task, params)
                assert sg.spo.tolist() == expected.spo.tolist()


@pytest.mark.parametrize("direction", [OUTGOING, BOTH])
def test_walk_leaves_nothing_on_the_graph(direction):
    """Once the adjacency is built, a walk extraction whose slice is dropped keeps no memory."""
    kg = random_kg(random.Random(8), n_vertices=3000, n_triples=20000, literal_fraction=0.1)
    task = brw_task(kg, "T0")
    params = WalkParams(walk_length=3, batch_size=1000, seed=2, direction=direction)
    kg.walk_adjacency(direction)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        visited = len(extract_random_walk(kg, task, params).vertex_ids)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert visited > 1000
    assert kept <= 4096

from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
import pytest

from kgslice.cli import _strip_label_edges
from kgslice.errors import EmptySubgraph
from kgslice.graph import KnowledgeGraph, ingest_ntriples, subgraph_from_triples
from kgslice.influence import PprParams, extract_influence
from kgslice.metrics import (
    QualityReport,
    avg_distance_to_target,
    disconnected_ratio,
    neighbor_type_counts,
    neighbor_type_entropy,
    quality_report,
    render_reports,
    reports_tsv,
    target_stats,
)
from kgslice.endpoint import local_sparql_extract
from kgslice.patterns import PatternTask
from kgslice.rgcn import prune_outside_reach
from kgslice.tasks import TaskSpec
from kgslice.walks import WalkParams, extract_random_walk

from conftest import (
    EX,
    TYPE_IRI,
    Budget,
    make_kg,
    nt,
    random_kg,
    random_kg_lines,
    types_in_order,
)
from oracles import UnionFind, bfs_distances, entropy_of_counts, reference_quality_report


def full_subgraph(kg):
    return subgraph_from_triples(kg, kg.triples)


def nc_task(kg, type_name="T"):
    return TaskSpec(kind="nc", target_type=kg.type_id(f"{EX}{type_name}"),
                    target_predicate=0)


def test_entropy_uniform_counts_zero():
    # every vertex sees exactly one neighbor type
    kg = make_kg(
        [nt("x", "a", "TA"), nt("y", "a", "TA"), nt("x", "p0", "y"), nt("y", "p0", "x")]
    )
    sg = full_subgraph(kg)
    assert neighbor_type_entropy(sg) == 0.0


def test_entropy_half_half_is_one_bit():
    lines = [
        nt("v1", "a", "TA"),
        nt("v2", "a", "TB"),
        nt("v3", "a", "TC"),
        nt("v4", "a", "TC"),
        nt("v1", "p0", "v3"),
        nt("v1", "p0", "v4"),
        nt("v2", "p0", "v3"),
        nt("v2", "p0", "v4"),
    ]
    kg = make_kg(lines)
    sg = full_subgraph(kg)
    counts = neighbor_type_counts(sg)
    assert sorted(counts.values()) == [1, 1, 2, 2]
    assert neighbor_type_entropy(sg) == 1.0


def test_entropy_matches_histogram_oracle(rng):
    for _ in range(10):
        kg = random_kg(
            rng,
            n_vertices=rng.randrange(30, 200),
            n_types=rng.randrange(2, 8),
            n_triples=rng.randrange(60, 500),
            literal_fraction=0.15,
        )
        sg = full_subgraph(kg)
        counts = neighbor_type_counts(sg)
        assert abs(neighbor_type_entropy(sg) - entropy_of_counts(counts.values())) < 1e-12


def test_entropy_bounds(rng):
    kg = random_kg(rng, n_vertices=100, n_types=5, n_triples=300)
    sg = full_subgraph(kg)
    h = neighbor_type_entropy(sg)
    distinct = len(set(neighbor_type_counts(sg).values()))
    assert 0.0 <= h <= math.log2(distinct) + 1e-12


def test_entropy_empty_subgraph():
    kg, _ = ingest_ntriples(b"")
    sg = subgraph_from_triples(kg, [])
    with pytest.raises(EmptySubgraph):
        neighbor_type_entropy(sg)


def test_target_stats_all_targets():
    kg = make_kg([nt("a", "a", "T"), nt("b", "a", "T"), nt("a", "p0", "b")])
    sg = full_subgraph(kg)
    targets = kg.vertices_of_type(kg.type_id(f"{EX}T"))
    ratio, n_types, n_preds = target_stats(sg, targets)
    assert ratio == 100.0
    assert n_types == 1
    assert n_preds == 1  # the type predicate is not counted in |R'|


def test_target_stats_no_targets():
    kg = make_kg([nt("a", "p0", "b")])
    sg = full_subgraph(kg)
    ratio, _, _ = target_stats(sg, [])
    assert ratio == 0.0


def test_disconnected_ratio_single_component():
    kg = make_kg([nt("t", "a", "T"), nt("t", "p0", "x"), nt("x", "p0", "y")])
    sg = full_subgraph(kg)
    targets = [kg.vertex_id(f"{EX}t")]
    assert disconnected_ratio(sg, targets) == 0.0


def test_disconnected_ratio_stray_component():
    lines = [nt("t", "a", "T")]
    for i in range(7):
        lines.append(nt("t", "p0", f"x{i}"))
    lines += [nt("s0", "p0", "s1"), nt("s1", "p0", "s2")]
    kg = make_kg(lines)
    sg = full_subgraph(kg)
    targets = [kg.vertex_id(f"{EX}t")]
    # 10 non-targets, 3 in the stray component
    assert disconnected_ratio(sg, targets) == 30.0


def test_disconnected_ratio_matches_union_find(rng):
    kg = random_kg(rng, n_vertices=120, n_triples=200)
    sg = full_subgraph(kg)
    targets = kg.vertices_of_type(types_in_order(kg)[0])
    uf = UnionFind()
    for v in sg.vertices:
        uf.find(v)
    for s, _, o in sg.non_type_triples:
        uf.union(s, o)
    target_roots = {uf.find(t) for t in targets if t in sg.vertices}
    non_targets = [v for v in sg.vertices if v not in set(targets)]
    expect = 100.0 * sum(
        1 for v in non_targets if uf.find(v) not in target_roots
    ) / len(non_targets)
    assert abs(disconnected_ratio(sg, targets) - expect) < 1e-12


def test_avg_distance_star():
    kg = make_kg([nt("t", "a", "T")] + [nt("t", "p0", f"x{i}") for i in range(5)])
    sg = full_subgraph(kg)
    avg, n = avg_distance_to_target(sg, [kg.vertex_id(f"{EX}t")])
    assert avg == 1.0 and n == 5


def test_avg_distance_path():
    kg = make_kg([nt("t", "a", "T"), nt("t", "p0", "a"), nt("a", "p0", "b")])
    sg = full_subgraph(kg)
    avg, n = avg_distance_to_target(sg, [kg.vertex_id(f"{EX}t")])
    assert avg == 1.5 and n == 2


def test_avg_distance_no_connected_non_targets():
    kg = make_kg([nt("t", "a", "T")])
    sg = full_subgraph(kg)
    avg, n = avg_distance_to_target(sg, [kg.vertex_id(f"{EX}t")])
    assert avg == 0.0 and n == 0


def test_avg_distance_matches_per_vertex_bfs(rng):
    kg = random_kg(rng, n_vertices=150, n_triples=400)
    sg = full_subgraph(kg)
    targets = set(kg.vertices_of_type(types_in_order(kg)[0])) & sg.vertices
    adj: dict[int, set[int]] = {}
    for s, _, o in sg.non_type_triples:
        adj.setdefault(s, set()).add(o)
        adj.setdefault(o, set()).add(s)
    per_vertex = []
    for v in sg.vertices:
        if v in targets:
            continue
        dist = bfs_distances(adj, [v])
        reachable = [dist[t] for t in targets if t in dist]
        if reachable:
            per_vertex.append(min(reachable))
    expected = sum(per_vertex) / len(per_vertex)
    avg, n = avg_distance_to_target(sg, targets)
    assert n == len(per_vertex)
    assert abs(avg - expected) < 1e-12


def test_quality_report_empty():
    kg, _ = ingest_ntriples(nt("a", "a", "T").encode())
    sg = subgraph_from_triples(kg, [])
    assert quality_report(sg, nc_task(kg), kg) == QualityReport(
        vertex_count=0,
        vertex_count_no_literals=0,
        triple_count=0,
        target_count=0,
        target_ratio=0.0,
        node_type_count=0,
        edge_type_count=0,
        target_disconnected_ratio=0.0,
        avg_distance_to_target=0.0,
        no_connected_non_targets=True,
        neighbor_type_entropy=0.0,
        empty=True,
    )


def test_quality_report_pure_function(rng):
    lines = random_kg_lines(rng, n_vertices=80, n_triples=250)
    kg1 = make_kg(lines)
    shuffled = lines[:]
    rng.shuffle(shuffled)
    kg2 = make_kg(shuffled)
    r1 = quality_report(full_subgraph(kg1), nc_task(kg1, "T0"), kg1)
    r2 = quality_report(full_subgraph(kg2), nc_task(kg2, "T0"), kg2)
    assert r1 == r2


def report_slices(rng, kg):
    """Full, induced, restricted and empty slices of ``kg``."""
    n = kg.vertex_count()
    full = full_subgraph(kg)
    yield full
    yield subgraph_from_triples(kg, [])
    for _ in range(3):
        keep = rng.sample(range(n), rng.randrange(0, n + 1))
        yield kg.induced_subgraph(keep)
        yield full.restricted(keep)
    yield subgraph_from_triples(kg, rng.sample(kg.triples, len(kg.triples) // 2))


def test_quality_report_matches_reference_oracle(rng):
    # literals, untyped and multi-typed vertices
    for _ in range(40):
        lines = random_kg_lines(
            rng,
            n_vertices=rng.randrange(5, 60),
            n_types=rng.randrange(1, 5),
            n_triples=rng.randrange(0, 150),
            typed_fraction=rng.choice((0.0, 0.5, 0.9)),
            literal_fraction=rng.choice((0.0, 0.3)),
            multi_type_fraction=0.3,
        )
        kg = make_kg(lines + [nt("v0", "a", "T0")])
        target_type = types_in_order(kg)[rng.randrange(kg.type_count())]
        task = TaskSpec(kind="nc", target_type=target_type, target_predicate=0)
        for sg in report_slices(rng, kg):
            assert quality_report(sg, task, kg) == reference_quality_report(sg, task, kg)


def test_distance_indicators_accept_precomputed_distances(rng):
    kg = random_kg(rng, n_vertices=60, n_triples=150, literal_fraction=0.2)
    targets = kg.vertices_of_type(kg.type_id(f"{EX}T0"))
    for sg in report_slices(rng, kg):
        dist = sg.undirected_distances(set(targets) & sg.vertices)
        assert disconnected_ratio(sg, targets, dist) == disconnected_ratio(sg, targets)
        assert avg_distance_to_target(sg, targets, dist) == avg_distance_to_target(sg, targets)


def test_quality_report_on_200k_vertex_path():
    n = 200_000
    kg = make_kg([nt("v0", "a", "T")] + [nt(f"v{i}", "p0", f"v{i + 1}") for i in range(n - 1)])
    sg = full_subgraph(kg)
    with Budget("quality-report-200k-path", 5.0):
        report = quality_report(sg, nc_task(kg), kg)
    assert report.vertex_count == n
    assert report.target_count == 1
    assert report.target_disconnected_ratio == 0.0
    assert report.avg_distance_to_target == n / 2
    # only v1 has a typed neighbor
    assert report.neighbor_type_entropy == entropy_of_counts([1] + [0] * (n - 1))


def _far_slice():
    """A 10-triple slice at the top of a 1M-vertex id space, and its NC task.

    One bool array the size of the parent takes 1 MB, one int64 array 8 MB.
    """
    n = 1_000_000
    terms = dict(zip((f"_:b{i}" for i in range(n)), range(n)))
    preds = {f"<{TYPE_IRI}>": 0, f"<{EX}p0>": 1}
    base, cls = n - 20, n - 1
    rows = [(base + i, 1, base + i + 1) for i in range(6)] + [(base + i, 0, cls) for i in range(4)]
    kg = KnowledgeGraph(terms, preds, np.array(rows, dtype=np.int32), TYPE_IRI)
    del terms
    kg.literal_mask()  # the graph's own cached index, shared by all its slices
    return kg, subgraph_from_triples(kg, kg.spo), TaskSpec(kind="nc", target_type=cls, target_predicate=1)


def _traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory it traced while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_quality_report_memory_follows_the_slice():
    kg, sg, task = _far_slice()
    report, peak = _traced_peak(quality_report, sg, task, kg)
    assert peak < 2_000_000
    # the report reads the slice's id arrays, not its vertex set
    assert "vertices" not in sg.__dict__
    assert report == reference_quality_report(sg, task, kg)
    assert (report.vertex_count, report.target_count, report.triple_count) == (7, 4, 10)


def test_reach_pruning_memory_follows_the_slice():
    kg, sg, task = _far_slice()
    targets = kg.vertices_of_type(task.target_type)
    pruned, peak = _traced_peak(prune_outside_reach, sg, targets, 1)
    assert peak < 100_000
    # the path's last two vertices are more than one hop from every target
    assert pruned.spo.tolist() == sg.spo[:8].tolist()


def test_label_edge_stripping_memory_follows_the_slice():
    kg, sg, task = _far_slice()
    stripped, peak = _traced_peak(_strip_label_edges, sg, kg.term(task.target_type), f"{EX}p0")
    assert peak < 100_000
    assert stripped.provenance["label_edges_excluded"] == 4
    assert stripped.spo.tolist() == sg.spo[[0, 2, 4, 6, 8, 9]].tolist()


def test_extractors_report_zero_disconnection(rng):
    kg = random_kg(rng, n_vertices=150, n_triples=450, literal_fraction=0.1)
    task = nc_task(kg, "T0")
    pattern = PatternTask(kind="nc", target_type_iri=f"{EX}T0")
    subgraphs = [
        extract_random_walk(kg, task, WalkParams(walk_length=3, batch_size=10, seed=1)),
        extract_influence(kg, task, bs=8, k=6, params=PprParams(), seed=1),
        local_sparql_extract(kg, pattern, d=1, h=1),
        local_sparql_extract(kg, pattern, d=2, h=2),
    ]
    targets = kg.vertices_of_type(task.target_type)
    for sg in subgraphs:
        assert disconnected_ratio(sg, targets) == 0.0


def test_sparql_distance_bounded_by_pattern(rng):
    kg = random_kg(rng, n_vertices=120, n_triples=400)
    pattern = PatternTask(kind="nc", target_type_iri=f"{EX}T0")
    targets = kg.vertices_of_type(kg.type_id(f"{EX}T0"))
    for d, h in ((1, 1), (2, 1), (1, 2), (2, 2)):
        sg = local_sparql_extract(kg, pattern, d=d, h=h)
        dist = {}
        adj: dict[int, set[int]] = {}
        for s, _, o in sg.non_type_triples:
            adj.setdefault(s, set()).add(o)
            adj.setdefault(o, set()).add(s)
        dist = bfs_distances(adj, set(targets) & sg.vertices)
        for v in sg.vertices:
            if v in dist:
                assert dist[v] <= 2 * h


def test_report_rendering(rng):
    kg = random_kg(rng, n_vertices=50, n_triples=150)
    report = quality_report(full_subgraph(kg), nc_task(kg, "T0"), kg)
    tsv = reports_tsv([("full", report)])
    assert tsv.startswith("indicator\tfull\n")
    assert "target_ratio" in tsv
    text = render_reports([("full", report), ("again", report)])
    assert "entropy (bits)" in text
    assert "again" in text

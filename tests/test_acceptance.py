"""Acceptance suite: one test per release criterion.

Each test prints a single `ACCEPTANCE <name>: PASS (<seconds>)` line
(visible with `pytest -s`) and enforces both the functional tolerance and
the runtime budget. Criterion 10 builds a million-triple graph and is the
slow one; everything else finishes in seconds.
"""

from __future__ import annotations

import random
import resource

import numpy as np
import pytest

from kgslice.endpoint import execute_plan, execution_planner, get_graph_size, local_sparql_extract
from kgslice.graph import BOTH, ingest_ntriples, subgraph_from_triples
from kgslice.influence import PprParams, approximate_ppr, extract_influence
from kgslice.metrics import (
    disconnected_ratio,
    neighbor_type_counts,
    neighbor_type_entropy,
    quality_report,
    target_stats,
)
from kgslice.patterns import LocalBackend, PatternTask, get_bgp
from kgslice.rgcn import (
    RgcnReferenceModel,
    message_reach,
    prune_outside_reach,
    random_features,
    rgcn_forward,
)
from kgslice.tasks import SplitSpec, TaskSpec, build_labels, make_splits, resolve_targets
from kgslice.walks import WalkParams, extract_random_walk

from conftest import (
    EX,
    Budget,
    iri,
    make_kg,
    nt,
    pattern_oracle_kgs,
    random_kg_lines,
    tokenize_query,
    types_in_order,
)
from oracles import (
    dense_rgcn_forward,
    entropy_of_counts,
    influence_fd,
    pattern_triples,
    power_iteration_ppr,
    ppr_mass,
)

REFERENCE_D2H1 = """
select ?s ?p ?o {
    select ?v as ?s ?p ?o
    where { ?v a <TYPE>.
            ?v ?p ?o.}
    union select ?s ?p ?v as ?o
    where  {?v a <TYPE>.
            ?s ?p ?v.} }
"""


def nc_task(kg, type_name="T0"):
    return TaskSpec(kind="nc", target_type=kg.type_id(f"{EX}{type_name}"), target_predicate=0)


def test_01_golden_query():
    task = PatternTask(kind="nc", target_type_iri=f"{EX}Paper")
    with Budget("01-golden-query", 0.001):
        bgp = get_bgp(task, d=2, h=1)
    expected = tokenize_query(REFERENCE_D2H1.replace("<TYPE>", f"<{EX}Paper>"))
    assert tokenize_query(bgp.full_text) == expected
    print("ACCEPTANCE 01-golden-query: token comparison PASS")


def test_02_pattern_oracle_equivalence():
    with Budget("02-pattern-oracle", 30.0):
        for i, kg in enumerate(pattern_oracle_kgs()):
            assert kg.triple_count() <= 10_000
            task = PatternTask(kind="nc", target_type_iri=f"{EX}T0")
            targets = kg.vertices_of_type(kg.type_id(f"{EX}T0"))
            for d, h in ((1, 1), (2, 1), (1, 2), (2, 2)):
                sg = local_sparql_extract(kg, task, d=d, h=h)
                assert set(sg.triples) == pattern_triples(kg, targets, d, h), (
                    f"variant d{d}h{h} diverged on KG {i}"
                )


def test_03_pagination_and_worker_invariance():
    with Budget("03-pagination-workers", 20.0):
        rng = random.Random(7)
        kg = make_kg(
            random_kg_lines(rng, n_vertices=2500, n_types=8, n_triples=9000)
        )
        task = PatternTask(kind="nc", target_type_iri=f"{EX}T0")
        bgp = get_bgp(task, 2, 1)
        reference = None
        for bs in (1, 7, 1000):
            for workers in (1, 8):
                backend = LocalBackend(kg)
                counts = get_graph_size(backend, bgp)
                plan = execution_planner(bgp, counts, bs)
                rows = execute_plan(backend, bgp, plan, workers=workers)
                dedup = sorted(set(map(tuple, rows.tolist())))
                if reference is None:
                    reference = dedup
                assert dedup == reference, f"bs={bs} P={workers} diverged"


def test_04_ppr_certificate():
    with Budget("04-ppr-certificate", 10.0):
        params = PprParams(alpha=0.25, epsilon=0.0002)
        rng = random.Random(11)
        for i in range(30):
            kg = make_kg(
                random_kg_lines(
                    rng,
                    n_vertices=rng.randrange(20, 200),
                    n_types=3,
                    n_triples=rng.randrange(40, 500),
                )
            )
            adj = kg.walk_adjacency(BOTH)
            n = kg.vertex_count()
            for source in rng.sample(range(n), 2):
                inf = approximate_ppr(kg, source, params)
                assert abs(ppr_mass(inf) - 1.0) <= 1e-9
                exact = power_iteration_ppr(adj, n, source, params.alpha)
                for u in range(n):
                    deg = len(adj.get(u, ()))
                    gap = abs(inf.scores.get(u, 0.0) - exact[u])
                    assert gap <= params.epsilon * deg + 1e-12, (
                        f"graph {i}, source {source}, vertex {u}: gap {gap}"
                    )


def test_05_zero_disconnection():
    with Budget("05-zero-disconnection", 10.0):
        rng = random.Random(23)
        for i in range(8):
            kg = make_kg(
                random_kg_lines(
                    rng,
                    n_vertices=rng.randrange(60, 250),
                    n_types=rng.randrange(2, 6),
                    n_triples=rng.randrange(150, 700),
                    literal_fraction=0.1 if i % 2 else 0.0,
                )
            )
            task = nc_task(kg)
            pattern = PatternTask(kind="nc", target_type_iri=f"{EX}T0")
            targets = kg.vertices_of_type(task.target_type)
            subgraphs = [
                extract_random_walk(kg, task, WalkParams(walk_length=3, batch_size=12, seed=i)),
                extract_influence(kg, task, bs=8, k=6, params=PprParams(), seed=i),
            ]
            subgraphs += [
                local_sparql_extract(kg, pattern, d=d, h=h)
                for d, h in ((1, 1), (2, 1), (1, 2), (2, 2))
            ]
            for sg in subgraphs:
                assert disconnected_ratio(sg, targets) == 0.0


def test_06_entropy_correctness():
    with Budget("06-entropy", 5.0):
        rng = random.Random(31)
        for _ in range(100):
            kg = make_kg(
                random_kg_lines(
                    rng,
                    n_vertices=rng.randrange(20, 120),
                    n_types=rng.randrange(2, 7),
                    n_triples=rng.randrange(40, 400),
                    literal_fraction=0.1,
                )
            )
            sg = subgraph_from_triples(kg, kg.triples)
            counts = neighbor_type_counts(sg)
            assert abs(neighbor_type_entropy(sg) - entropy_of_counts(counts.values())) <= 1e-12

        # uniform neighbor-type counts: zero entropy
        uniform = make_kg(
            [nt("x", "a", "TA"), nt("y", "a", "TA"), nt("x", "p0", "y"), nt("y", "p0", "x")]
        )
        assert neighbor_type_entropy(subgraph_from_triples(uniform, uniform.triples)) == 0.0

        # counts {1, 1, 2, 2}: exactly one bit
        half = make_kg(
            [
                nt("v1", "a", "TA"),
                nt("v2", "a", "TB"),
                nt("v3", "a", "TC"),
                nt("v4", "a", "TC"),
                nt("v1", "p0", "v3"),
                nt("v1", "p0", "v4"),
                nt("v2", "p0", "v3"),
                nt("v2", "p0", "v4"),
            ]
        )
        sg = subgraph_from_triples(half, half.triples)
        assert sorted(neighbor_type_counts(sg).values()) == [1, 1, 2, 2]
        assert neighbor_type_entropy(sg) == 1.0


def test_07_size_reduction_analogue():
    with Budget("07-size-reduction", 10.0):
        rng = random.Random(57)
        lines = []
        # task-relevant core: 50 targets, two outgoing edges each
        for i in range(50):
            lines.append(nt(f"t{i}", "a", "T0"))
            lines.append(nt(f"t{i}", "cites", f"n{rng.randrange(80)}"))
            lines.append(nt(f"t{i}", "about", f"n{rng.randrange(80)}"))
        for i in range(80):
            lines.append(nt(f"n{i}", "a", "T1"))
        # bulk: types unreachable within one hop of any target
        for i in range(1500):
            lines.append(nt(f"b{i}", "a", f"T{2 + i % 5}"))
            for _ in range(3):
                lines.append(nt(f"b{i}", "links", f"b{rng.randrange(1500)}"))
        kg = make_kg(lines)
        task = nc_task(kg)
        targets = kg.vertices_of_type(task.target_type)

        reachable = pattern_triples(kg, targets, d=1, h=1)
        bulk_share = 1.0 - len(reachable) / kg.triple_count()
        assert bulk_share >= 0.80, "synthetic KG must be dominated by unreachable types"

        pattern = PatternTask(kind="nc", target_type_iri=f"{EX}T0")
        sg = local_sparql_extract(kg, pattern, d=1, h=1)
        assert len(sg.triples) <= 0.25 * kg.triple_count()

        full = subgraph_from_triples(kg, kg.triples)
        full_ratio, _, _ = target_stats(full, targets)
        sg_ratio, _, _ = target_stats(sg, targets)
        assert sg_ratio > full_ratio


def test_08_rgcn_pruning_invariance():
    with Budget("08-pruning-invariance", 30.0):
        rng = random.Random(71)
        for trial in range(20):
            kg = make_kg(
                random_kg_lines(
                    rng,
                    n_vertices=rng.randrange(60, 300),
                    n_types=3,
                    n_triples=rng.randrange(100, 500),
                )
            )
            sg = subgraph_from_triples(kg, kg.triples)
            assert len(sg.vertices) <= 300
            targets = kg.vertices_of_type(types_in_order(kg)[0])[:6]
            model = RgcnReferenceModel(layers=2, dim=8, seed=trial)
            feats = random_features(sg.entity_vertices(), 8, seed=trial)
            full = rgcn_forward(model, sg, feats)
            pruned_sg = prune_outside_reach(sg, targets, hops=2)
            pruned = rgcn_forward(model, pruned_sg, feats)
            for t in targets:
                if t in pruned:
                    assert np.array_equal(full[t], pruned[t]), "embeddings moved"

            if trial < 6:
                verts = sg.entity_vertices()
                u = targets[0] if targets else verts[0]
                reach = message_reach(sg, [u], hops=2)
                unreachable = [v for v in verts if v not in reach]
                for v in unreachable[:2]:
                    assert influence_fd(model, sg, feats, v, u) <= 1e-6


def test_09_forward_pass_oracle():
    with Budget("09-forward-oracle", 5.0):
        rng = random.Random(83)
        for trial in range(10):
            kg = make_kg(
                random_kg_lines(rng, n_vertices=20, n_types=2, n_predicates=3, n_triples=60)
            )
            sg = subgraph_from_triples(kg, kg.triples)
            model = RgcnReferenceModel(layers=2, dim=8, seed=trial)
            feats = random_features(sg.entity_vertices(), 8, seed=trial + 100)
            mine = rgcn_forward(model, sg, feats)
            oracle = dense_rgcn_forward(model, sg, feats)
            for v in mine:
                assert np.max(np.abs(mine[v] - oracle[v])) <= 1e-9


def _generate_million_triple_lines(seed: int) -> list[str]:
    rng = random.Random(seed)
    lines = []
    n_entities = 300_000
    n_preds = 20
    # 150k typed vertices, 20k of them targets
    for v in range(20_000):
        lines.append(f"<{EX}v{v}> <{EX}a_type> <{EX}T0> .")
    for v in range(20_000, 150_000):
        lines.append(f"<{EX}v{v}> <{EX}a_type> <{EX}T{1 + v % 11}> .")
    for _ in range(850_000):
        s = rng.randrange(n_entities)
        p = rng.randrange(n_preds)
        o = rng.randrange(n_entities)
        lines.append(f"<{EX}v{s}> <{EX}p{p}> <{EX}v{o}> .")
    return lines


def test_10_throughput_smoke():
    lines = _generate_million_triple_lines(97)  # setup, outside the budget
    text = ("\n".join(lines) + "\n").encode("utf-8")
    del lines
    with Budget("10-throughput-1M", 120.0):
        kg, errors = ingest_ntriples(text, type_predicate_iri=f"{EX}a_type")
        assert not errors
        assert kg.triple_count() == 1_000_000
        pattern = PatternTask(kind="nc", target_type_iri=f"{EX}T0")
        sg = local_sparql_extract(kg, pattern, d=1, h=1)
        assert len(sg.triples) > 0
        task = TaskSpec(kind="nc", target_type=kg.type_id(f"{EX}T0"), target_predicate=0)
        report = quality_report(sg, task, kg)
        assert report.target_disconnected_ratio == 0.0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert peak_kb < 4 * 1024 * 1024, f"peak RSS {peak_kb / 1024:.0f} MB exceeds 4 GB"
    print(f"ACCEPTANCE 10-throughput-1M: peak RSS {peak_kb / 1024:.0f} MB")


def test_11_split_arithmetic():
    with Budget("11-split-arithmetic", 10.0):
        # stratified: three labels with sizes that do not divide evenly
        lines = []
        sizes = {"L0": 97, "L1": 53, "L2": 19}
        idx = 0
        for label, count in sizes.items():
            for _ in range(count):
                lines.append(nt(f"v{idx}", "a", "T"))
                lines.append(nt(f"v{idx}", "hasLabel", label))
                idx += 1
        kg = make_kg(lines)
        task = TaskSpec(
            kind="nc",
            target_type=kg.type_id(f"{EX}T"),
            target_predicate=kg.predicate_id(f"{EX}hasLabel"),
        )
        labels = build_labels(kg, task)
        targets = resolve_targets(kg, task)
        assignment = make_splits(targets, labels, kg, SplitSpec(ratios=(0.8, 0.1, 0.1), seed=4))
        assert set(assignment) == set(labels.labels)  # partition: exhaustive
        from collections import Counter

        for label_id in range(3):
            members = [v for v in targets if labels.labels[v] == label_id]
            counts = Counter(assignment[v] for v in members)
            n = len(members)
            for part, ratio in (("train", 0.8), ("valid", 0.1), ("test", 0.1)):
                assert abs(counts.get(part, 0) - n * ratio) <= 1.0 + 1e-9

        # time split over a hand-built 30-vertex KG, years 2017-2021
        lines = []
        year_of = {}
        for i in range(30):
            year = 2017 + i % 5
            year_of[f"v{i}"] = year
            lines.append(nt(f"v{i}", "a", "T"))
            lines.append(f'{iri(f"v{i}")} {iri("year")} "{year}" .')
        kg = make_kg(lines)
        split = SplitSpec(
            schema="time",
            time_predicate=kg.predicate_id(f"{EX}year"),
            train_cut="2018",
            valid_cut="2019",
        )
        targets = [kg.vertex_id(f"{EX}v{i}") for i in range(30)]
        assignment = make_splits(targets, None, kg, split)
        for name, year in year_of.items():
            got = assignment[kg.vertex_id(f"{EX}{name}")]
            if year <= 2018:
                assert got == "train"
            elif year == 2019:
                assert got == "valid"
            else:
                assert got == "test"

"""Hypothesis property tests for the store, slice and split invariants."""

from __future__ import annotations

import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgslice.endpoint import local_sparql_extract
from kgslice.errors import UnknownType
from kgslice.graph import (
    BOTH,
    OUTGOING,
    RDF_TYPE,
    build_graph,
    ingest_ntriples,
    sorted_unique_rows,
    subgraph_from_triples,
)
from kgslice.influence import PprParams, extract_influence
from kgslice.patterns import pattern_task_for
from kgslice.rgcn import prune_outside_reach
from kgslice.tasks import (
    LINK_PREDICTION,
    NODE_CLASSIFICATION,
    LabelMap,
    SmallLabelWarning,
    SplitSpec,
    TaskSpec,
    make_splits,
    resolve_targets,
)
from kgslice.walks import WalkParams, extract_random_walk

from oracles import reference_store, surface_triples, walk_lists

_name = st.integers(min_value=0, max_value=30)
_triple = st.tuples(_name, st.integers(min_value=0, max_value=4), _name)


def _render(triples) -> bytes:
    lines = [
        f"<http://ex/v{s}> <http://ex/p{p}> <http://ex/v{o}> ." for s, p, o in triples
    ]
    return ("\n".join(lines) + "\n").encode()


@given(st.lists(_triple, max_size=120))
@settings(max_examples=60, deadline=None)
def test_round_trip_preserves_triple_set(triples):
    kg, errors = ingest_ntriples(io.BytesIO(_render(triples)))
    assert not errors
    out = io.StringIO()
    kg.write_ntriples(out)
    again, errors = ingest_ntriples(out.getvalue().encode())
    assert not errors
    assert surface_triples(again) == surface_triples(kg)
    assert again.triple_count() == len(set(triples))


@given(st.lists(_triple, min_size=1, max_size=120))
@settings(max_examples=40, deadline=None)
def test_ingestion_is_deterministic(triples):
    blob = _render(triples)
    kg1, _ = ingest_ntriples(io.BytesIO(blob))
    kg2, _ = ingest_ntriples(io.BytesIO(blob))
    assert kg1.triples == kg2.triples
    assert [kg1.out_triples(v) for v in range(kg1.vertex_count())] == [
        kg2.out_triples(v) for v in range(kg2.vertex_count())
    ]


_small = st.integers(min_value=0, max_value=8)
# a small vertex range makes parallel edges and self-loops common; an
# object is a vertex or one of a few literals
_edge = st.tuples(_small, st.integers(min_value=0, max_value=3), st.one_of(_small, _small.map(str)))


def _edge_kg(edges, typed, head=()):
    """The graph of ``head`` and ``edges``; predicate 0 is rdf:type when ``typed``."""
    lines = list(head)
    for s, p, o in edges:
        pred = RDF_TYPE if typed and p == 0 else f"http://ex/p{p}"
        obj = f'"lit{o}"' if isinstance(o, str) else f"<http://ex/v{o}>"
        lines.append(f"<http://ex/v{s}> <{pred}> {obj} .")
    kg, errors = ingest_ntriples(("\n".join(lines) + "\n").encode())
    assert not errors
    return kg


@given(st.lists(_edge, max_size=80), st.booleans(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_accessors_equal_brute_force_filters(edges, typed, rnd):
    """Each accessor is the matching filter of ``kg.triples`` in its documented order.

    The walk lists, read one id at a time in any order or all at once, and
    the walk index equal the scan of :func:`oracles.walk_lists`. The type
    accessors equal a scan of the type triples, for every vertex id and
    for -1 and n.
    """
    kg = _edge_kg(edges, typed)
    assert (kg.type_predicate is not None) == (typed and any(p == 0 for _, p, _ in edges))
    for v in range(kg.vertex_count()):
        assert kg.out_triples(v) == sorted(
            (t for t in kg.triples if t[0] == v), key=lambda t: (t[1], t[2])
        )
        assert kg.in_triples(v) == sorted(
            (t for t in kg.triples if t[2] == v), key=lambda t: (t[1], t[0])
        )
    for p in range(kg.predicate_count()):
        assert kg.predicate_triples(p) == sorted(
            (t for t in kg.triples if t[1] == p), key=lambda t: (t[0], t[2])
        )
    assert kg.predicate_triples(None) == []
    n = kg.vertex_count()
    ids = [-1, *range(n), n]
    rnd.shuffle(ids)
    for direction in (OUTGOING, BOTH):
        expected = walk_lists(kg, direction)
        adj = kg.walk_adjacency(direction)
        assert [adj.get(v) for v in ids] == [expected.get(v) for v in ids]
        assert dict(adj) == expected
    both = walk_lists(kg, BOTH)
    neighbors, degree = kg.walk_index()
    assert len(neighbors) == len(degree) == n
    for v in range(n):
        lst = both.get(v, [])
        assert list(neighbors[v]) == lst
        assert degree[v] == len(lst)
    # a class is the vertex a type triple points at, named by its vertex id
    type_triples = [t for t in kg.triples if t[1] == kg.type_predicate]
    classes = {o for _, _, o in type_triples}
    assert kg.type_of == {
        s: tuple(sorted(o for v, _, o in type_triples if v == s)) for s, _, _ in type_triples
    }
    assert kg.type_count() == len(classes)
    for c in ids:
        if c in classes:
            assert kg.vertices_of_type(c) == sorted(s for s, _, o in type_triples if o == c)
            assert kg.type_id(kg.term(c)) == c
        else:
            with pytest.raises(UnknownType):
                kg.vertices_of_type(c)
            if 0 <= c < n:
                with pytest.raises(UnknownType):
                    kg.type_id(kg.term(c))


_vertex = st.integers(min_value=0, max_value=6)
# few vertices and predicates: duplicate statements, parallel edges and
# self-loops are common; an object is a vertex or a literal
_statement = st.tuples(_vertex, st.integers(min_value=0, max_value=3), st.one_of(_vertex, _vertex.map(str)))


@given(st.lists(_statement, max_size=60), st.booleans(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_column_store_equals_the_plain_python_reference(statements, typed, rnd):
    """The three orders, the CSR offsets, by_type, the walk lists and slices equal the reference.

    Statements may repeat; without ``typed`` the graph has no type
    predicate, and with no statement it is empty. The reference
    (:func:`oracles.reference_store`) sorts the unique id triples in Python.
    """
    surfaces = [
        (
            f"<http://ex/v{s}>",
            f"<{RDF_TYPE}>" if typed and p == 0 else f"<http://ex/p{p}>",
            f'"lit{o}"' if isinstance(o, str) else f"<http://ex/v{o}>",
        )
        for s, p, o in statements
    ]
    kg = build_graph(surfaces)
    ref = reference_store(surfaces, RDF_TYPE)
    assert kg.spo.dtype == np.int32 and not kg.spo.flags.writeable
    assert kg.spo.tolist() == [list(t) for t in ref.spo]
    assert np.array_equal(np.column_stack([kg.s, kg.p, kg.o]), kg.spo)
    assert list(zip(kg._in_s.tolist(), kg._in_p.tolist())) == [(s, p) for s, p, _ in ref.ops]
    assert list(zip(kg._pred_s.tolist(), kg._pred_o.tolist())) == [(s, o) for s, _, o in ref.pso]
    assert kg._subject_offsets.tolist() == ref.subject_offsets
    assert kg._object_offsets.tolist() == ref.object_offsets
    assert kg._predicate_offsets.tolist() == ref.predicate_offsets
    # equal, and in the same order: each class from its first type triple
    assert list(kg.by_type.items()) == list(ref.by_type.items())
    for direction in (OUTGOING, BOTH):
        assert dict(kg.walk_adjacency(direction)) == ref.walk[direction]
    neighbors, degree = kg.walk_index()
    assert [list(lst) for lst in neighbors] == [list(lst) for lst in ref.neighbors]
    assert degree == [len(lst) for lst in ref.neighbors]
    # a slice from unsorted rows with repeats, given as tuples or as an array
    rows = [rnd.choice(ref.spo) for _ in range(rnd.randrange(3 * len(ref.spo) + 1))]
    tp = kg.type_predicate
    expected = sorted(set(rows))
    for given_rows in (rows, np.array(rows, dtype=np.int64).reshape(-1, 3)):
        sg = subgraph_from_triples(kg, given_rows)
        assert sg.spo.tolist() == [list(t) for t in expected]
        assert sg.triples == tuple(expected)
        assert sg.type_triples == tuple(t for t in expected if t[1] == tp)
        assert sg.non_type_triples == tuple(t for t in expected if t[1] != tp)
        assert sg.vertices == {s for s, _, _ in expected} | {o for _, p, o in expected if p != tp}


_id = st.one_of(st.integers(min_value=0, max_value=4), st.integers(2**31 - 3, 2**31 - 1))


@given(st.lists(st.tuples(_id, _id, _id), max_size=40))
@settings(max_examples=80, deadline=None)
def test_sorted_unique_rows_with_and_without_a_packed_key(rows):
    """Small id ranges sort by one int64 key, ranges near 2**31 by a lexsort: same result."""
    got = sorted_unique_rows(np.array(rows, dtype=np.int32).reshape(-1, 3))
    assert got.dtype == np.int32
    assert got.tolist() == [list(t) for t in sorted(set(rows))]


def _slices(kg, keep, seed):
    """A slice from every builder, every engine and the pruner."""
    full = subgraph_from_triples(kg, kg.triples)
    yield kg.induced_subgraph(keep)
    yield full.restricted(keep)
    yield subgraph_from_triples(kg, [t for i, t in enumerate(kg.triples) if i % 2 == seed % 2])
    t0, p1 = kg.type_id("http://ex/T0"), kg.predicate_id("http://ex/p1")
    for kind in (NODE_CLASSIFICATION, LINK_PREDICTION):
        task = TaskSpec(kind=kind, target_type=t0, target_predicate=p1)
        targets = resolve_targets(kg, task)
        engines = [
            extract_random_walk(kg, task, WalkParams(walk_length=2, batch_size=3, seed=seed)),
            extract_influence(kg, task, bs=4, k=2, params=PprParams(), seed=seed),
        ]
        engines += [
            local_sparql_extract(kg, pattern_task_for(kg, task), d, h, bs=3)
            for d in (1, 2)
            for h in (1, 2)
        ]
        for sg in engines:
            yield sg
            yield prune_outside_reach(sg, targets, hops=2)


@given(st.lists(_edge, max_size=40), st.booleans(), st.sets(_small), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_slice_vertices_are_the_ends_of_its_triples(edges, typed, keep, seed):
    """Every builder's vertex set is the non-type ends plus the type-triple subjects."""
    # v0 has type T0 and a p1 edge, so both tasks have a target
    head = [
        f"<http://ex/v0> <{RDF_TYPE}> <http://ex/T0> .",
        "<http://ex/v0> <http://ex/p1> <http://ex/v1> .",
    ]
    kg = _edge_kg(edges, typed, head)
    keep = {v for v in keep if v < kg.vertex_count()}
    tp = kg.type_predicate
    for sg in _slices(kg, keep, seed):
        ends = {s for s, _, _ in sg.triples} | {o for _, p, o in sg.triples if p != tp}
        assert sg.vertices == ends
        assert sg.vertices == subgraph_from_triples(kg, sg.triples).vertices


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=0, max_value=3),
        min_size=1,
        max_size=200,
    ),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=60, deadline=None)
def test_stratified_split_partitions_labeled_set(labels, seed):
    kg, _ = ingest_ntriples(b"")
    lm = LabelMap(labels=labels, label_terms=[f"L{i}" for i in range(4)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmallLabelWarning)
        assignment = make_splits(sorted(labels), lm, kg, SplitSpec(seed=seed))
        again = make_splits(sorted(labels), lm, kg, SplitSpec(seed=seed))
    # disjoint and exhaustive over the labeled targets
    assert set(assignment) == set(labels)
    assert set(assignment.values()) <= {"train", "valid", "test"}
    # deterministic under the seed
    assert assignment == again

"""Hypothesis property tests for the store, slice and split invariants."""

from __future__ import annotations

import io
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgslice import graph
from kgslice.endpoint import local_sparql_extract
from kgslice.errors import ParseError, UnknownType
from kgslice.graph import (
    BOTH,
    OUTGOING,
    RDF_TYPE,
    EncodedStatements,
    build_graph,
    csr,
    ingest_ntriples,
    read_ntriples,
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

from oracles import reference_read_ntriples, reference_store, surface_triples, walk_lists

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


@given(st.lists(_triple, max_size=120), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_encoded_statements_build_the_graph_of_the_sorted_unique_statements(triples, rnd):
    """Ids come from the sorted unique surface statements, whatever the tables' order or extras."""
    # v3 sorts after v20 and v100 as a string: ranks follow the surfaces, not the numbers
    terms = [f"<http://ex/v{v}>" for v in range(31)] + ['"unused"']
    preds = [f"<http://ex/p{p}>" for p in range(5)] + ["<http://ex/unused>"]
    term_at, pred_at = list(range(len(terms))), list(range(len(preds)))
    rnd.shuffle(term_at)
    rnd.shuffle(pred_at)
    rows = [(term_at[s], pred_at[p], term_at[o]) for s, p, o in triples] * 2
    rnd.shuffle(rows)
    rows = np.array(rows, dtype=np.int32).reshape(-1, 3)
    tables = [None] * len(terms), [None] * len(preds)
    for table, at, surfaces in zip(tables, (term_at, pred_at), (terms, preds)):
        for i, surface in zip(at, surfaces):
            table[i] = surface
    kg, errors = ingest_ntriples(EncodedStatements(*tables, rows))
    statements = sorted({(terms[s], preds[p], terms[o]) for s, p, o in triples})
    reference = build_graph(statements)
    assert not errors
    assert kg.terms == reference.terms
    assert [kg.predicate_term(p) for p in range(kg.predicate_count())] == [
        reference.predicate_term(p) for p in range(reference.predicate_count())
    ]
    assert np.array_equal(kg.spo, reference.spo)


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


_gap = st.text(" \t", min_size=1, max_size=2)
_subject = st.sampled_from(["<http://ex/v0>", "<http://ex/v1>", "<http://ex/v2>", "_:b0"])
_object = _subject | st.sampled_from(['"x"', '"a\\"b"@en', '"1"^^<http://ex/int>', '"x\x85y\u2028"'])


@st.composite
def _statement(draw) -> str:
    s, o = draw(_subject), draw(_object)
    p = draw(st.sampled_from(["<http://ex/p0>", "<http://ex/p1>"]))
    lead, tail = draw(st.sampled_from(["", " ", "\t "])), draw(st.sampled_from(["", " "]))
    return f"{lead}{s}{draw(_gap)}{p}{draw(_gap)}{o}{draw(_gap)}.{tail}"


_line = st.one_of(
    _statement(),
    _statement(),
    st.text(" \t\x0c\x85\u2028", max_size=3),  # blank to str.strip
    st.sampled_from(["# a comment", "  \t# an indented comment <a> <b> <c> ."]),
    st.sampled_from(["not a triple", "<http://ex/v0> <http://ex/p0> .", '"x" <http://ex/p0> "y" .']),
    # a literal broken across two lines: two malformed lines
    st.just('<http://ex/v0> <http://ex/p0> "left\nright" .'),
    st.integers(20, 90).map(lambda n: f'<http://ex/v1> <http://ex/p1> "{"z" * n}" .'),
)


@given(
    st.lists(_line, max_size=30),
    st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1, max_size=3),
    st.booleans(),
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=1, max_value=5),
)
@example([], ["\n"], False, 1, 1)  # empty input
@example(  # a term first seen as an object, then as a subject
    ["<http://ex/v0> <http://ex/p0> <http://ex/v1> .", "<http://ex/v1> <http://ex/p1> <http://ex/v2> ."],
    ["\n"], True, 4096, 1,
)
@settings(max_examples=150, deadline=None)
def test_block_reader_equals_the_line_reader(lines, newlines, final_newline, block, batch):
    """Blocks of a few characters, cut anywhere, read as the per-line reference reads."""
    text = "".join(line + newlines[i % len(newlines)] for i, line in enumerate(lines))
    if not final_newline and text:
        text = text.rstrip("\r\n")
    data = text.encode("utf-8")
    ref_errors: list[ParseError] = []
    statements = list(reference_read_ntriples(data, ref_errors))
    ref_ids = [(e.line, e.reason, e.text) for e in ref_errors]
    terms = list(dict.fromkeys(t for s, _, o in statements for t in (s, o)))
    preds = list(dict.fromkeys(p for _, p, _ in statements))
    spo = sorted({(terms.index(s), preds.index(p), terms.index(o)) for s, p, o in statements})
    with mock.patch.object(graph, "_BLOCK_CHARS", block), mock.patch.object(graph, "_BATCH_ROWS", batch):
        errors: list[ParseError] = []
        assert list(read_ntriples(data, errors)) == statements
        assert [(e.line, e.reason, e.text) for e in errors] == ref_ids
        for source in (data, iter(statements)):
            kg, errors = ingest_ntriples(source)
            assert [(e.line, e.reason, e.text) for e in errors] == (ref_ids if source is data else [])
            assert kg._terms == terms
            assert kg._preds == preds
            assert kg.triples == spo
        if ref_errors:
            with pytest.raises(ParseError) as exc:
                ingest_ntriples(data, strict=True)
            assert (exc.value.line, exc.value.reason, exc.value.text) == ref_ids[0]
        else:
            assert ingest_ntriples(data, strict=True)[0].triples == spo


@given(
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=60),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([np.int32, np.int64]),
)
@settings(max_examples=80, deadline=None)
def test_csr_equals_sorted_neighbour_lists(edges, isolated, dtype):
    """Each tail's CSR slice is its heads, sorted, one per edge.

    Seven ids make self-loops and parallel edges common; ``isolated`` ids
    past the largest edge end have empty slices, and no edges at all give
    empty neighbours. The edge arrays are left as they were.
    """
    n = max((max(e) + 1 for e in edges), default=0) + isolated
    tails = np.array([t for t, _ in edges], dtype=dtype)
    heads = np.array([h for _, h in edges], dtype=dtype)
    offsets, neighbours = csr(tails, heads, n)
    assert len(offsets) == n + 1 and offsets[0] == 0 and offsets[-1] == len(edges)
    assert [neighbours[offsets[v]:offsets[v + 1]].tolist() for v in range(n)] == [
        sorted(h for t, h in edges if t == v) for v in range(n)
    ]
    assert tails.tolist() == [t for t, _ in edges] and heads.tolist() == [h for _, h in edges]


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
    """The three orders, the CSR offsets, the classes, the walk lists and slices equal the reference.

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
    for c, instances in ref.by_type.items():
        assert kg.vertices_of_type(c) == instances
    assert kg.type_count() == len(ref.by_type)
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


# v0 has type T0 and a p1 edge, so both tasks of _slices have a target
_TASK_HEAD = [
    f"<http://ex/v0> <{RDF_TYPE}> <http://ex/T0> .",
    "<http://ex/v0> <http://ex/p1> <http://ex/v1> .",
]


@given(st.lists(_edge, max_size=40), st.booleans(), st.sets(_small), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_slice_vertices_are_the_ends_of_its_triples(edges, typed, keep, seed):
    """Every builder's vertex set is the non-type ends plus the type-triple subjects."""
    kg = _edge_kg(edges, typed, _TASK_HEAD)
    keep = {v for v in keep if v < kg.vertex_count()}
    tp = kg.type_predicate
    for sg in _slices(kg, keep, seed):
        ends = {s for s, _, _ in sg.triples} | {o for _, p, o in sg.triples if p != tp}
        assert sg.vertices == ends
        assert sg.vertices == subgraph_from_triples(kg, sg.triples).vertices


@given(st.lists(_edge, max_size=40), st.booleans(), st.sets(_small), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_local_edges_equal_a_plain_search_of_each_column(edges, typed, keep, seed):
    """The sorted search of the object column gives each row's plain ``searchsorted``."""
    kg = _edge_kg(edges, typed, _TASK_HEAD)
    keep = {v for v in keep if v < kg.vertex_count()}
    for sg in _slices(kg, keep, seed):
        rows = sg.non_type_spo
        for got, column in zip(sg.local_edges, (rows[:, 0], rows[:, 2])):
            assert got.dtype == np.int32 and not got.flags.writeable
            assert got.tolist() == np.searchsorted(sg.vertex_ids, column).tolist()


@given(
    st.lists(_edge, max_size=60),
    st.booleans(),
    st.sets(_small),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_restricting_an_induced_slice_equals_inducing_the_subset(edges, typed, part, rnd):
    """Cut to any subset R of its vertices, a slice induced on P is the parent's slice induced on R."""
    kg = _edge_kg(edges, typed)
    sg = kg.induced_subgraph([v for v in part if v < kg.vertex_count()])
    vs = sg.vertex_ids.tolist()
    reached = rnd.sample(vs, rnd.randint(0, len(vs)))
    expected = kg.induced_subgraph(reached).spo.tolist()
    for keep in (set(reached), reached, np.array(reached, dtype=np.int64)):
        assert sg.restricted(keep).spo.tolist() == expected


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

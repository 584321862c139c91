"""Hypothesis property tests for the store and split invariants."""

from __future__ import annotations

import io
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from kgslice.graph import RDF_TYPE, ingest_ntriples
from kgslice.tasks import LabelMap, SmallLabelWarning, SplitSpec, make_splits

from oracles import surface_triples

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


@given(st.lists(_edge, max_size=80), st.booleans())
@settings(max_examples=60, deadline=None)
def test_accessors_equal_brute_force_filters(edges, typed):
    """Each accessor is the matching filter of ``kg.triples`` in its documented order."""
    lines = []
    for s, p, o in edges:
        pred = RDF_TYPE if typed and p == 0 else f"http://ex/p{p}"
        obj = f'"lit{o}"' if isinstance(o, str) else f"<http://ex/v{o}>"
        lines.append(f"<http://ex/v{s}> <{pred}> {obj} .")
    kg, errors = ingest_ntriples(("\n".join(lines) + "\n").encode())
    assert not errors
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

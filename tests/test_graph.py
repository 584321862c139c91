from __future__ import annotations

import gc
import gzip
import io
import os
import random
import sys
import threading
import warnings
import weakref
from array import array

import numpy as np
import pytest

from kgslice import graph
from kgslice.errors import (
    IdSpaceExhausted,
    IoFailure,
    KgsliceError,
    MalformedTerm,
    ParseError,
    UnknownType,
    UnknownVertex,
)
from kgslice.graph import (
    BOTH,
    MAX_IDS,
    OUTGOING,
    WalkAdjacency,
    build_graph,
    check_id_space,
    hop_distances,
    ingest_ntriples,
    load_ntriples,
    open_for_rewrite,
    open_maybe_gzip,
)

from conftest import EX, iri, make_kg, nt, random_kg, random_kg_lines
from oracles import (
    bfs_distances,
    filter_induced,
    scan_vertices_of_type,
    surface_triples,
    walk_lists,
)
from oracles import undirected_adjacency as oracle_undirected_adjacency


def test_empty_stream():
    kg, errors = ingest_ntriples(io.BytesIO(b""))
    assert kg.vertex_count() == 0
    assert kg.triple_count() == 0
    assert not errors


def test_duplicate_statement_collapses():
    line = nt("a", "a", "Paper")
    kg = make_kg([line, line])
    assert kg.triple_count() == 1
    a = kg.vertex_id(f"{EX}a")
    paper = kg.type_id(f"{EX}Paper")
    assert kg.type_of[a] == (paper,)


def test_by_type_lists_classes_in_the_order_of_their_first_type_triple():
    # b (id 0) has class C2 (id 2) and a (id 3) has class C1 (id 1): in (s, o)
    # order C2's type triple comes first, although C1 has the smaller id
    kg = make_kg([nt("b", "p0", "C1"), nt("C2", "p0", "b"), nt("b", "a", "C2"), nt("a", "a", "C1")])
    c1, c2 = kg.vertex_id(f"{EX}C1"), kg.vertex_id(f"{EX}C2")
    assert c1 < c2
    assert list(kg.by_type.items()) == [(c2, [kg.vertex_id(f"{EX}b")]), (c1, [kg.vertex_id(f"{EX}a")])]


def test_malformed_lines_collected_with_line_numbers(rng):
    lines = random_kg_lines(rng, n_vertices=40, n_triples=80)
    lines = sorted(set(lines))
    bad_at = [3, 17, 41]
    for i, pos in enumerate(bad_at):
        lines.insert(pos, f"this is not a triple {i}")
    text = "\n".join(lines) + "\n"
    kg, errors = ingest_ntriples(text.encode("utf-8"))
    assert len(errors) == 3
    assert [e.line for e in errors] == [p + 1 for p in bad_at]
    assert kg.triple_count() == len(lines) - 3


def test_strict_mode_raises():
    text = nt("a", "p0", "b") + "\nbroken line\n"
    with pytest.raises(ParseError) as exc:
        ingest_ntriples(text.encode("utf-8"), strict=True)
    assert exc.value.line == 2


def test_statements_build_the_graph_their_text_does(rng):
    lines = random_kg_lines(rng, n_vertices=40, n_triples=80, literal_fraction=0.2)
    from_text, errors = ingest_ntriples(("\n".join(lines) + "\n").encode("utf-8"))
    assert not errors
    statements = [tuple(line[:-2].split(" ", 2)) for line in lines]
    from_statements, errors = ingest_ntriples(iter(statements))
    assert not errors
    assert surface_triples(from_statements) == surface_triples(from_text)
    assert from_statements.triples == from_text.triples  # the same ids


@pytest.mark.parametrize(
    "statement, term",
    [
        ((f"<{EX}a b>", f"<{EX}p>", f"<{EX}o>"), f"<{EX}a b>"),
        ((f"<{EX}a>", f"<{EX}p> <{EX}q>", f"<{EX}o>"), f"<{EX}p> <{EX}q>"),
        ((f"<{EX}a>", '"p"', f"<{EX}o>"), '"p"'),
        ((f"<{EX}a>", f"<{EX}p>", '"x" '), '"x" '),
        (('"x"', f"<{EX}p>", f"<{EX}o>"), '"x"'),  # a literal is never a subject
    ],
)
@pytest.mark.parametrize("strict", [False, True])
def test_statements_with_a_malformed_term_raise_naming_it(statement, term, strict):
    good = (f"<{EX}a>", f"<{EX}p>", '"x"')
    with pytest.raises(MalformedTerm) as exc:
        ingest_ntriples([good, statement], strict=strict)
    assert exc.value.term == term
    assert repr(term) in str(exc.value)


@pytest.mark.parametrize(
    "statements, first",
    [
        # the literal subject "x" has id 0, the bad IRI id 2
        ([('"x"', f"<{EX}p>", f"<{EX}o>"), (f"<{EX}a b>", f"<{EX}p>", f"<{EX}o>")], '"x"'),
        # the bad IRI has id 0, the literal subject id 2
        ([(f"<{EX}a b>", f"<{EX}p>", f"<{EX}o>"), ('"x"', f"<{EX}p>", f"<{EX}o>")], f"<{EX}a b>"),
        # "x" is a subject only in the second statement, after the bad term got id 1
        ([(f"<{EX}a>", f"<{EX}p>", '"x"'), (f"<{EX}b c>", f"<{EX}p>", f"<{EX}o>"),
          ('"x"', f"<{EX}p>", f"<{EX}o>")], '"x"'),
        ([(f"<{EX}a>", f"<{EX}p>", '"x"'), (f"<{EX}a>", f"<{EX}p>", '"y z" ')], '"y z" '),
        # a bad vertex comes before a bad predicate, whatever their ids
        ([(f"<{EX}a>", f"<{EX}p q>", f"<{EX}o>"), ('"x"', f"<{EX}p>", f"<{EX}o>")], '"x"'),
        ([(f"<{EX}a>", f"<{EX}p q>", f"<{EX}o>"), (f"<{EX}a>", f"<{EX}p>", '"x"')], f"<{EX}p q>"),
        ([(f"<{EX}a>", f"<{EX}p>", '"x"')], None),  # a literal object is fine
    ],
)
def test_malformed_term_is_the_first_offender_in_id_order(statements, first):
    kg = build_graph(statements)
    assert kg.malformed_term() == first
    if first is not None:
        with pytest.raises(MalformedTerm) as exc:
            ingest_ntriples(statements)
        assert exc.value.term == first


def test_id_space_check_at_the_int32_boundary():
    assert MAX_IDS == 2**31 - 1 == np.iinfo(np.int32).max
    check_id_space(MAX_IDS, MAX_IDS)
    for terms, predicates, what in ((MAX_IDS + 1, 1, "terms"), (1, MAX_IDS + 1, "predicates")):
        with pytest.raises(IdSpaceExhausted, match=f"more than 2147483647 distinct {what}") as exc:
            check_id_space(terms, predicates)
        assert isinstance(exc.value, KgsliceError)
        assert (exc.value.what, exc.value.limit) == (what, MAX_IDS)


@pytest.mark.parametrize("what", ["terms", "predicates"])
def test_build_graph_refuses_more_ids_than_the_limit(monkeypatch, what):
    """The check build_graph runs, at a limit of 3 instead of 2**31 - 1."""
    monkeypatch.setattr(graph, "MAX_IDS", 3)
    if what == "terms":  # a, b and c are 3 terms; d is the 4th
        fits = [(f"<{EX}a>", f"<{EX}p>", f"<{EX}b>"), (f"<{EX}c>", f"<{EX}p>", f"<{EX}a>")]
        extra = (f"<{EX}c>", f"<{EX}p>", f"<{EX}d>")
    else:
        fits = [(f"<{EX}a>", f"<{EX}p{i}>", f"<{EX}b>") for i in range(3)]
        extra = (f"<{EX}a>", f"<{EX}p3>", f"<{EX}b>")
    assert build_graph(fits).triple_count() == len(fits)
    with pytest.raises(IdSpaceExhausted, match=f"more than 3 distinct {what}"):
        build_graph([*fits, extra])


def test_build_graph_names_the_limit_when_an_id_overflows_its_column(monkeypatch):
    """An id past the column's C range raises IdSpaceExhausted, not a bare OverflowError.

    Columns of signed chars stand in for int32 columns, so the 129th term
    overflows instead of the 2**31st.
    """
    monkeypatch.setattr(graph, "array", lambda typecode: array("b"))
    monkeypatch.setattr(graph, "MAX_IDS", 127)
    statements = [(f"<{EX}v{i}>", f"<{EX}p>", f"<{EX}v{i + 1}>") for i in range(200)]
    with pytest.raises(IdSpaceExhausted, match="more than 127 distinct terms"):
        build_graph(statements)


def test_literal_forms_preserved():
    lines = [
        f'{iri("a")} {iri("year")} "2020"^^<http://www.w3.org/2001/XMLSchema#gYear> .',
        f'{iri("a")} {iri("label")} "hello world"@en .',
        f'{iri("a")} {iri("note")} "escaped \\" quote" .',
    ]
    kg = make_kg(lines)
    out = io.StringIO()
    kg.write_ntriples(out)
    reparsed, errors = ingest_ntriples(out.getvalue().encode("utf-8"))
    assert not errors
    assert surface_triples(reparsed) == surface_triples(kg)


def test_blank_nodes_are_vertices():
    text = f'_:b1 {iri("p0")} {iri("x")} .\n'
    kg, errors = ingest_ntriples(text.encode("utf-8"))
    assert not errors
    b = kg.vertex_id("_:b1")
    assert kg.kind(b) == "blank"


def test_comments_and_blank_lines_skipped():
    text = "# a comment\n\n" + nt("a", "p0", "b") + "\n"
    kg, errors = ingest_ntriples(text.encode("utf-8"))
    assert not errors
    assert kg.triple_count() == 1


@pytest.mark.parametrize(
    "char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_literal_keeps_non_newline_line_breaks(char):
    # N-Triples ends a line at CR or LF only; these may stand raw in a literal
    lines = [f'{iri("a")} {iri("p0")} "x{char}y" .', "not a triple", nt("a", "p0", "b")]
    kg, errors = ingest_ntriples(("\n".join(lines) + "\n").encode("utf-8"))
    assert [e.line for e in errors] == [2]
    assert kg.triple_count() == 2
    assert f'"x{char}y"' in {kg.term(o) for _, _, o in kg.triples}


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_and_lone_cr_end_lines(newline):
    lines = [nt("a", "p0", "b"), "", "not a triple", nt("b", "p0", "c")]
    kg, errors = ingest_ntriples((newline.join(lines) + newline).encode("utf-8"))
    assert [e.line for e in errors] == [3]
    assert errors[0].text == "not a triple"
    assert kg.triple_count() == 2

    # the reader decodes 8 KiB chunks: a CRLF split across a chunk boundary
    # still ends one line, and a literal longer than a chunk stays whole
    first = nt("a", "p0", "b")
    pad = f'{iri("a")} {iri("p0")} "'
    pad += "x" * (8192 - len(first) - len(newline) - len(pad) - len('" .') - 1) + '" .'
    long_literal = '"' + "y" * 20000 + '"'
    lines = [first, pad, "not a triple", f'{iri("b")} {iri("p0")} {long_literal} .', "bad"]
    data = (newline.join(lines) + newline).encode("utf-8")
    assert data[8191:8192] == b"\r"  # the last byte of the first chunk
    kg, errors = ingest_ntriples(data)
    assert [(e.line, e.text) for e in errors] == [(3, "not a triple"), (5, "bad")]
    assert long_literal in {kg.term(o) for _, _, o in kg.triples}
    assert kg.triple_count() == 3


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("offset", [0, 20000])
def test_invalid_utf8_raises_io_failure(strict, offset):
    # a bad byte after the first decoded chunk fails as early bytes do
    lines = [nt("a", "p0", f"v{i}") for i in range(offset // 40)]
    data = ("\n".join(lines) + "\n").encode("utf-8") + b'<x> <y> "\xff" .\n'
    assert len(data) > offset
    with pytest.raises(IoFailure, match="not valid UTF-8"):
        ingest_ntriples(io.BytesIO(data), strict=strict)


def test_vertices_of_type_star():
    kg = make_kg(
        [nt("hub", "a", "T")]
        + [nt("hub", "p0", f"leaf{i}") for i in range(5)]
    )
    t = kg.type_id(f"{EX}T")
    hub = kg.vertex_id(f"{EX}hub")
    assert kg.vertices_of_type(t) == [hub]


def test_vertices_of_type_unknown():
    kg = make_kg([nt("a", "a", "T"), nt("a", "p0", "b")])
    with pytest.raises(UnknownType):
        kg.type_id(f"{EX}NoSuchType")
    # an IRI that is a vertex but never a type object is still unknown as a type
    with pytest.raises(UnknownType):
        kg.type_id(f"{EX}b")
    with pytest.raises(UnknownType):
        kg.vertices_of_type(999)


def test_vertices_of_type_matches_scan_oracle(rng):
    kg = random_kg(rng, n_vertices=200, n_types=6, n_triples=500)
    for k in range(6):
        type_iri = f"{EX}T{k}"
        try:
            tid = kg.type_id(type_iri)
        except UnknownType:
            continue
        assert kg.vertices_of_type(tid) == scan_vertices_of_type(kg, type_iri)


def test_induced_subgraph_identity(rng):
    kg = random_kg(rng, n_vertices=60, n_triples=150)
    all_vs = range(kg.vertex_count())
    sg = kg.induced_subgraph(all_vs)
    assert set(sg.triples) == set(kg.triples)


def test_induced_subgraph_keeps_type_triples_outside_vs():
    kg = make_kg([nt("a", "a", "T"), nt("a", "p0", "b")])
    a = kg.vertex_id(f"{EX}a")
    b = kg.vertex_id(f"{EX}b")
    sg = kg.induced_subgraph([a, b])
    preds = {kg.predicate_iri(p) for _, p, _ in sg.triples}
    assert kg.type_predicate_iri in preds
    assert len(sg.triples) == 2
    # the class vertex is exposed as a node type, not as an entity vertex
    assert sg.vertices == frozenset([a, b])
    assert sg.node_type_ids == {kg.type_id(f"{EX}T")}


def test_induced_subgraph_matches_filter_oracle(rng):
    kg = random_kg(rng, n_vertices=100, n_triples=350, literal_fraction=0.1)
    vs = rng.sample(range(kg.vertex_count()), 40)
    sg = kg.induced_subgraph(vs)
    assert set(sg.triples) == filter_induced(kg, vs)


def test_induced_subgraph_unknown_vertex(rng):
    kg = random_kg(rng, n_vertices=10, n_triples=20)
    with pytest.raises(UnknownVertex):
        kg.induced_subgraph([0, 10_000])


def test_round_trip_serialization(rng):
    kg = random_kg(rng, n_vertices=80, n_triples=300, literal_fraction=0.2)
    out = io.StringIO()
    kg.write_ntriples(out)
    reparsed, errors = ingest_ntriples(out.getvalue().encode("utf-8"))
    assert not errors
    assert surface_triples(reparsed) == surface_triples(kg)


def test_index_consistency(rng):
    kg = random_kg(rng, n_vertices=60, n_triples=200, literal_fraction=0.1)
    # subgraph_from_triples takes the graph's own list as it is
    assert kg.triples == sorted(set(kg.triples))
    for s, p, o in kg.triples:
        assert (s, p, o) in kg.out_triples(s)
        assert (s, p, o) in kg.in_triples(o)
    n_out = sum(len(kg.out_triples(v)) for v in range(kg.vertex_count()))
    n_in = sum(len(kg.in_triples(v)) for v in range(kg.vertex_count()))
    assert n_out == n_in == kg.triple_count()


def test_deterministic_ingestion(rng):
    text = ("\n".join(random_kg_lines(rng, n_vertices=70, n_triples=250)) + "\n").encode()
    kg1, _ = ingest_ntriples(io.BytesIO(text))
    kg2, _ = ingest_ntriples(io.BytesIO(text))
    assert kg1.triples == kg2.triples
    assert [kg1.out_triples(v) for v in range(kg1.vertex_count())] == [
        kg2.out_triples(v) for v in range(kg2.vertex_count())
    ]
    assert kg1._terms == kg2._terms


def test_gzip_detection(tmp_path, rng):
    lines = random_kg_lines(rng, n_vertices=30, n_triples=60)
    raw = ("\n".join(lines) + "\n").encode("utf-8")
    plain = tmp_path / "kg.nt"
    plain.write_bytes(raw)
    zipped = tmp_path / "kg.nt.gz"
    zipped.write_bytes(gzip.compress(raw))
    kg_a, _ = load_ntriples(plain)
    kg_b, _ = load_ntriples(zipped)
    assert kg_a.triples == kg_b.triples


@pytest.mark.parametrize("compressed", [False, True])
def test_open_maybe_gzip_closes_the_file_it_opens(tmp_path, compressed):
    raw = nt("a", "p0", "b").encode("utf-8") + b"\n"
    path = tmp_path / "kg.nt"
    path.write_bytes(gzip.compress(raw) if compressed else raw)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with open_maybe_gzip(path) as fh:
            assert fh.read() == raw
        del fh  # a file left open warns when it is freed
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_open_for_rewrite_keeps_only_the_bytes_written(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("x" * 10000, encoding="utf-8")
    with open_for_rewrite(path, "w", encoding="utf-8") as fh:
        fh.write("short\n")
    assert path.read_bytes() == b"short\n"
    with pytest.raises(RuntimeError):
        with open_for_rewrite(path, "wb") as fh:
            fh.write(b"ab")
            raise RuntimeError("write failed")
    assert path.read_bytes() == b"ab"


def test_open_for_rewrite_creates_files_as_open_does(tmp_path):
    with open(tmp_path / "plain", "w"):
        pass
    with open_for_rewrite(tmp_path / "new", "w"):
        pass
    assert (tmp_path / "new").stat().st_mode == (tmp_path / "plain").stat().st_mode


def test_open_for_rewrite_writes_to_a_device():
    with open_for_rewrite(os.devnull, "w", encoding="utf-8") as fh:
        fh.write("discarded\n")


def test_dictionary_dump(rng):
    kg = random_kg(rng, n_vertices=20, n_triples=40, literal_fraction=0.2)
    out = io.StringIO()
    kg.write_dictionary_tsv(out)
    rows = [line.split("\t") for line in out.getvalue().splitlines()]
    assert len(rows) == kg.vertex_count()
    for vid_s, kind, lexical in rows:
        vid = int(vid_s)
        assert kg.kind(vid) == kind
        assert kg.lexical(vid) == lexical


def test_configurable_type_predicate():
    lines = [
        f'{iri("a")} {iri("isA")} {iri("Paper")} .',
        nt("a", "p0", "b"),
    ]
    text = ("\n".join(lines) + "\n").encode()
    kg, _ = ingest_ntriples(io.BytesIO(text), type_predicate_iri=f"{EX}isA")
    tid = kg.type_id(f"{EX}Paper")
    assert kg.vertices_of_type(tid) == [kg.vertex_id(f"{EX}a")]


def test_subgraph_csv_output(rng):
    kg = random_kg(rng, n_vertices=20, n_triples=30)
    sg = kg.induced_subgraph(range(kg.vertex_count()))
    out = io.StringIO()
    sg.write_csv(out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "s,p,o"
    assert len(lines) == len(sg.triples) + 1


def test_hop_distances_match_bfs_oracle(rng):
    for _ in range(20):
        kg = random_kg(rng, n_vertices=rng.randrange(10, 80), n_triples=rng.randrange(5, 200))
        edges = [(s, o) for s, p, o in kg.triples if p != kg.type_predicate]
        tails = [s for s, _ in edges] + [o for _, o in edges]
        heads = [o for _, o in edges] + [s for s, _ in edges]
        adj = oracle_undirected_adjacency(kg)
        sources = rng.sample(range(kg.vertex_count()), rng.randrange(0, 4))
        dist = bfs_distances(adj, sources)
        assert hop_distances(tails, heads, sources) == dist
        for max_hops in range(4):
            near = {v: d for v, d in dist.items() if d <= max_hops}
            assert hop_distances(tails, heads, sources, max_hops) == near


def test_hop_distances_on_random_edge_arrays(rng):
    # one-way and both-way edges, repeats, self-loops, sources without edges
    for _ in range(200):
        n = rng.randrange(1, 40)
        tails, heads = [], []
        for _ in range(rng.randrange(0, 3 * n)):
            u, w = rng.randrange(n), rng.randrange(n)
            if rng.random() < 0.1:
                w = u
            for _ in range(rng.choice((1, 1, 2))):
                tails.append(u)
                heads.append(w)
                if rng.random() < 0.5:
                    tails.append(w)
                    heads.append(u)
        adj: dict[int, list[int]] = {}
        for u, w in zip(tails, heads):
            adj.setdefault(u, []).append(w)
        sources = rng.sample(range(n + 5), rng.randrange(0, 5))
        dist = bfs_distances(adj, sources)
        arrays = np.array(tails, dtype=np.int64), np.array(heads, dtype=np.int64)
        assert hop_distances(*arrays, sources) == dist
        assert hop_distances(tails, heads, set(sources)) == dist
        for max_hops in range(4):
            near = {v: d for v, d in dist.items() if d <= max_hops}
            assert hop_distances(*arrays, sources, max_hops) == near


def test_hop_distances_follow_edge_direction():
    # 0 -> 1 -> 2, 3 -> 1
    tails, heads = [0, 1, 3], [1, 2, 1]
    assert hop_distances(tails, heads, [0]) == {0: 0, 1: 1, 2: 2}
    assert hop_distances(heads, tails, [2]) == {2: 0, 1: 1, 0: 2, 3: 2}
    assert hop_distances([], [], [7]) == {7: 0}


def test_hop_distances_reject_negative_max_hops():
    # the level loop stops at hops == max_hops, which a negative bound never meets
    with pytest.raises(ValueError, match="max_hops"):
        hop_distances([0, 1], [1, 2], [0], max_hops=-1)
    assert hop_distances([0, 1], [1, 2], [0], max_hops=None) == {0: 0, 1: 1, 2: 2}


def walk_case_kg(seed: int):
    """A random_kg graph with parallel edges, self-loops, literal objects and type edges."""
    kg = random_kg(random.Random(seed), n_vertices=60, n_predicates=2, n_triples=200,
                   literal_fraction=0.2)
    tp = kg.type_predicate
    edges = [(s, o) for s, p, o in kg.triples if p != tp and kg.kind(o) != "literal"]
    assert len(set(edges)) < len(edges)  # parallel edges
    assert any(s == o for s, o in edges)  # self-loops
    assert any(kg.kind(o) == "literal" for _, _, o in kg.triples)
    assert kg.predicate_triples(tp)
    return kg


@pytest.mark.parametrize("direction", [OUTGOING, BOTH])
@pytest.mark.parametrize("seed", range(3))
def test_walk_adjacency_lookups_and_complete_match_scan(seed, direction):
    kg = walk_case_kg(seed)
    expected = walk_lists(kg, direction)
    n = kg.vertex_count()
    ids = [-1, *range(n), n]
    assert any(v not in expected for v in range(n))
    adj = kg.walk_adjacency(direction)
    assert kg.walk_adjacency(direction) is adj
    early = ids[::2]  # looked up before dict(adj), the rest only after
    for v in early:
        assert adj.get(v) == expected.get(v)
        if v in expected:
            assert adj[v] == expected[v]
        else:
            with pytest.raises(KeyError):
                adj[v]
    # the first read builds the lists no lookup built, the second reads them back
    assert dict(adj) == expected
    assert dict(adj) == expected
    assert len(adj) == len(expected)
    for v in ids:
        assert adj.get(v) == expected.get(v)
    if direction == BOTH:
        neighbors = kg.walk_index().neighbors
        for v in range(n):
            assert list(neighbors[v]) == adj.get(v, [])


def test_walked_graph_freed_by_reference_count():
    """The adjacency holds the graph's lists, not the graph: no cycle keeps it alive."""
    kg = walk_case_kg(0)
    expected = walk_lists(kg, BOTH)
    for direction in (OUTGOING, BOTH):
        dict(kg.walk_adjacency(direction))
    neighbors = kg.walk_index().neighbors
    assert {v: list(lst) for v, lst in enumerate(neighbors) if lst} == expected
    ref = weakref.ref(kg)
    enabled = gc.isenabled()
    gc.disable()  # only reference counting may free it
    try:
        del kg
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_walk_adjacency_rejects_bad_direction():
    with pytest.raises(ValueError):
        make_kg([nt("a", "p0", "b")]).walk_adjacency("incoming")


def test_walk_adjacency_threads_racing_lookups_and_complete():
    kg = random_kg(random.Random(4), n_vertices=400, n_triples=4000, literal_fraction=0.2)
    expected = walk_lists(kg, BOTH)
    ids = list(range(-1, kg.vertex_count() + 1))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):  # a fresh adjacency each round
            adj = WalkAdjacency(kg, BOTH)
            wrong = []

            def look_up(seed, adj=adj, wrong=wrong):
                order = random.Random(seed).sample(ids, len(ids))
                for _ in range(5):
                    wrong.extend(v for v in order if adj.get(v) != expected.get(v))

            workers = [threading.Thread(target=look_up, args=(i,)) for i in range(6)]
            workers.insert(3, threading.Thread(target=dict, args=(adj,)))
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in workers)
            assert not wrong
            assert dict(adj) == expected
    finally:
        sys.setswitchinterval(interval)

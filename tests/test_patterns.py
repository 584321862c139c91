from __future__ import annotations

import random
import re

import numpy as np
import pytest

from kgslice.endpoint import (
    drop_duplicates,
    execute_plan,
    execution_planner,
    get_graph_size,
    local_sparql_extract,
)
from kgslice.errors import UnsupportedParams
from kgslice.graph import ingest_ntriples
from kgslice.patterns import (
    BRIDGE,
    LocalBackend,
    PatternTask,
    get_bgp,
)

from conftest import EX, TYPE_IRI, make_kg, nt, random_kg_lines, tokenize_query
from oracles import branch_solutions, pattern_triples, surface_triples

PAPER_D2H1 = """
select ?s ?p ?o {
    select ?v as ?s ?p ?o
    where { ?v a <TYPE>.
            ?v ?p ?o.}
    union select ?s ?p ?v as ?o
    where  {?v a <TYPE>.
            ?s ?p ?v.} }
"""


def nc_pattern(type_name="T"):
    return PatternTask(kind="nc", target_type_iri=f"{EX}{type_name}")


def lp_pattern(pred="linked", obj_type="U"):
    return PatternTask(
        kind="lp",
        target_type_iri=f"{EX}T",
        target_predicate_iri=f"{EX}{pred}",
        object_type_iri=f"{EX}{obj_type}" if obj_type else None,
    )


def test_golden_d2h1_matches_reference_listing():
    bgp = get_bgp(nc_pattern(), d=2, h=1)
    expected = tokenize_query(PAPER_D2H1.replace("<TYPE>", f"<{EX}T>"))
    assert tokenize_query(bgp.full_text) == expected


def test_d1h1_single_branch_no_union():
    bgp = get_bgp(nc_pattern(), d=1, h=1)
    assert len(bgp.branches) == 1
    assert "union" not in bgp.full_text


def test_branch_counts_per_variant():
    assert len(get_bgp(nc_pattern(), 1, 1).branches) == 1
    assert len(get_bgp(nc_pattern(), 2, 1).branches) == 2
    assert len(get_bgp(nc_pattern(), 1, 2).branches) == 2
    assert len(get_bgp(nc_pattern(), 2, 2).branches) == 6


def test_h_above_two_rejected():
    with pytest.raises(UnsupportedParams):
        get_bgp(nc_pattern(), d=1, h=3)
    with pytest.raises(UnsupportedParams):
        get_bgp(nc_pattern(), d=3, h=1)


LP_D2H1_GOLDEN = (
    "select ?s ?p ?o where { "
    "?vi a <http://ex/T> . ?vj a <http://ex/U> . ?vi <http://ex/linked> ?vj . "
    "{ bind (?vi as ?s) bind (<http://ex/linked> as ?p) bind (?vj as ?o) } "
    "union { ?vi ?p ?o . bind (?vi as ?s) } "
    "union { ?s ?p ?vi . bind (?vi as ?o) } "
    "union { ?vj ?p ?o . bind (?vj as ?s) } "
    "union { ?s ?p ?vj . bind (?vj as ?o) } }"
)


def test_lp_query_contains_bridge_once():
    bgp = get_bgp(lp_pattern(), d=2, h=1)
    bridge = "?vi <http://ex/linked> ?vj ."
    assert bgp.full_text.count(bridge) == 1
    assert tokenize_query(bgp.full_text) == tokenize_query(LP_D2H1_GOLDEN)
    assert bgp.branches[0].shape == BRIDGE
    assert len(bgp.branches) == 5


# <TP> stands for the type predicate, <PREFIX> for the LP anchor pattern
NC_D2H2_BRANCHES = [
    "select distinct (?v as ?s) ?p ?o where { ?v a <http://ex/T> . ?v ?p ?o . }",
    "select distinct ?s ?p (?v as ?o) where { ?v a <http://ex/T> . ?s ?p ?v . "
    "filter (?p != <TP>) }",
    "select distinct (?o1 as ?s) ?p ?o where { ?v a <http://ex/T> . ?v ?p1 ?o1 . ?o1 ?p ?o . "
    "filter (?p1 != <TP>) }",
    "select distinct ?s ?p (?o1 as ?o) where { ?v a <http://ex/T> . ?v ?p1 ?o1 . ?s ?p ?o1 . "
    "filter (?p1 != <TP> && ?p != <TP>) }",
    "select distinct (?s1 as ?s) ?p ?o where { ?v a <http://ex/T> . ?s1 ?p1 ?v . ?s1 ?p ?o . "
    "filter (?p1 != <TP>) }",
    "select distinct ?s ?p (?s1 as ?o) where { ?v a <http://ex/T> . ?s1 ?p1 ?v . ?s ?p ?s1 . "
    "filter (?p1 != <TP> && ?p != <TP>) }",
]

LP_PREFIX = "?vi a <http://ex/T> . ?vj a <http://ex/U> . ?vi <http://ex/linked> ?vj ."
LP_D2H2_BRANCHES = [
    "select (?vi as ?s) (<http://ex/linked> as ?p) (?vj as ?o) where { <PREFIX> }",
    "select distinct (?vi as ?s) ?p ?o where { <PREFIX> ?vi ?p ?o . }",
    "select distinct ?s ?p (?vi as ?o) where { <PREFIX> ?s ?p ?vi . filter (?p != <TP>) }",
    "select distinct (?o1 as ?s) ?p ?o where { <PREFIX> ?vi ?p1 ?o1 . ?o1 ?p ?o . "
    "filter (?p1 != <TP>) }",
    "select distinct ?s ?p (?o1 as ?o) where { <PREFIX> ?vi ?p1 ?o1 . ?s ?p ?o1 . "
    "filter (?p1 != <TP> && ?p != <TP>) }",
    "select distinct (?s1 as ?s) ?p ?o where { <PREFIX> ?s1 ?p1 ?vi . ?s1 ?p ?o . "
    "filter (?p1 != <TP>) }",
    "select distinct ?s ?p (?s1 as ?o) where { <PREFIX> ?s1 ?p1 ?vi . ?s ?p ?s1 . "
    "filter (?p1 != <TP> && ?p != <TP>) }",
    "select distinct (?vj as ?s) ?p ?o where { <PREFIX> ?vj ?p ?o . }",
    "select distinct ?s ?p (?vj as ?o) where { <PREFIX> ?s ?p ?vj . filter (?p != <TP>) }",
    "select distinct (?o1 as ?s) ?p ?o where { <PREFIX> ?vj ?p1 ?o1 . ?o1 ?p ?o . "
    "filter (?p1 != <TP>) }",
    "select distinct ?s ?p (?o1 as ?o) where { <PREFIX> ?vj ?p1 ?o1 . ?s ?p ?o1 . "
    "filter (?p1 != <TP> && ?p != <TP>) }",
    "select distinct (?s1 as ?s) ?p ?o where { <PREFIX> ?s1 ?p1 ?vj . ?s1 ?p ?o . "
    "filter (?p1 != <TP>) }",
    "select distinct ?s ?p (?s1 as ?o) where { <PREFIX> ?s1 ?p1 ?vj . ?s ?p ?s1 . "
    "filter (?p1 != <TP> && ?p != <TP>) }",
]

LP_D2H2_ARMS = (
    "{ bind (?vi as ?s) bind (<http://ex/linked> as ?p) bind (?vj as ?o) } "
    "union { ?vi ?p ?o . bind (?vi as ?s) } "
    "union { ?s ?p ?vi . bind (?vi as ?o) } "
    "union { ?vi ?p1 ?o1 . ?o1 ?p ?o . bind (?o1 as ?s) } "
    "union { ?vi ?p1 ?o1 . ?s ?p ?o1 . bind (?o1 as ?o) } "
    "union { ?s1 ?p1 ?vi . ?s1 ?p ?o . bind (?s1 as ?s) } "
    "union { ?s1 ?p1 ?vi . ?s ?p ?s1 . bind (?s1 as ?o) } "
    "union { ?vj ?p ?o . bind (?vj as ?s) } "
    "union { ?s ?p ?vj . bind (?vj as ?o) } "
    "union { ?vj ?p1 ?o1 . ?o1 ?p ?o . bind (?o1 as ?s) } "
    "union { ?vj ?p1 ?o1 . ?s ?p ?o1 . bind (?o1 as ?o) } "
    "union { ?s1 ?p1 ?vj . ?s1 ?p ?o . bind (?s1 as ?s) } "
    "union { ?s1 ?p1 ?vj . ?s ?p ?s1 . bind (?s1 as ?o) }"
)


def golden(texts, tp=TYPE_IRI):
    """The texts for type predicate ``tp``; only rdf:type is written ``a``."""
    a = "a" if tp == TYPE_IRI else f"<{tp}>"
    return [
        t.replace("<PREFIX>", LP_PREFIX).replace(" a <", f" {a} <").replace("<TP>", f"<{tp}>")
        for t in texts
    ]


@pytest.mark.parametrize("tp", [TYPE_IRI, f"{EX}isA"])
def test_golden_d2h2_nc_branch_texts(tp):
    bgp = get_bgp(PatternTask(kind="nc", target_type_iri=f"{EX}T", type_predicate_iri=tp), 2, 2)
    texts = [b.text for b in bgp.branches]
    assert texts == golden(NC_D2H2_BRANCHES, tp)
    # the display form unions the same texts with the paper's bare alias
    display = [re.sub(r"\((\?\w+ as \?[so])\)", r"\1", t) for t in texts]
    assert bgp.full_text == "select ?s ?p ?o { " + " union ".join(display) + " }"


@pytest.mark.parametrize("tp", [TYPE_IRI, f"{EX}isA"])
def test_golden_d2h2_lp_branch_texts(tp):
    task = PatternTask("lp", f"{EX}T", f"{EX}linked", f"{EX}U", type_predicate_iri=tp)
    bgp = get_bgp(task, 2, 2)
    assert [b.text for b in bgp.branches] == golden(LP_D2H2_BRANCHES, tp)


def test_golden_d2h2_lp_full_text_with_and_without_object_type():
    with_type = get_bgp(lp_pattern(), 2, 2)
    assert with_type.full_text == f"select ?s ?p ?o where {{ {LP_PREFIX} {LP_D2H2_ARMS} }}"
    without = get_bgp(lp_pattern(obj_type=None), 2, 2)
    prefix = "?vi a <http://ex/T> . ?vi <http://ex/linked> ?vj ."
    assert without.full_text == f"select ?s ?p ?o where {{ {prefix} {LP_D2H2_ARMS} }}"
    assert without.branches[1].text == f"select distinct (?vi as ?s) ?p ?o where {{ {prefix} ?vi ?p ?o . }}"


def test_lp_without_object_type():
    bgp = get_bgp(lp_pattern(obj_type=None), d=1, h=1)
    assert "?vj a <" not in bgp.full_text  # no object-type assertion
    assert len(bgp.branches) == 3  # bridge + one hop per side


def test_local_match_empty_graph():
    kg, _ = ingest_ntriples(b"")
    sg = local_sparql_extract(kg, nc_pattern(), 1, 1)
    assert sg.triples == ()


def test_d1h1_star_keeps_hub_outgoing():
    lines = [nt("hub", "a", "T")] + [nt("hub", "p0", f"leaf{i}") for i in range(4)]
    kg = make_kg(lines)
    sg = local_sparql_extract(kg, nc_pattern(), 1, 1)
    assert set(sg.triples) == set(kg.triples)  # all triples leave the hub


def test_d2h1_path_keeps_both_directions():
    kg = make_kg([nt("t", "a", "T"), nt("a", "p0", "t"), nt("t", "p0", "b")])
    sg = local_sparql_extract(kg, nc_pattern(), 2, 1)
    assert set(sg.triples) == set(kg.triples)


def test_d1h1_excludes_incoming():
    kg = make_kg([nt("t", "a", "T"), nt("a", "p0", "t"), nt("t", "p0", "b")])
    sg = local_sparql_extract(kg, nc_pattern(), 1, 1)
    got = surface_triples(kg, sg.triples)
    assert (f"<{EX}a>", f"<{EX}p0>", f"<{EX}t>") not in got
    assert (f"<{EX}t>", f"<{EX}p0>", f"<{EX}b>") in got


def test_d2h2_chain_closure():
    kg = make_kg(
        [
            nt("m", "a", "T"),
            nt("a", "p0", "b"),
            nt("b", "p0", "m"),
            nt("m", "p0", "c"),
            nt("c", "p0", "d"),
            nt("d", "p0", "e"),
        ]
    )
    sg = local_sparql_extract(kg, nc_pattern(), 2, 2)
    targets = [kg.vertex_id(f"{EX}m")]
    assert set(sg.triples) == pattern_triples(kg, targets, d=2, h=2)
    # the edge d->e hangs off a distance-2 vertex: excluded
    assert (kg.vertex_id(f"{EX}d"), kg.predicate_id(f"{EX}p0"), kg.vertex_id(f"{EX}e")) not in set(
        sg.triples
    )


@pytest.mark.parametrize("d,h", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_pattern_equals_bfs_oracle_on_random_kgs(d, h):
    rng = random.Random(5000 + 10 * d + h)
    for _ in range(6):
        kg = make_kg(
            random_kg_lines(
                rng,
                n_vertices=rng.randrange(40, 120),
                n_types=rng.randrange(2, 8),
                n_triples=rng.randrange(100, 600),
                literal_fraction=0.1,
            )
        )
        task = nc_pattern("T0")
        sg = local_sparql_extract(kg, task, d, h)
        targets = kg.vertices_of_type(kg.type_id(f"{EX}T0"))
        assert set(sg.triples) == pattern_triples(kg, targets, d, h)


def test_lp_local_match_bridges_and_expands():
    lines = [
        nt("s1", "a", "T"),
        nt("s2", "a", "T"),
        nt("o1", "a", "U"),
        nt("s1", "linked", "o1"),
        nt("s1", "p0", "x"),
        nt("o1", "p0", "y"),
        nt("s2", "p0", "z"),  # s2 has no bridge edge: not an anchor
    ]
    kg = make_kg(lines)
    sg = local_sparql_extract(kg, lp_pattern(), d=1, h=1)
    got = surface_triples(kg, sg.triples)
    assert (f"<{EX}s1>", f"<{EX}linked>", f"<{EX}o1>") in got
    assert (f"<{EX}s1>", f"<{EX}p0>", f"<{EX}x>") in got
    assert (f"<{EX}o1>", f"<{EX}p0>", f"<{EX}y>") in got
    assert (f"<{EX}s2>", f"<{EX}p0>", f"<{EX}z>") not in got


def test_planner_arithmetic():
    bgp = get_bgp(nc_pattern(), 2, 1)
    plan = execution_planner(bgp, [10, 0], bs=3)
    assert plan.jobs == [(0, 3, 0), (0, 3, 3), (0, 3, 6), (0, 3, 9)]
    plan = execution_planner(bgp, [7, 5], bs=2)
    branch0 = [j for j in plan.jobs if j[0] == 0]
    branch1 = [j for j in plan.jobs if j[0] == 1]
    assert len(branch0) == 4 and len(branch1) == 3
    assert plan.counts == [7, 5]


def test_cross_batch_size_and_worker_invariance(rng):
    kg = make_kg(random_kg_lines(rng, n_vertices=80, n_triples=400, literal_fraction=0.1))
    task = nc_pattern("T0")
    reference = None
    for bs in (1, 7, 10000):
        for workers in (1, 8):
            backend = LocalBackend(kg)
            bgp = get_bgp(task, 2, 2)
            counts = get_graph_size(backend, bgp)
            plan = execution_planner(bgp, counts, bs)
            rows = execute_plan(backend, bgp, plan, workers=workers)
            dedup = sorted(set(map(tuple, rows.tolist())))
            if reference is None:
                reference = dedup
            assert dedup == reference


def test_local_match_equals_paginated_execution(rng):
    kg = make_kg(random_kg_lines(rng, n_vertices=60, n_triples=250))
    task = nc_pattern("T0")
    direct = pattern_triples(kg, kg.vertices_of_type(kg.type_id(f"{EX}T0")), d=2, h=1)
    paged = local_sparql_extract(kg, task, d=2, h=1, bs=5)
    assert direct == set(paged.triples)


def d2h2_queries():
    lp = PatternTask(
        kind="lp",
        target_type_iri=f"{EX}T0",
        target_predicate_iri=f"{EX}p0",
        object_type_iri=f"{EX}T1",
    )
    return [get_bgp(nc_pattern("T0"), 2, 2), get_bgp(lp, 2, 2)]


def test_local_fetch_returns_id_triples(rng):
    kg = make_kg(random_kg_lines(rng, n_vertices=40, n_triples=150, literal_fraction=0.1))
    bgp = get_bgp(nc_pattern("T0"), 2, 1)
    page = LocalBackend(kg).fetch(bgp, 0, 10, 0)
    assert page.shape == (10, 3) and page.dtype == np.int32
    assert not page.flags.writeable  # a slice of the memoized rows
    assert set(map(tuple, page.tolist())) <= set(kg.triples)


def test_local_pages_tile_memoized_branch_rows(rng):
    kg = make_kg(random_kg_lines(rng, n_vertices=60, n_triples=300, literal_fraction=0.1))
    backend = LocalBackend(kg)
    for bgp in d2h2_queries():
        counts = get_graph_size(backend, bgp)
        assert sum(counts) > 0
        for i, count in enumerate(counts):
            rows = backend._branch_rows(bgp, i)
            for bs in (1, 7, max(count, 1)):
                pages = [backend.fetch(bgp, i, bs, offset) for offset in range(0, count, bs)]
                assert np.array_equal(np.concatenate([rows[:0], *pages]), rows)


def test_local_sparql_extract_equals_local_match_at_any_page_size(rng):
    kg = make_kg(random_kg_lines(rng, n_vertices=60, n_triples=300, literal_fraction=0.1))
    for bgp in d2h2_queries():
        counts = get_graph_size(LocalBackend(kg), bgp)
        # one page per branch is the unpaginated reference
        direct = local_sparql_extract(kg, bgp.task, d=2, h=2, bs=max(counts))
        for bs in (1, 7, max(counts)):
            paged = local_sparql_extract(kg, bgp.task, d=2, h=2, bs=bs)
            assert paged.triples == direct.triples
            assert paged.vertices == direct.vertices


@pytest.mark.parametrize("seed", range(25))
def test_branch_rows_are_the_distinct_solutions_of_the_branch_text(seed):
    """Each branch's rows are its solution set, once each, on test 02-style random KGs.

    The oracle evaluates the branch text with bag semantics, so a vertex
    reached from several targets or anchors repeats there; the rows must
    not repeat, and ``branch_count`` must count them.
    """
    rng = random.Random(seed)
    tp = TYPE_IRI if seed % 2 == 0 else f"{EX}isA"
    n_vertices = rng.randrange(20, 120)
    n_types, n_predicates = rng.randrange(2, 6), rng.randrange(2, 6)
    lines = random_kg_lines(
        rng,
        n_vertices=n_vertices,
        n_types=n_types,
        n_predicates=n_predicates,
        n_triples=rng.randrange(40, 6 * n_vertices),
        literal_fraction=0.08 if seed % 3 == 0 else 0.0,
    )
    # relations to, from and between classes, so that a walk can reach a
    # class and the type-predicate FILTERs have rows to drop
    for _ in range(rng.randrange(5, 15)):
        c, v = f"T{rng.randrange(n_types)}", f"v{rng.randrange(n_vertices)}"
        p = f"p{rng.randrange(n_predicates)}"
        typed_class = nt(c, "a", f"T{rng.randrange(n_types)}")
        lines.append(rng.choice([nt(v, p, c), nt(c, p, v), typed_class]))
    text = "\n".join(lines).replace(f"<{TYPE_IRI}>", f"<{tp}>") + "\n"
    kg, errors = ingest_ntriples(text.encode("utf-8"), type_predicate_iri=tp)
    assert not errors
    tasks = [PatternTask("nc", f"{EX}T0", type_predicate_iri=tp)] + [
        PatternTask("lp", f"{EX}T0", f"{EX}p0", obj, type_predicate_iri=tp)
        for obj in (f"{EX}T1", None)
    ]
    backend = LocalBackend(kg)
    repeated = 0
    for task in tasks:
        for d in (1, 2):
            for h in (1, 2):
                bgp = get_bgp(task, d, h)
                for i in range(len(bgp.branches)):
                    rows = list(map(tuple, backend._branch_rows(bgp, i).tolist()))
                    solutions = branch_solutions(kg, bgp, i)
                    where = f"{task.kind} d{d}h{h} branch {i}"
                    assert len(set(rows)) == len(rows), where
                    assert set(rows) == set(solutions), where
                    assert backend.branch_count(bgp, i) == len(rows), where
                    repeated += len(solutions) > len(rows)
    assert repeated  # the oracle's bags do repeat, so distinctness is tested


def test_drop_duplicates_collapses_repeats(rng):
    kg = make_kg([nt("a", "p0", "b")])
    row = (kg.vertex_id(f"{EX}a"), kg.predicate_id(f"{EX}p0"), kg.vertex_id(f"{EX}b"))
    sg = drop_duplicates([row] * 5, kg=kg)
    assert len(sg.triples) == 1
    sg2 = drop_duplicates([], kg=kg)
    assert sg2.triples == ()


def test_drop_duplicates_matches_sort_unique(rng):
    kg = make_kg(random_kg_lines(rng, n_vertices=30, n_triples=100))
    rows = []
    for s, p, o in kg.triples:
        for _ in range(rng.randrange(1, 4)):
            rows.append((s, p, o))
    rng.shuffle(rows)
    sg = drop_duplicates(rows, kg=kg)
    assert list(sg.triples) == sorted(set(kg.triples))


def test_provenance_recorded(rng):
    kg = make_kg(random_kg_lines(rng, n_vertices=40, n_triples=120))
    sg = local_sparql_extract(kg, nc_pattern("T0"), d=1, h=1, bs=50)
    assert sg.provenance["engine"] == "sparql"
    assert sg.provenance["d"] == 1
    assert sg.provenance["backend"] == "local"


# Production [9] SelectClause of SPARQL 1.1, as far as the renderer uses it:
# 'select' ('distinct')? ( Var | '(' Expression 'as' Var ')' )+, where an
# Expression is a variable, an IRI or count(*).
_VAR = r"\?[A-Za-z_]\w*"
_EXPRESSION = rf"(?:{_VAR}|<[^<>\s]*>|count\(\*\))"
_SELECT_CLAUSE = rf"select(?: distinct)?(?: (?:{_VAR}|\({_EXPRESSION} as {_VAR}\)))+"
# SelectQuery: SelectClause DatasetClause? WhereClause SolutionModifier
_SELECT_QUERY = re.compile(
    rf"(?P<select>{_SELECT_CLAUSE}) (?:from <[^<>\s]*> )?where \{{ (?P<group>.*) \}}"
    rf"(?: order by \?s \?p \?o limit \d+ offset \d+)?"
)
# SubSelect: SelectClause WhereClause, as the one pattern of a group
_SUB_SELECT = re.compile(rf"\{{ (?P<select>{_SELECT_CLAUSE}) where \{{ (?P<group>.*) \}} \}}")


def recognise_select(text: str) -> int:
    """Check a query text's select clauses against the grammar; return how many it has.

    Each projected variable appears once, and no alias names a variable
    that the clause's own group pattern binds (SPARQL 1.1, section 18.2.1).
    """
    m = _SELECT_QUERY.fullmatch(text)
    assert m, f"not a SelectQuery in the grammar's form: {text}"
    clauses = 0
    while m:
        items = re.findall(rf"\({_EXPRESSION} as ({_VAR})\)|({_VAR})", m["select"])
        names = [alias or var for alias, var in items]
        assert len(names) == len(set(names)), text
        for alias, _ in items:
            if alias:
                assert not re.search(rf"\{alias}\b", m["group"]), f"{alias} is bound: {text}"
        clauses += 1
        group = m["group"]
        m = _SUB_SELECT.fullmatch(group)
        assert m or " select " not in f" {group}", f"a nested select outside a SubSelect: {text}"
    return clauses


def executed_texts():
    """Every text the engines send: count and page queries of every branch."""
    for tp in (TYPE_IRI, f"{EX}isA"):
        tasks = [PatternTask("nc", f"{EX}T", type_predicate_iri=tp)]
        tasks += [
            PatternTask("lp", f"{EX}T", f"{EX}linked", obj, type_predicate_iri=tp)
            for obj in (f"{EX}U", None)
        ]
        for task in tasks:
            for d in (1, 2):
                for h in (1, 2):
                    for branch in get_bgp(task, d, h).branches:
                        for graph_iri in (None, f"{EX}graph"):
                            yield branch.count_query(graph_iri), 2
                            yield branch.page_query(1000, 2000, graph_iri), 1


def test_executed_texts_follow_the_select_clause_grammar():
    texts = list(executed_texts())
    # 2 type predicates x (11 NC + 26 LP + 26 LP without object type) branches,
    # each with and without a graph IRI, count and page query
    assert len(texts) == 2 * (11 + 26 + 26) * 2 * 2
    for text, clauses in texts:
        assert recognise_select(text) == clauses, text


@pytest.mark.parametrize(
    "text",
    [
        # the bare alias that the paper's listing and BgpQuery.full_text use
        "select distinct ?o1 as ?s ?p ?o where { ?v a <http://ex/T> . ?v ?p1 ?o1 . ?o1 ?p ?o . }",
        "select ?vi as ?s <http://ex/linked> as ?p ?vj as ?o "
        "where { ?vi <http://ex/linked> ?vj . }",
        # an alias naming a variable its own group binds
        "select distinct (?v as ?o) ?p ?s where { ?v a <http://ex/T> . ?v ?p ?o . }",
    ],
)
def test_select_recogniser_rejects_texts_outside_the_grammar(text):
    with pytest.raises(AssertionError):
        recognise_select(text)

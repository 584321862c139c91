from __future__ import annotations

import io
import sys
import threading
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgslice import endpoint, graph
from kgslice.endpoint import (
    EndpointConfig,
    HttpBackend,
    QueryBatchPlan,
    WireDictionary,
    _page_columns,
    drop_duplicates,
    execution_planner,
    execute_plan,
    get_graph_size,
    local_sparql_extract,
    sparql_extract,
)
from kgslice.errors import EndpointUnreachable, JobFailed, KgsliceError, QueryRejected
from kgslice.graph import ingest_ntriples
from kgslice.patterns import LocalBackend, PatternTask, get_bgp

from conftest import EX, make_kg, random_kg_lines
from oracles import reference_parse_rows, surface_triples, wire_ids, wire_rows
from sparql_double import SparqlDouble, StubSession, abbreviate


@pytest.fixture
def kg(rng):
    return make_kg(random_kg_lines(rng, n_vertices=50, n_triples=200, literal_fraction=0.1))


@pytest.fixture(autouse=True)
def sleeps(monkeypatch):
    """Retry pauses, recorded instead of slept."""
    pauses = []
    monkeypatch.setattr(endpoint, "sleep", pauses.append)
    return pauses


@pytest.fixture
def double(kg):
    server = SparqlDouble(kg)
    yield server
    server.close()


def nc_pattern(type_name="T0"):
    return PatternTask(kind="nc", target_type_iri=f"{EX}{type_name}")


def parse_page(body):
    """A TSV page's surface rows, through a wire dictionary of its own."""
    wire = WireDictionary()
    return wire_rows(wire, wire.encode(*_page_columns(body)))


def test_http_extraction_matches_local(kg, double):
    task = nc_pattern()
    bgp = get_bgp(task, 2, 1)
    double.register(bgp)
    backend = HttpBackend(EndpointConfig(url=double.url, retries=1))
    counts = get_graph_size(backend, bgp)
    assert counts == get_graph_size(LocalBackend(kg), bgp)
    plan = execution_planner(bgp, counts, bs=7)
    rows = execute_plan(backend, bgp, plan, workers=3)
    local = local_sparql_extract(kg, task, 2, 1, bs=7)
    assert set(wire_rows(backend.wire, rows)) == surface_triples(kg, local.triples)


def test_http_sparql_extract_builds_subgraph(kg, double):
    task = nc_pattern()
    double.register(get_bgp(task, 1, 1))
    backend = HttpBackend(EndpointConfig(url=double.url))
    # identical query text resolves against the registered bgp server-side
    sg = sparql_extract(backend, task, d=1, h=1, bs=10, workers=2)
    local = local_sparql_extract(kg, task, 1, 1)
    assert surface_triples(sg.kg, sg.triples) == surface_triples(kg, local.triples)


def test_empty_graph_counts_are_zero(double):
    empty_kg, _ = ingest_ntriples(b"")
    server = SparqlDouble(empty_kg)
    try:
        bgp = get_bgp(nc_pattern(), 2, 1)
        server.register(bgp)
        backend = HttpBackend(EndpointConfig(url=server.url))
        assert get_graph_size(backend, bgp) == [0, 0]
    finally:
        server.close()


def test_transient_500_retried(kg, double, sleeps):
    bgp = get_bgp(nc_pattern(), 1, 1)
    double.register(bgp)
    double.fail_budget = 1
    backend = HttpBackend(EndpointConfig(url=double.url, retries=2))
    counts = get_graph_size(backend, bgp)
    assert counts == [LocalBackend(kg).branch_count(bgp, 0)]
    assert sleeps == [0.5]


def test_client_error_rejected_immediately(kg, double, sleeps):
    bgp = get_bgp(nc_pattern(), 1, 1)
    # not registered: the double answers 400
    backend = HttpBackend(EndpointConfig(url=double.url, retries=3))
    with pytest.raises(QueryRejected) as exc:
        get_graph_size(backend, bgp)
    assert exc.value.status == 400
    assert sleeps == []


@pytest.mark.parametrize(
    "reply,count",
    [("7", 7), ("0", 0), ('"7"^^<http://www.w3.org/2001/XMLSchema#integer>', 7), ('"12"', 12)],
)
def test_count_reply_integer_forms(reply, count):
    session = StubSession(f"?c\n{reply}\n")
    backend = HttpBackend(EndpointConfig(url="http://127.0.0.1:9/sparql"), session=session)
    bgp = get_bgp(nc_pattern(), 1, 1)
    assert backend.branch_count(bgp, 0) == count
    assert session.queries == [bgp.branches[0].count_query()]


@pytest.mark.parametrize(
    "reply,reason",
    [
        ("abc", "'abc', not a non-negative integer"),
        ("3.0", "'3.0', not a non-negative integer"),
        ("-5", "'-5', not a non-negative integer"),
        ('"-5"^^<http://www.w3.org/2001/XMLSchema#integer>', "'-5', not a non-negative integer"),
        ("1e3", "'1e3', not a non-negative integer"),
        # a digit to int(), but not an xsd:integer
        ("\u0667", "'\u0667', not a non-negative integer"),
        ("5\n7", "2 rows, not one"),
        ("", "0 rows, not one"),
    ],
)
def test_count_reply_not_a_non_negative_integer_rejected(reply, reason, sleeps):
    """A bad count fails loudly: never a traceback, never a quietly empty branch."""
    session = StubSession(f"?c\n{reply}\n")
    backend = HttpBackend(EndpointConfig(url="http://127.0.0.1:9/sparql"), session=session)
    with pytest.raises(QueryRejected) as exc:
        backend.branch_count(get_bgp(nc_pattern(), 1, 1), 0)
    assert exc.value.status == 200
    assert f"count query returned {reason}" in str(exc.value)
    assert len(session.queries) == 1 and sleeps == []  # a bad reply is not retried


@pytest.mark.parametrize(
    "setting,message",
    [
        ({"retries": -1}, "retries must be >= 0"),
        ({"timeout": float("nan")}, "timeout must be finite and > 0"),
        ({"timeout": float("inf")}, "timeout must be finite and > 0"),
        ({"timeout": 0}, "timeout must be finite and > 0"),
    ],
)
def test_endpoint_config_rejects_bad_settings(setting, message):
    assert EndpointConfig(url="http://127.0.0.1:9/sparql", retries=0).retries == 0
    with pytest.raises(KgsliceError, match=message):
        EndpointConfig(url="http://127.0.0.1:9/sparql", **setting)


def test_unreachable_endpoint(kg):
    backend = HttpBackend(EndpointConfig(url="http://127.0.0.1:9/sparql", timeout=0.2, retries=0))
    with pytest.raises(EndpointUnreachable):
        get_graph_size(backend, get_bgp(nc_pattern(), 1, 1))


def test_job_failure_aborts_with_completed_manifest(kg, double):
    task = nc_pattern()
    bgp = get_bgp(task, 2, 1)
    double.register(bgp)
    backend = HttpBackend(EndpointConfig(url=double.url, retries=1))
    counts = get_graph_size(backend, bgp)
    plan = execution_planner(bgp, counts, bs=5)
    double.always_fail_pages = True
    with pytest.raises(JobFailed) as exc:
        execute_plan(backend, bgp, plan, workers=2)
    assert hasattr(exc.value, "completed_jobs")
    assert len(exc.value.completed_jobs) < len(plan.jobs)


def test_capped_page_fails_loudly(kg, double):
    task = nc_pattern()
    bgp = get_bgp(task, 2, 1)
    double.register(bgp)
    double.max_rows = 2
    backend = HttpBackend(EndpointConfig(url=double.url))
    counts = get_graph_size(backend, bgp)
    assert max(counts) > 2
    with pytest.raises(JobFailed, match="page returned 2 rows, expected 5"):
        execute_plan(backend, bgp, execution_planner(bgp, counts, bs=5))
    with pytest.raises(JobFailed):
        sparql_extract(backend, task, d=2, h=1, bs=5)


def test_rejected_page_sent_once(kg, double, sleeps):
    bgp = get_bgp(nc_pattern(), 1, 1)
    # counted locally, never registered: the double answers every page 400
    plan = execution_planner(bgp, get_graph_size(LocalBackend(kg), bgp), bs=5)
    backend = HttpBackend(EndpointConfig(url=double.url, retries=2))
    with pytest.raises(JobFailed) as exc:
        execute_plan(backend, bgp, plan)
    assert isinstance(exc.value.cause, QueryRejected) and exc.value.cause.status == 400
    assert len(double.seen_headers) == 1
    assert sleeps == []


def test_failing_page_sent_retries_plus_one_times(kg, double, sleeps):
    bgp = get_bgp(nc_pattern(), 1, 1)
    double.register(bgp)
    backend = HttpBackend(EndpointConfig(url=double.url, retries=2))
    plan = execution_planner(bgp, get_graph_size(backend, bgp), bs=5)
    double.seen_headers.clear()
    double.always_fail_pages = True
    with pytest.raises(JobFailed) as exc:
        execute_plan(backend, bgp, plan)
    assert isinstance(exc.value.cause, QueryRejected) and exc.value.cause.status == 500
    assert len(double.seen_headers) == 3
    assert sleeps == [0.5, 1.0]


def test_retry_backoff_doubles_up_to_cap(kg, double, sleeps):
    bgp = get_bgp(nc_pattern(), 1, 1)
    double.register(bgp)
    double.always_fail_pages = True
    plan = execution_planner(bgp, get_graph_size(LocalBackend(kg), bgp), bs=1000)
    backend = HttpBackend(EndpointConfig(url=double.url, retries=6))
    with pytest.raises(JobFailed):
        execute_plan(backend, bgp, plan)
    assert len(double.seen_headers) == 7
    assert sleeps == [0.5, 1.0, 2.0, 4.0, 8.0, 8.0]


def test_compression_and_bearer_token(kg, double):
    task = nc_pattern()
    bgp = get_bgp(task, 1, 1)
    double.register(bgp)
    cfg = EndpointConfig(url=double.url, bearer_token="sesame")
    backend = HttpBackend(cfg)
    sg = sparql_extract(backend, task, d=1, h=1, bs=1000)
    local = local_sparql_extract(kg, task, 1, 1)
    assert surface_triples(sg.kg, sg.triples) == surface_triples(kg, local.triples)
    assert any(
        h.get("Authorization") == "Bearer sesame"
        and "gzip" in h.get("Accept-Encoding", "")
        for h in double.seen_headers
    )


def test_post_method(kg, double):
    task = nc_pattern()
    bgp = get_bgp(task, 1, 1)
    double.register(bgp)
    backend = HttpBackend(EndpointConfig(url=double.url, use_post=True))
    sg = sparql_extract(backend, task, d=1, h=1, bs=50)
    local = local_sparql_extract(kg, task, 1, 1)
    assert surface_triples(sg.kg, sg.triples) == surface_triples(kg, local.triples)


def test_lp_over_http(kg, double):
    task = PatternTask(
        kind="lp",
        target_type_iri=f"{EX}T0",
        target_predicate_iri=f"{EX}p0",
        object_type_iri=f"{EX}T1",
    )
    bgp = get_bgp(task, 2, 1)
    double.register(bgp)
    backend = HttpBackend(EndpointConfig(url=double.url))
    sg = sparql_extract(backend, task, d=2, h=1, bs=9, workers=2)
    local = local_sparql_extract(kg, task, 2, 1)
    assert surface_triples(sg.kg, sg.triples) == surface_triples(kg, local.triples)


XSD = "http://www.w3.org/2001/XMLSchema#"
ABBREVIABLE = [
    f'"42"^^<{XSD}integer>',
    f'"-7"^^<{XSD}integer>',
    f'"+3"^^<{XSD}integer>',
    f'"1.5"^^<{XSD}decimal>',
    f'".5"^^<{XSD}decimal>',
    f'"1e3"^^<{XSD}double>',
    f'"-2.5E-3"^^<{XSD}double>',
    f'"true"^^<{XSD}boolean>',
    f'"false"^^<{XSD}boolean>',
]
NOT_ABBREVIABLE = [
    f'"1.5"^^<{XSD}double>',
    f'"NaN"^^<{XSD}double>',
    f'"1"^^<{XSD}boolean>',
    f'"42"^^<{XSD}string>',
    '"42"',
    '"true"@en',
]


def test_abbreviated_tsv_literals_expand():
    body = "?s\t?p\t?o\n" + "".join(
        f"<{EX}a>\t<{EX}p>\t{abbreviate(t)}\n" for t in ABBREVIABLE + NOT_ABBREVIABLE
    )
    assert [abbreviate(t) for t in ABBREVIABLE] == [
        "42", "-7", "+3", "1.5", ".5", "1e3", "-2.5E-3", "true", "false"
    ]
    assert [abbreviate(t) for t in NOT_ABBREVIABLE] == NOT_ABBREVIABLE
    rows = parse_page(body)
    assert [o for _, _, o in rows] == ABBREVIABLE + NOT_ABBREVIABLE


def test_abbreviating_endpoint_matches_local(rng):
    lines = random_kg_lines(rng, n_vertices=40, n_triples=120)
    objects = ABBREVIABLE + NOT_ABBREVIABLE
    lines += [f"<{EX}v{rng.randrange(40)}> <{EX}p9> {o} ." for o in objects for _ in range(2)]
    kg = make_kg(lines)
    server = SparqlDouble(kg)
    server.abbreviate_literals = True
    try:
        for d, h in ((1, 1), (2, 1), (2, 2)):
            task = nc_pattern()
            server.register(get_bgp(task, d, h))
            backend = HttpBackend(EndpointConfig(url=server.url))
            sg = sparql_extract(backend, task, d=d, h=h, bs=13, workers=2)
            local = local_sparql_extract(kg, task, d, h)
            assert surface_triples(sg.kg, sg.triples) == surface_triples(kg, local.triples)
        assert any(sg.kg.term(o) in ABBREVIABLE for _, _, o in sg.triples)
    finally:
        server.close()


def test_raw_line_separators_in_literals_over_http(rng):
    # N-Triples lets a literal hold U+0085 and U+2028 raw; only LF ends a TSV row
    lines = random_kg_lines(rng, n_vertices=30, n_triples=80)
    lines += [f'<{EX}v{i}> <{EX}p9> "a\x85b\u2028c{i}" .' for i in range(5)]
    kg = make_kg(lines)
    server = SparqlDouble(kg)
    try:
        task = nc_pattern()
        server.register(get_bgp(task, 1, 1))
        backend = HttpBackend(EndpointConfig(url=server.url))
        sg = sparql_extract(backend, task, d=1, h=1, bs=11, workers=2)
        local = local_sparql_extract(kg, task, 1, 1)
        assert surface_triples(sg.kg, sg.triples) == surface_triples(kg, local.triples)
        assert any("\u2028" in sg.kg.term(o) for _, _, o in sg.triples)
    finally:
        server.close()
    body = f'?s\t?p\t?o\r\n<{EX}a>\t<{EX}p>\t"x\x85y"\r\n'
    assert parse_page(body) == [(f"<{EX}a>", f"<{EX}p>", '"x\x85y"')]


def test_parse_rows_share_one_string_per_term():
    # bodies assembled at run time, so no two calls see the same literal objects
    def body(objects):
        return "?s\t?p\t?o\n" + "".join(f"<{EX}a>\t<{EX}p>\t{o}\n" for o in objects)

    wire = WireDictionary()
    ids_a = wire.encode(*_page_columns(body(["42", f"<{EX}b>"])))
    ids_b = wire.encode(*_page_columns(body([f"<{EX}b>", "42"])))
    rows_a, rows_b = ids_a.tolist(), ids_b.tolist()
    assert rows_a[0][1] == rows_b[0][1]
    assert rows_a[0][0] == rows_a[1][0] == rows_b[1][0]
    # an abbreviated literal is interned in its expanded form
    terms = wire.statements(ids_a).terms
    assert terms[rows_a[0][2]] == f'"42"^^<{XSD}integer>'
    assert rows_a[0][2] == rows_b[1][2]
    assert rows_a[1][2] == rows_b[0][2]
    # one id, so one string, per distinct term of all pages
    assert sorted(terms) == sorted({f"<{EX}a>", f"<{EX}b>", f'"42"^^<{XSD}integer>'})


def test_http_extract_bytes_independent_of_workers_and_page_size(kg, double):
    """Ids come from the sorted unique rows, never from the page schedule.

    Covers NC d2h1, NC d2h2 and LP d2h2; the double answers the
    ``select distinct`` branch texts, whose pages hold each branch row once.
    """
    lp = PatternTask(kind="lp", target_type_iri=f"{EX}T0", target_predicate_iri=f"{EX}p0",
                     object_type_iri=f"{EX}T1")
    for task, h in ((nc_pattern(), 1), (nc_pattern(), 2), (lp, 2)):
        bgp = get_bgp(task, 2, h)
        double.register(bgp)
        assert sum(get_graph_size(LocalBackend(kg), bgp)) > 7  # more than one page at bs 7
        outputs = set()
        for workers in (1, 2, 3):
            for bs in (7, 1000):
                backend = HttpBackend(EndpointConfig(url=double.url))
                sg = sparql_extract(backend, task, d=2, h=h, bs=bs, workers=workers)
                buf = io.StringIO()
                sg.write_ntriples(buf)
                outputs.add(buf.getvalue())
        assert len(outputs) == 1, f"{task.kind} d2h{h}"
        local = local_sparql_extract(kg, task, 2, h)
        assert sorted(outputs.pop().splitlines()) == sorted(
            f"{s} {p} {o} ." for s, p, o in surface_triples(kg, local.triples)
        ), f"{task.kind} d2h{h}"


def test_reused_backend_gives_a_fresh_backend_bytes(kg, double):
    """Terms an earlier extraction left in the wire dictionary take no id in the next result."""
    lp = PatternTask(kind="lp", target_type_iri=f"{EX}T0", target_predicate_iri=f"{EX}p0",
                     object_type_iri=f"{EX}T1")
    runs = ((nc_pattern(), 2, 2), (lp, 2, 2), (nc_pattern(), 1, 1))
    for task, d, h in runs:
        double.register(get_bgp(task, d, h))
    reused = HttpBackend(EndpointConfig(url=double.url))
    for task, d, h in runs:
        outputs = []
        for backend in (reused, HttpBackend(EndpointConfig(url=double.url))):
            buf = io.StringIO()
            sparql_extract(backend, task, d=d, h=h, bs=7, workers=2).write_ntriples(buf)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1], f"{task.kind} d{d}h{h}"


@pytest.mark.parametrize(
    "row",
    [
        ('"lit"', f"<{EX}p>", f"<{EX}o>"),  # a literal is never a subject
        (f"<{EX}a b>", f"<{EX}p>", f"<{EX}o>"),  # an IRI holds no space
        # a row is never split again: two terms in one field stay one bad term
        (f"<{EX}a>", f"<{EX}b> <{EX}c>", ""),
        (f" <{EX}a>", f"<{EX}p>", f"<{EX}o>"),  # a term is taken as returned, not trimmed
    ],
)
def test_drop_duplicates_without_kg_rejects_bad_terms(row):
    good = (f"<{EX}s>", f"<{EX}p>", f"<{EX}o>")
    wire = WireDictionary()
    assert len(drop_duplicates(wire_ids(wire, [good, good]), wire=wire).triples) == 1
    with pytest.raises(KgsliceError, match="endpoint returned unparsable terms") as exc:
        drop_duplicates(wire_ids(wire, [good, row]), wire=wire)
    assert any(repr(term) in str(exc.value) for term in row)
    assert "line" not in str(exc.value)


def test_drop_duplicates_ids_match_reading_the_sorted_rows_as_text(kg, rng):
    """Ids, and so the bytes of subgraph.nt, are those of the former text round trip."""
    rows = [
        (kg.term(s), kg.predicate_term(p), kg.term(o)) for s, p, o in kg.triples
    ] * 2
    rng.shuffle(rows)
    text = "".join(f"{s} {p} {o} .\n" for s, p, o in sorted(set(rows)))
    reread, errors = ingest_ntriples(text.encode("utf-8"))
    assert not errors
    wire = WireDictionary()
    sg = drop_duplicates(wire_ids(wire, rows), wire=wire)
    fresh = sg.kg
    assert [fresh.term(v) for v in range(fresh.vertex_count())] == [
        reread.term(v) for v in range(reread.vertex_count())
    ]
    assert [fresh.predicate_term(p) for p in range(fresh.predicate_count())] == [
        reread.predicate_term(p) for p in range(reread.predicate_count())
    ]
    assert list(sg.triples) == reread.triples


@pytest.mark.skipif(
    sys.version_info < (3, 11), reason="before 3.11 the caller's stack holds call arguments"
)
def test_drop_duplicates_frees_the_wire_rows_before_the_build(monkeypatch):
    good = (f"<{EX}s>", f"<{EX}p>", f"<{EX}o>")
    wire = WireDictionary()
    refs, freed = [], []

    def wire_rows():
        rows = wire_ids(wire, [good, good])
        refs.append(weakref.ref(rows))
        return rows

    class Spy(graph.KnowledgeGraph):
        def __init__(self, *args, **kwargs):
            freed.append(refs[0]() is None)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(graph, "KnowledgeGraph", Spy)
    # not inside an assert: the rewritten assert would keep the rows for its message
    sg = drop_duplicates(wire_rows(), wire=wire)
    assert len(sg.triples) == 1
    assert freed == [True]


# a raw CR would end the N-Triples statement early and smuggle in a second one
CR_BODY = f"?s\t?p\t?o\n<{EX}a>\t<{EX}p>\t<{EX}o> .\r<{EX}evil> <{EX}q> <{EX}z>\n"


def test_raw_cr_in_a_wire_term_rejected():
    with pytest.raises(QueryRejected) as exc:
        _page_columns(CR_BODY)
    assert exc.value.status == 200
    assert exc.value.body.startswith("raw CR in TSV row")
    # the one CR of a CRLF row end is not part of the row
    assert parse_page(f"?s\t?p\t?o\r\n<{EX}a>\t<{EX}p>\t<{EX}o>\r\n") == [
        (f"<{EX}a>", f"<{EX}p>", f"<{EX}o>")
    ]


def test_raw_cr_in_a_wire_term_fails_the_job(monkeypatch):
    bgp = get_bgp(nc_pattern(), 1, 1)
    backend = HttpBackend(EndpointConfig(url="http://127.0.0.1:9/sparql"))
    monkeypatch.setattr(backend, "_request", lambda query: CR_BODY)
    plan = QueryBatchPlan(jobs=[(0, 1, 0)], counts=[1])
    with pytest.raises(JobFailed) as exc:
        execute_plan(backend, bgp, plan)
    assert isinstance(exc.value.cause, QueryRejected)
    assert exc.value.completed_jobs == []


# fields of TSV rows: full-form terms, abbreviated literals, literals holding raw
# line separators (only LF ends a row), an empty field and fields with a raw CR
_CLEAN_FIELD = st.sampled_from([
    f"<{EX}a>", f"<{EX}b>", f"<{EX}p>", "_:b1", '"x"', '"x\x85y"', '"a b"', '"1"@en',
    f'"42"^^<{XSD}integer>', "42", "-7", "true", "1.5", "-2.5E-3", "",
])
_FIELD = _CLEAN_FIELD | st.sampled_from(["a\rb", f"<{EX}a>\r"])
_CLEAN_ROW = st.lists(_CLEAN_FIELD, min_size=3, max_size=3).map("\t".join)
_ROW = _CLEAN_ROW | st.lists(_FIELD, min_size=2, max_size=4).map("\t".join) | st.just("")


@st.composite
def _pages(draw):
    """A TSV page: a header, rows with LF or CRLF ends, and maybe no final newline."""
    rows = draw(st.lists(_CLEAN_ROW, max_size=6) | st.lists(_ROW, max_size=6))
    ends = st.sampled_from(["\n", "\n", "\r\n"]) if draw(st.booleans()) else st.just("\n")
    text = "?s\t?p\t?o" + draw(ends) + "".join(row + draw(ends) for row in rows)
    return text[:-1] if rows and draw(st.booleans()) and text.endswith("\n") else text


@given(st.lists(_pages(), min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_page_columns_match_the_row_by_row_parser(pages):
    """Pages through one wire dictionary give the reference parser's rows, or its rejection."""
    wire = WireDictionary()
    for page in pages:
        try:
            expected = reference_parse_rows(page)
        except QueryRejected as exc:
            with pytest.raises(QueryRejected) as got:
                wire.encode(*_page_columns(page))
            assert (got.value.status, got.value.body) == (exc.status, exc.body)
            continue
        assert wire_rows(wire, wire.encode(*_page_columns(page))) == expected


def test_clean_page_is_split_whole(monkeypatch):
    """A page with no CR, no blank row and three fields a row takes no row-by-row step."""
    page = "?s\t?p\t?o\n" + "".join(
        f"<{EX}a>\t<{EX}p>\t{abbreviate(t)}\n" for t in ABBREVIABLE + NOT_ABBREVIABLE
    )

    def row_by_row(lines):
        raise AssertionError("a clean page went row by row")

    monkeypatch.setattr(endpoint, "_checked_columns", row_by_row)
    assert parse_page(page) == reference_parse_rows(page)
    with pytest.raises(AssertionError):  # a two-field row and a four-field row do not cancel out
        _page_columns(f"?s\t?p\t?o\n<{EX}a>\t<{EX}p>\n<{EX}a>\t<{EX}p>\t<{EX}o>\t<{EX}o>\n")


def test_wire_dictionary_keeps_one_id_per_term_across_threads():
    """Pages encoded by more threads than cores, switching often, map back to their own rows."""
    pages = [
        [(f"<{EX}v{(7 * i + k) % 50}>", f"<{EX}p{k % 3}>", str((i * k) % 60)) for i in range(300)]
        for k in range(16)
    ]
    wire = WireDictionary()
    encoded = [None] * len(pages)

    def encode(k):
        encoded[k] = wire_ids(wire, pages[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=encode, args=(k,)) for k in range(len(pages))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for page, ids in zip(pages, encoded):
        expected = [(s, p, f'"{o}"^^<{XSD}integer>') for s, p, o in page]
        assert wire_rows(wire, ids) == expected
    terms = wire.statements(encoded[0]).terms
    assert len(set(terms)) == len(terms) == 50 + 60


def test_execute_plan_holds_a_few_bytes_per_wire_row(monkeypatch):
    """Wire rows are int32 ids, 12 bytes a row, with each distinct term held once."""
    n_terms, page_rows, pages = 40, 1000, 20

    def page(query):
        # built per request, as a page read off the wire is
        return "?s\t?p\t?o\n" + "".join(
            f"<{EX}v{i % n_terms}>\t<{EX}p{i % 3}>\t<{EX}v{(7 * i + 1) % n_terms}>\n"
            for i in range(page_rows)
        )

    backend = HttpBackend(EndpointConfig(url="http://127.0.0.1:9/sparql"))
    monkeypatch.setattr(backend, "_request", page)
    plan = QueryBatchPlan(
        jobs=[(0, page_rows, k * page_rows) for k in range(pages)], counts=[pages * page_rows]
    )
    bgp = get_bgp(nc_pattern(), 1, 1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows = execute_plan(backend, bgp, plan)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(rows) == pages * page_rows
    # a tuple per row, as pages were once returned, holds more than 64 bytes a row
    assert held <= 12 * len(rows) + 512 * (n_terms + 3) + 16384, held

from __future__ import annotations

import io

import pytest

from kgslice import endpoint
from kgslice.endpoint import (
    EndpointConfig,
    HttpBackend,
    QueryBatchPlan,
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
from oracles import surface_triples
from sparql_double import SparqlDouble, abbreviate


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
    assert set(rows) == surface_triples(kg, local.triples)


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
    rows = HttpBackend._parse_rows(body)
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
    assert HttpBackend._parse_rows(body) == [(f"<{EX}a>", f"<{EX}p>", '"x\x85y"')]


def test_parse_rows_share_one_string_per_term():
    # bodies assembled at run time, so no two calls see the same literal objects
    def body(objects):
        return "?s\t?p\t?o\n" + "".join(f"<{EX}a>\t<{EX}p>\t{o}\n" for o in objects)

    rows_a = HttpBackend._parse_rows(body(["42", f"<{EX}b>"]))
    rows_b = HttpBackend._parse_rows(body([f"<{EX}b>", "42"]))
    assert rows_a[0][1] is rows_b[0][1]
    assert rows_a[0][0] is rows_a[1][0] is rows_b[1][0]
    # an abbreviated literal is interned in its expanded form
    assert rows_a[0][2] == f'"42"^^<{XSD}integer>'
    assert rows_a[0][2] is rows_b[1][2]
    assert rows_a[1][2] is rows_b[0][2]


def test_http_extract_bytes_independent_of_workers_and_page_size(kg, double):
    """Ids come from the sorted unique rows, never from the page schedule."""
    task = nc_pattern()
    double.register(get_bgp(task, 2, 1))
    outputs = set()
    for workers in (1, 2, 3):
        for bs in (7, 1000):
            backend = HttpBackend(EndpointConfig(url=double.url))
            sg = sparql_extract(backend, task, d=2, h=1, bs=bs, workers=workers)
            buf = io.StringIO()
            sg.write_ntriples(buf)
            outputs.add(buf.getvalue())
    assert len(outputs) == 1
    local = local_sparql_extract(kg, task, 2, 1)
    assert sorted(outputs.pop().splitlines()) == sorted(
        f"{s} {p} {o} ." for s, p, o in surface_triples(kg, local.triples)
    )


@pytest.mark.parametrize(
    "row",
    [
        ('"lit"', f"<{EX}p>", f"<{EX}o>"),  # a literal is never a subject
        (f"<{EX}a b>", f"<{EX}p>", f"<{EX}o>"),  # an IRI holds no space
    ],
)
def test_drop_duplicates_without_kg_rejects_bad_terms(row):
    good = (f"<{EX}s>", f"<{EX}p>", f"<{EX}o>")
    assert len(drop_duplicates([good, good]).triples) == 1
    with pytest.raises(KgsliceError, match="endpoint returned unparsable terms"):
        drop_duplicates([good, row])


# a raw CR would end the N-Triples statement early and smuggle in a second one
CR_BODY = f"?s\t?p\t?o\n<{EX}a>\t<{EX}p>\t<{EX}o> .\r<{EX}evil> <{EX}q> <{EX}z>\n"


def test_raw_cr_in_a_wire_term_rejected():
    with pytest.raises(QueryRejected) as exc:
        HttpBackend._parse_rows(CR_BODY)
    assert exc.value.status == 200
    assert exc.value.body.startswith("raw CR in TSV row")
    # the one CR of a CRLF row end is not part of the row
    assert HttpBackend._parse_rows(f"?s\t?p\t?o\r\n<{EX}a>\t<{EX}p>\t<{EX}o>\r\n") == [
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

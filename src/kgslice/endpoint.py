"""Paginated, parallel execution of pattern queries.

The planner turns per-branch row counts into LIMIT/OFFSET jobs; a pool of
workers drains a shared job index and accumulates raw rows; duplicates
are dropped at the end. Jobs run against either the in-process
LocalBackend or a SPARQL HTTP endpoint. An endpoint's rows are parsed
from TSV once, term by term, and the result graph is built from the
unique rows directly, each distinct term checked once against the
N-Triples term grammar. The deduplicated result is independent of both
the page size and the worker count.
"""

from __future__ import annotations

import logging
import math
import re
import threading
from dataclasses import dataclass
from sys import intern
from time import sleep

import numpy as np

from .errors import (
    EndpointUnreachable,
    JobFailed,
    KgsliceError,
    MalformedTerm,
    QueryRejected,
    check_at_least_one,
)
from .graph import RDF_TYPE, KnowledgeGraph, Subgraph, ingest_ntriples, subgraph_from_triples
from .patterns import BgpQuery, LocalBackend, PatternTask, get_bgp

log = logging.getLogger(__name__)

RETRY_BACKOFF_S = 0.5  # pause before the first retry; doubles per retry
RETRY_BACKOFF_CAP_S = 8.0


_XSD = "http://www.w3.org/2001/XMLSchema#"

# SPARQL 1.1 TSV may write numeric and boolean literals in their abbreviated
# SPARQL/Turtle form; patterns follow the SPARQL 1.1 grammar's INTEGER,
# DECIMAL, DOUBLE and BooleanLiteral productions (signed variants included)
_ABBREVIATED = (
    (re.compile(r"[+-]?[0-9]+"), "integer"),
    (re.compile(r"[+-]?[0-9]*\.[0-9]+"), "decimal"),
    (re.compile(r"[+-]?(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)[eE][+-]?[0-9]+"), "double"),
    (re.compile(r"true|false"), "boolean"),
)


# the lexical form of a non-negative xsd:integer
_COUNT_RE = re.compile(r"\+?[0-9]+")


def _expand_abbreviated(term: str) -> str:
    """The N-Triples form of an abbreviated numeric or boolean literal.

    ``42`` becomes ``"42"^^<http://www.w3.org/2001/XMLSchema#integer>``;
    any other term is returned unchanged.
    """
    for pattern, datatype in _ABBREVIATED:
        if pattern.fullmatch(term):
            return f'"{term}"^^<{_XSD}{datatype}>'
    return term


@dataclass
class EndpointConfig:
    url: str
    graph_iri: str | None = None
    timeout: float = 60.0
    retries: int = 2
    workers: int = 1
    bearer_token: str | None = None
    use_post: bool = False

    def __post_init__(self):
        check_at_least_one(self.workers, "workers")
        check_request_policy(self.timeout, self.retries)


def check_request_policy(timeout: float, retries: int) -> None:
    """Raise KgsliceError unless ``timeout`` is finite and > 0 and ``retries`` >= 0."""
    if not (math.isfinite(timeout) and timeout > 0):
        raise KgsliceError("timeout must be finite and > 0")
    if retries < 0:
        raise KgsliceError("retries must be >= 0")


@dataclass
class QueryBatchPlan:
    jobs: list[tuple[int, int, int]]  # (branch index, limit, offset)
    counts: list[int]  # rows per branch, as the count queries reported them


class HttpBackend:
    """SPARQL-protocol client returning tab-separated (s, p, o) rows."""

    def __init__(self, config: EndpointConfig, session=None):
        # imported here, not with the module: it is most of the package's
        # import time, and only an endpoint command needs it
        import requests

        self.config = config
        self.session = session or requests.Session()
        self._transport_error = requests.RequestException

    def describe(self) -> str:
        return self.config.url

    def _headers(self) -> dict[str, str]:
        # requests already offers gzip and deflate in Accept-Encoding
        headers = {"Accept": "text/tab-separated-values"}
        if self.config.bearer_token:
            headers["Authorization"] = f"Bearer {self.config.bearer_token}"
        return headers

    def _request(self, query: str) -> str:
        cfg = self.config
        last_exc: Exception | None = None
        for attempt in range(cfg.retries + 1):
            if attempt:
                # let an overloaded endpoint recover instead of hammering it
                sleep(min(RETRY_BACKOFF_S * 2 ** (attempt - 1), RETRY_BACKOFF_CAP_S))
            try:
                resp = self.session.request(
                    "POST" if cfg.use_post else "GET",
                    cfg.url,
                    params=None if cfg.use_post else {"query": query},
                    data={"query": query} if cfg.use_post else None,
                    headers=self._headers(),
                    timeout=cfg.timeout,
                )
            except self._transport_error as exc:
                last_exc = exc
                log.warning("request failed (attempt %d): %s", attempt + 1, exc)
                continue
            if resp.status_code == 200:
                # SPARQL TSV results are UTF-8; resp.text would fall back to
                # ISO-8859-1 for a text/* type that names no charset
                try:
                    return resp.content.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise QueryRejected(200, f"response is not valid UTF-8: {exc}") from exc
            if 400 <= resp.status_code < 500:
                raise QueryRejected(resp.status_code, resp.text)
            last_exc = QueryRejected(resp.status_code, resp.text)
            log.warning("HTTP %d (attempt %d)", resp.status_code, attempt + 1)
        if isinstance(last_exc, QueryRejected):
            raise last_exc
        raise EndpointUnreachable(str(last_exc))

    @staticmethod
    def _parse_rows(text: str) -> list[tuple[str, str, str]]:
        """The (s, p, o) surface rows of a TSV page, abbreviated literals expanded.

        Every term is interned, so all rows of all pages share one string
        object per distinct term: an extraction returns several rows per
        distinct term (186,292 rows for 35,937 terms on the benchmark's
        sparql-http task), and ``drop_duplicates`` then compares shared
        strings by identity and builds the graph from the rows as they are,
        never splitting one again. A raw CR inside a row is rejected here:
        nothing reads the rows back as text, but N-Triples forbids a raw CR
        in any term (the term check lets one through inside a literal), and
        the written ``subgraph.nt`` would break the statement there.
        """
        rows = []
        # only LF ends a row: str.splitlines would also split at characters
        # an N-Triples literal may hold raw (\x85, \u2028, ...)
        for line in text.split("\n")[1:]:  # first line is the header
            if line.endswith("\r"):
                line = line[:-1]
            if not line:
                continue
            if "\r" in line:
                raise QueryRejected(200, f"raw CR in TSV row: {line!r}")
            parts = line.split("\t")
            if len(parts) != 3:
                raise QueryRejected(200, f"malformed TSV row: {line!r}")
            s, p, o = parts
            if o[:1] not in ("<", '"', "_"):
                o = _expand_abbreviated(o)
            rows.append((intern(s), intern(p), intern(o)))
        return rows

    def branch_count(self, bgp: BgpQuery, index: int) -> int:
        query = bgp.branches[index].count_query(self.config.graph_iri)
        body = self._request(query)
        lines = [l for l in body.splitlines() if l.strip()]
        if len(lines) != 2:
            raise QueryRejected(200, f"count query returned {len(lines) - 1} rows, not one: {body!r}")
        value = lines[1].strip().strip('"')
        # engines may type the count literal
        if "^^" in value:
            value = value.split("^^", 1)[0].strip('"')
        # a negative count would plan no jobs and quietly empty the branch
        if not _COUNT_RE.fullmatch(value):
            raise QueryRejected(200, f"count query returned {value!r}, not a non-negative integer")
        return int(value)

    def fetch(self, bgp: BgpQuery, index: int, limit: int, offset: int):
        query = bgp.branches[index].page_query(limit, offset, self.config.graph_iri)
        return self._parse_rows(self._request(query))


def get_graph_size(backend, bgp: BgpQuery) -> list[int]:
    """Row count of every branch, in branch order."""
    return [backend.branch_count(bgp, i) for i in range(len(bgp.branches))]


def execution_planner(bgp: BgpQuery, counts, bs: int) -> QueryBatchPlan:
    """ceil(count/bs) jobs per branch; offsets tile each branch exactly."""
    check_at_least_one(bs, "batch size")
    jobs = []
    for index, count in enumerate(counts):
        for offset in range(0, count, bs):
            jobs.append((index, bs, offset))
    return QueryBatchPlan(jobs=jobs, counts=list(counts))


def execute_plan(backend, bgp: BgpQuery, plan: QueryBatchPlan, workers: int = 1):
    """Run every job once; returns the row multiset.

    Rows are an (n, 3) id array from a LocalBackend, whose pages are
    array slices joined with one concatenate, and a list of surface-string
    triples from an HttpBackend (whose requests do their own retrying).
    Workers pull from a shared index; rows are concatenated in job order
    so even the multiset is schedule-independent. A job that fails, or
    whose page holds other than ``min(limit, count - offset)`` rows,
    aborts the extraction with the completed jobs attached.
    """
    check_at_least_one(workers, "workers")
    n_jobs = len(plan.jobs)
    results: list[list | None] = [None] * n_jobs
    next_job = [0]
    lock = threading.Lock()
    failure: list[JobFailed] = []

    def run_job(job_idx: int) -> None:
        job = plan.jobs[job_idx]
        index, limit, offset = job
        try:
            rows = backend.fetch(bgp, index, limit, offset)
        except Exception as exc:  # noqa: BLE001 - every failure counts
            raise JobFailed(job, exc) from exc
        expected = min(limit, plan.counts[index] - offset)
        if len(rows) != expected:
            raise JobFailed(job, f"page returned {len(rows)} rows, expected {expected}")
        results[job_idx] = rows

    def worker() -> None:
        while True:
            with lock:
                if failure or next_job[0] >= n_jobs:
                    return
                job_idx = next_job[0]
                next_job[0] += 1
            try:
                run_job(job_idx)
            except JobFailed as exc:
                with lock:
                    failure.append(exc)
                return

    if workers == 1:
        worker()
    else:
        threads = [threading.Thread(target=worker) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    if failure:
        exc = failure[0]
        exc.completed_jobs = [i for i, r in enumerate(results) if r is not None]
        raise exc

    if results and isinstance(results[0], np.ndarray):
        return np.concatenate(results)
    rows: list = []
    for page in results:
        rows.extend(page)
    return rows


def drop_duplicates(
    rows, kg: KnowledgeGraph | None = None, type_predicate_iri: str = RDF_TYPE
) -> Subgraph:
    """Deduplicate raw (s, p, o) rows into a Subgraph.

    With a local graph the rows are id triples in its id space, an (n, 3)
    array from ``execute_plan``, and go straight to
    ``subgraph_from_triples``, which sorts and dedups them as an array.
    Without one they are surface-string rows from an endpoint,
    with interned terms (see ``HttpBackend._parse_rows``), so the dedup and
    the sort find equal terms by identity. The dedup is ``dict.fromkeys``,
    which keeps first-seen order, so the sort merges the ordered runs of
    each page instead of sorting hash order. A fresh KnowledgeGraph, typed
    by ``type_predicate_iri``, is built from the sorted unique rows as
    statements, with ids in first-encounter order, and the Subgraph spans
    it. No row is rendered as text or split again: each distinct term is
    checked once, where it occurs, and a term N-Triples forbids raises
    KgsliceError naming it.
    """
    if kg is not None:
        return subgraph_from_triples(kg, rows)
    # each stage frees the one before: the wire rows once deduplicated
    # (when the caller passed its only reference), the dict once sorted, and
    # the sorted rows once the build has read them, since an exhausted list
    # iterator lets go of its list
    unique = dict.fromkeys(rows)
    del rows
    statements = iter(sorted(unique))
    del unique
    try:
        fresh, _ = ingest_ntriples(statements, type_predicate_iri=type_predicate_iri)
    except MalformedTerm as exc:
        raise KgsliceError(f"endpoint returned unparsable terms: {exc}") from exc
    return subgraph_from_triples(fresh, fresh.spo)


def sparql_extract(
    backend,
    task: PatternTask,
    d: int,
    h: int,
    bs: int,
    workers: int = 1,
) -> Subgraph:
    """Full pattern extraction pipeline against either backend."""
    bgp = get_bgp(task, d, h)
    counts = get_graph_size(backend, bgp)
    plan = execution_planner(bgp, counts, bs)
    local_kg = backend.kg if isinstance(backend, LocalBackend) else None
    # no name here holds the rows, so drop_duplicates can free them as it goes
    sg = drop_duplicates(
        execute_plan(backend, bgp, plan, workers=workers),
        kg=local_kg,
        type_predicate_iri=task.type_predicate_iri,
    )
    sg.provenance = {
        "engine": "sparql",
        "d": d,
        "h": h,
        "batch_size": bs,
        "workers": workers,
        "backend": backend.describe(),
        "branch_counts": counts,
    }
    if not len(sg.spo):
        log.warning("extraction produced an empty subgraph")
    return sg


def local_sparql_extract(
    kg: KnowledgeGraph, task: PatternTask, d: int, h: int, bs: int = 100000, workers: int = 1
) -> Subgraph:
    return sparql_extract(LocalBackend(kg), task, d, h, bs, workers=workers)

"""Paginated, parallel execution of pattern queries.

The planner turns per-branch row counts into LIMIT/OFFSET jobs; a pool of
workers drains a shared job index and accumulates raw rows; duplicates
are dropped at the end. Jobs run against either the in-process
LocalBackend or a SPARQL HTTP endpoint, and either way a page is a (k, 3)
int32 id array. A LocalBackend's ids are its graph's. An endpoint's TSV
page is split a column at a time and its columns interned whole into the
extraction's :class:`WireDictionary`, so no row becomes a tuple of
strings; the result graph is built from the id rows in numpy, with ids
from the sorted unique surface rows, and each distinct term is checked
once against the N-Triples term grammar. The deduplicated result is
independent of both the page size and the worker count.
"""

from __future__ import annotations

import logging
import math
import re
import threading
from dataclasses import dataclass
from itertools import repeat
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
from .graph import (
    RDF_TYPE,
    EncodedStatements,
    KnowledgeGraph,
    Subgraph,
    check_id_space,
    id_table,
    ingest_ntriples,
    subgraph_from_triples,
)
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


# the first characters of a term in full N-Triples form: IRI, literal, blank node
_FULL_FORM = ("<", '"', "_")

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


class _ObjectIds(dict):
    """Term ids by object field as the wire writes it; a field missing here is expanded once."""

    def __init__(self, terms: dict[str, int]):
        super().__init__()
        self.terms = terms

    def __missing__(self, field: str) -> int:
        term = field if field.startswith(_FULL_FORM) else _expand_abbreviated(field)
        self[field] = tid = self.terms[term]
        return tid


class WireDictionary:
    """The ids of one extraction's endpoint pages: a terms table and a predicates table.

    Each table is a :func:`kgslice.graph.id_table`, in which a missing
    key takes the dict's length as its id, so a surface has one id, and
    one string, whichever page it came on; subjects and objects share the
    terms table. :meth:`encode` interns a page's columns whole, in C,
    under a lock held only for that step, so worker threads encode their
    pages as they arrive. Ids then follow the order in which pages were
    encoded, which the schedule decides; the graph built from
    :meth:`statements` numbers its terms afresh.
    """

    def __init__(self):
        self._terms = id_table()
        self._predicates = id_table()
        self._objects = _ObjectIds(self._terms)
        self._lock = threading.Lock()

    def encode(self, subjects: list[str], predicates: list[str], objects: list[str]) -> np.ndarray:
        """A page's fields, one list per column, as its (k, 3) int32 id rows.

        An object in the abbreviated SPARQL form (``42``, ``true``) stands
        for its N-Triples literal. A page that holds one has its objects
        looked up by field, each distinct field expanded once per
        dictionary; subjects and predicates are taken as they are.
        """
        k = len(predicates)
        full_form = all(map(str.startswith, objects, repeat(_FULL_FORM)))
        ids = np.empty((k, 3), dtype=np.int32)
        with self._lock:
            terms, preds = self._terms, self._predicates
            ids[:, 0] = np.fromiter(map(terms.__getitem__, subjects), np.int32, k)
            ids[:, 1] = np.fromiter(map(preds.__getitem__, predicates), np.int32, k)
            object_ids = terms if full_form else self._objects
            ids[:, 2] = np.fromiter(map(object_ids.__getitem__, objects), np.int32, k)
            check_id_space(len(terms), len(preds))
        return ids

    def statements(self, rows: np.ndarray) -> EncodedStatements:
        """``rows`` of this dictionary's ids as statements to build a graph from."""
        return EncodedStatements(list(self._terms), list(self._predicates), rows)


def _page_columns(text: str) -> tuple[list[str], list[str], list[str]]:
    """The subject, predicate and object fields of a TSV page's rows, a list each.

    A clean page, with no CR and exactly two tabs in every row (so no
    blank row before the last newline), is split as a whole, with no
    Python step per row; the tabs are counted row by row, as a count over
    the page would let a two-field row and a four-field one cancel out.
    Any other page goes through :func:`_checked_columns`.
    """
    # only LF ends a row: str.splitlines would also split at characters
    # an N-Triples literal may hold raw (\x85, \u2028, ...)
    lines = text.split("\n")
    del lines[0]  # the header
    if lines and not lines[-1]:
        del lines[-1]  # the newline after the last row
    if not lines:
        return [], [], []
    if "\r" in text or set(map(str.count, lines, repeat("\t"))) != {2}:
        return _checked_columns(lines)
    fields = "\t".join(lines).split("\t")
    return fields[::3], fields[1::3], fields[2::3]


def _checked_columns(lines: list[str]) -> tuple[list[str], list[str], list[str]]:
    """:func:`_page_columns` of a page's rows, one at a time, rejecting what N-Triples cannot hold.

    A row's final CR ends it, as in a CRLF page, and a blank row is
    skipped. A raw CR inside a row raises QueryRejected naming the row:
    N-Triples forbids a raw CR in any term (the term check lets one
    through inside a literal), and the written ``subgraph.nt`` would break
    the statement there. So does a row of other than three fields.
    """
    columns: tuple[list[str], list[str], list[str]] = ([], [], [])
    for line in lines:
        if line.endswith("\r"):
            line = line[:-1]
        if not line:
            continue
        if "\r" in line:
            raise QueryRejected(200, f"raw CR in TSV row: {line!r}")
        parts = line.split("\t")
        if len(parts) != 3:
            raise QueryRejected(200, f"malformed TSV row: {line!r}")
        for column, part in zip(columns, parts):
            column.append(part)
    return columns


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
    """SPARQL-protocol client returning each TSV page as (k, 3) int32 id rows.

    The ids index ``wire``, the backend's :class:`WireDictionary`, into
    which :meth:`fetch` interns every page as it arrives: one dictionary
    per backend, so per extraction for a backend made for one, as the
    CLI makes it.
    """

    def __init__(self, config: EndpointConfig, session=None):
        # imported here, not with the module: it is most of the package's
        # import time, and only an endpoint command needs it
        import requests

        self.config = config
        self.session = session or requests.Session()
        self._transport_error = requests.RequestException
        self.wire = WireDictionary()

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

    def fetch(self, bgp: BgpQuery, index: int, limit: int, offset: int) -> np.ndarray:
        query = bgp.branches[index].page_query(limit, offset, self.config.graph_iri)
        return self.wire.encode(*_page_columns(self._request(query)))


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


def execute_plan(backend, bgp: BgpQuery, plan: QueryBatchPlan, workers: int = 1) -> np.ndarray:
    """Run every job once; returns the row multiset as one (n, 3) int32 id array.

    Every page is an id array from either backend: ids into a
    LocalBackend's graph, or into an HttpBackend's wire dictionary, which
    each page enters as it arrives. Workers pull from a shared index
    (an HttpBackend's requests do their own retrying); the pages are
    concatenated in job order, so even the multiset is
    schedule-independent, though wire ids are not. A job that fails, or
    whose page holds other than ``min(limit, count - offset)`` rows,
    aborts the extraction with the completed jobs attached.
    """
    check_at_least_one(workers, "workers")
    n_jobs = len(plan.jobs)
    results: list[np.ndarray | None] = [None] * n_jobs
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

    return np.concatenate(results) if results else np.empty((0, 3), dtype=np.int32)


def drop_duplicates(
    rows,
    kg: KnowledgeGraph | None = None,
    type_predicate_iri: str = RDF_TYPE,
    wire: WireDictionary | None = None,
) -> Subgraph:
    """Deduplicate raw (s, p, o) id rows into a Subgraph.

    With a local graph the rows are id triples in its id space, an (n, 3)
    array from ``execute_plan``, and go straight to
    ``subgraph_from_triples``, which sorts and dedups them as an array.
    Without one they are an endpoint's rows, an (n, 3) array of ids into
    ``wire``, handed to ``ingest_ntriples`` as dictionary-encoded
    statements. There every distinct term and predicate is ranked in
    string order, so the dedup and sort of the ranked rows give the
    sorted unique surface rows, and a fresh KnowledgeGraph, typed by
    ``type_predicate_iri``, numbers its terms in first-encounter order
    over those rows; the Subgraph spans it. No row becomes a tuple or
    text: each distinct term is checked once, where it occurs, and a term
    N-Triples forbids raises KgsliceError naming it. The wire rows are
    freed before the graph allocates its orders, when the caller passed
    its only reference to them.
    """
    if kg is not None:
        return subgraph_from_triples(kg, rows)
    if wire is None:
        raise TypeError("drop_duplicates needs the rows' id space: a kg or a wire dictionary")
    statements = wire.statements(rows)
    del rows
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
    local = isinstance(backend, LocalBackend)
    # no name here holds the rows, so drop_duplicates can free them as it goes
    sg = drop_duplicates(
        execute_plan(backend, bgp, plan, workers=workers),
        kg=backend.kg if local else None,
        type_predicate_iri=task.type_predicate_iri,
        wire=None if local else backend.wire,
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

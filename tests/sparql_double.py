"""In-process SPARQL-protocol stand-in backed by the local matcher.

Speaks just enough of the protocol for the client under test: GET/POST
with a ``query`` parameter, TSV responses, optional gzip bodies,
scripted failures, row caps and, on request, numeric and boolean
literals in their abbreviated TSV form. Incoming query text is matched
against the branch queries of registered BgpQuery objects and answered
from a LocalBackend, whose id rows are written out as surface terms, so
the wire path (pagination, retries, headers) is exercised for real.
"""

from __future__ import annotations

import gzip
import re
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

from kgslice.patterns import LocalBackend

_PAGE_RE = re.compile(r"^(?P<body>.*) order by \?s \?p \?o limit (?P<limit>\d+) offset (?P<offset>\d+)$")

_XSD = "http://www.w3.org/2001/XMLSchema#"
# lexical forms SPARQL 1.1 TSV may write bare, by datatype
_ABBREVIABLE = {
    f"{_XSD}integer": re.compile(r"[+-]?\d+"),
    f"{_XSD}decimal": re.compile(r"[+-]?\d*\.\d+"),
    f"{_XSD}double": re.compile(r"[+-]?(\d+\.\d*|\.\d+|\d+)[eE][+-]?\d+"),
    f"{_XSD}boolean": re.compile(r"true|false"),
}
_TYPED_RE = re.compile(r'^"([^"\\]*)"\^\^<([^>]*)>$')


def abbreviate(term: str) -> str:
    """``"42"^^<xsd:integer>`` as ``42``, and so on; other terms unchanged."""
    m = _TYPED_RE.match(term)
    if m:
        pattern = _ABBREVIABLE.get(m.group(2))
        if pattern is not None and pattern.fullmatch(m.group(1)):
            return m.group(1)
    return term


class StubSession:
    """A ``requests.Session`` stand-in that answers every request 200 with one body."""

    def __init__(self, body: str):
        self.body = body
        self.queries = []

    def request(self, method, url, params=None, data=None, headers=None, timeout=None):
        self.queries.append((params or data)["query"])
        return SimpleNamespace(status_code=200, content=self.body.encode("utf-8"), text=self.body)


class SparqlDouble:
    def __init__(self, kg):
        self.backend = LocalBackend(kg)
        self.bgps = []
        self.graph_iri = None
        self.fail_budget = 0  # respond 500 to this many requests
        self.always_fail_pages = False
        self.max_rows = None  # cap every page at this many rows, like ResultSetMaxRows
        self.abbreviate_literals = False  # write typed numbers and booleans bare
        self.seen_headers = []
        self._lock = threading.Lock()
        handler = self._make_handler()
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        # serve_forever checks for shutdown once per poll; the default 0.5 s
        # would make every close() wait up to that long
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self.thread.start()

    @property
    def url(self) -> str:
        host, port = self.server.server_address
        return f"http://{host}:{port}/sparql"

    def register(self, bgp) -> None:
        self.bgps.append(bgp)

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()

    def _resolve(self, query: str):
        for bgp in self.bgps:
            for i, branch in enumerate(bgp.branches):
                if query == branch.count_query(self.graph_iri):
                    return [("?c",), (str(self.backend.branch_count(bgp, i)),)]
        m = _PAGE_RE.match(query)
        if m:
            limit, offset = int(m.group("limit")), int(m.group("offset"))
            for bgp in self.bgps:
                for i, branch in enumerate(bgp.branches):
                    if m.group("body") == branch.page_query(1, 0, self.graph_iri).rsplit(
                        " order by", 1
                    )[0]:
                        kg = self.backend.kg
                        page = self.backend.fetch(bgp, i, limit, offset)[: self.max_rows]
                        obj_term = kg.term
                        if self.abbreviate_literals:
                            obj_term = lambda v: abbreviate(kg.term(v))  # noqa: E731
                        return [
                            ("?s", "?p", "?o"),
                            *(
                                (kg.term(s), kg.predicate_term(p), obj_term(o))
                                for s, p, o in page.tolist()
                            ),
                        ]
        return None

    def _make_handler(self):
        double = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def _answer(self, query: str):
                with double._lock:
                    double.seen_headers.append(dict(self.headers))
                    if double.fail_budget > 0:
                        double.fail_budget -= 1
                        self.send_response(500)
                        self.end_headers()
                        self.wfile.write(b"scripted failure")
                        return
                    if double.always_fail_pages and " limit " in query:
                        self.send_response(500)
                        self.end_headers()
                        self.wfile.write(b"scripted page failure")
                        return
                rows = double._resolve(query)
                if rows is None:
                    self.send_response(400)
                    self.end_headers()
                    self.wfile.write(b"unrecognized query")
                    return
                body = "\n".join("\t".join(r) for r in rows).encode("utf-8")
                accepts_gzip = "gzip" in self.headers.get("Accept-Encoding", "")
                self.send_response(200)
                self.send_header("Content-Type", "text/tab-separated-values")
                if accepts_gzip:
                    body = gzip.compress(body)
                    self.send_header("Content-Encoding", "gzip")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):
                parsed = urllib.parse.urlparse(self.path)
                params = urllib.parse.parse_qs(parsed.query)
                self._answer(params.get("query", [""])[0])

            def do_POST(self):
                length = int(self.headers.get("Content-Length", "0"))
                payload = self.rfile.read(length).decode("utf-8")
                params = urllib.parse.parse_qs(payload)
                self._answer(params.get("query", [""])[0])

        return Handler

"""Typed multigraph store over RDF triples.

Terms are dictionary-encoded into dense integer handles in first-encounter
order, so two ingestions of the same byte stream produce identical handles
and identical iteration order everywhere downstream. Each triple is stored
once, as one (s, p, o) tuple; three lists hold the same tuples in (s, p, o),
(o, p, s) and (p, s, o) order, each with CSR offsets over vertex or
predicate ids, so the triples of one subject, object or predicate are one
slice of a list (the permutation indexes of RDF-3X, Neumann & Weikum 2008).

Vertices cover IRIs, blank nodes, and literals (literals keep their full
N-Triples surface form including datatype/language tags and never have
outgoing edges). Predicates get their own dense id space. A node type is
the class vertex that is the object of a type-assertion triple, named by
its vertex id like any other vertex.
"""

from __future__ import annotations

import csv
import gzip
import io
import os
import re
import stat
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import (
    IoFailure,
    MalformedTerm,
    ParseError,
    UnknownPredicate,
    UnknownType,
    UnknownVertex,
)

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

OUTGOING = "outgoing"
BOTH = "both"

KIND_IRI = "iri"
KIND_LITERAL = "literal"
KIND_BLANK = "blank"

_IRI = r"<[^<>\"{}|^`\\\x00-\x20]*>"
_BLANK = r"_:[A-Za-z0-9][A-Za-z0-9._\-]*"
_LITERAL = r'"(?:[^"\\]|\\.)*"(?:\^\^' + _IRI + r"|@[A-Za-z]+(?:-[A-Za-z0-9]+)*)?"

_SUBJECT = _IRI + r"|" + _BLANK
_OBJECT = _SUBJECT + r"|" + _LITERAL

_TRIPLE_RE = re.compile(
    r"^[ \t]*(" + _SUBJECT + r")"
    r"[ \t]+(" + _IRI + r")"
    r"[ \t]+(" + _OBJECT + r")"
    r"[ \t]*\.[ \t]*$"
)
_TERM_RE = re.compile(_OBJECT)
_PREDICATE_RE = re.compile(_IRI)

_GZIP_MAGIC = b"\x1f\x8b"


class WalkIndex(NamedTuple):
    """The walk adjacency as lists indexed by vertex id.

    ``neighbors[v]`` is the sorted walk list of ``v`` (``()`` if none), in
    which a neighbor repeats once per parallel edge, and ``degree[v]`` is
    its length.
    """

    neighbors: list
    degree: list[int]


def term_kind(surface: str) -> str:
    """Kind of a term from its N-Triples surface form."""
    c = surface[0]
    if c == "<":
        return KIND_IRI
    if c == '"':
        return KIND_LITERAL
    return KIND_BLANK


def term_lexical(surface: str) -> str:
    """Lexical form: the IRI without angle brackets, else the surface itself."""
    if surface.startswith("<"):
        return surface[1:-1]
    return surface


@dataclass
class Subgraph:
    """An extracted slice of a parent graph, in the parent's id space.

    A slice is its triples: ``triples`` holds every retained triple
    (type-assertion triples included), sorted and unique, and everything
    else is derived from them. ``vertices`` is the entity view: the
    subjects and objects of non-type triples plus the subjects of type
    triples. Class vertices that occur only as objects of type triples are
    tracked in ``node_type_ids``, not in ``vertices``.
    """

    kg: "KnowledgeGraph"
    triples: tuple[tuple[int, int, int], ...]
    provenance: dict = field(default_factory=dict)
    vertices: frozenset[int] = field(init=False)

    def __post_init__(self):
        tp = self.kg.type_predicate
        self._non_type = tuple(t for t in self.triples if t[1] != tp)
        self._type_triples = tuple(t for t in self.triples if t[1] == tp)
        self.vertices = frozenset(
            chain(map(itemgetter(0), self.triples), map(itemgetter(2), self._non_type))
        )
        self._edges: tuple[np.ndarray, np.ndarray] | None = None
        self._entity: np.ndarray | None = None

    @property
    def non_type_triples(self) -> tuple[tuple[int, int, int], ...]:
        return self._non_type

    def non_type_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Subjects and objects of the non-type triples as read-only int64 arrays."""
        if self._edges is None:
            m = len(self._non_type)
            s, o = (
                np.fromiter(map(itemgetter(i), self._non_type), dtype=np.int64, count=m)
                for i in (0, 2)
            )
            s.flags.writeable = o.flags.writeable = False
            self._edges = (s, o)
        return self._edges

    def undirected_distances(self, sources) -> dict[int, int]:
        """:func:`hop_distances` from ``sources`` over the non-type triples viewed undirected."""
        s, o = self.non_type_edges()
        return hop_distances(np.concatenate([s, o]), np.concatenate([o, s]), sources)

    @property
    def type_triples(self) -> tuple[tuple[int, int, int], ...]:
        return self._type_triples

    @property
    def node_type_ids(self) -> set[int]:
        """Class vertices asserted by retained type triples (C')."""
        return {o for _, _, o in self._type_triples}

    @property
    def predicate_ids(self) -> set[int]:
        """Distinct non-type predicates occurring in retained triples (R')."""
        return {p for _, p, _ in self._non_type}

    def entity_vertices(self) -> list[int]:
        """Sorted non-literal members of the entity view."""
        if self._entity is None:
            vs = np.fromiter(self.vertices, dtype=np.int64, count=len(self.vertices))
            vs = vs[~self.kg.literal_mask()[vs]]
            vs.sort()
            self._entity = vs
        return self._entity.tolist()

    def restricted(self, keep) -> "Subgraph":
        """This subgraph cut down to the given vertices.

        Non-type triples need both endpoints kept; type triples follow
        their subject. Unlike induced_subgraph this never reaches back
        into the parent graph for triples the extraction did not retain.
        """
        keep = set(keep)
        tp = self.kg.type_predicate
        retained = tuple(
            (s, p, o)
            for s, p, o in self.triples
            if s in keep and (o in keep if p != tp else True)
        )
        return Subgraph(self.kg, retained, dict(self.provenance))

    def write_ntriples(self, fh) -> None:
        kg = self.kg
        for s, p, o in self.triples:
            fh.write(f"{kg.term(s)} {kg.predicate_term(p)} {kg.term(o)} .\n")

    def write_csv(self, fh) -> None:
        kg = self.kg
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["s", "p", "o"])
        for s, p, o in self.triples:
            w.writerow([kg.term(s), kg.predicate_term(p), kg.term(o)])


class KnowledgeGraph:
    """Immutable dictionary-encoded triple store.

    ``triples`` lists every (s, p, o) id triple once, sorted. Two more
    lists hold the same tuple objects sorted by (o, p, s) and (p, s, o);
    with CSR offsets over vertex and predicate ids they serve
    :meth:`out_triples`, :meth:`in_triples` and :meth:`predicate_triples`,
    through which every reader gets a vertex's or a predicate's triples.
    ``by_type`` maps each class vertex to its instances and ``type_of``
    each typed vertex to its classes, both ascending.

    Construction happens through :func:`build_graph` (which
    :func:`ingest_ntriples` calls); afterwards the instance is read-only
    and safe to share across threads. The literal mask, the walk index and
    each vertex's walk list are built on first use; threads racing to build
    one may both build it, with equal results.
    """

    def __init__(
        self, term_ids: dict[str, int], pred_ids: dict[str, int], triples, type_predicate_iri: str
    ):
        # each dictionary numbers its surfaces 0, 1, ... in insertion order
        self._term_ids = term_ids
        self._terms: list[str] = list(term_ids)
        self._pred_ids = pred_ids
        self._preds: list[str] = list(pred_ids)
        self.type_predicate_iri: str = type_predicate_iri
        self.type_predicate: int | None = pred_ids.get(f"<{type_predicate_iri}>")
        self.triples: list[tuple[int, int, int]] = sorted(triples)
        # stable sorts by one column: (s, p, o) order sorted by p gives
        # (p, s, o), and that sorted by o gives (o, p, s)
        self._by_predicate = sorted(self.triples, key=itemgetter(1))
        self._by_object = sorted(self._by_predicate, key=itemgetter(2))
        n = len(self._terms)
        self._subject_offsets = _csr_offsets(self.triples, 0, n)
        self._object_offsets = _csr_offsets(self._by_object, 2, n)
        self._predicate_offsets = _csr_offsets(self._by_predicate, 1, len(self._preds))
        self.by_type: dict[int, list[int]] = {}
        # type triples are unique and come in (s, o) order: each subject's
        # classes and each by_type list fill in ascending order
        types: dict[int, list[int]] = {}
        for s, _, o in self.predicate_triples(self.type_predicate):
            types.setdefault(s, []).append(o)
            self.by_type.setdefault(o, []).append(s)
        self.type_of: dict[int, tuple[int, ...]] = {v: tuple(cs) for v, cs in types.items()}
        self._walk_adj: dict[str, WalkAdjacency] = {}
        self._walk_index: WalkIndex | None = None
        self._literal_mask: np.ndarray | None = None
        self._literal_flags: list[bool] | None = None

    # -- dictionary ----------------------------------------------------

    def vertex_count(self) -> int:
        return len(self._terms)

    def triple_count(self) -> int:
        return len(self.triples)

    def term(self, v: int) -> str:
        return self._terms[v]

    def kind(self, v: int) -> str:
        return term_kind(self._terms[v])

    def literal_mask(self) -> np.ndarray:
        """Read-only boolean array over vertex ids, True for literals.

        Built once and cached.
        """
        if self._literal_mask is None:
            n = len(self._terms)
            mask = np.fromiter((t[0] == '"' for t in self._terms), dtype=bool, count=n)
            mask.flags.writeable = False
            self._literal_mask = mask
        return self._literal_mask

    def literal_flags(self) -> list[bool]:
        """:meth:`literal_mask` as a Python list, for per-vertex reads. Built once and cached."""
        if self._literal_flags is None:
            self._literal_flags = self.literal_mask().tolist()
        return self._literal_flags

    def lexical(self, v: int) -> str:
        return term_lexical(self._terms[v])

    def predicate_term(self, p: int) -> str:
        return self._preds[p]

    def predicate_iri(self, p: int) -> str:
        return term_lexical(self._preds[p])

    def vertex_id(self, iri_or_surface: str) -> int:
        surface = iri_or_surface
        if not surface.startswith(("<", '"', "_")):
            surface = f"<{surface}>"
        tid = self._term_ids.get(surface)
        if tid is None:
            raise UnknownVertex(iri_or_surface)
        return tid

    def predicate_id(self, iri_or_surface: str) -> int:
        surface = iri_or_surface if iri_or_surface.startswith("<") else f"<{iri_or_surface}>"
        pid = self._pred_ids.get(surface)
        if pid is None:
            raise UnknownPredicate(iri_or_surface)
        return pid

    def type_id(self, iri_or_surface: str) -> int:
        """Vertex id of a class IRI; UnknownType if it is never the object of a type triple."""
        try:
            c = self.vertex_id(iri_or_surface)
        except UnknownVertex:
            raise UnknownType(iri_or_surface) from None
        if c not in self.by_type:
            raise UnknownType(iri_or_surface)
        return c

    def type_count(self) -> int:
        return len(self.by_type)

    def predicate_count(self) -> int:
        return len(self._preds)

    def malformed_term(self) -> str | None:
        """The first term N-Triples forbids where it occurs, or None.

        Checks each distinct term once: vertices against the term grammar,
        predicates against the IRI grammar, and that no literal has an
        outgoing triple (a literal is never a subject).
        """
        for v, surface in enumerate(self._terms):
            if not _TERM_RE.fullmatch(surface) or (surface[0] == '"' and self.out_triples(v)):
                return surface
        for surface in self._preds:
            if not _PREDICATE_RE.fullmatch(surface):
                return surface
        return None

    # -- queries ---------------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < len(self._terms):
            raise UnknownVertex(v)

    def vertices_of_type(self, c: int) -> list[int]:
        """Instances of the class vertex ``c``, ascending; UnknownType if ``c`` is no class."""
        instances = self.by_type.get(c)
        if instances is None:
            raise UnknownType(c)
        return list(instances)

    def out_triples(self, v: int) -> list[tuple[int, int, int]]:
        """The triples with subject ``v``, sorted by (predicate, object)."""
        offsets = self._subject_offsets
        return self.triples[offsets[v]:offsets[v + 1]]

    def in_triples(self, v: int) -> list[tuple[int, int, int]]:
        """The triples with object ``v``, sorted by (predicate, subject)."""
        offsets = self._object_offsets
        return self._by_object[offsets[v]:offsets[v + 1]]

    def predicate_triples(self, p: int | None) -> list[tuple[int, int, int]]:
        """The triples with predicate ``p``, sorted by (subject, object); [] for None."""
        if p is None:
            return []
        offsets = self._predicate_offsets
        return self._by_predicate[offsets[p]:offsets[p + 1]]

    def walk_adjacency(self, direction: str) -> WalkAdjacency:
        """Entity-to-entity adjacency used by the samplers, one per direction.

        See :class:`WalkAdjacency`; created once per direction and cached.
        """
        adj = self._walk_adj.get(direction)
        if adj is None:
            if direction not in (OUTGOING, BOTH):
                raise ValueError(f"bad walk direction {direction!r}")
            # setdefault: threads that race here all get the same object
            adj = self._walk_adj.setdefault(direction, WalkAdjacency(self, direction))
        return adj

    def walk_index(self) -> WalkIndex:
        """The ``both`` :meth:`walk_adjacency` indexed by vertex id, sharing its lists.

        That graph is symmetric: every neighbor of a vertex has degree at
        least 1. Built once and cached.
        """
        if self._walk_index is None:
            adj = self.walk_adjacency(BOTH)
            neighbors = [adj.get(v, ()) for v in range(len(self._terms))]
            self._walk_index = WalkIndex(neighbors, list(map(len, neighbors)))
        return self._walk_index

    def induced_subgraph(self, vs) -> Subgraph:
        """Subgraph of all non-type triples with both endpoints in ``vs``.

        Every (v, type, c) for v in ``vs`` is retained as well, whether or
        not c is in ``vs``. A vertex of ``vs`` that no retained triple
        touches is not in the result.
        """
        vsset = set(vs)
        for v in vsset:
            self._check_vertex(v)
        tp = self.type_predicate
        # ascending subjects with each slice in (p, o) order: already sorted
        retained = tuple(
            t
            for v in sorted(vsset)
            for t in self.out_triples(v)
            if t[1] == tp or t[2] in vsset
        )
        return Subgraph(self, retained)

    # -- serialization ---------------------------------------------------

    def write_ntriples(self, fh) -> None:
        for s, p, o in self.triples:
            fh.write(f"{self._terms[s]} {self._preds[p]} {self._terms[o]} .\n")

    def write_dictionary_tsv(self, fh) -> None:
        for vid, surface in enumerate(self._terms):
            fh.write(f"{vid}\t{term_kind(surface)}\t{term_lexical(surface)}\n")


class WalkAdjacency(Mapping):
    """The walk lists of one direction, a mapping from vertex id to list.

    ``adj[v]`` lists the objects of ``v``'s triples, and for ``both`` also
    the subjects of the triples into ``v``, in ascending order.
    Type-assertion edges and edges to or from literals are excluded;
    parallel edges and self-loops keep their multiplicity, so a uniform
    choice over the list is a uniform choice over edges. A vertex with no
    such edge has no list: ``adj.get(v)`` returns None.

    The first read of a vertex builds its list from the graph's sorted
    triple lists and their offsets, the slices :meth:`KnowledgeGraph.out_triples`
    and :meth:`KnowledgeGraph.in_triples` return, and keeps it, so a walk pays
    only for the vertices it visits; iteration, ``len`` and
    :meth:`KnowledgeGraph.walk_index` read every vertex the same way. Only
    the sorted list is stored, in one assignment, so threads racing on a
    vertex may build its list twice but never see a partial one. The
    adjacency holds those lists, not the graph that caches it, so a graph
    is freed by reference count once its last user lets go.
    """

    def __init__(self, kg: KnowledgeGraph, direction: str):
        self._out = (kg.triples, kg._subject_offsets)
        self._in = (kg._by_object, kg._object_offsets) if direction == BOTH else None
        self._type_predicate = kg.type_predicate
        self._is_literal = kg.literal_flags()
        # None: not built yet; (): no list, shared instead of one empty list per vertex
        self._lists: list[list[int] | tuple | None] = [None] * kg.vertex_count()

    def get(self, v, default=None):
        lists = self._lists
        if not 0 <= v < len(lists):
            return default
        lst = lists[v]
        if lst is None:
            tp, is_literal = self._type_predicate, self._is_literal
            triples, offsets = self._out
            # plain loops: most lists are short, and before CPython 3.12 a
            # comprehension costs a call of its own, more than such a loop
            lst = []
            for _, p, o in triples[offsets[v]:offsets[v + 1]]:
                if p != tp and not is_literal[o]:
                    lst.append(o)
            if self._in is not None and not is_literal[v]:
                triples, offsets = self._in
                for s, p, _ in triples[offsets[v]:offsets[v + 1]]:
                    if p != tp:
                        lst.append(s)
            lst.sort()
            lists[v] = lst = lst or ()
        return lst if lst else default

    def __getitem__(self, v) -> list[int]:
        lst = self.get(v)
        if lst is None:
            raise KeyError(v)
        return lst

    def __iter__(self):
        return (v for v in range(len(self._lists)) if self.get(v) is not None)

    def __len__(self) -> int:
        return sum(1 for _ in self)


def _csr_offsets(triples, column: int, n: int) -> list[int]:
    """Offsets of ``triples``, sorted on ``column``, over the ids 0..n-1.

    The triples whose ``column`` holds id i are ``triples[offsets[i]:offsets[i + 1]]``.
    """
    ids = np.fromiter(map(itemgetter(column), triples), dtype=np.int64, count=len(triples))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=n), out=offsets[1:])
    return offsets.tolist()


def read_ntriples(source, errors: list[ParseError] | None = None):
    """Yield the (subject, predicate, object) surface forms of each statement.

    ``source`` is bytes or a binary stream, decoded as UTF-8 one line at a
    time; invalid UTF-8 raises :class:`IoFailure`. Blank lines and ``#``
    comments are skipped. A malformed line is appended to ``errors`` as a
    :class:`ParseError` and skipped, or raised when ``errors`` is None.
    """
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    # universal newlines end a line at CR, LF and CRLF only, as N-Triples
    # does; str.splitlines would also split at characters a literal may hold
    # raw (\x0b, \x0c, \x1c-\x1e, \x85, \u2028, \u2029)
    text = io.TextIOWrapper(source, encoding="utf-8")
    try:
        for lineno, line in enumerate(text, start=1):
            line = line.rstrip("\n")
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            m = _TRIPLE_RE.match(line)
            if m is None:
                err = ParseError(lineno, "not a valid N-Triples statement", line)
                if errors is None:
                    raise err
                errors.append(err)
                continue
            yield m.groups()
    except UnicodeDecodeError as exc:
        raise IoFailure(f"input is not valid UTF-8: {exc}") from exc
    finally:
        # hand the stream back open; a caller that abandoned this generator
        # may have closed it already, and detaching would then fail to flush
        if not source.closed:
            text.detach()


def build_graph(statements, type_predicate_iri: str = RDF_TYPE) -> KnowledgeGraph:
    """A KnowledgeGraph from (subject, predicate, object) surface forms.

    Terms and predicates get dense ids in first-encounter order, each in
    its own id space; duplicate statements collapse to one triple. The
    surfaces are taken as they are: :func:`ingest_ntriples` checks them
    when they come from anywhere but :func:`read_ntriples`.
    """
    terms: dict[str, int] = {}
    preds: dict[str, int] = {}
    # a dict, not a set: first-encounter order is partly sorted already, so
    # the sort that indexing starts with runs faster than over a set's order
    triples: dict[tuple[int, int, int], None] = {}
    for s, p, o in statements:
        s_id = terms.setdefault(s, len(terms))
        p_id = preds.setdefault(p, len(preds))
        triples[s_id, p_id, terms.setdefault(o, len(terms))] = None
    return KnowledgeGraph(terms, preds, triples, type_predicate_iri)


def ingest_ntriples(
    source,
    type_predicate_iri: str = RDF_TYPE,
    strict: bool = False,
) -> tuple[KnowledgeGraph, list[ParseError]]:
    """A KnowledgeGraph from N-Triples bytes or a binary stream, or from statements.

    Duplicate statements collapse to one triple. Bytes or a stream are read
    by :func:`read_ntriples`: malformed lines are collected as
    :class:`ParseError` records and skipped unless ``strict`` is set, in
    which case the first one is raised. Any other ``source`` is an iterable
    of (subject, predicate, object) surface forms, taken as they are and
    then checked once per distinct term with
    :meth:`KnowledgeGraph.malformed_term`; a term N-Triples forbids where it
    occurs raises :class:`MalformedTerm` whatever ``strict`` says, so the
    errors list is then always empty.
    """
    errors: list[ParseError] = []
    if isinstance(source, bytes) or hasattr(source, "read"):
        kg = build_graph(read_ntriples(source, None if strict else errors), type_predicate_iri)
        return kg, errors
    kg = build_graph(source, type_predicate_iri)
    bad = kg.malformed_term()
    if bad is not None:
        raise MalformedTerm(bad)
    return kg, errors


def open_maybe_gzip(path):
    """Open a file for binary reading, transparently decompressing gzip."""
    try:
        with open(path, "rb") as fh:
            gzipped = fh.read(2) == _GZIP_MAGIC
        # gzip.open over a path owns the file it opens and closes it
        return gzip.open(path, "rb") if gzipped else open(path, "rb")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def _open_untruncated(path, flags):
    # open()'s own flags keep O_CLOEXEC (and O_BINARY on Windows); os.open
    # would default to mode 0o777
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextmanager
def open_for_rewrite(path, mode, **kwargs):
    """Open a file for writing it whole, without truncating it to zero first.

    ``open(path, "w")`` passes ``O_TRUNC``. On ext4 and XFS, a file that
    is truncated to zero and written again has its blocks allocated and
    its writeback started at ``close``, so rewriting thousands of small
    files waits on the disk. This writes over the old bytes in place and
    truncates the file at the current position when the block ends, also
    when a write raises, so the file holds exactly the bytes written, as
    after ``O_TRUNC``. That holds only while the process survives: if it
    is killed mid-write, the file keeps the new bytes written so far
    followed by the old file's tail, where ``O_TRUNC`` would have left it
    cut short. A pipe, terminal or device is not truncated, since
    ``O_TRUNC`` does nothing to it either.
    """
    with open(path, mode, opener=_open_untruncated, **kwargs) as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def load_ntriples(
    path, type_predicate_iri: str = RDF_TYPE, strict: bool = False
) -> tuple[KnowledgeGraph, list[ParseError]]:
    with open_maybe_gzip(path) as fh:
        return ingest_ntriples(fh, type_predicate_iri=type_predicate_iri, strict=strict)


def subgraph_from_triples(kg: KnowledgeGraph, triples, provenance=None) -> Subgraph:
    """Build a Subgraph from triples in ``kg``'s id space, deduplicated and sorted.

    Duplicates go by ``dict.fromkeys``, which keeps first-seen order: the
    ordered runs of the input (a pattern branch's rows, say) survive, so
    the sort merges runs instead of sorting hash order.
    """
    if triples is kg.triples:  # sorted and unique already
        return Subgraph(kg, tuple(triples), provenance or {})
    return Subgraph(kg, tuple(sorted(dict.fromkeys(triples))), provenance or {})


def hop_distances(tails, heads, sources, max_hops: int | None = None) -> dict[int, int]:
    """Hop count from the nearest source to each vertex, breadth first.

    Edge ``i`` leads from ``tails[i]`` to ``heads[i]``; pass both
    orientations of each edge for an undirected view. Duplicate edges and
    self-loops are harmless. The result covers every vertex within
    ``max_hops`` of a source (every reachable one when None); sources are
    at distance 0. A negative ``max_hops`` raises ValueError.

    The edges become a CSR over vertex ids (a stable argsort by tail,
    offsets from a bincount). The level-by-level loop then runs in Python
    over the CSR converted to lists, so the work is O(n + E) for the
    largest vertex id n. (A numpy frontier vectorised per level was far
    slower on long paths: one round of array calls per level.)
    """
    if max_hops is not None and max_hops < 0:
        raise ValueError(f"max_hops must be >= 0 or None, got {max_hops}")
    tails = np.asarray(tails, dtype=np.int64)
    heads = np.asarray(heads, dtype=np.int64)
    if tails.shape != heads.shape:
        raise ValueError(f"{len(tails)} tails but {len(heads)} heads")
    n = int(max(tails.max(), heads.max())) + 1 if len(tails) else 0
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=offsets[1:])
    offsets = offsets.tolist()
    nbrs = heads[np.argsort(tails, kind="stable")].tolist()
    dist = dict.fromkeys(sources, 0)
    frontier = [u for u in dist if u < n]
    hops = 0
    while frontier and hops != max_hops:
        hops += 1
        reached = []
        for u in frontier:
            for w in nbrs[offsets[u]:offsets[u + 1]]:
                if w not in dist:
                    dist[w] = hops
                    reached.append(w)
        frontier = reached
    return dist

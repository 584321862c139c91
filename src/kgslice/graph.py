"""Typed multigraph store over RDF triples.

Terms are dictionary-encoded into dense integer handles in first-encounter
order, so two ingestions of the same byte stream produce identical handles
and identical iteration order everywhere downstream. Adjacency lists are
kept sorted by (predicate, endpoint).

Vertices cover IRIs, blank nodes, and literals (literals keep their full
N-Triples surface form including datatype/language tags and never have
outgoing edges). Predicates and node types (objects of the type-assertion
predicate) get their own dense id spaces.
"""

from __future__ import annotations

import csv
import gzip
import io
import re
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import IoFailure, ParseError, UnknownPredicate, UnknownType, UnknownVertex

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

OUTGOING = "outgoing"
INCOMING = "incoming"
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

    ``neighbors[v]`` is the sorted walk list of ``v`` (``()`` if none) and
    ``degree[v]`` its length. ``distinct[v]`` is ``neighbors[v]`` itself
    when the list has no repeats, else its distinct ids ascending.
    """

    neighbors: list
    degree: list[int]
    distinct: list


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

    ``triples`` holds every retained triple (type-assertion triples
    included); ``vertices`` is the entity view: retained subjects/objects
    of non-type triples plus subjects of type triples plus any explicitly
    retained vertices. Class IRIs that occur only as objects of type
    triples are tracked in ``node_type_ids``, not in ``vertices``.
    """

    kg: "KnowledgeGraph"
    triples: tuple[tuple[int, int, int], ...]
    vertices: frozenset[int]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        tp = self.kg.type_predicate
        self._non_type = tuple(t for t in self.triples if t[1] != tp)
        self._type_triples = tuple(t for t in self.triples if t[1] == tp)
        self._edges: tuple[np.ndarray, np.ndarray] | None = None
        self._entity: np.ndarray | None = None

    @property
    def non_type_triples(self) -> tuple[tuple[int, int, int], ...]:
        return self._non_type

    def non_type_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Subjects and objects of the non-type triples as read-only int64 arrays."""
        if self._edges is None:
            m = len(self._non_type)
            flat = np.fromiter(chain.from_iterable(self._non_type), dtype=np.int64, count=3 * m)
            spo = flat.reshape(m, 3)
            s, o = spo[:, 0].copy(), spo[:, 2].copy()
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
        """Distinct node types asserted by retained type triples (C')."""
        ids = set()
        for _, _, o in self._type_triples:
            tid = self.kg.type_id_of_vertex(o)
            if tid is not None:
                ids.add(tid)
        return ids

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
        return Subgraph(self.kg, retained, frozenset(keep & self.vertices), dict(self.provenance))

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
    """Immutable index-backed triple store.

    Construction happens through :func:`build_graph` (which
    :func:`ingest_ntriples` calls); afterwards the instance is read-only
    and safe to share across threads.
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
        self.out_index: dict[int, list[tuple[int, int]]] = {}
        self.in_index: dict[int, list[tuple[int, int]]] = {}
        self.pred_index: dict[int, list[tuple[int, int, int]]] = {}
        for s, p, o in self.triples:
            self.out_index.setdefault(s, []).append((p, o))
            self.in_index.setdefault(o, []).append((p, s))
            self.pred_index.setdefault(p, []).append((s, p, o))
        for lst in self.out_index.values():
            lst.sort()
        for lst in self.in_index.values():
            lst.sort()
        self._type_ids: dict[int, int] = {}  # class vertex id -> NodeTypeId
        self._type_vertex: list[int] = []  # NodeTypeId -> class vertex id
        self.type_of: dict[int, tuple[int, ...]] = {}
        self.by_type: dict[int, list[int]] = {}
        type_sets: dict[int, set[int]] = {}
        for s, _, o in self.pred_index.get(self.type_predicate, ()):
            tid = self._type_ids.get(o)
            if tid is None:
                tid = len(self._type_vertex)
                self._type_ids[o] = tid
                self._type_vertex.append(o)
            type_sets.setdefault(s, set()).add(tid)
        for v, tids in type_sets.items():
            self.type_of[v] = tuple(sorted(tids))
        for v in sorted(type_sets):
            for tid in self.type_of[v]:
                self.by_type.setdefault(tid, []).append(v)
        self._walk_adj: dict[str, dict[int, list[int]]] = {}
        self._walk_index: dict[str, WalkIndex] = {}
        self._literal_mask: np.ndarray | None = None

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
        """NodeTypeId of a class IRI; UnknownType if never seen as a type."""
        try:
            vid = self.vertex_id(iri_or_surface)
        except UnknownVertex:
            raise UnknownType(iri_or_surface) from None
        tid = self._type_ids.get(vid)
        if tid is None:
            raise UnknownType(iri_or_surface)
        return tid

    def type_id_of_vertex(self, vid: int) -> int | None:
        return self._type_ids.get(vid)

    def type_iri(self, tid: int) -> str:
        return term_lexical(self._terms[self._type_vertex[tid]])

    def type_count(self) -> int:
        return len(self._type_vertex)

    def predicate_count(self) -> int:
        return len(self._preds)

    def malformed_term(self) -> str | None:
        """The first term N-Triples forbids where it occurs, or None.

        Checks each distinct term once: vertices against the term grammar,
        predicates against the IRI grammar, and that no literal has an
        outgoing triple (a literal is never a subject).
        """
        for v, surface in enumerate(self._terms):
            if not _TERM_RE.fullmatch(surface) or (surface[0] == '"' and v in self.out_index):
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
        """Vertices carrying node type ``c``, ascending."""
        if not 0 <= c < len(self._type_vertex):
            raise UnknownType(c)
        return list(self.by_type.get(c, []))

    def neighbors(self, v: int, direction: str = BOTH) -> list[tuple[int, int]]:
        """(predicate, endpoint) pairs incident to ``v``.

        ``both`` concatenates outgoing then incoming, each sorted
        internally by (predicate, endpoint).
        """
        self._check_vertex(v)
        if direction == OUTGOING:
            return list(self.out_index.get(v, ()))
        if direction == INCOMING:
            return list(self.in_index.get(v, ()))
        if direction == BOTH:
            return list(self.out_index.get(v, ())) + list(self.in_index.get(v, ()))
        raise ValueError(f"bad direction {direction!r}")

    def walk_adjacency(self, direction: str) -> dict[int, list[int]]:
        """Entity-to-entity adjacency used by the samplers.

        Type-assertion edges and edges to/from literals are excluded;
        parallel edges keep their multiplicity so uniform choice over the
        list matches a uniform choice over edges. Built once per
        direction and cached.
        """
        cached = self._walk_adj.get(direction)
        if cached is not None:
            return cached
        if direction not in (OUTGOING, BOTH):
            raise ValueError(f"bad walk direction {direction!r}")
        tp = self.type_predicate
        adj: dict[int, list[int]] = {}
        for s, p, o in self.triples:
            if p == tp:
                continue
            if term_kind(self._terms[o]) == KIND_LITERAL:
                continue
            adj.setdefault(s, []).append(o)
            if direction == BOTH:
                adj.setdefault(o, []).append(s)
        for lst in adj.values():
            lst.sort()
        self._walk_adj[direction] = adj
        return adj

    def walk_index(self, direction: str) -> WalkIndex:
        """:meth:`walk_adjacency` indexed by vertex id, sharing its lists.

        Built once per direction and cached.
        """
        cached = self._walk_index.get(direction)
        if cached is not None:
            return cached
        adj = self.walk_adjacency(direction)
        n = len(self._terms)
        neighbors: list = [()] * n
        degree = [0] * n
        distinct: list = [()] * n
        for v, lst in adj.items():
            neighbors[v] = lst
            degree[v] = len(lst)
            uniq = set(lst)
            distinct[v] = lst if len(uniq) == len(lst) else sorted(uniq)
        index = WalkIndex(neighbors, degree, distinct)
        self._walk_index[direction] = index
        return index

    def induced_subgraph(self, vs, keep_type_triples: bool = True) -> Subgraph:
        """Subgraph of all non-type triples with both endpoints in ``vs``.

        With ``keep_type_triples`` every (v, type, c) for v in ``vs`` is
        retained as well, whether or not c is in ``vs``; without it no
        type triple is retained at all.
        """
        vsset = set(vs)
        for v in vsset:
            self._check_vertex(v)
        tp = self.type_predicate
        retained = []
        for v in sorted(vsset):
            for p, o in self.out_index.get(v, ()):
                if p == tp:
                    if keep_type_triples:
                        retained.append((v, p, o))
                elif o in vsset:
                    retained.append((v, p, o))
        retained.sort()
        return Subgraph(self, tuple(retained), frozenset(vsset))

    # -- serialization ---------------------------------------------------

    def write_ntriples(self, fh) -> None:
        for s, p, o in self.triples:
            fh.write(f"{self._terms[s]} {self._preds[p]} {self._terms[o]} .\n")

    def write_dictionary_tsv(self, fh) -> None:
        for vid, surface in enumerate(self._terms):
            fh.write(f"{vid}\t{term_kind(surface)}\t{term_lexical(surface)}\n")


def read_ntriples(source, errors: list[ParseError] | None = None):
    """Yield the (subject, predicate, object) surface forms of each statement.

    ``source`` is bytes or a binary or text stream. Blank lines and ``#``
    comments are skipped. A malformed line is appended to ``errors`` as a
    :class:`ParseError` and skipped, or raised when ``errors`` is None.
    """
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    raw = source.read()
    if isinstance(raw, bytes):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise IoFailure(f"input is not valid UTF-8: {exc}") from exc
    else:
        text = raw

    # N-Triples ends lines at CR and LF only; str.splitlines would also split
    # at characters a literal may hold raw (\x0b, \x0c, \x1c-\x1e, \x85,
    # \u2028, \u2029)
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, line in enumerate(text.split("\n"), start=1):
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


def build_graph(statements, type_predicate_iri: str = RDF_TYPE) -> KnowledgeGraph:
    """A KnowledgeGraph from (subject, predicate, object) surface forms.

    Terms and predicates get dense ids in first-encounter order, each in
    its own id space; duplicate statements collapse to one triple. The
    surfaces are taken as they are: :meth:`KnowledgeGraph.malformed_term`
    checks them when they come from anywhere but :func:`read_ntriples`.
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
    """Parse an N-Triples byte or text stream into a KnowledgeGraph.

    Duplicate statements collapse to one triple. Malformed lines are
    collected as :class:`ParseError` records and skipped unless ``strict``
    is set, in which case the first one is raised. Blank lines and
    ``#`` comments are ignored.
    """
    errors: list[ParseError] = []
    kg = build_graph(read_ntriples(source, None if strict else errors), type_predicate_iri)
    return kg, errors


def open_maybe_gzip(path):
    """Open a file for binary reading, transparently decompressing gzip."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    magic = fh.read(2)
    fh.seek(0)
    if magic == _GZIP_MAGIC:
        return gzip.open(fh, "rb")
    return fh


def load_ntriples(
    path, type_predicate_iri: str = RDF_TYPE, strict: bool = False
) -> tuple[KnowledgeGraph, list[ParseError]]:
    with open_maybe_gzip(path) as fh:
        return ingest_ntriples(fh, type_predicate_iri=type_predicate_iri, strict=strict)


def subgraph_from_triples(kg: KnowledgeGraph, triples, provenance=None, base_vertices=()) -> Subgraph:
    """Build a Subgraph from deduplicated triples in ``kg``'s id space."""
    tset = sorted(set(triples))
    tp = kg.type_predicate
    vertices = set(base_vertices)
    for s, p, o in tset:
        if p == tp:
            vertices.add(s)
        else:
            vertices.add(s)
            vertices.add(o)
    return Subgraph(kg, tuple(tset), frozenset(vertices), provenance or {})


def hop_distances(tails, heads, sources, max_hops: int | None = None) -> dict[int, int]:
    """Hop count from the nearest source to each vertex, breadth first.

    Edge ``i`` leads from ``tails[i]`` to ``heads[i]``; pass both
    orientations of each edge for an undirected view. Duplicate edges and
    self-loops are harmless. The result covers every vertex within
    ``max_hops`` of a source (every reachable one when None); sources are
    at distance 0.

    The edges become a CSR over vertex ids (a stable argsort by tail,
    offsets from a bincount). The level-by-level loop then runs in Python
    over the CSR converted to lists, so the work is O(n + E) for the
    largest vertex id n. (A numpy frontier vectorised per level was far
    slower on long paths: one round of array calls per level.)
    """
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

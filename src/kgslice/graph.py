"""Typed multigraph store over RDF triples, held as int32 id columns.

Terms are dictionary-encoded into dense integer handles in first-encounter
order, so two ingestions of the same byte stream produce identical handles
and identical iteration order everywhere downstream. Vertex and predicate
ids are int32: a graph holds at most ``MAX_IDS`` (2**31 - 1) distinct
terms and as many predicates, and :func:`build_graph` raises
:class:`IdSpaceExhausted` past that.

Each triple is stored once, as one row of an (m, 3) int32 array sorted by
(s, p, o) and free of duplicates. The (o, p, s) and (p, s, o) orders are
kept as the id columns they serve, each with CSR offsets over vertex or
predicate ids, so the triples of one subject, object or predicate are one
slice of a column: the permutation indexes of RDF-3X (Neumann & Weikum,
VLDB 2008), stored as arrays, not objects, as HDT's bitmap triples are
(Fernández et al., J. Web Semantics 2013). The index is built in numpy:
one sort and an adjacent-row dedup (:func:`sorted_unique_rows`), two
stable argsorts and three bincounts. A triple becomes a Python tuple only
in the views built for callers that ask for one.

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
from array import array
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice, repeat
from typing import NamedTuple

import numpy as np

from .errors import (
    IdSpaceExhausted,
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

# ids are int32: at most this many distinct terms, and as many predicates
MAX_IDS = 2**31 - 1

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


def type_mask(predicates: np.ndarray, type_predicate: int | None) -> np.ndarray:
    """True where ``predicates`` holds the type predicate; all False without one."""
    if type_predicate is None:
        return np.zeros(len(predicates), dtype=bool)
    return predicates == type_predicate


def check_id_space(terms: int, predicates: int) -> None:
    """Raise IdSpaceExhausted if either count passes ``MAX_IDS``."""
    for what, count in (("terms", terms), ("predicates", predicates)):
        if count > MAX_IDS:
            raise IdSpaceExhausted(what, MAX_IDS)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def sorted_unique_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of an (m, 3) array of non-negative ids, sorted by (s, p, o).

    When the id ranges allow, each row packs into one int64 key, whose
    plain sort is several times faster than a three-key lexsort (0.014
    against 0.075 s on 204k rows); otherwise the rows are lexsorted. Either
    way a row is dropped when it equals the row before it.
    """
    if not len(rows):
        return rows[:0].copy()
    s_range, p_range, o_range = (int(x) + 1 for x in rows.max(axis=0))
    if s_range * p_range * o_range <= 2**63:
        key = rows[:, 0].astype(np.int64)
        key *= p_range
        key += rows[:, 1]
        key *= o_range
        key += rows[:, 2]
        order = np.argsort(key)
        key = key[order]
        keep = np.ones(len(key), dtype=bool)
        keep[1:] = key[1:] != key[:-1]
        return rows[order[keep]]
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def distinct(ids: np.ndarray) -> np.ndarray:
    """The distinct values of an id array, ascending.

    A sort and an adjacent-value dedup: five times faster than np.unique,
    which hashes, on the 150k ids of a benchmark slice.
    """
    ids = np.sort(ids)
    keep = np.ones(len(ids), dtype=bool)
    keep[1:] = ids[1:] != ids[:-1]
    return ids[keep]


def _offsets(ids: np.ndarray, n: int) -> np.ndarray:
    """CSR offsets of sorted ``ids`` over 0..n-1: id i holds ``offsets[i]:offsets[i + 1]``."""
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=n), out=offsets[1:])
    return _read_only(offsets)


def _tuples(rows: np.ndarray):
    """The (s, p, o) tuples of an (m, 3) id array, for the tuple views."""
    return zip(*rows.T.tolist())


def _gather(offsets: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the CSR slices of ``vs``, one after the other, and each slice's length."""
    lo = offsets[vs]
    counts = offsets[vs + 1] - lo
    starts = np.cumsum(counts) - counts
    return np.repeat(lo - starts, counts) + np.arange(int(counts.sum())), counts


@dataclass(eq=False)
class Subgraph:
    """An extracted slice of a parent graph, in the parent's id space.

    A slice is its triples: ``spo`` is a read-only (m, 3) int32 array of
    every retained triple (type-assertion triples included), sorted by
    (s, p, o) and unique, and everything else is derived from it on first
    use and kept. Build one from rows in any order, with repeats, through
    :func:`subgraph_from_triples`. ``vertices`` is the entity view: the
    subjects and objects of non-type triples plus the subjects of type
    triples. Class vertices that occur only as objects of type triples are
    tracked in ``node_type_ids``, not in ``vertices``.

    ``triples``, ``non_type_triples`` and ``type_triples`` are tuple views
    of the rows, built on first read at about a tuple object per triple;
    they serve tests and oracles, and no extraction, metric or export
    reads them.
    """

    kg: "KnowledgeGraph"
    spo: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        _read_only(self.spo)
        self._is_type = type_mask(self.spo[:, 1], self.kg.type_predicate)
        self._edges: tuple[np.ndarray, np.ndarray] | None = None

    @cached_property
    def non_type_spo(self) -> np.ndarray:
        """The rows whose predicate is not the type predicate, in order."""
        return _read_only(self.spo[~self._is_type])

    @cached_property
    def type_spo(self) -> np.ndarray:
        """The type-assertion rows, in order."""
        return _read_only(self.spo[self._is_type])

    @cached_property
    def vertices(self) -> frozenset[int]:
        # every subject, then the objects of non-type triples, inserted in
        # row order: the set, and the order it iterates in, are the same
        # whichever way the slice was built
        return frozenset(chain(self.spo[:, 0].tolist(), self.non_type_spo[:, 2].tolist()))

    @cached_property
    def triples(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(_tuples(self.spo))

    @cached_property
    def non_type_triples(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(_tuples(self.non_type_spo))

    @cached_property
    def type_triples(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(_tuples(self.type_spo))

    def non_type_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Subjects and objects of the non-type triples as read-only int64 arrays."""
        if self._edges is None:
            rows = self.non_type_spo
            self._edges = (
                _read_only(rows[:, 0].astype(np.int64)),
                _read_only(rows[:, 2].astype(np.int64)),
            )
        return self._edges

    def undirected_distances(self, sources) -> dict[int, int]:
        """:func:`hop_distances` from ``sources`` over the non-type triples viewed undirected."""
        s, o = self.non_type_edges()
        return hop_distances(np.concatenate([s, o]), np.concatenate([o, s]), sources)

    @property
    def node_type_ids(self) -> set[int]:
        """Class vertices asserted by retained type triples (C')."""
        return set(self.type_spo[:, 2].tolist())

    @property
    def predicate_ids(self) -> set[int]:
        """Distinct non-type predicates occurring in retained triples (R')."""
        return set(self.non_type_spo[:, 1].tolist())

    @cached_property
    def vertex_ids(self) -> np.ndarray:
        """``vertices`` as a read-only id array, ascending."""
        return _read_only(distinct(np.concatenate([self.spo[:, 0], self.non_type_spo[:, 2]])))

    def entity_vertices(self) -> list[int]:
        """Sorted non-literal members of the entity view."""
        vs = self.vertex_ids
        return vs[~self.kg.literal_mask()[vs]].tolist()

    def restricted(self, keep) -> "Subgraph":
        """This subgraph cut down to the given vertices.

        Non-type triples need both endpoints kept; type triples follow
        their subject. Unlike induced_subgraph this never reaches back
        into the parent graph for triples the extraction did not retain.
        """
        ids = np.fromiter(keep, dtype=np.int64)
        inside = np.zeros(self.kg.vertex_count(), dtype=bool)
        inside[ids[(ids >= 0) & (ids < len(inside))]] = True
        spo = self.spo
        retained = inside[spo[:, 0]] & (self._is_type | inside[spo[:, 2]])
        return Subgraph(self.kg, spo[retained], dict(self.provenance))

    def write_ntriples(self, fh) -> None:
        kg = self.kg
        for s, p, o in _tuples(self.spo):
            fh.write(f"{kg.term(s)} {kg.predicate_term(p)} {kg.term(o)} .\n")

    def write_csv(self, fh) -> None:
        kg = self.kg
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["s", "p", "o"])
        for s, p, o in _tuples(self.spo):
            w.writerow([kg.term(s), kg.predicate_term(p), kg.term(o)])


class KnowledgeGraph:
    """Immutable dictionary-encoded triple store over int32 id columns.

    ``spo`` is the read-only (m, 3) int32 array of every (s, p, o) id
    triple once, sorted; ``s``, ``p`` and ``o`` are its columns, kept
    contiguous. The (o, p, s) order keeps its subject and predicate
    columns, the (p, s, o) order its subject and object columns, and CSR
    offsets over vertex and predicate ids make the triples of one subject,
    object or predicate one slice: :meth:`out_rows` and :meth:`in_rows`
    gather the slices of many vertices at once as (k, 3) rows, and
    :meth:`predicate_columns` returns one predicate's slice. ``by_type``
    maps each class vertex to its instances, ascending, from the type
    predicate's slice.

    ``triples``, ``type_of``, :meth:`out_triples`, :meth:`in_triples` and
    :meth:`predicate_triples` are views in tuples, built on demand for
    tests, oracles and the benchmark: ``triples`` and ``type_of`` once, on
    first read, at about a tuple per triple (``triples`` takes 28 MB for
    204k triples, against 9 MB for all the id arrays); the three
    accessors on every call, for the one slice they return. No
    extraction, metric or export reads them.

    Construction happens through :func:`build_graph` (which
    :func:`ingest_ntriples` calls); afterwards the instance is read-only
    and safe to share across threads. The literal mask, the walk index and
    each vertex's walk list are built on first use; threads racing to build
    one may both build it, with equal results.
    """

    def __init__(
        self, term_ids: dict[str, int], pred_ids: dict[str, int], ids: np.ndarray,
        type_predicate_iri: str,
    ):
        """``ids`` holds one (s, p, o) id row per statement, in any order, repeats allowed."""
        # each dictionary numbers its surfaces 0, 1, ... in insertion order
        self._term_ids = term_ids
        self._terms: list[str] = list(term_ids)
        self._pred_ids = pred_ids
        self._preds: list[str] = list(pred_ids)
        self.type_predicate_iri: str = type_predicate_iri
        self.type_predicate: int | None = pred_ids.get(f"<{type_predicate_iri}>")
        n = len(self._terms)
        self.spo: np.ndarray = _read_only(sorted_unique_rows(ids))
        self.s, self.p, self.o = (_read_only(self.spo[:, i].copy()) for i in range(3))
        # stable sorts by one column: (s, p, o) order sorted by p gives
        # (p, s, o), and that sorted by o gives (o, p, s)
        by_predicate = np.argsort(self.p, kind="stable")
        self._pred_s = _read_only(self.s[by_predicate])
        self._pred_o = _read_only(self.o[by_predicate])
        by_object = by_predicate[np.argsort(self._pred_o, kind="stable")]
        del by_predicate
        self._in_s = _read_only(self.s[by_object])
        self._in_p = _read_only(self.p[by_object])
        del by_object
        self._subject_offsets = _offsets(self.s, n)
        self._object_offsets = _offsets(self.o, n)
        self._predicate_offsets = _offsets(self.p, len(self._preds))
        # the type predicate's slice is in (s, o) order: each by_type list
        # fills in ascending order
        self.by_type: dict[int, list[int]] = {}
        subjects, classes = self.predicate_columns(self.type_predicate)
        for s, c in zip(subjects.tolist(), classes.tolist()):
            self.by_type.setdefault(c, []).append(s)
        self._walk_adj: dict[str, WalkAdjacency] = {}
        self._walk_index: WalkIndex | None = None
        self._literal_mask: np.ndarray | None = None
        self._literal_flags: list[bool] | None = None

    # -- dictionary ----------------------------------------------------

    def vertex_count(self) -> int:
        return len(self._terms)

    def triple_count(self) -> int:
        return len(self.spo)

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
            # t[:1]: a term read from anywhere but N-Triples text may be empty
            mask = np.fromiter((t[:1] == '"' for t in self._terms), dtype=bool, count=n)
            self._literal_mask = _read_only(mask)
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

        Checks each distinct term once, in id order: vertices against the
        term grammar and that none is a literal with an outgoing triple (a
        literal is never a subject), then predicates against the IRI
        grammar.
        """
        subjects = np.diff(self._subject_offsets) > 0
        literal_subjects = np.flatnonzero(self.literal_mask() & subjects)
        stop = int(literal_subjects[0]) if len(literal_subjects) else len(self._terms)
        for surface in islice(self._terms, stop):
            if not _TERM_RE.fullmatch(surface):
                return surface
        if stop < len(self._terms):
            return self._terms[stop]
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

    def out_rows(self, vs) -> np.ndarray:
        """(k, 3) rows of the triples with a subject in ``vs``: by ``vs``, then (p, o)."""
        positions, _ = _gather(self._subject_offsets, np.asarray(vs, dtype=np.intp))
        return self.spo[positions]

    def in_rows(self, vs) -> np.ndarray:
        """(k, 3) rows of the triples with an object in ``vs``: by ``vs``, then (p, s)."""
        vs = np.asarray(vs, dtype=np.intp)
        positions, counts = _gather(self._object_offsets, vs)
        rows = np.empty((len(positions), 3), dtype=self.spo.dtype)
        rows[:, 0] = self._in_s[positions]
        rows[:, 1] = self._in_p[positions]
        rows[:, 2] = np.repeat(vs, counts)
        return rows

    def predicate_columns(self, p: int | None) -> tuple[np.ndarray, np.ndarray]:
        """Subjects and objects of the triples with predicate ``p``, in (s, o) order.

        Read-only slices of the (p, s, o) columns; empty for None.
        """
        if p is None:
            return self._pred_s[:0], self._pred_o[:0]
        lo, hi = self._predicate_offsets[p], self._predicate_offsets[p + 1]
        return self._pred_s[lo:hi], self._pred_o[lo:hi]

    @cached_property
    def triples(self) -> list[tuple[int, int, int]]:
        """Every triple as an (s, p, o) tuple, sorted: a view built on first read."""
        return list(_tuples(self.spo))

    @cached_property
    def type_of(self) -> dict[int, tuple[int, ...]]:
        """Each typed vertex's classes, ascending: a view built on first read."""
        types: dict[int, list[int]] = {}
        subjects, classes = self.predicate_columns(self.type_predicate)
        for s, c in zip(subjects.tolist(), classes.tolist()):
            types.setdefault(s, []).append(c)
        return {v: tuple(cs) for v, cs in types.items()}

    def out_triples(self, v: int) -> list[tuple[int, int, int]]:
        """The triples with subject ``v``, sorted by (predicate, object): a view."""
        lo, hi = self._subject_offsets[v], self._subject_offsets[v + 1]
        return list(_tuples(self.spo[lo:hi]))

    def in_triples(self, v: int) -> list[tuple[int, int, int]]:
        """The triples with object ``v``, sorted by (predicate, subject): a view."""
        lo, hi = self._object_offsets[v], self._object_offsets[v + 1]
        return list(zip(self._in_s[lo:hi].tolist(), self._in_p[lo:hi].tolist(), repeat(int(v))))

    def predicate_triples(self, p: int | None) -> list[tuple[int, int, int]]:
        """The triples with predicate ``p``, sorted by (subject, object); [] for None: a view."""
        subjects, objects = self.predicate_columns(p)
        return list(zip(subjects.tolist(), repeat(p), objects.tolist()))

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

        Built in bulk: both ends of every walk edge packed into one int64
        key, vertex * n + neighbor (n**2 fits, as n < 2**31), one sort of
        the keys and a bincount. A list the adjacency built already is
        kept, and the adjacency gets every other one. That graph is
        symmetric: every neighbor of a vertex has degree at least 1. Built
        once and cached.
        """
        if self._walk_index is None:
            n = len(self._terms)
            keep = ~(self.literal_mask()[self.o] | type_mask(self.p, self.type_predicate))
            s, o = self.s[keep], self.o[keep]
            key = np.concatenate([s, o]).astype(np.int64)
            key *= n
            key += np.concatenate([o, s])
            del s, o, keep
            key.sort()
            heads = (key % n).tolist()
            ends = np.cumsum(np.bincount(key // n, minlength=n)).tolist()
            del key
            lists = self.walk_adjacency(BOTH)._lists
            start = 0
            for v, end in enumerate(ends):
                if lists[v] is None:
                    lists[v] = heads[start:end] or ()
                start = end
            neighbors = list(lists)
            self._walk_index = WalkIndex(neighbors, list(map(len, neighbors)))
        return self._walk_index

    def induced_subgraph(self, vs) -> Subgraph:
        """Subgraph of all non-type triples with both endpoints in ``vs``.

        Every (v, type, c) for v in ``vs`` is retained as well, whether or
        not c is in ``vs``. A vertex of ``vs`` that no retained triple
        touches is not in the result.
        """
        ids = np.fromiter(vs, dtype=np.int64)
        unknown = ids[(ids < 0) | (ids >= len(self._terms))]
        if len(unknown):
            raise UnknownVertex(int(unknown[0]))
        inside = np.zeros(len(self._terms), dtype=bool)
        inside[ids] = True
        keep = inside[self.s] & (inside[self.o] | type_mask(self.p, self.type_predicate))
        return Subgraph(self, self.spo[keep])

    # -- serialization ---------------------------------------------------

    def write_ntriples(self, fh) -> None:
        terms, preds = self._terms, self._preds
        for s, p, o in _tuples(self.spo):
            fh.write(f"{terms[s]} {preds[p]} {terms[o]} .\n")

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

    The first read of a vertex builds its list from its slices of the
    graph's id columns, read through memoryviews, and keeps it, so a walk
    pays only for the vertices it visits; iteration and ``len`` read every
    vertex the same way, and :meth:`KnowledgeGraph.walk_index` fills in
    every list not read yet, in bulk. Only the sorted list is stored, in
    one assignment, so threads racing on a vertex may build its list twice
    but never see a partial one. The adjacency holds those columns, not
    the graph that caches it, so a graph is freed by reference count once
    its last user lets go.
    """

    def __init__(self, kg: KnowledgeGraph, direction: str):
        self._out = (memoryview(kg.p), memoryview(kg.o), memoryview(kg._subject_offsets))
        self._in = None
        if direction == BOTH:
            self._in = (memoryview(kg._in_s), memoryview(kg._in_p), memoryview(kg._object_offsets))
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
            predicates, objects, offsets = self._out
            lo, hi = offsets[v], offsets[v + 1]
            # plain loops: most lists are short, and before CPython 3.12 a
            # comprehension costs a call of its own, more than such a loop
            lst = []
            for p, o in zip(predicates[lo:hi], objects[lo:hi]):
                if p != tp and not is_literal[o]:
                    lst.append(o)
            if self._in is not None and not is_literal[v]:
                subjects, predicates, offsets = self._in
                lo, hi = offsets[v], offsets[v + 1]
                for s, p in zip(subjects[lo:hi], predicates[lo:hi]):
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
    when they come from anywhere but :func:`read_ntriples`. More than
    ``MAX_IDS`` distinct terms, or predicates, raise IdSpaceExhausted.
    """
    terms: dict[str, int] = {}
    preds: dict[str, int] = {}
    ids = array("i")  # the s, p and o ids of each statement in turn
    add, term_id, pred_id = ids.append, terms.setdefault, preds.setdefault
    try:
        for s, p, o in statements:
            add(term_id(s, len(terms)))
            add(pred_id(p, len(preds)))
            add(term_id(o, len(terms)))
    except OverflowError:  # an id past the C int range of the array
        check_id_space(len(terms), len(preds))
        raise
    check_id_space(len(terms), len(preds))
    rows = np.frombuffer(ids, dtype=np.intc).reshape(-1, 3)
    return KnowledgeGraph(terms, preds, rows, type_predicate_iri)


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

    ``triples`` is an (m, 3) id array or an iterable of (s, p, o) id
    triples, in any order and with repeats.
    """
    if triples is kg.spo:  # sorted and unique already
        return Subgraph(kg, kg.spo, provenance or {})
    if isinstance(triples, np.ndarray):
        rows = triples.astype(np.int32, copy=False).reshape(-1, 3)
    else:
        rows = np.fromiter(chain.from_iterable(triples), dtype=np.int32).reshape(-1, 3)
    return Subgraph(kg, sorted_unique_rows(rows), provenance or {})


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

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
(Fernández et al., J. Web Semantics 2013): 28 bytes per triple, and 24
per term for the vertex offsets and the term list. The index is built in
numpy: one sort and an adjacent-row dedup (:func:`sorted_unique_rows`),
one sort of packed row keys per other order (:func:`lex_order`) and three
bincounts. A triple becomes a Python tuple only in the views built for
callers that ask for one. The walk samplers read one more CSR per
direction, of the walk edges, built on first use (:class:`WalkAdjacency`);
no object is kept per vertex.

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
import math
import os
import re
import stat
from array import array
from collections import defaultdict
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, groupby, islice, repeat
from operator import itemgetter
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
# the statement grammar over a block of lines: ^ and $ match at each line's
# ends, and a split gives (separator, s, p, o) per match and a last separator
_STATEMENTS_RE = re.compile(_TRIPLE_RE.pattern, re.MULTILINE)
_UNDECODED_RE = re.compile("[\udc80-\udcff]")
_TERM_RE = re.compile(_OBJECT)
_PREDICATE_RE = re.compile(_IRI)

_GZIP_MAGIC = b"\x1f\x8b"

# characters read and split at a time; small blocks leave the terms a load
# keeps close together in memory, as a line at a time does
_BLOCK_CHARS = 4096
# statements interned at a time when they come as rows, not as text
_BATCH_ROWS = 4096
# hop_distances expands a frontier this wide with array calls, a narrower one vertex by vertex
_WIDE_FRONTIER = 64
_SUBJECT_OF, _PREDICATE_OF, _OBJECT_OF = itemgetter(0), itemgetter(1), itemgetter(2)


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


def _packed_keys(columns) -> np.ndarray | None:
    """One int64 key per row of ``columns``, equal-length arrays of non-negative ids.

    A row's key reads its ids as the digits of a number whose digit ranges
    are the columns' ranges, largest id plus one, the first column the
    most significant, so keys order as the rows do. None when the ranges'
    product passes 2**63, as a key might then not fit.
    """
    ranges = [int(c.max()) + 1 if len(c) else 1 for c in columns]
    if math.prod(ranges) > 2**63:
        return None
    key = columns[0].astype(np.int64)
    for column, size in zip(columns[1:], ranges[1:]):
        key *= size
        key += column
    return key


def lex_order(columns) -> np.ndarray:
    """The order that sorts rows by ``columns``, the first column first.

    ``columns`` are equal-length arrays of non-negative ids. For distinct
    rows this is ``np.lexsort(columns[::-1])``; rows that tie come in any
    order. The rows' packed keys take one plain argsort, several times
    faster than a lexsort (4 against 38 ms on 100k random rows of three
    columns, one 2-vCPU Xeon, numpy 2.4); when the columns' ranges
    multiply past 2**63, the columns are lexsorted.
    """
    key = _packed_keys(columns)
    if key is None:
        return np.lexsort(columns[::-1])
    return np.argsort(key)


def sorted_unique_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of an (m, 3) array of non-negative ids, sorted by (s, p, o).

    When the id ranges allow, each row packs into one int64 key
    (:func:`lex_order`), sorted and compared for the dedup; otherwise the
    rows are lexsorted. Either way a row is dropped when it equals the row
    before it.
    """
    if not len(rows):
        return rows[:0].copy()
    key = _packed_keys(rows.T)
    if key is not None:
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


def id_array(ids) -> np.ndarray:
    """An id array or any iterable of ids as an int64 array."""
    if isinstance(ids, np.ndarray):
        return ids.astype(np.int64, copy=False)
    return np.fromiter(ids, dtype=np.int64)


def _offsets(ids: np.ndarray, n: int) -> np.ndarray:
    """CSR offsets of ``ids`` over 0..n-1: sorted, id i holds ``offsets[i]:offsets[i + 1]``."""
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=n), out=offsets[1:])
    return _read_only(offsets)


def csr(tails: np.ndarray, heads: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The edges ``tails[i] -> heads[i]`` over ids 0..n-1 as read-only CSR arrays.

    Returns int64 ``offsets`` and int32 ``neighbours``: the heads of
    ``v``'s edges are ``neighbours[offsets[v]:offsets[v + 1]]``,
    ascending, one entry per edge, so a parallel edge repeats its head.
    Ids are non-negative and below ``n``, and ``n`` is below 2**31. The
    edges are sorted as one int64 key each, ``tail * n + head``, built,
    sorted and cut back to its head in place, then narrowed to int32. The
    offsets come first, as ``bincount`` may copy int32 tails to int64, so
    at most one int64 array the size of the edges is alive at a time here.
    """
    offsets = _offsets(tails, n)
    key = tails.astype(np.int64)
    key *= n
    key += heads
    key.sort()
    np.remainder(key, n, out=key)
    return offsets, _read_only(key.astype(np.int32))


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
    tracked in ``node_type_ids``, not in ``vertices``. ``vertex_ids`` holds
    the same vertices as a sorted array, and a position in it is a
    vertex's slice-local id. Every operation on a slice works in that
    dense id space, so its arrays follow the slice, not the parent:
    ``entity`` marks the non-literal vertices, read by the metrics, the
    validator and ``entity_vertices``, and :meth:`restricted` cuts the
    slice to a vertex subset, as the ``ibs`` stray pruning and the
    validator's reach pruning do, without a mask over the parent.

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
        return frozenset(self.vertex_ids.tolist())

    @cached_property
    def triples(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(_tuples(self.spo))

    @cached_property
    def non_type_triples(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(_tuples(self.non_type_spo))

    @cached_property
    def type_triples(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(_tuples(self.type_spo))

    def local_ids(self, ids) -> np.ndarray:
        """Slice-local ids of those parent ``ids`` that are slice vertices.

        A slice-local id is a position in ``vertex_ids``; ids outside the
        slice are dropped, the rest keep their order.
        """
        vs = self.vertex_ids
        ids = id_array(ids)
        pos = np.searchsorted(vs, ids)
        hit = pos < len(vs)
        hit[hit] = vs[pos[hit]] == ids[hit]
        return pos[hit]

    @cached_property
    def local_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Subjects and objects of the non-type triples as slice-local ids, read-only int32."""
        vs, rows = self.vertex_ids, self.non_type_spo
        # ascending keys walk vs once: search the sorted objects, scatter back to row order
        order = np.argsort(rows[:, 2])
        o = np.empty(len(rows), dtype=np.int32)
        o[order] = np.searchsorted(vs, rows[order, 2])
        return _read_only(np.searchsorted(vs, rows[:, 0]).astype(np.int32)), _read_only(o)

    def undirected_distances(self, sources) -> np.ndarray:
        """:func:`hop_distances` from ``sources`` over the non-type triples viewed undirected.

        ``sources`` are parent ids; those outside the slice are ignored.
        The result is aligned with ``vertex_ids``: the hop level of each
        slice vertex, -1 where no source reaches it.
        """
        s, o = self.local_edges
        return hop_distances(
            np.concatenate([s, o]), np.concatenate([o, s]), self.local_ids(sources),
            n=len(self.vertex_ids),
        )

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
        """``vertices`` as a read-only id array, ascending.

        A vertex's position here is its slice-local id, the id space of
        :meth:`local_ids`, :attr:`local_edges` and
        :meth:`undirected_distances`.
        """
        return _read_only(distinct(np.concatenate([self.spo[:, 0], self.non_type_spo[:, 2]])))

    @cached_property
    def entity(self) -> np.ndarray:
        """Which slice vertices, by slice-local id, are not literals; read-only."""
        return _read_only(~self.kg.literal_mask()[self.vertex_ids])

    def entity_vertices(self) -> list[int]:
        """Sorted non-literal members of the entity view."""
        return self.vertex_ids[self.entity].tolist()

    def restricted(self, keep) -> "Subgraph":
        """This subgraph cut down to the parent ids ``keep``, any iterable.

        Non-type triples need both endpoints kept; type triples follow
        their subject. Unlike induced_subgraph this never reaches back
        into the parent graph for triples the extraction did not retain.
        Of a slice induced on a vertex set, the cut to any subset of its
        vertices equals the parent's induced subgraph of that subset.
        """
        inside = np.zeros(len(self.vertex_ids), dtype=bool)
        inside[self.local_ids(keep)] = True
        retained = inside[np.searchsorted(self.vertex_ids, self.spo[:, 0])]
        retained[~self._is_type] &= inside[self.local_edges[1]]
        return Subgraph(self.kg, self.spo[retained], dict(self.provenance))

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
    triple once, sorted; ``s``, ``p`` and ``o`` are views of its columns.
    The (o, p, s) order keeps its subject and predicate columns, the
    (p, s, o) order its subject and object columns, and CSR offsets over
    vertex and predicate ids make the triples of one subject, object or
    predicate one slice: :meth:`out_rows` and :meth:`in_rows` gather the
    slices of many vertices at once as (k, 3) rows, and
    :meth:`predicate_columns` returns one predicate's slice. A class's
    instances are the type predicate's run in its (o, p, s) slice.

    ``triples``, ``type_of``, :meth:`out_triples`, :meth:`in_triples` and
    :meth:`predicate_triples` are views in tuples, built on demand for
    tests, oracles and the benchmark: ``triples`` and ``type_of`` once, on
    first read, at about a tuple per triple (``triples`` takes 28 MB for
    204k triples, against 7 MB for all the id arrays); the three
    accessors on every call, for the one slice they return. No
    extraction, metric or export reads them.

    Construction happens through :func:`build_graph` (which
    :func:`ingest_ntriples` calls); afterwards the instance is read-only
    and safe to share across threads. The literal mask, each direction's
    walk CSR and the walk index are built on first use; threads racing to
    build one may both build it, with equal results.
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
        self.s, self.p, self.o = self.spo.T
        # the triples are distinct, so each order is one sort of packed keys
        by_predicate = lex_order((self.p, self.s, self.o))
        self._pred_s, self._pred_o = (_read_only(c[by_predicate]) for c in (self.s, self.o))
        del by_predicate
        by_object = lex_order((self.o, self.p, self.s))
        self._in_s, self._in_p = (_read_only(c[by_object]) for c in (self.s, self.p))
        del by_object
        self._subject_offsets = _offsets(self.s, n)
        self._object_offsets = _offsets(self.o, n)
        self._predicate_offsets = _offsets(self.p, len(self._preds))
        self._walk_adj: dict[str, WalkAdjacency] = {}
        self._walk_index: WalkIndex | None = None
        self._literal_mask: np.ndarray | None = None

    # -- dictionary ----------------------------------------------------

    def vertex_count(self) -> int:
        return len(self._terms)

    def triple_count(self) -> int:
        return len(self.spo)

    def term(self, v: int) -> str:
        return self._terms[v]

    @property
    def terms(self) -> list[str]:
        """Every vertex's surface form, by vertex id: the graph's own list, not to be changed."""
        return self._terms

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
            self._instances(c)
        except (UnknownVertex, UnknownType):
            raise UnknownType(iri_or_surface) from None
        return c

    def type_count(self) -> int:
        """Number of classes: vertices whose (o, p, s) slice holds a type-predicate run."""
        rows = np.flatnonzero(type_mask(self._in_p, self.type_predicate))
        return len(distinct(np.searchsorted(self._object_offsets, rows, side="right")))

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

    def _instances(self, c: int) -> np.ndarray:
        """Instances of class ``c``, ascending: the type triples' run of its (o, p, s) slice.

        That slice is sorted by (p, s). UnknownType if ``c`` is no vertex id or no class.
        """
        tp = self.type_predicate
        if tp is not None and 0 <= c < len(self._terms):
            lo, hi = self._object_offsets[c], self._object_offsets[c + 1]
            start, end = lo + self._in_p[lo:hi].searchsorted((tp, tp + 1))
            if start < end:
                return self._in_s[start:end]
        raise UnknownType(c)

    def vertices_of_type(self, c: int) -> list[int]:
        """Instances of the class vertex ``c``, ascending; UnknownType if ``c`` is no class."""
        return self._instances(c).tolist()

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
        subjects, classes = self.predicate_columns(self.type_predicate)
        pairs = groupby(zip(subjects.tolist(), classes.tolist()), key=_SUBJECT_OF)
        return {v: tuple(c for _, c in group) for v, group in pairs}

    def out_triples(self, v: int) -> list[tuple[int, int, int]]:
        """The triples with subject ``v``, sorted by (predicate, object): a view."""
        return list(_tuples(self.out_rows([v])))

    def in_triples(self, v: int) -> list[tuple[int, int, int]]:
        """The triples with object ``v``, sorted by (predicate, subject): a view."""
        return list(_tuples(self.in_rows([v])))

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
        """The ``both`` :meth:`walk_adjacency` as lists indexed by vertex id.

        Every list is cut in one pass from the adjacency's CSR. That graph
        is symmetric: every neighbor of a vertex has degree at least 1.
        Built once and cached; the adjacency keeps no list.
        """
        if self._walk_index is None:
            adj = self.walk_adjacency(BOTH)
            heads, bounds = adj.neighbours.tolist(), adj.offsets.tolist()
            # (): no list, shared instead of one empty list per vertex
            neighbors = [heads[lo:hi] or () for lo, hi in zip(bounds, bounds[1:])]
            self._walk_index = WalkIndex(neighbors, np.diff(adj.offsets).tolist())
        return self._walk_index

    def induced_subgraph(self, vs) -> Subgraph:
        """Subgraph of all non-type triples with both endpoints in ``vs``.

        Every (v, type, c) for v in ``vs`` is retained as well, whether or
        not c is in ``vs``. A vertex of ``vs`` that no retained triple
        touches is not in the result.
        """
        ids = id_array(vs)
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
    """The walk lists of one direction, a read-only mapping from vertex id to list.

    ``adj[v]`` lists the objects of ``v``'s triples, and for ``both`` also
    the subjects of the triples into ``v``, in ascending order.
    Type-assertion edges and edges to or from literals are excluded;
    parallel edges and self-loops keep their multiplicity, so a uniform
    choice over the list is a uniform choice over edges. A vertex with no
    such edge has no list: ``adj.get(v)`` returns None.

    The walk edges are selected once, when the adjacency is made, and
    become one :func:`csr`, all the adjacency holds: ``offsets`` and
    ``neighbours`` are read-only memoryviews of its arrays, the list of
    ``v`` being ``neighbours[offsets[v]:offsets[v + 1]]``. ``adj[v]`` is a
    fresh list cut from them, and iteration and ``len`` read the degrees.
    It holds its CSR, not the graph that caches it, so a graph is freed
    by reference count once its last user lets go.
    """

    def __init__(self, kg: KnowledgeGraph, direction: str):
        walk = ~(kg.literal_mask()[kg.o] | type_mask(kg.p, kg.type_predicate))
        tails, heads = kg.s[walk], kg.o[walk]
        if direction == BOTH:
            tails, heads = np.concatenate([tails, heads]), np.concatenate([heads, tails])
        offsets, neighbours = csr(tails, heads, kg.vertex_count())
        self.offsets, self.neighbours = memoryview(offsets), memoryview(neighbours)

    def __getitem__(self, v) -> list[int]:
        offsets = self.offsets
        # a memoryview wraps a negative index: check the range first
        if 0 <= v < len(offsets) - 1 and offsets[v] < offsets[v + 1]:
            return self.neighbours[offsets[v]:offsets[v + 1]].tolist()
        raise KeyError(v)

    def __iter__(self):
        return iter(np.flatnonzero(np.diff(self.offsets)).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(np.diff(self.offsets)))


def _parse_lines(lines, lineno: int, errors: list[ParseError] | None):
    """Yield the (s, p, o) groups of each statement among ``lines``, numbered from ``lineno``.

    Blank lines and ``#`` comments are skipped. A malformed line is appended
    to ``errors`` as a :class:`ParseError` and skipped, or raised when
    ``errors`` is None.
    """
    for lineno, line in enumerate(lines, start=lineno):
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


def _columns(rows: list):
    """(s, p, o) rows as ``(ends, predicates)``: each subject and object in turn, each predicate."""
    ends = [None] * (2 * len(rows))
    ends[::2] = map(_SUBJECT_OF, rows)
    ends[1::2] = map(_OBJECT_OF, rows)
    return ends, map(_PREDICATE_OF, rows)


def _blocks(text):
    """The text in blocks of whole lines, about ``_BLOCK_CHARS`` each, without their final newline.

    A line longer than a block makes one block of its own.
    """
    pending = []
    while chunk := text.read(_BLOCK_CHARS):
        cut = chunk.rfind("\n")
        if cut < 0:
            pending.append(chunk)
            continue
        pending.append(chunk[:cut])
        yield "".join(pending)
        pending = [chunk[cut + 1:]]
    tail = "".join(pending)
    if tail:
        yield tail


def _ntriples_columns(source, errors: list[ParseError] | None):
    """The statements of N-Triples bytes or a binary stream as ``(ends, predicates)`` batches.

    One batch per block of lines, in order; see :func:`read_ntriples`. A
    block whose every line is a statement is split by one regex call, and
    its columns are slices of the split. Any other block, and the lines
    before an invalid UTF-8 byte, go through :func:`_parse_lines`.
    """
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    # universal newlines end a line at CR, LF and CRLF only, as N-Triples
    # does; str.splitlines would also split at characters a literal may hold
    # raw (\x0b, \x0c, \x1c-\x1e, \x85, \u2028, \u2029). An invalid byte
    # decodes to a lone surrogate, so it is found at its line
    text = io.TextIOWrapper(source, encoding="utf-8", errors="surrogateescape")
    lineno = 1
    try:
        for block in _blocks(text):
            lines = block.count("\n") + 1
            bad = None if block.isascii() else _UNDECODED_RE.search(block)
            if bad is not None:
                head = block[:bad.start()].split("\n")
                yield _columns(list(_parse_lines(head[:-1], lineno, errors)))
                raise IoFailure(
                    f"input is not valid UTF-8: byte 0x{ord(bad.group()) - 0xDC00:02x} "
                    f"on line {lineno + len(head) - 1}"
                )
            # a match spans one line or more, and starts a line: one match
            # per line means every line is a statement
            parts = _STATEMENTS_RE.split(block)
            if len(parts) == 4 * lines + 1:
                yield parts[1::2], parts[2::4]
            else:
                yield _columns(list(_parse_lines(block.split("\n"), lineno, errors)))
            lineno += lines
    finally:
        # hand the stream back open; a caller that abandoned this generator
        # may have closed it already, and detaching would then fail to flush
        if not source.closed:
            text.detach()


def read_ntriples(source, errors: list[ParseError] | None = None):
    """Yield the (subject, predicate, object) surface forms of each statement.

    ``source`` is bytes or a binary stream, decoded as UTF-8 and read a
    block of lines at a time. Blank lines and ``#`` comments are skipped. A
    malformed line is appended to ``errors`` as a :class:`ParseError` and
    skipped, or raised when ``errors`` is None. Reading stops at the first
    invalid UTF-8 byte with :class:`IoFailure` naming its line, whatever
    ``errors`` is; the lines before it are read as usual, so with ``errors``
    None a malformed line before that byte raises its ParseError and one
    after it is never reached.
    """
    for ends, predicates in _ntriples_columns(source, errors):
        # zip takes from its arguments left to right: subject, predicate, object
        ends = iter(ends)
        yield from zip(ends, predicates, ends)


def _statement_columns(statements):
    """(s, p, o) statements as ``(ends, predicates)`` batches of at most ``_BATCH_ROWS`` rows."""
    rows = iter(statements)
    while batch := list(islice(rows, _BATCH_ROWS)):
        yield _columns(batch)


def id_table() -> defaultdict[str, int]:
    """A dict in which a missing key is added with the dict's length as its id."""
    table: defaultdict[str, int] = defaultdict()
    table.default_factory = table.__len__
    return table


def _intern(batches, type_predicate_iri: str) -> KnowledgeGraph:
    """A KnowledgeGraph from ``(ends, predicates)`` batches of surface forms.

    ``ends`` holds each statement's subject and object in turn. Each column
    is interned whole, in C: terms and predicates are keys of a dict each,
    where a missing key is added with the dict's length as its id, so ids
    follow first encounter. More than ``MAX_IDS`` distinct terms, or
    predicates, raise IdSpaceExhausted.
    """
    terms, preds = id_table(), id_table()
    end_ids, pred_ids = array("i"), array("i")
    try:
        for ends, predicates in batches:
            end_ids.extend(map(terms.__getitem__, ends))
            pred_ids.extend(map(preds.__getitem__, predicates))
    except OverflowError:  # an id past the C int range of the array
        check_id_space(len(terms), len(preds))
        raise
    check_id_space(len(terms), len(preds))
    # the graph looks terms up with get, but a lookup by [] must not add one
    terms.default_factory = preds.default_factory = None
    rows = np.empty((len(pred_ids), 3), dtype=np.int32)
    rows[:, ::2] = np.frombuffer(end_ids, dtype=np.intc).reshape(-1, 2)
    rows[:, 1] = np.frombuffer(pred_ids, dtype=np.intc)
    del end_ids, pred_ids  # freed before the index build allocates its own
    return KnowledgeGraph(terms, preds, rows, type_predicate_iri)


def build_graph(statements, type_predicate_iri: str = RDF_TYPE) -> KnowledgeGraph:
    """A KnowledgeGraph from (subject, predicate, object) surface forms.

    Terms and predicates get dense ids in first-encounter order, each in
    its own id space; duplicate statements collapse to one triple. The
    surfaces are taken as they are: :func:`ingest_ntriples` checks them
    when they come from anywhere but :func:`read_ntriples`. The statements
    are read in bounded batches, never listed whole. More than
    ``MAX_IDS`` distinct terms, or predicates, raise IdSpaceExhausted.
    """
    return _intern(_statement_columns(statements), type_predicate_iri)


@dataclass(eq=False)
class EncodedStatements:
    """Statements as id rows over two tables of surface forms, a source for :func:`ingest_ntriples`.

    Row ``(s, p, o)`` of ``rows``, an (m, 3) integer array in any order
    and with repeats, is the statement ``(terms[s], predicates[p],
    terms[o])``; each table holds distinct surfaces and may hold some no
    row uses. Building the graph takes ``rows`` and leaves None there, so
    a caller that hands over its only reference to the rows has them
    freed before the graph allocates its orders.
    """

    terms: list[str]
    predicates: list[str]
    rows: np.ndarray | None


def _string_ranks(surfaces: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Each surface's rank in string order, by id, and the ids in that order."""
    order = np.array(sorted(range(len(surfaces)), key=surfaces.__getitem__), dtype=np.intp)
    rank = np.empty(len(surfaces), dtype=np.int32)
    rank[order] = np.arange(len(surfaces), dtype=np.int32)
    return rank, order


def _first_encounter(ranks: np.ndarray, order: np.ndarray, surfaces: list[str]):
    """Ids for the ranks in ``ranks`` in first-encounter order, as an array by rank, and their surfaces.

    Each rank's first position is one ``np.minimum.at`` scatter: 1.5 ms
    for 312k ranks of 36k terms, against 20 ms for the stable sort of
    ``np.unique(..., return_index=True)`` (one 2-vCPU Xeon, numpy 2.4).
    """
    first = np.full(len(order), len(ranks), dtype=np.int64)
    np.minimum.at(first, ranks, np.arange(len(ranks)))
    met = np.flatnonzero(first < len(ranks))
    met = met[np.argsort(first[met])]
    ids = np.empty(len(order), dtype=np.int32)
    ids[met] = np.arange(len(met), dtype=np.int32)
    return ids, list(map(surfaces.__getitem__, order[met].tolist()))


def _encoded_graph(source: EncodedStatements, type_predicate_iri: str) -> KnowledgeGraph:
    """The graph :func:`build_graph` makes of ``source``'s statements, sorted and unique.

    Each term and predicate is ranked in string order, so the ranked rows'
    :func:`sorted_unique_rows` are the sorted unique surface rows. Ids
    then follow first encounter over those rows, read subject, predicate,
    object, as :func:`build_graph` hands them out, and no statement
    becomes a tuple of strings.
    """
    rows, source.rows = source.rows, None
    term_rank, term_order = _string_ranks(source.terms)
    pred_rank, pred_order = _string_ranks(source.predicates)
    ranked = np.empty((len(rows), 3), dtype=np.int32)
    ranked[:, ::2] = term_rank[rows[:, ::2]]
    ranked[:, 1] = pred_rank[rows[:, 1]]
    del rows, term_rank, pred_rank
    ranked = sorted_unique_rows(ranked)
    # each row's subject, then its object: the order build_graph interns ends in
    term_ids, terms = _first_encounter(ranked[:, ::2].ravel(), term_order, source.terms)
    pred_ids, preds = _first_encounter(ranked[:, 1], pred_order, source.predicates)
    ranked[:, ::2] = term_ids[ranked[:, ::2]]
    ranked[:, 1] = pred_ids[ranked[:, 1]]
    del term_ids, pred_ids, term_order, pred_order
    return KnowledgeGraph(
        dict(zip(terms, range(len(terms)))), dict(zip(preds, range(len(preds)))), ranked,
        type_predicate_iri,
    )


def ingest_ntriples(
    source,
    type_predicate_iri: str = RDF_TYPE,
    strict: bool = False,
) -> tuple[KnowledgeGraph, list[ParseError]]:
    """A KnowledgeGraph from N-Triples bytes or a binary stream, or from statements.

    Duplicate statements collapse to one triple. Bytes or a stream are read
    as :func:`read_ntriples` reads them, its columns interned without a
    tuple per statement: malformed lines are collected as
    :class:`ParseError` records and skipped unless ``strict`` is set, in
    which case the first one is raised; invalid UTF-8 raises
    :class:`IoFailure` in either mode, unless strict mode met a malformed
    line before it. Any other ``source`` is an iterable of (subject,
    predicate, object) surface forms, numbered in first-encounter order as
    they come, or dictionary-encoded :class:`EncodedStatements`, ranked,
    deduplicated and sorted as id arrays and numbered in first-encounter
    order over the sorted unique statements, as those statements given
    sorted would be. Either way the surfaces are taken as they are and
    then checked once per distinct term with
    :meth:`KnowledgeGraph.malformed_term`; a term N-Triples forbids where it
    occurs raises :class:`MalformedTerm` whatever ``strict`` says, so the
    errors list is then always empty.
    """
    errors: list[ParseError] = []
    if isinstance(source, bytes) or hasattr(source, "read"):
        kg = _intern(_ntriples_columns(source, None if strict else errors), type_predicate_iri)
        return kg, errors
    if isinstance(source, EncodedStatements):
        kg = _encoded_graph(source, type_predicate_iri)
    else:
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


def _truncate_here(fd: int) -> None:
    """Cut a regular file at ``fd``'s position; a pipe, terminal or device is left as it is."""
    if stat.S_ISREG(os.fstat(fd).st_mode):
        os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


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
            fh.flush()
            _truncate_here(fh.fileno())


def write_over(path, chunks) -> None:
    """Write the bytes ``chunks`` to ``path`` as :func:`open_for_rewrite` would, unbuffered.

    Each chunk goes to the file descriptor in one ``os.write`` call (more
    after a short write), with no file object around it: a bundle's
    thousands of small files each cost one open, write, truncate and
    close. The file ends up holding exactly the bytes written, also when
    a chunk raises or a write fails.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        for data in chunks:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
    finally:
        try:
            _truncate_here(fd)
        finally:
            os.close(fd)


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


def hop_distances(
    tails, heads, sources, max_hops: int | None = None, n: int = 0
) -> np.ndarray:
    """Hop level of each vertex from the nearest source, breadth first.

    Edge ``i`` leads from ``tails[i]`` to ``heads[i]``; pass both
    orientations of each edge for an undirected view. Duplicate edges and
    self-loops are harmless. Ids are non-negative and below 2**31. The
    result is an int32 array over ids 0..N-1, N the largest of ``n`` and
    every edge end and source plus one: sources at level 0, every vertex
    within ``max_hops`` of a source (every reachable one when None) at
    its hop count, and -1 for the rest. A negative ``max_hops`` raises
    ValueError. Callers number their vertices densely first (slices use
    positions in ``Subgraph.vertex_ids``), so the array is the size of
    the graph walked.

    The edges become one :func:`csr`, and each level picks how to expand
    its frontier from the frontier's size, as the direction-optimizing
    BFS of Beamer et al. (SC 2012) picks its direction per level. A
    frontier of at least ``_WIDE_FRONTIER`` vertices is expanded in numpy:
    its CSR slices gathered, the unvisited heads kept and deduplicated. A
    narrower one is expanded vertex by vertex, through memoryviews of the
    CSR, so a long path pays no round of array calls per level (a numpy
    round for every level took 2.48 s on a 200k-vertex path, against
    0.11 s). Either way a level reaches the same vertices, so the levels
    do not depend on the choice. Past the CSR's sort the work is
    O(N + E).
    """
    if max_hops is not None and max_hops < 0:
        raise ValueError(f"max_hops must be >= 0 or None, got {max_hops}")
    # id arrays go to csr as they come, int32 ones uncopied
    tails, heads = (a if isinstance(a, np.ndarray) else id_array(a) for a in (tails, heads))
    if tails.shape != heads.shape:
        raise ValueError(f"{len(tails)} tails but {len(heads)} heads")
    sources = distinct(id_array(sources))
    n = max([n, *(int(a.max()) + 1 for a in (tails, heads, sources) if len(a))])
    offsets, nbrs = csr(tails, heads, n)
    levels = np.full(n, -1, dtype=np.int32)
    levels[sources] = 0
    offset, nbr, level = memoryview(offsets), memoryview(nbrs), memoryview(levels)
    # an id array at the start and after a wide level, a list after a narrow one
    frontier = sources
    hops = 0
    while len(frontier) and hops != max_hops:
        hops += 1
        if len(frontier) >= _WIDE_FRONTIER:
            positions, _ = _gather(offsets, id_array(frontier))
            reached = nbrs[positions]
            frontier = distinct(reached[levels[reached] < 0])
            levels[frontier] = hops
            continue
        reached = []
        for u in frontier:
            for w in nbr[offset[u]:offset[u + 1]]:
                if level[w] < 0:
                    level[w] = hops
                    reached.append(w)
        frontier = reached
    return levels

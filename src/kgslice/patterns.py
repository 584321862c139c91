"""Graph-pattern queries over target neighborhoods.

A pattern query is a union of independently executable branch
sub-queries, one per hop shape: a tuple of edge directions ("out" or
"in") walked from a target. ``d`` picks the directions (1 = outgoing
only, 2 = both), ``h`` the hop radius (1 or 2); the branches cover every
shape of 1 to h hops. The last hop of a shape is the edge it returns.
Every hop branch selects distinct rows (SPARQL 1.1 Query Language, §15.3),
so a hub reached from many targets returns its edges once per branch,
not once per target. Each branch can be rendered as standalone SPARQL
(for an endpoint) or evaluated directly against a local KnowledgeGraph
and paged with the same LIMIT/OFFSET arithmetic over a fixed row order,
which makes paginated execution testable without a server.

For link prediction the query joins the per-type sub-patterns of the two
endpoint types through the task's bridge predicate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import UnknownPredicate, UnknownType, UnsupportedParams
from .graph import RDF_TYPE, KnowledgeGraph, distinct, type_mask
from .tasks import LINK_PREDICTION, NODE_CLASSIFICATION, TaskSpec

BRIDGE = "bridge"  # shape of the LP branch that returns the bridge edges

SUBJECT_SIDE = "subject"
OBJECT_SIDE = "object"


@dataclass
class PatternTask:
    """IRI-level view of a task, resolvable without a local graph."""

    kind: str
    target_type_iri: str
    target_predicate_iri: str | None = None
    object_type_iri: str | None = None
    type_predicate_iri: str = RDF_TYPE


def pattern_task_for(kg: KnowledgeGraph, task: TaskSpec) -> PatternTask:
    return PatternTask(
        kind=task.kind,
        target_type_iri=kg.lexical(task.target_type),
        target_predicate_iri=(
            kg.predicate_iri(task.target_predicate)
            if task.target_predicate is not None
            else None
        ),
        object_type_iri=kg.lexical(task.object_type) if task.object_type is not None else None,
        type_predicate_iri=kg.type_predicate_iri,
    )


@dataclass(frozen=True)
class Branch:
    shape: tuple[str, ...] | str  # hop directions ("out"/"in") in order, or BRIDGE
    side: str | None  # None for NC, else subject/object anchor of an LP task
    select_clause: str
    where_text: str

    @property
    def text(self) -> str:
        return f"{self.select_clause} where {{ {self.where_text} }}"

    def count_query(self, graph_iri: str | None = None) -> str:
        scope = f"from <{graph_iri}> " if graph_iri else ""
        return f"select (count(*) as ?c) {scope}where {{ {{ {self.text} }} }}"

    def page_query(self, limit: int, offset: int, graph_iri: str | None = None) -> str:
        scope = f"from <{graph_iri}> " if graph_iri else ""
        return (
            f"{self.select_clause} {scope}where {{ {self.where_text} }} "
            f"order by ?s ?p ?o limit {limit} offset {offset}"
        )


@dataclass
class BgpQuery:
    task: PatternTask
    d: int
    h: int
    full_text: str
    branches: list[Branch] = field(default_factory=list)


# Expansion hops never traverse the type-assertion predicate and edges
# arriving at a reached vertex are only retained for real relations:
# type triples enter a result solely as attributes of reached vertices.
# That keeps every extracted vertex path-connected to a target (the
# whole point of the pattern) instead of chaining through class IRIs.
# The executable branch texts carry the matching FILTERs; the h=1
# display form of the NC query and the LP union arms leave them off.
def _render(shape: tuple[str, ...], anchor: str, tp: str) -> tuple[str, str, str, str]:
    """SPARQL pieces of a hop shape walked from ``anchor``.

    Returns (projection, bind, triple patterns, FILTER). Expansion hop i
    binds ``?pi`` and ``?oi`` (outgoing) or ``?si`` (incoming); the last
    hop matches ``?s ?p ?o`` with the vertex it leaves from standing in for
    ``?s`` or ``?o``, which ``bind`` states as ``"?x as ?s"`` or
    ``"?x as ?o"``. The FILTER is empty or starts with a space.
    """
    var, patterns, conditions = anchor, [], []
    for i, hop in enumerate(shape[:-1], 1):
        if hop == "out":
            patterns.append(f"{var} ?p{i} ?o{i} .")
            var = f"?o{i}"
        else:
            patterns.append(f"?s{i} ?p{i} {var} .")
            var = f"?s{i}"
        conditions.append(f"?p{i} != <{tp}>")
    if shape[-1] == "out":
        patterns.append(f"{var} ?p ?o .")
        bind = f"{var} as ?s"
        projection = f"{bind} ?p ?o"
    else:
        patterns.append(f"?s ?p {var} .")
        conditions.append(f"?p != <{tp}>")
        bind = f"{var} as ?o"
        projection = f"?s ?p {bind}"
    filt = f" filter ({' && '.join(conditions)})" if conditions else ""
    return projection, bind, " ".join(patterns), filt


def check_pattern_shape(d: int, h: int) -> None:
    """Raise UnsupportedParams unless d (direction) and h (hops) are each 1 or 2."""
    if d not in (1, 2):
        raise UnsupportedParams(f"d must be 1 or 2, got {d}")
    if h not in (1, 2):
        raise UnsupportedParams(f"h must be 1 or 2, got {h}")


def get_bgp(task: PatternTask, d: int, h: int) -> BgpQuery:
    """Build the pattern query for (d, h); h is capped at 2."""
    check_pattern_shape(d, h)
    dirs = ("out",) if d == 1 else ("out", "in")
    shapes = [shape for n in range(1, h + 1) for shape in itertools.product(dirs, repeat=n)]
    tp = task.type_predicate_iri
    a = "a" if tp == RDF_TYPE else f"<{tp}>"  # the anchor's type assertion

    if task.kind == NODE_CLASSIFICATION:
        prefix = f"?v {a} <{task.target_type_iri}> ."
        branches, display = [], []
        for shape in shapes:
            projection, _, patterns, filt = _render(shape, "?v", tp)
            branches.append(
                Branch(shape, None, f"select distinct {projection}", f"{prefix} {patterns}{filt}")
            )
            display.append(f"select {projection} where {{ {prefix} {patterns} }}")
        parts = display if h == 1 else [b.text for b in branches]
        full = "select ?s ?p ?o { " + " union ".join(parts) + " }"
        return BgpQuery(task=task, d=d, h=h, full_text=full, branches=branches)

    if task.kind != LINK_PREDICTION:
        raise UnsupportedParams(f"unsupported task kind {task.kind!r}")
    if task.target_predicate_iri is None:
        raise UnsupportedParams("link prediction pattern needs a bridge predicate")

    pt = task.target_predicate_iri
    prefix = f"?vi {a} <{task.target_type_iri}> . "
    if task.object_type_iri:
        prefix += f"?vj {a} <{task.object_type_iri}> . "
    prefix += f"?vi <{pt}> ?vj ."

    branches = [Branch(BRIDGE, None, f"select ?vi as ?s <{pt}> as ?p ?vj as ?o", prefix)]
    arms = ["{ bind (?vi as ?s) bind (<" + pt + "> as ?p) bind (?vj as ?o) }"]
    for side, var in ((SUBJECT_SIDE, "?vi"), (OBJECT_SIDE, "?vj")):
        for shape in shapes:
            projection, bind, patterns, filt = _render(shape, var, tp)
            branches.append(
                Branch(shape, side, f"select distinct {projection}", f"{prefix} {patterns}{filt}")
            )
            arms.append(f"{{ {patterns} bind ({bind}) }}")
    full = "select ?s ?p ?o where { " + prefix + " " + " union ".join(arms) + " }"
    return BgpQuery(task=task, d=d, h=h, full_text=full, branches=branches)


class LocalBackend:
    """Evaluates pattern branches directly on a KnowledgeGraph.

    Branch rows are an (m, 3) int32 array of id triples, enumerated once
    and memoized. Each expansion hop gathers the CSR slices of a distinct,
    ascending frontier, and every row fixes the frontier vertex it leaves
    from (its subject on an outgoing last hop, its object on an incoming
    one), so a branch's rows are its distinct solutions, in a fixed order:
    frontier ascending, each vertex's slice in (p, o) or (p, s) order. A
    LIMIT/OFFSET page is a slice of those rows, so a branch's pages tile
    it exactly.
    """

    def __init__(self, kg: KnowledgeGraph):
        self.kg = kg
        self._cache: dict[Branch, np.ndarray] = {}

    def describe(self) -> str:
        return "local"

    def _type_instances(self, type_iri: str) -> list[int]:
        try:
            tid = self.kg.type_id(type_iri)
        except UnknownType:
            return []
        return self.kg.vertices_of_type(tid)

    def _lp_anchors(self, bgp: BgpQuery) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Subject anchors, object anchors and the bridge rows, each ascending."""
        kg = self.kg
        task = bgp.task
        try:
            pt = kg.predicate_id(task.target_predicate_iri)
        except UnknownPredicate:
            pt = None
        subjects, objects = kg.predicate_columns(pt)
        ok = np.zeros(kg.vertex_count(), dtype=bool)
        ok[self._type_instances(task.target_type_iri)] = True
        keep = ok[subjects]
        if task.object_type_iri:
            ok[:] = False
            ok[self._type_instances(task.object_type_iri)] = True
            keep &= ok[objects]
        subjects, objects = subjects[keep], objects[keep]
        # the predicate's slice is in (s, o) order and unique: so are the
        # bridges (none when the predicate is unknown)
        bridges = np.column_stack([subjects, np.full_like(subjects, pt or 0), objects])
        return distinct(subjects), distinct(objects), bridges

    def _emit(self, anchors, shape: tuple[str, ...]) -> np.ndarray:
        """Rows of ``shape`` walked from ``anchors``, with the FILTERs of _render.

        The rows are distinct when the anchors are: see the class docstring.
        """
        kg = self.kg
        tp = kg.type_predicate
        for hop in shape[:-1]:
            rows, far = (kg.out_rows(anchors), 2) if hop == "out" else (kg.in_rows(anchors), 0)
            anchors = distinct(rows[~type_mask(rows[:, 1], tp), far])
        if shape[-1] == "out":
            return kg.out_rows(anchors)
        rows = kg.in_rows(anchors)
        return rows[~type_mask(rows[:, 1], tp)]

    def _branch_rows(self, bgp: BgpQuery, index: int) -> np.ndarray:
        branch = bgp.branches[index]
        cached = self._cache.get(branch)
        if cached is not None:
            return cached
        if bgp.task.kind == NODE_CLASSIFICATION:
            anchors = self._type_instances(bgp.task.target_type_iri)
            rows = self._emit(anchors, branch.shape)
        else:
            subjects, objects, bridges = self._lp_anchors(bgp)
            if branch.shape == BRIDGE:
                rows = bridges
            else:
                anchors = subjects if branch.side == SUBJECT_SIDE else objects
                rows = self._emit(anchors, branch.shape)
        rows.flags.writeable = False
        self._cache[branch] = rows
        return rows

    def branch_count(self, bgp: BgpQuery, index: int) -> int:
        return len(self._branch_rows(bgp, index))

    def fetch(self, bgp: BgpQuery, index: int, limit: int, offset: int) -> np.ndarray:
        """One LIMIT/OFFSET page of a branch: a read-only slice of its (m, 3) id rows."""
        return self._branch_rows(bgp, index)[offset : offset + limit]

"""Graph-pattern queries over target neighborhoods.

A pattern query is a union of independently executable branch
sub-queries, one per directed hop shape. ``d`` picks the edge direction
regime (1 = outgoing only, 2 = both), ``h`` the hop radius (1 or 2).
Each branch can be rendered as standalone SPARQL (for an endpoint) or
evaluated directly against a local KnowledgeGraph and paged with the same
LIMIT/OFFSET arithmetic over a fixed row order, which makes paginated
execution testable without a server.

For link prediction the query joins the per-type sub-patterns of the two
endpoint types through the task's bridge predicate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import UnknownType, UnsupportedParams
from .graph import RDF_TYPE, KnowledgeGraph, Subgraph, subgraph_from_triples
from .tasks import LINK_PREDICTION, NODE_CLASSIFICATION, TaskSpec

# hop shapes; the second edge of a 2-hop shape is the one emitted
OUT1 = "out"
IN1 = "in"
OUT_OUT = "out-out"
OUT_IN = "out-in"
IN_OUT = "in-out"
IN_IN = "in-in"
BRIDGE = "bridge"

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
        target_type_iri=kg.type_iri(task.target_type),
        target_predicate_iri=(
            kg.predicate_iri(task.target_predicate)
            if task.target_predicate is not None
            else None
        ),
        object_type_iri=(
            kg.type_iri(task.object_type) if task.object_type is not None else None
        ),
        type_predicate_iri=kg.type_predicate_iri,
    )


@dataclass
class Branch:
    shape: str
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


def _nc_shapes(d: int, h: int) -> list[str]:
    shapes = [OUT1]
    if d == 2:
        shapes.append(IN1)
    if h == 2:
        shapes.append(OUT_OUT)
        if d == 2:
            shapes.extend([OUT_IN, IN_OUT, IN_IN])
    return shapes


# Expansion hops never traverse the type-assertion predicate and edges
# arriving at a reached vertex are only retained for real relations:
# type triples enter a result solely as attributes of reached vertices.
# That keeps every extracted vertex path-connected to a target (the
# whole point of the pattern) instead of chaining through class IRIs.
# The executable branch texts carry the matching FILTERs; the plain h=1
# display form of the full query text is unaffected.
_NC_BRANCH = {
    OUT1: ("select ?v as ?s ?p ?o", "?v a <{T}> . ?v ?p ?o ."),
    IN1: (
        "select ?s ?p ?v as ?o",
        "?v a <{T}> . ?s ?p ?v . filter (?p != <{TP}>)",
    ),
    OUT_OUT: (
        "select ?o1 as ?s ?p ?o",
        "?v a <{T}> . ?v ?p1 ?o1 . ?o1 ?p ?o . filter (?p1 != <{TP}>)",
    ),
    OUT_IN: (
        "select ?s ?p ?o1 as ?o",
        "?v a <{T}> . ?v ?p1 ?o1 . ?s ?p ?o1 . filter (?p1 != <{TP}> && ?p != <{TP}>)",
    ),
    IN_OUT: (
        "select ?s1 as ?s ?p ?o",
        "?v a <{T}> . ?s1 ?p1 ?v . ?s1 ?p ?o . filter (?p1 != <{TP}>)",
    ),
    IN_IN: (
        "select ?s ?p ?s1 as ?o",
        "?v a <{T}> . ?s1 ?p1 ?v . ?s ?p ?s1 . filter (?p1 != <{TP}> && ?p != <{TP}>)",
    ),
}

# LP branch pieces; {var} is ?vi or ?vj depending on the anchored side
_LP_SHAPE_PATTERNS = {
    OUT1: ("select distinct {var} as ?s ?p ?o", "{var} ?p ?o ."),
    IN1: (
        "select distinct ?s ?p {var} as ?o",
        "?s ?p {var} . filter (?p != <{TP}>)",
    ),
    OUT_OUT: (
        "select distinct ?o1 as ?s ?p ?o",
        "{var} ?p1 ?o1 . ?o1 ?p ?o . filter (?p1 != <{TP}>)",
    ),
    OUT_IN: (
        "select distinct ?s ?p ?o1 as ?o",
        "{var} ?p1 ?o1 . ?s ?p ?o1 . filter (?p1 != <{TP}> && ?p != <{TP}>)",
    ),
    IN_OUT: (
        "select distinct ?s1 as ?s ?p ?o",
        "?s1 ?p1 {var} . ?s1 ?p ?o . filter (?p1 != <{TP}>)",
    ),
    IN_IN: (
        "select distinct ?s ?p ?s1 as ?o",
        "?s1 ?p1 {var} . ?s ?p ?s1 . filter (?p1 != <{TP}> && ?p != <{TP}>)",
    ),
}

_LP_UNION_ARMS = {
    (SUBJECT_SIDE, OUT1): "{ ?vi ?p ?o . bind (?vi as ?s) }",
    (SUBJECT_SIDE, IN1): "{ ?s ?p ?vi . bind (?vi as ?o) }",
    (SUBJECT_SIDE, OUT_OUT): "{ ?vi ?p1 ?o1 . ?o1 ?p ?o . bind (?o1 as ?s) }",
    (SUBJECT_SIDE, OUT_IN): "{ ?vi ?p1 ?o1 . ?s ?p ?o1 . bind (?o1 as ?o) }",
    (SUBJECT_SIDE, IN_OUT): "{ ?s1 ?p1 ?vi . ?s1 ?p ?o . bind (?s1 as ?s) }",
    (SUBJECT_SIDE, IN_IN): "{ ?s1 ?p1 ?vi . ?s ?p ?s1 . bind (?s1 as ?o) }",
    (OBJECT_SIDE, OUT1): "{ ?vj ?p ?o . bind (?vj as ?s) }",
    (OBJECT_SIDE, IN1): "{ ?s ?p ?vj . bind (?vj as ?o) }",
    (OBJECT_SIDE, OUT_OUT): "{ ?vj ?p1 ?o1 . ?o1 ?p ?o . bind (?o1 as ?s) }",
    (OBJECT_SIDE, OUT_IN): "{ ?vj ?p1 ?o1 . ?s ?p ?o1 . bind (?o1 as ?o) }",
    (OBJECT_SIDE, IN_OUT): "{ ?s1 ?p1 ?vj . ?s1 ?p ?o . bind (?s1 as ?s) }",
    (OBJECT_SIDE, IN_IN): "{ ?s1 ?p1 ?vj . ?s ?p ?s1 . bind (?s1 as ?o) }",
}


def get_bgp(task: PatternTask, d: int, h: int) -> BgpQuery:
    """Build the pattern query for (d, h); h is capped at 2."""
    if d not in (1, 2):
        raise UnsupportedParams(f"d must be 1 or 2, got {d}")
    if h not in (1, 2):
        raise UnsupportedParams(f"h must be 1 or 2, got {h}")

    if task.kind == NODE_CLASSIFICATION:
        t = task.target_type_iri
        tp = task.type_predicate_iri
        branches = []
        for shape in _nc_shapes(d, h):
            select_clause, body = _NC_BRANCH[shape]
            branches.append(
                Branch(shape, None, select_clause, body.replace("{T}", t).replace("{TP}", tp))
            )
        if h == 1:
            # reference display form: plain one-hop patterns, no filters
            display = {
                OUT1: "select ?v as ?s ?p ?o where { ?v a <{T}> . ?v ?p ?o . }",
                IN1: "select ?s ?p ?v as ?o where { ?v a <{T}> . ?s ?p ?v . }",
            }
            parts = [display[b.shape].replace("{T}", t) for b in branches]
        else:
            parts = [b.text for b in branches]
        full = "select ?s ?p ?o { " + " union ".join(parts) + " }"
        return BgpQuery(task=task, d=d, h=h, full_text=full, branches=branches)

    if task.kind != LINK_PREDICTION:
        raise UnsupportedParams(f"unsupported task kind {task.kind!r}")
    if task.target_predicate_iri is None:
        raise UnsupportedParams("link prediction pattern needs a bridge predicate")

    ti = task.target_type_iri
    pt = task.target_predicate_iri
    tp = task.type_predicate_iri
    prefix = f"?vi a <{ti}> . "
    if task.object_type_iri:
        prefix += f"?vj a <{task.object_type_iri}> . "
    prefix += f"?vi <{pt}> ?vj ."

    branches = [
        Branch(
            BRIDGE,
            None,
            f"select ?vi as ?s <{pt}> as ?p ?vj as ?o",
            prefix,
        )
    ]
    shapes = _nc_shapes(d, h)
    arms = ["{ bind (?vi as ?s) bind (<" + pt + "> as ?p) bind (?vj as ?o) }"]
    for side, var in ((SUBJECT_SIDE, "?vi"), (OBJECT_SIDE, "?vj")):
        for shape in shapes:
            select_clause, body = _LP_SHAPE_PATTERNS[shape]
            body = body.replace("{var}", var).replace("{TP}", tp)
            branches.append(
                Branch(
                    shape,
                    side,
                    select_clause.replace("{var}", var),
                    f"{prefix} {body}",
                )
            )
            arms.append(_LP_UNION_ARMS[(side, shape)])
    full = "select ?s ?p ?o where { " + prefix + " " + " union ".join(arms) + " }"
    return BgpQuery(task=task, d=d, h=h, full_text=full, branches=branches)


def tokenize_query(text: str) -> list[str]:
    """Whitespace-insensitive token stream for query comparisons."""
    text = text.replace("{", " { ").replace("}", " } ")
    tokens: list[str] = []
    for raw in text.split():
        tail = []
        while raw != "." and raw.endswith("."):
            raw = raw[:-1]
            tail.append(".")
        if raw:
            tokens.append(raw)
        tokens.extend(tail)
    return tokens


class LocalBackend:
    """Evaluates pattern branches directly on a KnowledgeGraph.

    Branch rows are id triples, enumerated once and memoized. NC rows
    come out in a fixed order (anchors ascending, adjacency lists sorted)
    and may repeat; LP rows are distinct and sorted. A LIMIT/OFFSET page
    is a slice of those rows, so a branch's pages tile it exactly.
    """

    def __init__(self, kg: KnowledgeGraph):
        self.kg = kg
        self._cache: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        self._pinned: list[BgpQuery] = []  # keeps cache keys' id()s valid

    def describe(self) -> str:
        return "local"

    def _type_instances(self, type_iri: str) -> list[int]:
        try:
            tid = self.kg.type_id(type_iri)
        except UnknownType:
            return []
        return self.kg.vertices_of_type(tid)

    def _lp_anchors(self, bgp: BgpQuery) -> tuple[list[int], list[int], list[tuple[int, int]]]:
        kg = self.kg
        task = bgp.task
        try:
            pt = kg.predicate_id(task.target_predicate_iri)
        except Exception:
            return [], [], []
        subj_ok = set(self._type_instances(task.target_type_iri))
        obj_ok = (
            set(self._type_instances(task.object_type_iri))
            if task.object_type_iri
            else None
        )
        pairs = [
            (s, o)
            for s, _, o in kg.pred_index.get(pt, ())
            if s in subj_ok and (obj_ok is None or o in obj_ok)
        ]
        subjects = sorted({s for s, _ in pairs})
        objects = sorted({o for _, o in pairs})
        return subjects, objects, sorted(pairs)

    def _emit(self, anchors, shape: str) -> list[tuple[int, int, int]]:
        out = self.kg.out_index
        inx = self.kg.in_index
        tp = self.kg.type_predicate
        rows: list[tuple[int, int, int]] = []
        if shape == OUT1:
            for v in anchors:
                rows.extend((v, p, o) for p, o in out.get(v, ()))
        elif shape == IN1:
            for v in anchors:
                rows.extend((s, p, v) for p, s in inx.get(v, ()) if p != tp)
        elif shape == OUT_OUT:
            for v in anchors:
                for p1, o1 in out.get(v, ()):
                    if p1 == tp:
                        continue
                    rows.extend((o1, p, o) for p, o in out.get(o1, ()))
        elif shape == OUT_IN:
            for v in anchors:
                for p1, o1 in out.get(v, ()):
                    if p1 == tp:
                        continue
                    rows.extend((s, p, o1) for p, s in inx.get(o1, ()) if p != tp)
        elif shape == IN_OUT:
            for v in anchors:
                for p1, s1 in inx.get(v, ()):
                    if p1 == tp:
                        continue
                    rows.extend((s1, p, o) for p, o in out.get(s1, ()))
        elif shape == IN_IN:
            for v in anchors:
                for p1, s1 in inx.get(v, ()):
                    if p1 == tp:
                        continue
                    rows.extend((s, p, s1) for p, s in inx.get(s1, ()) if p != tp)
        else:
            raise ValueError(f"bad shape {shape!r}")
        return rows

    def _branch_rows(self, bgp: BgpQuery, index: int) -> list[tuple[int, int, int]]:
        key = (id(bgp), index)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if not any(existing is bgp for existing in self._pinned):
            self._pinned.append(bgp)
        branch = bgp.branches[index]
        if bgp.task.kind == NODE_CLASSIFICATION:
            anchors = self._type_instances(bgp.task.target_type_iri)
            rows = self._emit(anchors, branch.shape)
        else:
            subjects, objects, pairs = self._lp_anchors(bgp)
            if branch.shape == BRIDGE:
                pt = self.kg.predicate_id(bgp.task.target_predicate_iri) if pairs else None
                rows = [(s, pt, o) for s, o in pairs]
            else:
                anchors = subjects if branch.side == SUBJECT_SIDE else objects
                rows = sorted(set(self._emit(anchors, branch.shape)))
        self._cache[key] = rows
        return rows

    def branch_count(self, bgp: BgpQuery, index: int) -> int:
        return len(self._branch_rows(bgp, index))

    def fetch(self, bgp: BgpQuery, index: int, limit: int, offset: int):
        """Id rows of one LIMIT/OFFSET page of a branch."""
        return self._branch_rows(bgp, index)[offset : offset + limit]


def local_bgp_match(kg: KnowledgeGraph, bgp: BgpQuery) -> Subgraph:
    """Evaluate every branch unpaginated and deduplicate into a Subgraph."""
    backend = LocalBackend(kg)
    triples: set[tuple[int, int, int]] = set()
    for i in range(len(bgp.branches)):
        triples.update(backend._branch_rows(bgp, i))
    return subgraph_from_triples(
        kg,
        triples,
        provenance={"engine": "sparql-local", "d": bgp.d, "h": bgp.h},
    )

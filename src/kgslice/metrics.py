"""Quality indicators for extracted subgraphs.

Data sufficiency: entity/triple counts, target ratio, distinct node and
edge types. Graph topology: the share of non-target vertices with no
undirected path to a target, the mean hop distance of the connected ones,
and the Shannon entropy (bits) of the per-vertex distinct-neighbor-type
counts.

All topology runs on the subgraph's non-type triples viewed undirected.
Node types are looked up in the parent graph's dictionary, so sparsely
type-annotated extractions are still measured against real vertex types.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import EmptySubgraph
from .graph import KnowledgeGraph, Subgraph
from .tasks import TaskSpec, resolve_targets


@dataclass
class QualityReport:
    vertex_count: int  # entity view including literal vertices
    vertex_count_no_literals: int
    triple_count: int
    target_count: int
    target_ratio: float  # percent, denominator excludes literals
    node_type_count: int
    edge_type_count: int
    target_disconnected_ratio: float  # percent
    avg_distance_to_target: float
    no_connected_non_targets: bool
    neighbor_type_entropy: float
    empty: bool = False

    FIELDS = (
        ("vertex_count", "|V'|"),
        ("vertex_count_no_literals", "|V'| (no literals)"),
        ("triple_count", "|T'|"),
        ("target_count", "targets"),
        ("target_ratio", "target ratio %"),
        ("node_type_count", "|C'|"),
        ("edge_type_count", "|R'|"),
        ("target_disconnected_ratio", "disconnected %"),
        ("avg_distance_to_target", "avg dist to target"),
        ("neighbor_type_entropy", "entropy (bits)"),
    )


def _types_by_vertex(kg: KnowledgeGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node types per vertex id: (first offset, count, flat class vertex ids)."""
    n = kg.vertex_count()
    m = len(kg.type_of)
    typed = np.fromiter(kg.type_of, dtype=np.int64, count=m)
    lens = np.fromiter(map(len, kg.type_of.values()), dtype=np.int64, count=m)
    flat = np.fromiter(
        chain.from_iterable(kg.type_of.values()), dtype=np.int64, count=int(lens.sum())
    )
    first = np.zeros(n, dtype=np.int64)
    count = np.zeros(n, dtype=np.int64)
    first[typed] = np.cumsum(lens) - lens
    count[typed] = lens
    return first, count, flat


def neighbor_type_counts(sg: Subgraph) -> dict[int, int]:
    """Distinct node types among each entity vertex's neighbors.

    Neighbors are taken in both directions over non-type edges; literal
    neighbors carry no types and literal vertices are not counted
    themselves.
    """
    kg = sg.kg
    s, o = sg.non_type_edges()
    vertex = np.concatenate([s, o])
    neighbor = np.concatenate([o, s])
    # one row per (edge end, type of the other end); distinct (vertex, type) pairs
    first, count, flat = _types_by_vertex(kg)
    k = count[neighbor]
    starts = np.cumsum(k) - k
    # row r of edge end i reads flat[first[neighbor[i]] + r - starts[i]]
    pos = np.arange(int(k.sum())) - np.repeat(starts - first[neighbor], k)
    # a class is a vertex: pack (vertex, class) as vertex * n + class, in
    # int64 for graphs under 3e9 vertices
    n = kg.vertex_count()
    pairs = np.unique(np.repeat(vertex, k) * n + flat[pos])
    n_distinct = np.bincount(pairs // n, minlength=n).tolist()
    is_literal = kg.literal_flags()
    return {v: n_distinct[v] for v in sg.vertices if not is_literal[v]}


def neighbor_type_entropy(sg: Subgraph) -> float:
    """Entropy (bits) of the neighbor-type-count distribution."""
    counts = neighbor_type_counts(sg)
    if not counts:
        raise EmptySubgraph("no entity vertices to measure")
    hist = Counter(counts.values())
    n = len(counts)
    h = 0.0
    for c in hist.values():
        p = c / n
        h -= p * math.log2(p)
    return h


def target_stats(sg: Subgraph, targets) -> tuple[float, int, int]:
    """(target ratio %, |C'|, |R'|); ratio over non-literal vertices."""
    targets = set(targets)
    entity = sg.entity_vertices()
    n_targets = len(targets & sg.vertices)
    ratio = 100.0 * n_targets / len(entity) if entity else 0.0
    return ratio, len(sg.node_type_ids), len(sg.predicate_ids)


def disconnected_ratio(sg: Subgraph, targets, dist: dict[int, int] | None = None) -> float:
    """Percent of non-target vertices with no undirected path to a target.

    ``dist``, when given, is ``sg.undirected_distances(targets)``.
    """
    targets = set(targets) & sg.vertices
    non_targets = [v for v in sg.vertices if v not in targets]
    if not non_targets:
        return 0.0
    if dist is None:
        dist = sg.undirected_distances(targets)
    n_disconnected = sum(1 for v in non_targets if v not in dist)
    return 100.0 * n_disconnected / len(non_targets)


def avg_distance_to_target(
    sg: Subgraph, targets, dist: dict[int, int] | None = None
) -> tuple[float, int]:
    """Mean hop distance of connected non-target vertices to any target.

    Returns (mean, connected count); disconnected vertices are left to
    disconnected_ratio. A zero count means there was nothing to average.
    ``dist``, when given, is ``sg.undirected_distances(targets)``.
    """
    targets = set(targets) & sg.vertices
    if dist is None:
        dist = sg.undirected_distances(targets)
    reached = [d for v, d in dist.items() if v not in targets and v in sg.vertices]
    if not reached:
        return 0.0, 0
    return sum(reached) / len(reached), len(reached)


def quality_report(sg: Subgraph, task: TaskSpec, kg: KnowledgeGraph) -> QualityReport:
    """All indicators for ``sg`` relative to a task resolved on ``kg``."""
    targets = set(resolve_targets(kg, task)) & sg.vertices
    ratio, n_types, n_preds = target_stats(sg, targets)
    dist = sg.undirected_distances(targets)
    avg, n_connected = avg_distance_to_target(sg, targets, dist)
    try:
        entropy = neighbor_type_entropy(sg)
    except EmptySubgraph:
        entropy = 0.0
    return QualityReport(
        vertex_count=len(sg.vertices),
        vertex_count_no_literals=len(sg.entity_vertices()),
        triple_count=len(sg.triples),
        target_count=len(targets),
        target_ratio=ratio,
        node_type_count=n_types,
        edge_type_count=n_preds,
        target_disconnected_ratio=disconnected_ratio(sg, targets, dist),
        avg_distance_to_target=avg,
        no_connected_non_targets=n_connected == 0,
        neighbor_type_entropy=entropy,
        empty=not sg.triples,
    )


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def reports_tsv(named_reports: list[tuple[str, QualityReport]]) -> str:
    """Machine-readable table: one indicator per row, one column per report."""
    lines = ["indicator\t" + "\t".join(name for name, _ in named_reports)]
    for attr, _ in QualityReport.FIELDS:
        row = [attr]
        row += [_format_value(getattr(r, attr)) for _, r in named_reports]
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


def render_reports(named_reports: list[tuple[str, QualityReport]]) -> str:
    """Aligned human-readable table over one or more reports."""
    headers = ["indicator"] + [name for name, _ in named_reports]
    rows = []
    for attr, label in QualityReport.FIELDS:
        rows.append([label] + [_format_value(getattr(r, attr)) for _, r in named_reports])
    widths = [max(len(r[i]) for r in [headers] + rows) for i in range(len(headers))]
    out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for row in rows:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out) + "\n"

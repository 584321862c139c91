"""Quality indicators for extracted subgraphs.

Data sufficiency: entity/triple counts, target ratio, distinct node and
edge types. Graph topology: the share of non-target vertices with no
undirected path to a target, the mean hop distance of the connected ones,
and the Shannon entropy (bits) of the per-vertex distinct-neighbor-type
counts.

All topology runs on the subgraph's non-type triples viewed undirected.
Node types are looked up in the parent graph's type triples, so sparsely
type-annotated extractions are still measured against real vertex types.

Every indicator is array work over slice-local ids, the positions of the
slice's vertices in the sorted ``Subgraph.vertex_ids``: targets become a
mask over them, one :meth:`Subgraph.undirected_distances` BFS gives the
hop level of each (-1 where no target reaches it) for both distance
indicators, and the neighbor-type counts are one array over them. No
per-vertex Python object and no array the size of the parent graph is
built, so memory follows the slice. The public functions take targets as
any iterable of parent ids. The entropy sums its terms in ascending order
of the count value, the order of the count histogram, so it does not
depend on how the slice was built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySubgraph
from .graph import KnowledgeGraph, Subgraph, distinct
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


def _target_mask(sg: Subgraph, targets) -> np.ndarray:
    """Which slice vertices, by slice-local id, are among the parent ids ``targets``."""
    mask = np.zeros(len(sg.vertex_ids), dtype=bool)
    mask[sg.local_ids(targets)] = True
    return mask


def _neighbor_type_counts(sg: Subgraph) -> np.ndarray:
    """Distinct node types among each slice vertex's neighbors, by slice-local id.

    Each vertex's classes are one range of the type predicate's subject
    column, sorted by (s, o), found by two binary searches per slice
    vertex, so no array the size of the parent graph is built.
    """
    kg = sg.kg
    subjects, classes = kg.predicate_columns(kg.type_predicate)
    vs = sg.vertex_ids
    first = np.searchsorted(subjects, vs)
    count = np.searchsorted(subjects, vs, side="right") - first
    s, o = sg.local_edges
    vertex = np.concatenate([s, o])
    neighbor = np.concatenate([o, s])
    # one row per (edge end, type of the other end); distinct (vertex, type) pairs
    k = count[neighbor]
    starts = np.cumsum(k) - k
    # row r of edge end i reads classes[first[neighbor[i]] + r - starts[i]]
    pos = np.arange(int(k.sum())) - np.repeat(starts - first[neighbor], k)
    # pack (vertex, class) as vertex * n + class, in int64, which holds
    # len(vs) * n for any int32 id space
    n = kg.vertex_count()
    pairs = distinct(np.repeat(vertex.astype(np.int64), k) * n + classes[pos])
    return np.bincount(pairs // n, minlength=len(vs))


def neighbor_type_counts(sg: Subgraph) -> dict[int, int]:
    """Distinct node types among each entity vertex's neighbors, by vertex id, ascending.

    Neighbors are taken in both directions over non-type edges; literal
    neighbors carry no types and literal vertices are not counted
    themselves.
    """
    entity = sg.entity
    counts = _neighbor_type_counts(sg)
    return dict(zip(sg.vertex_ids[entity].tolist(), counts[entity].tolist()))


def neighbor_type_entropy(sg: Subgraph) -> float:
    """Entropy (bits) of the neighbor-type-count distribution of the entity vertices.

    The terms are summed in ascending order of the count value, the order
    of the count histogram.
    """
    counts = _neighbor_type_counts(sg)[sg.entity]
    if not len(counts):
        raise EmptySubgraph("no entity vertices to measure")
    hist = np.bincount(counts)
    h = 0.0
    for c in hist[hist > 0].tolist():
        p = c / len(counts)
        h -= p * math.log2(p)
    return h


def target_stats(sg: Subgraph, targets) -> tuple[float, int, int]:
    """(target ratio %, |C'|, |R'|); ratio over non-literal vertices.

    ``targets`` are parent ids; those outside the slice are not counted.
    """
    n_entity = int(np.count_nonzero(sg.entity))
    n_targets = len(sg.local_ids(targets))
    ratio = 100.0 * n_targets / n_entity if n_entity else 0.0
    return ratio, len(sg.node_type_ids), len(sg.predicate_ids)


def disconnected_ratio(sg: Subgraph, targets, levels: np.ndarray | None = None) -> float:
    """Percent of non-target vertices with no undirected path to a target.

    ``targets`` are parent ids; ``levels``, when given, is
    ``sg.undirected_distances(targets)``.
    """
    non_target = ~_target_mask(sg, targets)
    n_non_targets = int(np.count_nonzero(non_target))
    if not n_non_targets:
        return 0.0
    if levels is None:
        levels = sg.undirected_distances(targets)
    n_disconnected = int(np.count_nonzero(levels[non_target] < 0))
    return 100.0 * n_disconnected / n_non_targets


def avg_distance_to_target(
    sg: Subgraph, targets, levels: np.ndarray | None = None
) -> tuple[float, int]:
    """Mean hop distance of connected non-target vertices to any target.

    Returns (mean, connected count); disconnected vertices are left to
    disconnected_ratio. A zero count means there was nothing to average.
    The mean is the exact integer sum of the distances over the count.
    ``targets`` are parent ids; ``levels``, when given, is
    ``sg.undirected_distances(targets)``.
    """
    if levels is None:
        levels = sg.undirected_distances(targets)
    reached = levels[~_target_mask(sg, targets)]
    reached = reached[reached >= 0]
    if not len(reached):
        return 0.0, 0
    return int(reached.sum(dtype=np.int64)) / len(reached), len(reached)


def quality_report(sg: Subgraph, task: TaskSpec, kg: KnowledgeGraph) -> QualityReport:
    """All indicators for ``sg`` relative to a task resolved on ``kg``.

    Works on slice-local ids throughout: the targets become the sorted
    slice vertices among them, and one BFS serves both distance
    indicators.
    """
    targets = sg.vertex_ids[sg.local_ids(resolve_targets(kg, task))]
    ratio, n_types, n_preds = target_stats(sg, targets)
    levels = sg.undirected_distances(targets)
    avg, n_connected = avg_distance_to_target(sg, targets, levels)
    try:
        entropy = neighbor_type_entropy(sg)
    except EmptySubgraph:
        entropy = 0.0
    return QualityReport(
        vertex_count=len(sg.vertex_ids),
        vertex_count_no_literals=int(np.count_nonzero(sg.entity)),
        triple_count=len(sg.spo),
        target_count=len(targets),
        target_ratio=ratio,
        node_type_count=n_types,
        edge_type_count=n_preds,
        target_disconnected_ratio=disconnected_ratio(sg, targets, levels),
        avg_distance_to_target=avg,
        no_connected_non_targets=n_connected == 0,
        neighbor_type_entropy=entropy,
        empty=not len(sg.spo),
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

"""Outside-in tracing of kgslice's layers, and the per-layer metrics.

The traced run replaces the public functions listed in ``WRAPPED`` with
thin wrappers, at the module or class attribute each caller looks them
up by, and restores the originals afterwards. Each wrapper records one
span: id, name, start, end, parent span, iteration id, and count
attributes taken at the same boundary. A span's parent is the innermost
open span of its thread; spans opened by ``execute_plan``'s worker
threads take the enclosing ``execute_plan`` span as parent. Spans stay in
memory and are written out when the run ends.

Self time is a span's duration minus the part of it covered by its
children (the union of their intervals, since worker spans overlap).
Every per-layer metric in ``LAYER_METRICS`` is computed from self times
and counts, and names the end-to-end metric it should move, and where.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from kgslice import endpoint, export, graph, influence, metrics, patterns, rgcn, tasks, walks


def _bundle_attrs(a, k, r):
    files = list(r.manifest["checksums"]) + ["manifest.json"]
    return {"files": len(files), "bytes": sum((r.outdir / f).stat().st_size for f in files)}


def _ingest_attrs(a, k, r):
    kg, errors = r
    return {"triples": kg.triple_count(), "vertices": kg.vertex_count(), "parse_errors": len(errors)}


def _ppr_attrs(a, k, r):
    return {"touched": len(r.scores) + len(r.residuals)}


def _extract_attrs(a, k, r):
    return {"emitted": sum(r.provenance["branch_counts"]), "unique": len(r.triples)}


def _pruned_attrs(a, k, r):
    return {"removed": len(a[0].vertices) - len(r.vertices)}


def _len_attr(key):
    return lambda a, k, r: {key: len(r)}


# (owner, attribute, span name, attributes from (args, kwargs, result), adopts worker threads)
WRAPPED = [
    (graph, "load_ntriples", "graph.load_ntriples", None, False),
    (graph, "ingest_ntriples", "graph.ingest_ntriples", _ingest_attrs, False),
    (endpoint, "ingest_ntriples", "graph.ingest_ntriples", _ingest_attrs, False),
    (graph.KnowledgeGraph, "walk_adjacency", "graph.walk_adjacency", None, False),
    (graph.KnowledgeGraph, "induced_subgraph", "graph.induced_subgraph",
     lambda a, k, r: {"triples": len(r.triples)}, False),
    (endpoint, "subgraph_from_triples", "graph.subgraph_from_triples", None, False),
    (tasks, "resolve_targets", "tasks.resolve_targets", _len_attr("targets"), False),
    (walks, "resolve_targets", "tasks.resolve_targets", _len_attr("targets"), False),
    (influence, "resolve_targets", "tasks.resolve_targets", _len_attr("targets"), False),
    (metrics, "resolve_targets", "tasks.resolve_targets", _len_attr("targets"), False),
    (tasks, "build_labels", "tasks.build_labels", None, False),
    (tasks, "make_splits", "tasks.make_splits", None, False),
    (patterns.LocalBackend, "branch_count", "patterns.branch_count", None, False),
    (patterns.LocalBackend, "fetch", "patterns.fetch", _len_attr("rows"), False),
    (endpoint, "sparql_extract", "endpoint.sparql_extract", _extract_attrs, False),
    (endpoint, "get_graph_size", "endpoint.get_graph_size", None, False),
    (endpoint, "execute_plan", "endpoint.execute_plan", None, True),
    (endpoint, "drop_duplicates", "endpoint.drop_duplicates", None, False),
    (endpoint.HttpBackend, "branch_count", "endpoint.http_count", None, False),
    (endpoint.HttpBackend, "fetch", "endpoint.http_fetch", _len_attr("rows"), False),
    (influence, "extract_influence", "influence.extract_influence", None, False),
    (influence, "influence_scores", "influence.influence_scores", None, False),
    (influence, "approximate_ppr", "influence.approximate_ppr", _ppr_attrs, False),
    (influence, "select_topk", "influence.select_topk", _len_attr("pairs"), False),
    (influence, "build_partition", "influence.build_partition", _len_attr("size"), False),
    (influence, "get_initial_vertices", "walks.get_initial_vertices", None, False),
    (walks, "extract_random_walk", "walks.extract_random_walk",
     lambda a, k, r: {"visited": len(r.vertices)}, False),
    (walks, "get_initial_vertices", "walks.get_initial_vertices", None, False),
    (walks, "random_walk_sample", "walks.random_walk_sample", None, False),
    (metrics, "quality_report", "metrics.quality_report", None, False),
    (metrics, "target_stats", "metrics.target_stats", None, False),
    (metrics, "avg_distance_to_target", "metrics.avg_distance_to_target", None, False),
    (metrics, "disconnected_ratio", "metrics.disconnected_ratio", None, False),
    (metrics, "neighbor_type_entropy", "metrics.neighbor_type_entropy", None, False),
    (rgcn, "random_features", "rgcn.random_features", None, False),
    (rgcn, "rgcn_forward", "rgcn.rgcn_forward", _len_attr("vertices"), False),
    (rgcn, "prune_outside_reach", "rgcn.prune_outside_reach", _pruned_attrs, False),
    (rgcn, "message_reach", "rgcn.message_reach", None, False),
    (export, "export_bundle", "export.export_bundle", _bundle_attrs, False),
]

PAGE_SPANS = ("patterns.fetch", "endpoint.http_fetch")


class Tracer:
    """Span recorder; wrappers are installed only between install() and uninstall()."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, iteration, attrs)
        self.iteration: str | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._adopt: int | None = None  # open execute_plan span, parent for worker threads
        self._originals: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, attrs, adopts):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._adopt
            sid = next(tracer._ids)
            stack.append(sid)
            if adopts:
                outer, tracer._adopt = tracer._adopt, sid
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if adopts:
                    tracer._adopt = outer
            extra = attrs(args, kwargs, result) if attrs else None
            tracer.spans.append((sid, name, start, end, parent, tracer.iteration, extra))
            return result

        return wrapper

    def install(self, iteration: str) -> None:
        self.iteration = iteration
        for owner, attr, name, attrs, adopts in WRAPPED:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, attrs, adopts))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, iteration, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "iteration": iteration,
                                     "attrs": attrs or {}}) + "\n")


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class SpanView:
    """Aggregates over the spans of ``n`` traced iterations.

    Times and counts are per-iteration means; percentiles pool the
    samples of all iterations. ``counters`` are totals over the same
    iterations.
    """

    def __init__(self, spans, n: int, counters: dict):
        self.n = max(n, 1)
        self.counters = counters
        children = defaultdict(list)
        for span in spans:
            if span[4] is not None:
                children[span[4]].append((span[2], span[3]))
        self.by_name = defaultdict(list)  # name -> [(duration, self time, attrs)]
        for sid, name, start, end, _, _, attrs in spans:
            covered = _covered((max(s, start), min(e, end)) for s, e in children.get(sid, ()))
            self.by_name[name].append((end - start, end - start - covered, attrs or {}))

    def self_s(self, *names) -> float:
        return sum(s for name in names for _, s, _ in self.by_name[name]) / self.n

    def count(self, *names) -> float:
        return sum(len(self.by_name[name]) for name in names) / self.n

    def attr(self, name, key, how=sum) -> float:
        values = [a.get(key, 0) for _, _, a in self.by_name[name]]
        return how(values) / (self.n if how is sum else 1) if values else 0

    def quantile_ms(self, q: float, *names, own=False) -> float:
        values = sorted((s if own else d) * 1e3 for n in names for d, s, _ in self.by_name[n])
        if not values:
            return 0.0
        return values[min(len(values) - 1, int(q * len(values)))]

    def samples(self, *names) -> int:
        return sum(len(self.by_name[n]) for n in names)


def _ratio(num, den):
    return num / den if den else 0.0


@dataclass
class LayerMetric:
    name: str
    unit: str
    value: object  # function(SpanView) -> number
    moves: str  # end-to-end metric it should move, and on which workload
    better: str = "lower"  # less time, less work; "higher" for rates and useful shares


LAYER_METRICS = [
    # graph
    LayerMetric("graph.ingest_triples_per_s", "1/s",
                lambda v: _ratio(v.attr("graph.ingest_ntriples", "triples"),
                                 v.self_s("graph.ingest_ntriples")),
                "setup_s on nc-200k and lp-skew; extract_s (re-ingest) on sparql-http", better="higher"),
    LayerMetric("graph.triples", "count", lambda v: v.attr("graph.ingest_ntriples", "triples"),
                "setup_s on nc-200k and lp-skew; extract_s on sparql-http"),
    LayerMetric("graph.vertices", "count", lambda v: v.attr("graph.ingest_ntriples", "vertices"),
                "setup_s on nc-200k and lp-skew; extract_s on sparql-http"),
    LayerMetric("graph.parse_errors", "count",
                lambda v: v.attr("graph.ingest_ntriples", "parse_errors"),
                "output gate on every workload (must stay 0)"),
    LayerMetric("graph.walk_adjacency_s", "s", lambda v: v.self_s("graph.walk_adjacency"),
                "extract_s (extract_brw_s) on nc-200k, extract_s (extract_ibs_s) on lp-skew"),
    LayerMetric("graph.induced_subgraph_s", "s", lambda v: v.self_s("graph.induced_subgraph"),
                "extract_s (extract_brw_s) on nc-200k, extract_s (extract_ibs_s) on lp-skew"),
    LayerMetric("graph.induced_triples", "count",
                lambda v: v.attr("graph.induced_subgraph", "triples"),
                "extract_s (extract_brw_s) on nc-200k, extract_s (extract_ibs_s) on lp-skew"),
    LayerMetric("graph.subgraph_from_triples_s", "s",
                lambda v: v.self_s("graph.subgraph_from_triples"),
                "extract_s (every sparql extraction) on all workloads"),
    # tasks
    LayerMetric("tasks.resolve_targets_s", "s", lambda v: v.self_s("tasks.resolve_targets"),
                "total_s on every workload"),
    LayerMetric("tasks.targets", "count", lambda v: v.attr("tasks.resolve_targets", "targets", max),
                "total_s on every workload"),
    LayerMetric("tasks.build_labels_s", "s", lambda v: v.self_s("tasks.build_labels"),
                "downstream_s (export_s) on nc-200k and sparql-http"),
    LayerMetric("tasks.make_splits_s", "s", lambda v: v.self_s("tasks.make_splits"),
                "downstream_s (export_s) on nc-200k and sparql-http"),
    # patterns
    LayerMetric("patterns.branch_count_s", "s", lambda v: v.self_s("patterns.branch_count"),
                "extract_s (extract_d2h2_s) and peak_rss_mb on nc-200k, extract_s (extract_lp_s) on lp-skew"),
    LayerMetric("patterns.rows_emitted", "count",
                lambda v: v.attr("endpoint.sparql_extract", "emitted"),
                "extract_s (extract_d2h2_s) and peak_rss_mb on nc-200k, extract_s (extract_lp_s) on lp-skew"),
    LayerMetric("patterns.unique_triples", "count",
                lambda v: v.attr("endpoint.sparql_extract", "unique"),
                "extract_s (extract_d2h2_s) and peak_rss_mb on nc-200k, extract_s (extract_lp_s) on lp-skew"),
    LayerMetric("patterns.useful_ratio", "ratio",
                lambda v: _ratio(v.attr("endpoint.sparql_extract", "unique"),
                                 v.attr("endpoint.sparql_extract", "emitted")),
                "extract_s (extract_d2h2_s) on nc-200k", better="higher"),
    LayerMetric("patterns.fetch_s", "s", lambda v: v.self_s("patterns.fetch"),
                "extract_s (extract_d1h1_s, extract_d2h2_s) on nc-200k"),
    LayerMetric("patterns.pages", "count", lambda v: v.count("patterns.fetch"),
                "extract_s (extract_d1h1_s, extract_d2h2_s) on nc-200k"),
    # endpoint
    LayerMetric("endpoint.get_graph_size_s", "s",
                lambda v: v.self_s("endpoint.get_graph_size", "endpoint.http_count"),
                "extract_s (extract_http_s) on sparql-http"),
    LayerMetric("endpoint.execute_plan_s", "s",
                lambda v: v.self_s("endpoint.execute_plan", "endpoint.http_fetch"),
                "extract_s (extract_http_s) on sparql-http"),
    LayerMetric("endpoint.drop_duplicates_s", "s", lambda v: v.self_s("endpoint.drop_duplicates"),
                "extract_s on sparql-http and nc-200k (extract_d2h2_s)"),
    LayerMetric("endpoint.page_ms_p50", "ms", lambda v: v.quantile_ms(0.50, *PAGE_SPANS),
                "extract_s (extract_http_s) on sparql-http"),
    LayerMetric("endpoint.page_ms_p98", "ms", lambda v: v.quantile_ms(0.98, *PAGE_SPANS),
                "extract_s (extract_http_s) on sparql-http"),
    LayerMetric("endpoint.page_samples", "count", lambda v: v.samples(*PAGE_SPANS),
                "sample count behind the page percentiles, all traced iterations pooled"),
    LayerMetric("endpoint.requests", "count", lambda v: v.counters.get("http_requests", 0) / v.n,
                "attempted and extract_s on sparql-http"),
    LayerMetric("endpoint.attempts_per_page", "ratio",
                lambda v: _ratio(v.counters.get("http_page_requests", 0),
                                 v.samples("endpoint.http_fetch")),
                "failed and extract_s on sparql-http"),
    LayerMetric("endpoint.failed_requests", "count",
                lambda v: v.counters.get("http_failed", 0) / v.n,
                "failed and extract_s on sparql-http"),
    LayerMetric("endpoint.bytes_in", "bytes", lambda v: v.counters.get("http_bytes", 0) / v.n,
                "extract_s (extract_http_s) on sparql-http"),
    LayerMetric("endpoint.rows_fetched", "count",
                lambda v: v.attr("endpoint.http_fetch", "rows") + v.attr("patterns.fetch", "rows"),
                "extract_s on sparql-http"),
    LayerMetric("endpoint.useful_ratio", "ratio",
                lambda v: _ratio(v.attr("endpoint.sparql_extract", "unique"),
                                 v.attr("endpoint.http_fetch", "rows") + v.attr("patterns.fetch", "rows")),
                "extract_s (extract_http_s) on sparql-http", better="higher"),
    # influence
    LayerMetric("influence.scores_s", "s",
                lambda v: v.self_s("influence.influence_scores", "influence.approximate_ppr"),
                "extract_s (extract_ibs_s) on lp-skew"),
    LayerMetric("influence.ppr_ms_p50", "ms",
                lambda v: v.quantile_ms(0.50, "influence.approximate_ppr", own=True),
                "extract_s (extract_ibs_s) on lp-skew"),
    LayerMetric("influence.ppr_ms_p99", "ms",
                lambda v: v.quantile_ms(0.99, "influence.approximate_ppr", own=True),
                "extract_s (extract_ibs_s) on lp-skew"),
    LayerMetric("influence.ppr_samples", "count", lambda v: v.samples("influence.approximate_ppr"),
                "sample count behind the PPR percentiles, all traced iterations pooled"),
    LayerMetric("influence.ppr_touched", "count",
                lambda v: v.attr("influence.approximate_ppr", "touched"),
                "extract_s (extract_ibs_s) on lp-skew"),
    LayerMetric("influence.select_topk_s", "s", lambda v: v.self_s("influence.select_topk"),
                "extract_s (extract_ibs_s) on lp-skew"),
    LayerMetric("influence.pairs", "count", lambda v: v.attr("influence.select_topk", "pairs"),
                "extract_s (extract_ibs_s) on lp-skew"),
    LayerMetric("influence.build_partition_s", "s", lambda v: v.self_s("influence.build_partition"),
                "extract_s (extract_ibs_s) on lp-skew"),
    LayerMetric("influence.partition_size", "count",
                lambda v: v.attr("influence.build_partition", "size"),
                "extract_s (extract_ibs_s) on lp-skew"),
    LayerMetric("influence.induce_prune_s", "s", lambda v: v.self_s("influence.extract_influence"),
                "extract_s (extract_ibs_s) on lp-skew"),
    # walks
    LayerMetric("walks.sample_s", "s",
                lambda v: v.self_s("walks.extract_random_walk", "walks.random_walk_sample",
                                   "walks.get_initial_vertices"),
                "extract_s (extract_brw_s) on nc-200k"),
    LayerMetric("walks.samples", "count", lambda v: v.count("walks.random_walk_sample"),
                "extract_s (extract_brw_s) on nc-200k"),
    LayerMetric("walks.visited", "count", lambda v: v.attr("walks.extract_random_walk", "visited"),
                "extract_s (extract_brw_s) on nc-200k"),
    # metrics
    LayerMetric("metrics.target_stats_s", "s", lambda v: v.self_s("metrics.target_stats"),
                "downstream_s (metrics_s) on nc-200k"),
    LayerMetric("metrics.avg_distance_s", "s", lambda v: v.self_s("metrics.avg_distance_to_target"),
                "downstream_s (metrics_s) on nc-200k"),
    LayerMetric("metrics.disconnected_s", "s", lambda v: v.self_s("metrics.disconnected_ratio"),
                "downstream_s (metrics_s) on nc-200k"),
    LayerMetric("metrics.entropy_s", "s", lambda v: v.self_s("metrics.neighbor_type_entropy"),
                "downstream_s (metrics_s) on nc-200k"),
    LayerMetric("metrics.report_s", "s", lambda v: v.self_s("metrics.quality_report"),
                "downstream_s (metrics_s) on nc-200k"),
    # rgcn
    LayerMetric("rgcn.features_s", "s", lambda v: v.self_s("rgcn.random_features"),
                "downstream_s (validate_s) on lp-skew"),
    LayerMetric("rgcn.forward_s", "s", lambda v: v.self_s("rgcn.rgcn_forward"),
                "downstream_s (validate_s) on lp-skew"),
    LayerMetric("rgcn.prune_s", "s",
                lambda v: v.self_s("rgcn.prune_outside_reach", "rgcn.message_reach"),
                "downstream_s (validate_s) on lp-skew"),
    LayerMetric("rgcn.entity_vertices", "count", lambda v: v.attr("rgcn.rgcn_forward", "vertices", max),
                "downstream_s (validate_s) on lp-skew"),
    LayerMetric("rgcn.pruned_vertices", "count",
                lambda v: v.attr("rgcn.prune_outside_reach", "removed"),
                "downstream_s (validate_s) on lp-skew"),
    # export
    LayerMetric("export.bundle_s", "s", lambda v: v.self_s("export.export_bundle"),
                "downstream_s (export_s) on nc-200k and sparql-http"),
    LayerMetric("export.files", "count", lambda v: v.attr("export.export_bundle", "files"),
                "downstream_s (export_s) on nc-200k and sparql-http"),
    LayerMetric("export.bytes_written", "bytes",
                lambda v: v.attr("export.export_bundle", "bytes"),
                "downstream_s (export_s) on nc-200k and sparql-http"),
    # the tracer itself
    LayerMetric("trace.spans", "count", lambda v: sum(len(x) for x in v.by_name.values()) / v.n,
                "trace.overhead_ratio"),
]


def layer_metrics(tracer: Tracer, traced: list[str], counters: dict, overhead_ratio: float,
                  probe_ms: float) -> dict:
    """Every per-layer metric over the given traced iterations.

    Span times are wall times; ``host.probe_ms``, the run's median reference
    probe (``speed.py``), gives the host speed they were measured at.
    """
    view = SpanView([s for s in tracer.spans if s[5] in set(traced)], len(traced), counters)
    out = {m.name: {"value": float(m.value(view)), "unit": m.unit} for m in LAYER_METRICS}
    out["trace.overhead_ratio"] = {"value": overhead_ratio, "unit": "ratio"}
    out["host.probe_ms"] = {"value": probe_ms, "unit": "ms"}
    return out


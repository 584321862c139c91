"""Workload definitions: inputs, pipeline steps, output checks, rationale.

A workload is one generated dump plus one task config, driven through
kgslice's library API with the calls ``kgslice.cli`` makes for the same
commands. One pass of the pipeline is an *iteration*: a fresh setup
(load, or endpoint start) followed by the workload's commands. Every
library function is looked up through its module attribute at call time
(``endpoint.sparql_extract``, not a name bound at import), so the traced
run's wrappers see every call the pipeline makes.

Each workload records why it exists, which end-to-end metric each layer
it exercises should move (``moves``), and which end-to-end metrics a
change to a layer it does not exercise must leave unchanged
(``unchanged``). Change proposals cite these by workload name.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import requests

from kgslice import endpoint, export, graph, influence, metrics, patterns, rgcn, tasks, walks

HERE = Path(__file__).resolve().parent
EX = "http://example.org/"

NC_CFG = f"""task = nc
target_type = {EX}T0
target_predicate = {EX}venue
top_n_labels = 50
split = random
ratios = 0.8,0.1,0.1
seed = 7
"""

LP_CFG = f"""task = lp
target_type = {EX}Author
target_predicate = {EX}affiliation
object_type = {EX}Org
"""

HTTP_CFG = f"""task = nc
target_type = {EX}Paper
target_predicate = {EX}publishedIn
top_n_labels = 50
split = random
ratios = 0.8,0.1,0.1
seed = 7
"""

# CLI defaults for the parameters the workloads do not set themselves.
CLI_BS = 20000
SEED = 0


@dataclass
class Workload:
    name: str
    why: str
    graph: str  # generator in gen.py
    task_cfg: str
    steps: list  # (detail metric name, end-to-end stage, function(state))
    check: object  # function(state, gate)
    calls: tuple[str, ...]  # span names the traced run must produce
    moves: dict = field(default_factory=dict)  # layer -> end-to-end metric it moves here
    # layers this workload does not exercise: a change confined to them predicts
    # no change in any end-to-end metric of this workload
    unchanged: tuple[str, ...] = ()


class Gate:
    """Output checks of one run; every check is one attempted operation."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []
        self.digests: dict[str, object] = {}

    def check(self, name: str, ok: bool, detail="") -> None:
        self.results.append((name, bool(ok), str(detail)))

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)

    def digest(self) -> str:
        blob = json.dumps(self.digests, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def surface_digest(sg) -> str:
    """sha256 of the slice's sorted surface triple set, one line per triple."""
    kg = sg.kg
    lines = sorted(
        f"{kg.term(s)} {kg.predicate_term(p)} {kg.term(o)} ." for s, p, o in sg.triples
    )
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def max_walk_degree(kg) -> int:
    return max((len(nbrs) for nbrs in kg.walk_adjacency(graph.BOTH).values()), default=0)


# -- shared steps ---------------------------------------------------------


def load(state) -> None:
    """`kgslice extract --kg`: load the dump, read the task config."""
    kg, errors = graph.load_ntriples(state["dump"])
    cfg = tasks.read_config(state["cfg"])
    state.update(kg=kg, parse_errors=len(errors), cfg_map=cfg, task=tasks.task_from_config(kg, cfg))


def _local_sparql(d: int, h: int, key: str):
    def step(state) -> None:
        kg, task = state["kg"], state["task"]
        state[key] = endpoint.sparql_extract(
            patterns.LocalBackend(kg), patterns.pattern_task_for(kg, task), d, h, CLI_BS
        )

    return step


def _export(key: str):
    """`kgslice export`: labels, splits, bundle with label edges excluded."""

    def step(state) -> None:
        sg = state[key]
        kg = sg.kg
        task = tasks.task_from_config(kg, state["cfg_map"])
        labels = tasks.build_labels(kg, task)
        targets = tasks.resolve_targets(kg, task)
        splits = tasks.make_splits(targets, labels, kg, tasks.split_from_config(kg, state["cfg_map"]))
        state["bundle"] = export.export_bundle(
            sg,
            labels,
            splits,
            state["outdir"] / "bundle",
            exclude_label_edges=True,
            label_predicate=task.target_predicate,
        )

    return step


def _check_bundle(state, gate: Gate) -> None:
    manifest = state["bundle"].manifest
    checksums = json.dumps(manifest["checksums"], sort_keys=True).encode()
    gate.digests["bundle_checksums"] = hashlib.sha256(checksums).hexdigest()
    gate.check("bundle has labels and splits", manifest["labels"] > 0 and manifest["splits"] > 0)


# -- nc-200k ----------------------------------------------------------------


def _brw(state) -> None:
    params = walks.WalkParams(walk_length=3, batch_size=CLI_BS, walks_per_seed=1, seed=SEED)
    state["brw"] = walks.extract_random_walk(state["kg"], state["task"], params)


NC_SLICES = ("d1h1", "d2h2", "brw")


def _compare(state) -> None:
    """`kgslice compare` over the three slices."""
    state["reports"] = {
        name: metrics.quality_report(state[name], state["task"], state["kg"]) for name in NC_SLICES
    }


def _check_nc(state, gate: Gate) -> None:
    gate.check("parse_errors == 0", state["parse_errors"] == 0, state["parse_errors"])
    for name in NC_SLICES:
        ratio = state["reports"][name].target_disconnected_ratio
        gate.check(f"{name} disconnected_ratio == 0", ratio == 0.0, ratio)
        gate.digests[name] = surface_digest(state[name])
    _check_bundle(state, gate)


# -- lp-skew ----------------------------------------------------------------

IBS_BS = 500
IBS_K = 16


def _ibs(state) -> None:
    state["ibs"] = influence.extract_influence(
        state["kg"], state["task"], bs=IBS_BS, k=IBS_K, params=influence.PprParams(), seed=SEED
    )


def _validate(state) -> None:
    """`kgslice validate --layers 2 --dim 8` on the ibs slice."""
    sg, kg = state["ibs"], state["kg"]
    targets = set(tasks.resolve_targets(kg, state["task"])) & sg.vertices
    model = rgcn.RgcnReferenceModel(layers=2, dim=8, seed=SEED)
    feats = rgcn.random_features(sg.entity_vertices(), 8, seed=SEED)
    full = rgcn.rgcn_forward(model, sg, feats)
    pruned_sg = rgcn.prune_outside_reach(sg, targets, hops=2)
    pruned = rgcn.rgcn_forward(model, pruned_sg, feats)
    deltas = [float(np.max(np.abs(full[t] - pruned[t]))) for t in sorted(targets) if t in pruned]
    state["max_embedding_delta"] = max(deltas, default=0.0)


def _check_lp(state, gate: Gate) -> None:
    gate.check("parse_errors == 0", state["parse_errors"] == 0, state["parse_errors"])
    targets = tasks.resolve_targets(state["kg"], state["task"])
    for name in ("lp", "ibs"):
        ratio = metrics.disconnected_ratio(state[name], targets)
        gate.check(f"{name} disconnected_ratio == 0", ratio == 0.0, ratio)
        gate.digests[name] = surface_digest(state[name])
    delta = state["max_embedding_delta"]
    gate.check("validate max_embedding_delta == 0.0", delta == 0.0, delta)
    gate.digests["validate"] = "PASS" if delta == 0.0 else "FAIL"


# -- sparql-http --------------------------------------------------------------

HTTP_D, HTTP_H, HTTP_BS, HTTP_WORKERS = 2, 1, 1000, 2


class CountingSession(requests.Session):
    """requests.Session that counts requests, failures and body bytes."""

    def __init__(self):
        super().__init__()
        self._lock = threading.Lock()
        self.requests = self.failed = self.bytes_in = self.page_requests = 0

    def request(self, method, url, *args, **kwargs):
        query = (kwargs.get("params") or kwargs.get("data") or {}).get("query", "")
        try:
            resp = super().request(method, url, *args, **kwargs)
        except requests.RequestException:
            with self._lock:
                self.requests += 1
                self.failed += 1
            raise
        with self._lock:
            self.requests += 1
            self.failed += resp.status_code != 200
            self.bytes_in += len(resp.content)
            self.page_requests += " limit " in query
        return resp


class EndpointProcess:
    """The SPARQL test double serving one dump from a child process."""

    def __init__(self, dump: Path, cfg: Path):
        cmd = [sys.executable, str(HERE / "endpoint_server.py"), str(dump), str(cfg)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("endpoint process exited before answering")
            self.info = json.loads(line)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def http_pattern_task(cfg: dict) -> patterns.PatternTask:
    """The IRI-level task `kgslice extract --endpoint` builds from a config."""
    return patterns.PatternTask(
        kind=cfg.get("task", "nc").lower(),
        target_type_iri=cfg["target_type"],
        target_predicate_iri=cfg.get("target_predicate"),
        object_type_iri=cfg.get("object_type"),
    )


def _start_endpoint(state) -> None:
    """Server-side load: time until the endpoint answers."""
    state["cfg_map"] = tasks.read_config(state["cfg"])
    state["server"] = EndpointProcess(state["dump"], state["cfg"])
    state["parse_errors"] = state["server"].info["parse_errors"]


def _extract_http(state) -> None:
    config = endpoint.EndpointConfig(url=state["server"].info["url"], workers=HTTP_WORKERS)
    session = CountingSession()
    state["session"] = session
    state["http"] = endpoint.sparql_extract(
        endpoint.HttpBackend(config, session=session),
        http_pattern_task(state["cfg_map"]),
        HTTP_D,
        HTTP_H,
        HTTP_BS,
        workers=HTTP_WORKERS,
    )


def _check_http(state, gate: Gate) -> None:
    gate.check("endpoint parse_errors == 0", state["parse_errors"] == 0, state["parse_errors"])
    sg = state["http"]
    task = tasks.task_from_config(sg.kg, state["cfg_map"])
    ratio = metrics.disconnected_ratio(sg, tasks.resolve_targets(sg.kg, task))
    gate.check("http disconnected_ratio == 0", ratio == 0.0, ratio)
    gate.digests["http"] = surface_digest(sg)
    _check_bundle(state, gate)


def local_oracle(state, gate: Gate) -> object:
    """The same pattern extracted locally; its triple set must equal the wire result.

    Runs after timing and after peak RSS is read. Returns the local graph,
    which describes the inputs.
    """
    kg, errors = graph.load_ntriples(state["dump"])
    gate.check("oracle parse_errors == 0", not errors, len(errors))
    local = endpoint.local_sparql_extract(
        kg, patterns.pattern_task_for(kg, tasks.task_from_config(kg, state["cfg_map"])),
        HTTP_D, HTTP_H,
    )
    gate.check("http triples == local_sparql_extract", surface_digest(local) == gate.digests["http"])
    return kg


# -- the workloads ------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="nc-200k",
            why="one-shot NC pipeline on a uniform 204k-triple dump: ingest, d2h2 blow-up "
            "through 50 label hubs, walks, metrics on a large slice, export",
            graph="nc",
            task_cfg=NC_CFG,
            steps=[
                ("setup_s", "setup_s", load),
                ("extract_d1h1_s", "extract_s", _local_sparql(1, 1, "d1h1")),
                ("extract_d2h2_s", "extract_s", _local_sparql(2, 2, "d2h2")),
                ("extract_brw_s", "extract_s", _brw),
                ("metrics_s", "downstream_s", _compare),
                ("export_s", "downstream_s", _export("d2h2")),
            ],
            check=_check_nc,
            calls=(
                "graph.load_ntriples", "graph.ingest_ntriples", "graph.walk_adjacency",
                "graph.induced_subgraph", "graph.subgraph_from_triples",
                "tasks.resolve_targets", "tasks.build_labels", "tasks.make_splits",
                "patterns.branch_count", "patterns.fetch",
                "endpoint.sparql_extract", "endpoint.get_graph_size", "endpoint.execute_plan",
                "endpoint.drop_duplicates",
                "walks.extract_random_walk", "walks.get_initial_vertices", "walks.random_walk_sample",
                "metrics.quality_report", "metrics.target_stats", "metrics.avg_distance_to_target",
                "metrics.disconnected_ratio", "metrics.neighbor_type_entropy",
                "export.export_bundle",
            ),
            moves={
                "graph ingest": "setup_s, peak_rss_mb",
                "graph walk_adjacency, induced_subgraph": "extract_s (extract_brw_s)",
                "graph subgraph_from_triples": "extract_s (extract_d1h1_s, extract_d2h2_s)",
                "patterns branch_count, fetch": "extract_s (extract_d2h2_s), peak_rss_mb",
                "endpoint drop_duplicates": "extract_s (extract_d2h2_s)",
                "walks": "extract_s (extract_brw_s)",
                "metrics": "downstream_s (metrics_s), mostly the d2h2 slice",
                "tasks build_labels, make_splits; export": "downstream_s (export_s)",
                "tasks resolve_targets": "total_s",
            },
            unchanged=("influence", "rgcn", "endpoint HTTP client"),
        ),
        Workload(
            name="lp-skew",
            why="LP pattern path, influence scoring and the RGCN validator on a Zipf-skewed "
            "scholarly graph with venue hubs, where ingest is a small share",
            graph="scholarly",
            task_cfg=LP_CFG,
            steps=[
                ("setup_s", "setup_s", load),
                ("extract_lp_s", "extract_s", _local_sparql(2, 2, "lp")),
                ("extract_ibs_s", "extract_s", _ibs),
                ("validate_s", "downstream_s", _validate),
            ],
            check=_check_lp,
            calls=(
                "graph.load_ntriples", "graph.ingest_ntriples", "graph.walk_adjacency",
                "graph.induced_subgraph", "graph.subgraph_from_triples", "tasks.resolve_targets",
                "patterns.branch_count", "patterns.fetch",
                "endpoint.sparql_extract", "endpoint.get_graph_size", "endpoint.execute_plan",
                "endpoint.drop_duplicates",
                "influence.extract_influence", "influence.influence_scores",
                "influence.approximate_ppr", "influence.select_topk", "influence.build_partition",
                "rgcn.random_features", "rgcn.rgcn_forward", "rgcn.prune_outside_reach",
                "rgcn.message_reach",
            ),
            moves={
                "graph ingest": "setup_s",
                "graph walk_adjacency, induced_subgraph": "extract_s (extract_ibs_s)",
                "patterns branch_count, fetch; endpoint drop_duplicates": "extract_s (extract_lp_s)",
                "influence": "extract_s (extract_ibs_s)",
                "rgcn": "downstream_s (validate_s)",
                "tasks resolve_targets": "total_s",
            },
            unchanged=("walks", "metrics", "export", "tasks build_labels, make_splits",
                       "endpoint HTTP client"),
        ),
        Workload(
            name="sparql-http",
            why="endpoint client wire path: 1000-row pages over HTTP with 2 workers, dedup by "
            "re-ingest of the returned rows, then export without a local graph",
            graph="scholarly",
            task_cfg=HTTP_CFG,
            steps=[
                ("setup_s", "setup_s", _start_endpoint),
                ("extract_http_s", "extract_s", _extract_http),
                ("export_s", "downstream_s", _export("http")),
            ],
            check=_check_http,
            calls=(
                "graph.ingest_ntriples", "graph.subgraph_from_triples",
                "tasks.resolve_targets", "tasks.build_labels", "tasks.make_splits",
                "endpoint.sparql_extract", "endpoint.get_graph_size", "endpoint.execute_plan",
                "endpoint.drop_duplicates", "endpoint.http_count", "endpoint.http_fetch",
                "export.export_bundle",
            ),
            moves={
                "endpoint get_graph_size, execute_plan, pages, requests, bytes": "extract_s (extract_http_s)",
                "endpoint drop_duplicates; graph ingest (re-ingest of returned rows)": "extract_s (extract_http_s), peak_rss_mb",
                "tasks build_labels, make_splits; export": "downstream_s (export_s)",
                "server-side graph ingest": "setup_s",
            },
            unchanged=("influence", "walks", "metrics", "rgcn",
                       "patterns local evaluation (runs in the endpoint process, inside setup_s)"),
        ),
    )
}

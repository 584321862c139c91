"""Command-line interface.

Subcommands: ingest, extract, metrics, compare, validate, export,
diff-versions. Exit codes: 0 success, 1 usage error, 2 runtime failure.
Logs go to stderr; -v/-vv raise verbosity. The default SPARQL endpoint
may be set through the KGSLICE_ENDPOINT environment variable.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import export as export_mod
from .endpoint import EndpointConfig, HttpBackend, check_request_policy, sparql_extract
from .errors import (
    JobFailed,
    KgsliceError,
    ParseError,
    UnknownPredicate,
    UnknownType,
    check_at_least_one,
)
from .graph import (
    BOTH,
    RDF_TYPE,
    Subgraph,
    load_ntriples,
    open_for_rewrite,
    open_maybe_gzip,
    read_ntriples,
    subgraph_from_triples,
)
from .influence import PprParams, extract_influence
from .metrics import quality_report, render_reports, reports_tsv
from .patterns import LocalBackend, PatternTask, check_pattern_shape, pattern_task_for
from .rgcn import RgcnReferenceModel, prune_outside_reach, random_features, rgcn_forward
from .tasks import (
    NODE_CLASSIFICATION,
    build_labels,
    check_task_config,
    config_required,
    config_task_kind,
    make_splits,
    read_config,
    resolve_targets,
    split_from_config,
    task_from_config,
)
from .walks import WalkParams, extract_random_walk

log = logging.getLogger("kgslice")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _warn_parse_errors(path, errors) -> None:
    for err in errors[:20]:
        log.warning("%s: %s", path, err)
    if len(errors) > 20:
        log.warning("%s: %d more parse errors", path, len(errors) - 20)


def _load_kg(path, type_predicate=RDF_TYPE, strict=False):
    kg, errors = load_ntriples(path, type_predicate_iri=type_predicate, strict=strict)
    _warn_parse_errors(path, errors)
    return kg, errors


def _write_subgraph(sg: Subgraph, outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    with open_for_rewrite(outdir / "subgraph.nt", "w", encoding="utf-8") as fh:
        sg.write_ntriples(fh)
    with open_for_rewrite(outdir / "subgraph.csv", "w", encoding="utf-8", newline="") as fh:
        sg.write_csv(fh)
    manifest = {
        "provenance": sg.provenance,
        "vertices": len(sg.vertex_ids),
        "triples": len(sg.spo),
        "node_types": len(sg.node_type_ids),
        "predicates": len(sg.predicate_ids),
    }
    with open_for_rewrite(outdir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_slices(args, paths):
    """Read the slice files and the task config for metrics, compare, validate, export.

    Each slice is loaded strictly as a graph of its own, typed by
    ``--type-predicate``. With ``--kg`` its term and predicate tables are
    then mapped into that graph's id space, once per distinct term. A term
    the graph lacks is an error naming the first such term in the slice's
    own id order, vertices before predicates. Returns one (subgraph, task)
    pair per path, and the config.
    """
    cfg = read_config(args.config)
    # a config that no graph could make a task of fails before --kg or a slice is read
    check_task_config(cfg)
    kg = _load_kg(args.kg, type_predicate=args.type_predicate)[0] if args.kg else None
    slices = []
    for path in paths:
        own, _ = load_ntriples(path, type_predicate_iri=args.type_predicate, strict=True)
        if kg is None:
            sg = subgraph_from_triples(own, own.spo)
        else:
            vertex = np.array([kg.vertex_id(t) for t in own.terms], dtype=np.int32)
            preds = map(own.predicate_term, range(own.predicate_count()))
            predicate = np.array([kg.predicate_id(t) for t in preds], dtype=np.int32)
            spo = np.column_stack([vertex[own.s], predicate[own.p], vertex[own.o]])
            sg = subgraph_from_triples(kg, spo)
        slices.append((sg, task_from_config(sg.kg, cfg)))
    return slices, cfg


def _strip_label_edges(sg: Subgraph, target_type_iri: str, label_predicate_iri: str) -> Subgraph:
    """Drop label-predicate triples whose subject is a target (leakage).

    The target type and the label predicate are looked up in the slice's
    own graph, which is the input graph or, for an endpoint extraction,
    the graph of the returned rows.
    """
    kg = sg.kg
    label_edge = np.zeros(len(sg.spo), dtype=bool)
    try:
        target_type = kg.type_id(target_type_iri)
        label_predicate = kg.predicate_id(label_predicate_iri)
    except (UnknownType, UnknownPredicate):
        pass  # without the target type or the label predicate there is no label edge
    else:
        types = sg.type_spo
        targets = types[types[:, 2] == target_type, 0]
        label_edge = sg.spo[:, 1] == label_predicate
        label_edge[label_edge] = np.isin(sg.spo[label_edge, 0], targets)
    # vertices that only carried label edges drop out with them
    out = Subgraph(kg, sg.spo[~label_edge], dict(sg.provenance))
    out.provenance["label_edges_excluded"] = int(np.count_nonzero(label_edge))
    return out


def cmd_ingest(args) -> int:
    kg, errors = _load_kg(args.input, type_predicate=args.type_predicate, strict=args.strict)
    print(f"vertices\t{kg.vertex_count()}")
    print(f"triples\t{kg.triple_count()}")
    print(f"node_types\t{kg.type_count()}")
    print(f"predicates\t{kg.predicate_count()}")
    print(f"parse_errors\t{len(errors)}")
    if args.dict_out:
        with open_for_rewrite(args.dict_out, "w", encoding="utf-8") as fh:
            kg.write_dictionary_tsv(fh)
    if args.nt_out:
        with open_for_rewrite(args.nt_out, "w", encoding="utf-8") as fh:
            kg.write_ntriples(fh)
    return 0


def _endpoint_extract(args, cfg, outdir: Path) -> Subgraph:
    """Pattern extraction against ``--endpoint``; a failed job leaves partial.json."""
    task = PatternTask(
        kind=config_task_kind(cfg),
        target_type_iri=config_required(cfg, "target_type"),
        target_predicate_iri=cfg.get("target_predicate"),
        object_type_iri=cfg.get("object_type"),
        type_predicate_iri=args.type_predicate,
    )
    endpoint = EndpointConfig(
        url=args.endpoint,
        graph_iri=args.graph,
        timeout=args.timeout,
        retries=args.retries,
    )
    try:
        return sparql_extract(
            HttpBackend(endpoint), task, args.d, args.h, args.bs, workers=args.workers
        )
    except JobFailed as exc:
        outdir.mkdir(parents=True, exist_ok=True)
        partial = {
            "failed_job": list(exc.job),
            "completed_jobs": exc.completed_jobs,
            "cause": str(exc.cause),
        }
        with open_for_rewrite(outdir / "partial.json", "w", encoding="utf-8") as fh:
            json.dump(partial, fh, indent=2)
        raise


def _engine_params(args) -> WalkParams | PprParams | None:
    """The engine's checked parameters: WalkParams for brw, PprParams for ibs."""
    if args.engine == "brw":
        return WalkParams(
            walk_length=args.h,
            batch_size=args.bs,
            walks_per_seed=args.walks_per_seed,
            seed=args.seed,
            direction=args.direction,
        )
    check_at_least_one(args.bs, "batch size")
    if args.engine == "ibs":
        check_at_least_one(args.k, "k")
        return PprParams(alpha=args.alpha, epsilon=args.epsilon)
    check_pattern_shape(args.d, args.h)
    return None


def _local_extract(args, cfg, params) -> Subgraph:
    """Extraction from the ``--kg`` input with the chosen engine."""
    if not args.kg:
        raise KgsliceError("--kg is required unless --engine sparql uses --endpoint")
    kg, _ = _load_kg(args.kg, type_predicate=args.type_predicate)
    task = task_from_config(kg, cfg)

    if args.engine == "brw":
        return extract_random_walk(kg, task, params)
    if args.engine == "ibs":
        return extract_influence(kg, task, bs=args.bs, k=args.k, params=params, seed=args.seed)
    return sparql_extract(
        LocalBackend(kg), pattern_task_for(kg, task), args.d, args.h, args.bs,
        workers=args.workers,
    )


def cmd_extract(args) -> int:
    # every engine rejects a bad --timeout, --retries, --workers or engine
    # parameter before any file is read or request sent, and a config no
    # graph could make a task of before --kg is read or a request sent
    check_request_policy(args.timeout, args.retries)
    check_at_least_one(args.workers, "workers")
    params = _engine_params(args)
    cfg = read_config(args.config)
    check_task_config(cfg)
    outdir = Path(args.out)
    if args.engine == "sparql" and args.endpoint:
        sg = _endpoint_extract(args, cfg, outdir)
    else:
        sg = _local_extract(args, cfg, params)

    nc = config_task_kind(cfg) == NODE_CLASSIFICATION
    if nc and "target_predicate" in cfg and not args.keep_label_edges:
        sg = _strip_label_edges(sg, cfg["target_type"], cfg["target_predicate"])

    _write_subgraph(sg, outdir)
    print(f"extracted {len(sg.spo)} triples to {outdir}")
    return 0


def cmd_metrics(args) -> int:
    paths = [args.subgraph] if args.command == "metrics" else args.subgraphs
    slices, _ = _load_slices(args, paths)
    named = [
        (Path(path).name, quality_report(sg, task, sg.kg))
        for path, (sg, task) in zip(paths, slices)
    ]
    sys.stdout.write(render_reports(named))
    if args.tsv:
        with open_for_rewrite(args.tsv, "w", encoding="utf-8") as fh:
            fh.write(reports_tsv(named))
    return 0


def cmd_validate(args) -> int:
    # an impossible shape fails before any file is read
    model = RgcnReferenceModel(layers=args.layers, dim=args.dim, seed=args.seed)
    [(sg, task)], _ = _load_slices(args, [args.subgraph])
    # the slice's targets, ascending
    targets = sg.vertex_ids[sg.local_ids(resolve_targets(sg.kg, task))].tolist()
    feats = random_features(sg.entity_vertices(), args.dim, seed=args.seed)
    full = rgcn_forward(model, sg, feats)
    pruned_sg = prune_outside_reach(sg, targets, hops=args.layers)
    pruned = rgcn_forward(model, pruned_sg, feats)
    deltas = [
        float(np.max(np.abs(full[t] - pruned[t]))) for t in targets if t in pruned
    ]
    max_delta = max(deltas, default=0.0)
    removed = len(sg.vertex_ids) - len(pruned_sg.vertex_ids)
    verdict = "PASS" if max_delta == 0.0 else "FAIL"
    print(f"pruning-invariance\t{verdict}")
    print(f"max_embedding_delta\t{max_delta}")
    print(f"pruned_vertices\t{removed}")
    return 0 if verdict == "PASS" else 2


def cmd_export(args) -> int:
    [(sg, task)], cfg = _load_slices(args, [args.subgraph])
    backing = sg.kg
    labels = None
    splits = None
    if task.kind == NODE_CLASSIFICATION:
        labels = build_labels(backing, task)
        targets = resolve_targets(backing, task)
        splits = make_splits(targets, labels, backing, split_from_config(backing, cfg))
    exclude = task.kind == NODE_CLASSIFICATION and not args.keep_label_edges
    bundle = export_mod.export_bundle(
        sg,
        labels,
        splits,
        args.out,
        exclude_label_edges=exclude,
        label_predicate=task.target_predicate,
    )
    print(f"bundle written to {bundle.outdir}")
    return 0


def cmd_diff_versions(args) -> int:
    # strict: a malformed line would otherwise drop statements from the diff
    def statements(path):
        with open_maybe_gzip(path) as fh:
            return set(read_ntriples(fh))

    old_set, new_set = statements(args.old), statements(args.new)
    added = sorted(new_set - old_set)
    removed = sorted(old_set - new_set)
    print(f"added\t{len(added)}")
    print(f"removed\t{len(removed)}")
    if args.added_out:
        with open(args.added_out, "w", encoding="utf-8") as fh:
            for s, p, o in added:
                fh.write(f"{s} {p} {o} .\n")
    if args.removed_out:
        with open(args.removed_out, "w", encoding="utf-8") as fh:
            for s, p, o in removed:
                fh.write(f"{s} {p} {o} .\n")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="kgslice", description=__doc__)
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_inputs(p):
        """The task config, the local dump and its type predicate."""
        p.add_argument("--config", required=True)
        p.add_argument("--kg", help="local N-Triples input")
        p.add_argument("--type-predicate", default=RDF_TYPE, metavar="IRI")

    p = sub.add_parser("ingest", help="parse an N-Triples file and report stats")
    p.add_argument("input")
    p.add_argument("--type-predicate", default=RDF_TYPE, metavar="IRI")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--dict-out", metavar="TSV")
    p.add_argument("--nt-out", metavar="FILE")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("extract", help="extract a task-relevant subgraph")
    p.add_argument("--engine", choices=("brw", "ibs", "sparql"), required=True)
    p.add_argument("--out", required=True)
    add_graph_inputs(p)
    p.add_argument("--endpoint", default=os.environ.get("KGSLICE_ENDPOINT"))
    p.add_argument("--graph", help="named graph IRI for endpoint extraction")
    p.add_argument("--h", type=int, default=1, help="hops (sparql) / walk length (brw)")
    p.add_argument("--d", type=int, default=1, choices=(1, 2))
    p.add_argument("--bs", type=int, default=20000)
    p.add_argument("--k", type=int, default=16)
    p.add_argument("--alpha", type=float, default=0.25)
    p.add_argument("--epsilon", type=float, default=0.0002)
    p.add_argument("--walks-per-seed", type=int, default=1)
    p.add_argument("--direction", choices=("outgoing", "both"), default=BOTH)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="parallel page workers (sparql engine only)")
    p.add_argument("--timeout", type=float, default=60.0)
    p.add_argument("--retries", type=int, default=2)
    p.add_argument("--keep-label-edges", action="store_true")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("metrics", help="quality indicators for one subgraph")
    p.add_argument("--subgraph", required=True)
    add_graph_inputs(p)
    p.add_argument("--tsv", help="also write machine-readable output here")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("compare", help="indicator matrix across subgraphs")
    p.add_argument("subgraphs", nargs="+")
    add_graph_inputs(p)
    p.add_argument("--tsv")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("validate", help="message-passing pruning invariance check")
    p.add_argument("--subgraph", required=True)
    add_graph_inputs(p)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("export", help="write a trainer-ready bundle")
    p.add_argument("--subgraph", required=True)
    add_graph_inputs(p)
    p.add_argument("--out", required=True)
    p.add_argument("--keep-label-edges", action="store_true")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("diff-versions", help="triple set difference of two dumps")
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("--added-out")
    p.add_argument("--removed-out")
    p.set_defaults(func=cmd_diff_versions)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    level = logging.WARNING
    if args.verbose == 1:
        level = logging.INFO
    elif args.verbose >= 2:
        level = logging.DEBUG
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(message)s")
    try:
        return args.func(args)
    except (KgsliceError, ParseError, OSError) as exc:
        sys.stderr.write(f"kgslice: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

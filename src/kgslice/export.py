"""Package a subgraph plus labels/splits into trainer-ready files.

Layout written to the output directory:

  nodes.tsv      node type <TAB> dense id <TAB> term
                 (dense ids contiguous per node type, starting at 0)
  types.tsv      term <TAB> type IRI, one row per type assertion
  edges_NNN.tsv  src dense id <TAB> dst dense id, one file per
                 (src type, predicate, dst type) combination
  labels.tsv     term <TAB> label id
  splits.tsv     term <TAB> train|valid|test
  manifest.json  parameters, per-file row counts and sha256 checksums

Vertices with several types are dictionary-indexed under their
lexicographically smallest type; the full assertion list lives in
types.tsv so a rebuild loses nothing. Everything is sorted, so the same
inputs produce byte-identical bundles.

Exporting into a directory that holds an earlier bundle rewrites each
file in place, without truncating it to zero first (see
:func:`kgslice.graph.open_for_rewrite`), and then deletes the
``edges_NNN.tsv`` files the new manifest does not list, so a trainer that
globs ``edges_*.tsv`` loads only the new slice. No other file in the
directory is touched.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import warnings
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

from .errors import IoFailure, MalformedTerm
from .graph import KIND_LITERAL, KnowledgeGraph, Subgraph, ingest_ntriples, open_for_rewrite
from .tasks import LabelMap

UNTYPED = "__untyped__"
LITERAL_TYPE = "__literal__"
_EDGE_FILE = re.compile(r"edges_[0-9]{3,}\.tsv")


class DanglingLabelWarning(UserWarning):
    """A labeled vertex that the subgraph does not contain; dropped."""


@dataclass
class ExportBundle:
    outdir: Path
    manifest: dict


def _primary_types(sg: Subgraph) -> dict[int, str]:
    kg = sg.kg
    primary: dict[int, str] = {}
    for s, _, o in sg.type_triples:  # the smallest asserted type
        lexical = kg.lexical(o)
        if s not in primary or lexical < primary[s]:
            primary[s] = lexical
    for v in sg.vertices:
        if v not in primary:
            primary[v] = LITERAL_TYPE if kg.kind(v) == KIND_LITERAL else UNTYPED
    return primary


_CHUNK_LINES = 8192  # lines encoded per write: one file is never held whole


def _write(path: Path, lines) -> str:
    """Write ``lines``, each ending in a newline, as UTF-8.

    Returns the sha256 of the bytes written.
    """
    digest = hashlib.sha256()
    lines = iter(lines)
    with open_for_rewrite(path, "wb") as fh:
        while chunk := "".join(islice(lines, _CHUNK_LINES)):
            data = chunk.encode("utf-8")
            fh.write(data)
            digest.update(data)
    return digest.hexdigest()


def export_bundle(
    sg: Subgraph,
    labels: LabelMap | None,
    splits: dict[int, str] | None,
    outdir,
    exclude_label_edges: bool = False,
    label_predicate: int | None = None,
) -> ExportBundle:
    """Write all bundle files; returns the manifest wrapper.

    With exclude_label_edges, triples whose predicate is the label
    predicate and whose subject carries a label are left out of the edge
    files (they are the prediction answers, not input structure).
    """
    kg = sg.kg
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc

    primary = _primary_types(sg)
    by_type: dict[str, list[int]] = {}
    for v in sg.vertices:
        by_type.setdefault(primary[v], []).append(v)
    dense: dict[int, int] = {}
    members_by_type = []
    for type_name in sorted(by_type):
        members = sorted(by_type[type_name], key=kg.term)
        for i, v in enumerate(members):
            dense[v] = i
        members_by_type.append((type_name, members))
    checksums = {}
    checksums["nodes.tsv"] = _write(
        outdir / "nodes.tsv",
        (f"{t}\t{i}\t{kg.term(v)}\n" for t, vs in members_by_type for i, v in enumerate(vs)),
    )

    type_rows = sorted(
        (kg.term(s), kg.lexical(o)) for s, _, o in sg.type_triples
    )
    checksums["types.tsv"] = _write(
        outdir / "types.tsv", (f"{term}\t{type_iri}\n" for term, type_iri in type_rows)
    )

    labeled = labels.labels if labels is not None else {}
    by_predicate_id: dict[tuple[str, int, str], list[tuple[int, int]]] = {}
    excluded_edges = 0
    for s, p, o in sg.non_type_triples:
        if exclude_label_edges and p == label_predicate and s in labeled:
            excluded_edges += 1
            continue
        by_predicate_id.setdefault((primary[s], p, primary[o]), []).append((dense[s], dense[o]))
    # predicate ids and IRIs correspond one to one, so no two groups merge
    edge_groups = {
        (src_type, kg.predicate_iri(p), dst_type): pairs
        for (src_type, p, dst_type), pairs in by_predicate_id.items()
    }

    edge_files = {}
    for i, key in enumerate(sorted(edge_groups)):
        name = f"edges_{i:03d}.tsv"
        rows = sorted(edge_groups[key])
        checksums[name] = _write(outdir / name, (f"{src}\t{dst}\n" for src, dst in rows))
        edge_files[name] = {
            "src_type": key[0],
            "predicate": key[1],
            "dst_type": key[2],
            "rows": len(rows),
        }

    label_rows = []
    for v, label_id in labeled.items():
        if v not in dense:
            warnings.warn(
                f"labeled vertex {v} is not in the subgraph; dropped",
                DanglingLabelWarning,
            )
            continue
        label_rows.append((kg.term(v), label_id))
    label_rows.sort()
    checksums["labels.tsv"] = _write(
        outdir / "labels.tsv", (f"{term}\t{label_id}\n" for term, label_id in label_rows)
    )

    split_rows = []
    for v, part in (splits or {}).items():
        if v in dense:
            split_rows.append((kg.term(v), part))
    split_rows.sort()
    checksums["splits.tsv"] = _write(
        outdir / "splits.tsv", (f"{term}\t{part}\n" for term, part in split_rows)
    )

    manifest = {
        "provenance": sg.provenance,
        "type_predicate": kg.type_predicate_iri,
        "node_counts": {t: len(vs) for t, vs in sorted(by_type.items())},
        "edge_files": edge_files,
        "type_assertions": len(type_rows),
        "labels": len(label_rows),
        "splits": len(split_rows),
        "excluded_label_edges": excluded_edges,
        "label_dictionary": list(labels.label_terms) if labels is not None else [],
    }
    manifest["checksums"] = dict(sorted(checksums.items()))
    with open_for_rewrite(outdir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    # edge files of an earlier, bigger bundle in this directory
    with os.scandir(outdir) as entries:
        for entry in entries:
            if _EDGE_FILE.fullmatch(entry.name) and entry.name not in edge_files:
                os.unlink(entry.path)
    return ExportBundle(outdir=outdir, manifest=manifest)


def rebuild_bundle(outdir) -> KnowledgeGraph:
    """Reconstruct a KnowledgeGraph from an exported bundle.

    Raises IoFailure when a term or predicate in the bundle is not valid
    N-Triples where it occurs.
    """
    outdir = Path(outdir)
    manifest = json.loads((outdir / "manifest.json").read_text())
    term_of: dict[tuple[str, int], str] = {}
    with open(outdir / "nodes.tsv", encoding="utf-8") as fh:
        for line in fh:
            # a literal term may hold a raw tab, so split at the first two only
            type_name, dense_s, term = line.rstrip("\n").split("\t", 2)
            term_of[(type_name, int(dense_s))] = term
    type_pred = manifest["type_predicate"]

    def statements():
        with open(outdir / "types.tsv", encoding="utf-8") as fh:
            for line in fh:
                term, type_iri = line.rstrip("\n").rsplit("\t", 1)
                yield term, f"<{type_pred}>", f"<{type_iri}>"
        for name, info in manifest["edge_files"].items():
            predicate = f"<{info['predicate']}>"
            with open(outdir / name, encoding="utf-8") as fh:
                for line in fh:
                    src_s, dst_s = line.rstrip("\n").split("\t")
                    s = term_of[(info["src_type"], int(src_s))]
                    o = term_of[(info["dst_type"], int(dst_s))]
                    yield s, predicate, o

    try:
        kg, _ = ingest_ntriples(statements(), type_predicate_iri=type_pred)
    except MalformedTerm as exc:
        raise IoFailure(f"bundle does not round-trip: {exc}") from exc
    return kg

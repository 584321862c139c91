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

The edge files are built as array work: each non-type triple gets one
integer key from the ranks, in string order, of its source type, its
predicate IRI and its target type, and one sort of (key, source dense
id, target dense id) packed into one int64 per row
(:func:`kgslice.graph.lex_order`) orders every row; the rows are distinct
triples, so no two tie. Each run of equal keys is one edge file,
written from its own slice of the sorted arrays through
:func:`kgslice.graph.write_over`, a chunk of lines at a time, with no
file object per file. Ascending keys are the
groups' string order, so the files, their numbering and the manifest are
the ones a per-triple grouping and sort gives.

:func:`rebuild_bundle` checks every file against the sha256 and row
count in ``manifest.json`` before it reads the bundle.

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
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .errors import IoFailure, MalformedTerm
from .graph import KnowledgeGraph, Subgraph, distinct, ingest_ntriples, lex_order, write_over
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


_CHUNK_LINES = 8192  # lines (or JSON pieces) encoded per write: a file is never held whole


def _write(path: Path, lines) -> str:
    """Write the strings ``lines`` one after the other, as UTF-8.

    Returns the sha256 of the bytes written.
    """
    digest = hashlib.sha256()
    write_over(path, _encoded_chunks(lines, digest))
    return digest.hexdigest()


def _encoded_chunks(lines, digest):
    """``lines`` as UTF-8, ``_CHUNK_LINES`` at a time, each chunk added to ``digest``."""
    lines = iter(lines)
    while chunk := "".join(islice(lines, _CHUNK_LINES)):
        data = chunk.encode("utf-8")
        digest.update(data)
        yield data


def _in_slice(sg: Subgraph, ids) -> list[bool]:
    """Whether each of the parent ``ids`` is a vertex of the slice."""
    return np.isin(list(ids), sg.vertex_ids).tolist()


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

    # each class's name once, then every vertex's smallest asserted type,
    # else the literal or untyped bucket
    typed, classes = sg.type_spo[:, 0].tolist(), sg.type_spo[:, 2].tolist()
    class_ids = distinct(sg.type_spo[:, 2]).tolist()
    class_name = dict(zip(class_ids, map(kg.lexical, class_ids))).__getitem__
    smallest: dict[int, str] = {}
    for s, name in zip(typed, map(class_name, classes)):
        if s not in smallest or name < smallest[s]:
            smallest[s] = name
    term_of = kg.terms.__getitem__
    verts = sorted(sg.vertex_ids.tolist(), key=term_of)
    ids = np.fromiter(verts, dtype=np.int64, count=len(verts))
    names = [
        smallest[v] if v in smallest else LITERAL_TYPE if literal else UNTYPED
        for v, literal in zip(verts, kg.literal_mask()[ids].tolist())
    ]
    type_names = sorted(set(names))
    type_rank = {t: i for i, t in enumerate(type_names)}
    rank = np.fromiter(map(type_rank.__getitem__, names), dtype=np.int64, count=len(names))
    # a stable sort by type keeps each type's members in term order
    by_type = np.argsort(rank, kind="stable")
    rank = rank[by_type]
    ids = ids[by_type]
    counts = np.bincount(rank, minlength=len(type_names))
    dense = np.arange(len(ids)) - (np.cumsum(counts) - counts)[rank]
    del smallest, verts, names, type_rank, by_type
    checksums = {}
    checksums["nodes.tsv"] = _write(
        outdir / "nodes.tsv",
        (
            f"{type_names[r]}\t{i}\t{term}\n"
            for r, i, term in zip(rank.tolist(), dense.tolist(), map(term_of, ids.tolist()))
        ),
    )
    # type rank and dense id by slice-local id, so both follow the slice
    local = np.searchsorted(sg.vertex_ids, ids)
    type_of = np.empty_like(rank)
    type_of[local] = rank
    dense_of = np.empty_like(dense)
    dense_of[local] = dense
    del rank, ids, dense, local

    type_rows = sorted(zip(map(term_of, typed), map(class_name, classes)))
    del typed, classes
    checksums["types.tsv"] = _write(
        outdir / "types.tsv", (f"{term}\t{type_iri}\n" for term, type_iri in type_rows)
    )

    labeled = labels.labels if labels is not None else {}
    p = sg.non_type_spo[:, 1]
    s, o = sg.local_edges
    excluded_edges = 0
    if exclude_label_edges and label_predicate is not None:
        drop = p == label_predicate
        drop[drop] = np.isin(sg.non_type_spo[drop, 0], list(labeled))
        excluded_edges = int(np.count_nonzero(drop))
        keep = ~drop
        s, p, o = s[keep], p[keep], o[keep]
        del drop, keep
    # group key: ranks of the source type, the predicate IRI and the target
    # type, so ascending keys are the groups' string order
    preds = sorted(np.flatnonzero(np.bincount(p)).tolist(), key=kg.predicate_iri)
    pred_rank = np.zeros(kg.predicate_count(), dtype=np.int64)
    pred_rank[preds] = np.arange(len(preds))
    n_preds, n_types = len(preds), len(type_names)
    key = type_of[s] * n_preds
    key += pred_rank[p]
    key *= n_types
    key += type_of[o]
    src, dst = dense_of[s], dense_of[o]
    del s, p, o, type_of, dense_of, pred_rank
    order = lex_order((key, src, dst))
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    group_keys = key[starts].tolist()
    del key
    src, dst = src[order], dst[order]
    del order
    bounds = [*starts.tolist(), len(src)]

    edge_files = {}
    for i, k in enumerate(group_keys):
        lo, hi = bounds[i], bounds[i + 1]
        src_rank, rest = divmod(k, n_preds * n_types)
        pred, dst_rank = divmod(rest, n_types)
        name = f"edges_{i:03d}.tsv"
        rows = zip(src[lo:hi].tolist(), dst[lo:hi].tolist())
        checksums[name] = _write(outdir / name, map("%d\t%d\n".__mod__, rows))
        edge_files[name] = {
            "src_type": type_names[src_rank],
            "predicate": kg.predicate_iri(preds[pred]),
            "dst_type": type_names[dst_rank],
            "rows": hi - lo,
        }
    del src, dst

    label_rows = []
    for (v, label_id), inside in zip(labeled.items(), _in_slice(sg, labeled)):
        if not inside:
            warnings.warn(
                f"labeled vertex {v} is not in the subgraph; dropped",
                DanglingLabelWarning,
            )
            continue
        label_rows.append((term_of(v), label_id))
    label_rows.sort()
    checksums["labels.tsv"] = _write(
        outdir / "labels.tsv", (f"{term}\t{label_id}\n" for term, label_id in label_rows)
    )

    splits = splits or {}
    split_rows = []
    for (v, part), inside in zip(splits.items(), _in_slice(sg, splits)):
        if inside:
            split_rows.append((term_of(v), part))
    split_rows.sort()
    checksums["splits.tsv"] = _write(
        outdir / "splits.tsv", (f"{term}\t{part}\n" for term, part in split_rows)
    )

    manifest = {
        "provenance": sg.provenance,
        "type_predicate": kg.type_predicate_iri,
        "node_counts": dict(zip(type_names, counts.tolist())),
        "edge_files": edge_files,
        "type_assertions": len(type_rows),
        "labels": len(label_rows),
        "splits": len(split_rows),
        "excluded_label_edges": excluded_edges,
        "label_dictionary": list(labels.label_terms) if labels is not None else [],
    }
    manifest["checksums"] = dict(sorted(checksums.items()))
    # json.dump's text, written a chunk of pieces at a time rather than a piece per write
    pieces = json.JSONEncoder(indent=2, sort_keys=True).iterencode(manifest)
    _write(outdir / "manifest.json", chain(pieces, "\n"))
    # edge files of an earlier, bigger bundle in this directory
    with os.scandir(outdir) as entries:
        for entry in entries:
            if _EDGE_FILE.fullmatch(entry.name) and entry.name not in edge_files:
                os.unlink(entry.path)
    return ExportBundle(outdir=outdir, manifest=manifest)


def _check_file(path: Path, digest: str, rows: int) -> None:
    """Raise IoFailure unless the file at ``path`` has sha256 ``digest`` and ``rows`` lines."""
    sha = hashlib.sha256()
    lines = 0
    try:
        with open(path, "rb") as fh:
            while block := fh.read(1 << 20):
                sha.update(block)
                lines += block.count(b"\n")
    except OSError as exc:
        raise IoFailure(f"bundle file {path.name}: {exc}") from exc
    if lines != rows:
        raise IoFailure(f"bundle file {path.name} holds {lines} rows; manifest.json lists {rows}")
    if sha.hexdigest() != digest:
        raise IoFailure(f"bundle file {path.name} does not match its sha256 in manifest.json")


def rebuild_bundle(outdir) -> KnowledgeGraph:
    """Reconstruct a KnowledgeGraph from an exported bundle.

    Raises IoFailure, naming the file, when a bundle file's sha256 or row
    count differs from ``manifest.json`` (for example a file a killed
    re-export left half rewritten), and when a term or predicate in the
    bundle is not valid N-Triples where it occurs.
    """
    outdir = Path(outdir)
    manifest = json.loads((outdir / "manifest.json").read_text())
    rows = {
        "nodes.tsv": sum(manifest["node_counts"].values()),
        "types.tsv": manifest["type_assertions"],
        "labels.tsv": manifest["labels"],
        "splits.tsv": manifest["splits"],
        **{name: info["rows"] for name, info in manifest["edge_files"].items()},
    }
    for name, digest in manifest["checksums"].items():
        _check_file(outdir / name, digest, rows[name])
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

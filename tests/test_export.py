from __future__ import annotations

import hashlib
import json
import os
import random
import warnings

import numpy as np
import pytest

from kgslice import export
from kgslice.errors import IoFailure
from kgslice.export import DanglingLabelWarning, export_bundle, rebuild_bundle
from kgslice.graph import subgraph_from_triples
from kgslice.tasks import LabelMap, SplitSpec, TaskSpec, build_labels, make_splits, resolve_targets

from conftest import EX, TYPE_IRI, make_kg, nt, random_kg, random_kg_lines
from oracles import reference_export_bundle, surface_triples


def full_subgraph(kg):
    return subgraph_from_triples(kg, kg.triples, provenance={"engine": "test"})


def labeled_kg(rng, n=40):
    lines = []
    for i in range(n):
        lines.append(nt(f"v{i}", "a", "T"))
        lines.append(nt(f"v{i}", "hasLabel", f"L{i % 3}"))
        lines.append(nt(f"v{i}", "cites", f"v{(i + 1) % n}"))
    return make_kg(lines)


def nc_task(kg):
    return TaskSpec(
        kind="nc",
        target_type=kg.type_id(f"{EX}T"),
        target_predicate=kg.predicate_id(f"{EX}hasLabel"),
    )


def test_empty_subgraph_bundle(tmp_path):
    kg = make_kg([nt("a", "p0", "b")])
    sg = subgraph_from_triples(kg, [])
    bundle = export_bundle(sg, None, None, tmp_path / "out")
    assert (tmp_path / "out" / "manifest.json").exists()
    assert bundle.manifest["node_counts"] == {}
    assert (tmp_path / "out" / "nodes.tsv").read_text() == ""


def test_dense_ids_contiguous_per_type(tmp_path):
    lines = [
        nt("a", "a", "T"),
        nt("b", "a", "U"),
        nt("c", "a", "U"),
        nt("a", "p0", "b"),
        nt("a", "p0", "c"),
    ]
    kg = make_kg(lines)
    sg = full_subgraph(kg)
    export_bundle(sg, None, None, tmp_path)
    rows = [l.split("\t") for l in (tmp_path / "nodes.tsv").read_text().splitlines()]
    per_type: dict[str, list[int]] = {}
    for type_name, dense, _ in rows:
        per_type.setdefault(type_name, []).append(int(dense))
    assert set(per_type) == {f"{EX}T", f"{EX}U"}
    for ids in per_type.values():
        assert ids == list(range(len(ids)))


def test_round_trip_isomorphism(rng, tmp_path):
    kg = make_kg(random_kg_lines(rng, n_vertices=60, n_triples=200, multi_type_fraction=0.3))
    sg = full_subgraph(kg)
    export_bundle(sg, None, None, tmp_path)
    rebuilt = rebuild_bundle(tmp_path)
    assert surface_triples(rebuilt) == surface_triples(kg, sg.triples)


def test_round_trip_literal_with_raw_tab(tmp_path):
    kg = make_kg([nt("a", "a", "T"), nt("a", "p0", '"x\ty"'), nt("a", "p0", "b")])
    export_bundle(full_subgraph(kg), None, None, tmp_path)
    assert surface_triples(rebuild_bundle(tmp_path)) == surface_triples(kg)


@pytest.mark.parametrize(
    "name,old,new",
    [
        ("nodes.tsv", f"<{EX}b>", "<a b>"),  # an IRI may not hold a space
        ("nodes.tsv", f"<{EX}a>", '"a"'),  # a literal may not be a subject
        ("manifest.json", f"{EX}p0", f"{EX}p 0"),  # nor may a predicate IRI
    ],
)
def test_corrupt_bundle_fails_rebuild(tmp_path, name, old, new):
    kg = make_kg([nt("a", "a", "T"), nt("a", "p0", "b")])
    export_bundle(full_subgraph(kg), None, None, tmp_path)
    path = tmp_path / name
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new), encoding="utf-8")
    # keep the manifest's checksum right, so the rebuild reaches the term checks
    manifest_path = tmp_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if name in manifest["checksums"]:
        manifest["checksums"][name] = hashlib.sha256(path.read_bytes()).hexdigest()
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    with pytest.raises(IoFailure, match="round-trip"):
        rebuild_bundle(tmp_path)


def test_rebuild_rejects_a_half_rewritten_bundle(rng, tmp_path):
    # a killed re-export: a smaller bundle's nodes.tsv written over the start
    # of a bigger one's, beside the bigger bundle's manifest
    kg = random_kg(rng, n_vertices=80, n_predicates=6, n_types=4, n_triples=400)
    big, small = tmp_path / "big", tmp_path / "small"
    export_bundle(full_subgraph(kg), None, None, big)
    export_bundle(kg.induced_subgraph(range(20)), None, None, small)
    new_rows = (small / "nodes.tsv").read_bytes()
    old = (big / "nodes.tsv").read_bytes()
    assert len(new_rows) < len(old)
    with open(big / "nodes.tsv", "r+b") as fh:
        fh.write(new_rows)
    with pytest.raises(IoFailure, match="nodes.tsv"):
        rebuild_bundle(big)


@pytest.mark.parametrize("damage", ["row added", "file missing"])
def test_rebuild_names_the_edge_file_that_differs(rng, tmp_path, damage):
    kg = random_kg(rng, n_vertices=40, n_triples=150)
    bundle = export_bundle(full_subgraph(kg), None, None, tmp_path)
    name = sorted(bundle.manifest["edge_files"])[-1]
    if damage == "row added":
        with open(tmp_path / name, "a", encoding="utf-8") as fh:
            fh.write("0\t0\n")
    else:
        (tmp_path / name).unlink()
    with pytest.raises(IoFailure, match=name):
        rebuild_bundle(tmp_path)


def test_label_edges_excluded(rng, tmp_path):
    kg = labeled_kg(rng)
    task = nc_task(kg)
    labels = build_labels(kg, task)
    targets = resolve_targets(kg, task)
    splits = make_splits(targets, labels, kg, SplitSpec(seed=1))
    sg = full_subgraph(kg)
    export_bundle(
        sg,
        labels,
        splits,
        tmp_path,
        exclude_label_edges=True,
        label_predicate=task.target_predicate,
    )
    rebuilt = rebuild_bundle(tmp_path)
    got = surface_triples(rebuilt)
    assert not any(p == f"<{EX}hasLabel>" for _, p, _ in got)
    expected = {
        t for t in surface_triples(kg, sg.triples) if t[1] != f"<{EX}hasLabel>"
    }
    assert got == expected
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["excluded_label_edges"] == 40


def test_labels_and_splits_written(rng, tmp_path):
    kg = labeled_kg(rng)
    task = nc_task(kg)
    labels = build_labels(kg, task)
    targets = resolve_targets(kg, task)
    splits = make_splits(targets, labels, kg, SplitSpec(seed=2))
    sg = full_subgraph(kg)
    export_bundle(sg, labels, splits, tmp_path)
    label_lines = (tmp_path / "labels.tsv").read_text().splitlines()
    split_lines = (tmp_path / "splits.tsv").read_text().splitlines()
    assert len(label_lines) == len(labels.labels)
    assert len(split_lines) == len(splits)
    parts = {l.split("\t")[1] for l in split_lines}
    assert parts <= {"train", "valid", "test"}


def test_dangling_label_warns(tmp_path):
    kg = make_kg([nt("a", "a", "T"), nt("b", "a", "T"), nt("a", "p0", "b")])
    a = kg.vertex_id(f"{EX}a")
    b = kg.vertex_id(f"{EX}b")
    sg = kg.induced_subgraph([a])  # b left out
    labels = LabelMap(labels={a: 0, b: 0}, label_terms=["L"])
    with pytest.warns(DanglingLabelWarning):
        bundle = export_bundle(sg, labels, None, tmp_path)
    assert bundle.manifest["labels"] == 1


def test_byte_identical_rerun(rng, tmp_path):
    kg = labeled_kg(rng)
    task = nc_task(kg)
    labels = build_labels(kg, task)
    targets = resolve_targets(kg, task)
    splits = make_splits(targets, labels, kg, SplitSpec(seed=3))
    sg = full_subgraph(kg)
    export_bundle(sg, labels, splits, tmp_path / "one")
    export_bundle(sg, labels, splits, tmp_path / "two")
    for name in ("nodes.tsv", "types.tsv", "labels.tsv", "splits.tsv", "manifest.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_checksums_match_contents(rng, tmp_path):
    kg = labeled_kg(rng)
    sg = full_subgraph(kg)
    bundle = export_bundle(sg, None, None, tmp_path)
    for name, digest in bundle.manifest["checksums"].items():
        actual = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert actual == digest


def _files(outdir):
    return {path.name: path.read_bytes() for path in outdir.iterdir()}


@pytest.mark.parametrize("first,second", [("big", "small"), ("small", "big")])
def test_reexport_equals_fresh_export(rng, tmp_path, first, second):
    kg = random_kg(rng, n_vertices=80, n_predicates=8, n_types=4, n_triples=400)
    slices = {"big": full_subgraph(kg), "small": kg.induced_subgraph(range(20))}
    fresh = export_bundle(slices[second], None, None, tmp_path / "fresh")
    out = tmp_path / "out"
    earlier = export_bundle(slices[first], None, None, out)
    # names that are not bundle edge files stay as they are
    kept = {"edges_01.tsv": b"x\n", "edges_old.tsv": b"y\n", "notes.txt": b"z\n"}
    for name, data in kept.items():
        (out / name).write_bytes(data)
    bundle = export_bundle(slices[second], None, None, out)
    assert len(earlier.manifest["edge_files"]) != len(bundle.manifest["edge_files"])
    assert _files(out) == {**_files(tmp_path / "fresh"), **kept}
    assert bundle.manifest == fresh.manifest
    for name, digest in bundle.manifest["checksums"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    edge_files = {name for name in _files(out) if name.startswith("edges_")}
    assert edge_files - set(kept) == set(bundle.manifest["edge_files"])


def test_reexport_opens_no_file_with_truncation(rng, tmp_path, os_open_flags):
    kg = random_kg(rng, n_vertices=40, n_triples=150)
    sg = full_subgraph(kg)
    bundle = export_bundle(sg, None, None, tmp_path)
    export_bundle(sg, None, None, tmp_path)
    for name in [*bundle.manifest["checksums"], "manifest.json"]:
        flags = os_open_flags[tmp_path / name]
        assert len(flags) == 2
        assert not any(f & os.O_TRUNC for f in flags)


def test_a_file_write_that_raises_keeps_the_bytes_written(tmp_path):
    path = tmp_path / "edges_000.tsv"
    path.write_bytes(b"x" * 200_000)

    def rows():
        for i in range(export._CHUNK_LINES + 5):
            yield f"{i}\t{i}\n"
        raise RuntimeError("row formatting failed")

    with pytest.raises(RuntimeError):
        export._write(path, rows())
    # the first chunk went out whole; the rows after it were never written
    assert path.read_bytes() == "".join(f"{i}\t{i}\n" for i in range(export._CHUNK_LINES)).encode()
    digest = export._write(path, ["a\n", "b\n"])
    assert path.read_bytes() == b"a\nb\n"
    assert digest == hashlib.sha256(b"a\nb\n").hexdigest()


def test_bundle_rows_are_in_the_lexsort_order(rng, tmp_path, monkeypatch):
    kg, _ = oracle_kg(rng, n_vertices=120, n_triples=1500)
    sg = kg.induced_subgraph(rng.sample(range(kg.vertex_count()), 90))
    export_bundle(sg, None, None, tmp_path / "packed")
    monkeypatch.setattr(export, "lex_order", lambda columns: np.lexsort(columns[::-1]))
    export_bundle(sg, None, None, tmp_path / "lexsort")
    assert _files(tmp_path / "packed") == _files(tmp_path / "lexsort")


# type names on both sides of the __literal__ and __untyped__ buckets
ORACLE_TYPES = ["A:t", "Z:t", "__a", "__m", "__z", f"{EX}T0", f"{EX}T1", "urn:t"]


def oracle_kg(rng, n_vertices=60, n_predicates=6, n_triples=300, types=ORACLE_TYPES):
    """A graph with several-typed, untyped, blank and literal vertices.

    Predicate ids follow first use, which is shuffled, so id order and IRI
    order differ. Returns the graph and the label predicate's IRI.
    """
    preds = [f"<{EX}q{k}>" for k in range(n_predicates)]
    rng.shuffle(preds)
    vertices = [f"<{EX}v{i}>" if i % 7 else f"_:b{i}" for i in range(n_vertices)]
    lines = [f"{vertices[0]} {p} {vertices[1]} ." for p in preds]
    for v in vertices:
        for t in rng.sample(types, rng.choice([0, 1, 1, 2, 3])):
            lines.append(f"{v} <{TYPE_IRI}> <{t}> .")
    for _ in range(n_triples):
        o = rng.choice(vertices) if rng.random() < 0.8 else f'"lit{rng.randrange(20)}"'
        lines.append(f"{rng.choice(vertices)} {rng.choice(preds)} {o} .")
    return make_kg(lines), preds[0]


def export_both(sg, labels, splits, outdir, **kwargs):
    """Export with the reference and with export_bundle; returns both bundles and their warnings."""
    out = []
    for name, fn in (("reference", reference_export_bundle), ("export", export_bundle)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bundle = fn(sg, labels, splits, outdir / name, **kwargs)
        out.append((bundle, [(w.category, str(w.message)) for w in caught]))
    return out


@pytest.mark.parametrize("view", ["full", "induced", "empty"])
@pytest.mark.parametrize(
    "exclude,label_predicate", [(False, "iri"), (True, "iri"), (True, None)]
)
@pytest.mark.parametrize("seed", range(3))
def test_export_matches_reference(tmp_path, view, exclude, label_predicate, seed):
    rng = random.Random(seed)
    kg, label_iri = oracle_kg(rng)
    if view == "full":
        sg = full_subgraph(kg)
    elif view == "induced":
        sg = kg.induced_subgraph(rng.sample(range(kg.vertex_count()), kg.vertex_count() // 2))
    else:
        sg = subgraph_from_triples(kg, [])
    # labels and splits also name vertices outside the slice
    picked = rng.sample(range(kg.vertex_count()), kg.vertex_count() // 3)
    labels = LabelMap(labels={v: rng.randrange(3) for v in picked}, label_terms=["L0", "L1", "L2"])
    splits = {v: rng.choice(["train", "valid", "test"]) for v in picked[::2]}
    (ref, ref_warned), (got, got_warned) = export_both(
        sg,
        labels,
        splits,
        tmp_path,
        exclude_label_edges=exclude,
        label_predicate=kg.predicate_id(label_iri) if label_predicate else None,
    )
    assert _files(tmp_path / "export") == _files(tmp_path / "reference")
    assert got.manifest == ref.manifest
    assert got_warned == ref_warned
    if view != "full":
        assert any(category is DanglingLabelWarning for category, _ in got_warned)
    if exclude and label_predicate and view == "full":
        assert got.manifest["excluded_label_edges"] > 0


def test_export_matches_reference_past_a_thousand_edge_files(tmp_path):
    types = ORACLE_TYPES + [f"{EX}U{i}" for i in range(6)]
    kg, _ = oracle_kg(random.Random(5), n_vertices=300, n_predicates=12, n_triples=8000, types=types)
    (ref, _), (got, _) = export_both(full_subgraph(kg), None, None, tmp_path)
    assert len(got.manifest["edge_files"]) > 1000
    assert "edges_1000.tsv" in got.manifest["edge_files"]
    assert _files(tmp_path / "export") == _files(tmp_path / "reference")
    assert got.manifest == ref.manifest

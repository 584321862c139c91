from __future__ import annotations

import json

import pytest

from kgslice.errors import IoFailure
from kgslice.export import DanglingLabelWarning, export_bundle, rebuild_bundle
from kgslice.graph import subgraph_from_triples
from kgslice.tasks import LabelMap, SplitSpec, TaskSpec, build_labels, make_splits, resolve_targets

from conftest import EX, make_kg, nt, random_kg_lines
from oracles import surface_triples


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
    with pytest.raises(IoFailure):
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
    import hashlib

    kg = labeled_kg(rng)
    sg = full_subgraph(kg)
    bundle = export_bundle(sg, None, None, tmp_path)
    for name, digest in bundle.manifest["checksums"].items():
        actual = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert actual == digest

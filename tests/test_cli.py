from __future__ import annotations

import json

import pytest

from kgslice.cli import main

from conftest import EX, TYPE_IRI, nt


@pytest.fixture
def mini_kg(tmp_path, rng):
    lines = []
    for i in range(30):
        lines.append(nt(f"v{i}", "a", "T"))
        lines.append(nt(f"v{i}", "hasLabel", f"L{i % 3}"))
        lines.append(nt(f"v{i}", "cites", f"v{(i + 1) % 30}"))
        lines.append(nt(f"v{i}", "about", f"topic{i % 5}"))
    path = tmp_path / "mini.nt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def task_cfg(tmp_path):
    cfg = tmp_path / "task.cfg"
    cfg.write_text(
        "\n".join(
            [
                "task = nc",
                f"target_type = {EX}T",
                f"target_predicate = {EX}hasLabel",
                "split = random",
                "seed = 7",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    return cfg


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out.lower()


def test_unknown_flag_exits_one(capsys):
    assert main(["ingest", "--no-such-flag", "x"]) == 1


def test_missing_subcommand_exits_one():
    assert main([]) == 1


def test_runtime_failure_exits_two(tmp_path, task_cfg):
    missing = tmp_path / "nope.nt"
    assert main(["ingest", str(missing)]) == 2


def test_ingest_stats(mini_kg, capsys):
    assert main(["ingest", str(mini_kg)]) == 0
    out = dict(
        line.split("\t") for line in capsys.readouterr().out.strip().splitlines()
    )
    assert out["triples"] == "120"
    assert out["node_types"] == "1"
    assert out["parse_errors"] == "0"


def test_ingest_dictionary_dump(mini_kg, tmp_path, capsys):
    dict_out = tmp_path / "dict.tsv"
    assert main(["ingest", str(mini_kg), "--dict-out", str(dict_out)]) == 0
    assert len(dict_out.read_text().splitlines()) > 0


@pytest.mark.parametrize(
    "engine,flags",
    [
        ("brw", ["--h", "2", "--bs", "5", "--seed", "3"]),
        ("ibs", ["--bs", "4", "--k", "4", "--seed", "3"]),
        ("sparql", ["--d", "1", "--h", "1", "--bs", "50"]),
    ],
)
def test_extract_engines(mini_kg, task_cfg, tmp_path, capsys, engine, flags):
    out = tmp_path / f"out_{engine}"
    rc = main(
        ["extract", "--engine", engine, "--kg", str(mini_kg), "--config", str(task_cfg), "--out", str(out)]
        + flags
    )
    assert rc == 0
    assert (out / "subgraph.nt").exists()
    assert (out / "subgraph.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["triples"] > 0
    # NC default: label edges stripped from the extracted subgraph
    assert f"<{EX}hasLabel>" not in (out / "subgraph.nt").read_text()


def test_extract_keep_label_edges(mini_kg, task_cfg, tmp_path):
    out = tmp_path / "keep"
    rc = main(
        [
            "extract", "--engine", "sparql", "--kg", str(mini_kg),
            "--config", str(task_cfg), "--out", str(out),
            "--d", "1", "--h", "1", "--keep-label-edges",
        ]
    )
    assert rc == 0
    assert f"<{EX}hasLabel>" in (out / "subgraph.nt").read_text()


def test_pipeline_metrics_and_export(mini_kg, task_cfg, tmp_path, capsys):
    out = tmp_path / "sg"
    assert (
        main(
            [
                "extract", "--engine", "sparql", "--kg", str(mini_kg),
                "--config", str(task_cfg), "--out", str(out), "--d", "2", "--h", "1",
            ]
        )
        == 0
    )
    capsys.readouterr()

    tsv = tmp_path / "report.tsv"
    rc = main(
        [
            "metrics", "--subgraph", str(out / "subgraph.nt"),
            "--config", str(task_cfg), "--kg", str(mini_kg), "--tsv", str(tsv),
        ]
    )
    assert rc == 0
    report = {}
    for line in tsv.read_text().splitlines()[1:]:
        key, value = line.split("\t")
        report[key] = value
    manifest = json.loads((out / "manifest.json").read_text())
    assert int(report["triple_count"]) == manifest["triples"]
    assert int(report["vertex_count"]) == manifest["vertices"]
    assert float(report["target_disconnected_ratio"]) == 0.0

    bundle_dir = tmp_path / "bundle"
    rc = main(
        [
            "export", "--subgraph", str(out / "subgraph.nt"), "--config", str(task_cfg),
            "--kg", str(mini_kg), "--out", str(bundle_dir),
        ]
    )
    assert rc == 0
    bundle_manifest = json.loads((bundle_dir / "manifest.json").read_text())
    assert sum(bundle_manifest["node_counts"].values()) == manifest["vertices"]


def test_compare_renders_matrix(mini_kg, task_cfg, tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out, d in ((out1, "1"), (out2, "2")):
        main(
            [
                "extract", "--engine", "sparql", "--kg", str(mini_kg),
                "--config", str(task_cfg), "--out", str(out), "--d", d, "--h", "1",
            ]
        )
    capsys.readouterr()
    rc = main(
        [
            "compare", str(out1 / "subgraph.nt"), str(out2 / "subgraph.nt"),
            "--config", str(task_cfg), "--kg", str(mini_kg),
        ]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "subgraph.nt" in text
    assert "target ratio %" in text


def test_validate_passes(mini_kg, task_cfg, tmp_path, capsys):
    out = tmp_path / "sg"
    main(
        [
            "extract", "--engine", "brw", "--kg", str(mini_kg),
            "--config", str(task_cfg), "--out", str(out), "--h", "2", "--bs", "8",
        ]
    )
    capsys.readouterr()
    rc = main(
        [
            "validate", "--subgraph", str(out / "subgraph.nt"),
            "--config", str(task_cfg), "--kg", str(mini_kg),
            "--layers", "2", "--dim", "4", "--seed", "1",
        ]
    )
    captured = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in captured


def test_slice_without_kg_uses_type_predicate(mini_kg, task_cfg, tmp_path):
    slice_path = tmp_path / "isa.nt"
    slice_path.write_text(
        mini_kg.read_text(encoding="utf-8").replace(f"<{TYPE_IRI}>", f"<{EX}isa>"),
        encoding="utf-8",
    )
    tsv = tmp_path / "report.tsv"
    rc = main(
        [
            "metrics", "--subgraph", str(slice_path), "--config", str(task_cfg),
            "--type-predicate", f"{EX}isa", "--tsv", str(tsv),
        ]
    )
    assert rc == 0
    report = dict(line.split("\t") for line in tsv.read_text().splitlines()[1:])
    assert report["target_count"] == "30"


@pytest.mark.parametrize("command", ["metrics", "validate", "export"])
@pytest.mark.parametrize("with_kg", [False, True])
def test_malformed_slice_line_exits_two(mini_kg, task_cfg, tmp_path, capsys, command, with_kg):
    slice_path = tmp_path / "broken.nt"
    slice_path.write_text(
        mini_kg.read_text(encoding="utf-8") + f"<{EX}v0> <{EX}cites>\n", encoding="utf-8"
    )
    argv = [command, "--subgraph", str(slice_path), "--config", str(task_cfg)]
    if with_kg:
        argv += ["--kg", str(mini_kg)]
    if command == "export":
        argv += ["--out", str(tmp_path / "bundle")]
    assert main(argv) == 2
    assert "line 121" in capsys.readouterr().err
    assert not (tmp_path / "bundle").exists()


@pytest.mark.parametrize("line", [nt("stranger", "cites", "v0"), nt("v0", "stranger", "v1")])
def test_slice_term_absent_from_kg_exits_two(mini_kg, task_cfg, tmp_path, capsys, line):
    slice_path = tmp_path / "stranger.nt"
    slice_path.write_text(mini_kg.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
    rc = main(
        [
            "validate", "--subgraph", str(slice_path), "--config", str(task_cfg),
            "--kg", str(mini_kg),
        ]
    )
    assert rc == 2
    assert f"{EX}stranger" in capsys.readouterr().err


def test_diff_versions(tmp_path, capsys):
    old = tmp_path / "old.nt"
    new = tmp_path / "new.nt"
    old.write_text(nt("a", "p0", "b") + "\n" + nt("a", "p0", "c") + "\n")
    new.write_text(nt("a", "p0", "b") + "\n" + nt("a", "p0", "d") + "\n")
    added = tmp_path / "added.nt"
    removed = tmp_path / "removed.nt"
    rc = main(
        [
            "diff-versions", str(old), str(new),
            "--added-out", str(added), "--removed-out", str(removed),
        ]
    )
    assert rc == 0
    out = dict(l.split("\t") for l in capsys.readouterr().out.strip().splitlines())
    assert out == {"added": "1", "removed": "1"}
    assert "d" in added.read_text()
    assert "c" in removed.read_text()


def test_extract_via_http_endpoint(mini_kg, task_cfg, tmp_path, rng):
    from kgslice.graph import load_ntriples
    from kgslice.patterns import PatternTask, get_bgp
    from sparql_double import SparqlDouble

    kg, _ = load_ntriples(mini_kg)
    server = SparqlDouble(kg)
    try:
        task = PatternTask(kind="nc", target_type_iri=f"{EX}T")
        server.register(get_bgp(task, 1, 1))
        out = tmp_path / "remote"
        rc = main(
            [
                "extract", "--engine", "sparql", "--endpoint", server.url,
                "--config", str(task_cfg), "--out", str(out),
                "--d", "1", "--h", "1", "--bs", "40", "--workers", "2",
            ]
        )
        assert rc == 0
        assert (out / "subgraph.nt").exists()
    finally:
        server.close()

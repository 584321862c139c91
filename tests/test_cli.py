from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kgslice
from kgslice import graph
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


# each subcommand's options as its usage line lists them, bracketed when optional
_USAGE_OPTIONS = {
    "ingest": ["[--dict-out TSV]", "[--nt-out FILE]", "[--strict]", "[--type-predicate IRI]", "[-h]"],
    "extract": [
        "--config CONFIG", "--engine {brw,ibs,sparql}", "--out OUT", "[--alpha ALPHA]", "[--bs BS]",
        "[--d {1,2}]", "[--direction {outgoing,both}]", "[--endpoint ENDPOINT]",
        "[--epsilon EPSILON]", "[--graph GRAPH]", "[--h H]", "[--k K]", "[--keep-label-edges]",
        "[--kg KG]", "[--retries RETRIES]", "[--seed SEED]", "[--timeout TIMEOUT]",
        "[--type-predicate IRI]", "[--walks-per-seed WALKS_PER_SEED]", "[--workers WORKERS]", "[-h]",
    ],
    "metrics": [
        "--config CONFIG", "--subgraph SUBGRAPH", "[--kg KG]", "[--tsv TSV]",
        "[--type-predicate IRI]", "[-h]",
    ],
    "compare": ["--config CONFIG", "[--kg KG]", "[--tsv TSV]", "[--type-predicate IRI]", "[-h]"],
    "validate": [
        "--config CONFIG", "--subgraph SUBGRAPH", "[--dim DIM]", "[--kg KG]", "[--layers LAYERS]",
        "[--seed SEED]", "[--type-predicate IRI]", "[-h]",
    ],
    "export": [
        "--config CONFIG", "--out OUT", "--subgraph SUBGRAPH", "[--keep-label-edges]", "[--kg KG]",
        "[--type-predicate IRI]", "[-h]",
    ],
}


@pytest.mark.parametrize("command", sorted(_USAGE_OPTIONS))
def test_help_lists_each_subcommands_options(command, capsys):
    assert main([command, "--help"]) == 0
    usage = " ".join(capsys.readouterr().out.split("\n\n")[0].split())
    assert usage.startswith(f"usage: kgslice {command} ")
    options = re.findall(r"\[-[^\[\]]*\]|-[\w-]+(?: [A-Z{]\S*)?", usage.split(" ", 3)[3])
    assert sorted(options) == _USAGE_OPTIONS[command]


def test_unknown_flag_exits_one(capsys):
    assert main(["ingest", "--no-such-flag", "x"]) == 1


def test_missing_subcommand_exits_one():
    assert main([]) == 1


def test_runtime_failure_exits_two(tmp_path, task_cfg):
    missing = tmp_path / "nope.nt"
    assert main(["ingest", str(missing)]) == 2


def test_more_ids_than_the_limit_exits_two(mini_kg, monkeypatch, capsys):
    """Past the id limit (3 here, not 2**31 - 1) the CLI names the limit and exits 2."""
    monkeypatch.setattr(graph, "MAX_IDS", 3)
    assert main(["ingest", str(mini_kg)]) == 2
    err = capsys.readouterr().err
    assert err == "kgslice: more than 3 distinct terms: ids are int32, so 3 is the limit\n"


def test_invalid_utf8_exits_two(mini_kg, tmp_path, capsys):
    bad = tmp_path / "bad.nt"
    bad.write_bytes(mini_kg.read_bytes() + b'<x> <y> "\xff" .\n')
    assert main(["ingest", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("kgslice: input is not valid UTF-8")


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


@pytest.mark.parametrize(
    "flag,message",
    [
        (["--epsilon", "nan"], "epsilon must be finite and > 0"),
        (["--epsilon", "inf"], "epsilon must be finite and > 0"),
        (["--bs", "0"], "batch size must be >= 1"),
        (["--bs=-3"], "batch size must be >= 1"),
    ],
)
def test_extract_ibs_bad_setting_exits_two(mini_kg, task_cfg, tmp_path, capsys, flag, message):
    out = tmp_path / "ibs"
    rc = main(
        ["extract", "--engine", "ibs", "--kg", str(mini_kg), "--config", str(task_cfg),
         "--out", str(out), *flag]
    )
    assert rc == 2
    assert capsys.readouterr().err == f"kgslice: {message}\n"
    assert not out.exists()


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


def test_extract_into_an_earlier_out_equals_a_fresh_out(
    mini_kg, task_cfg, tmp_path, os_open_flags
):
    common = [
        "extract", "--engine", "sparql", "--kg", str(mini_kg), "--config", str(task_cfg),
        "--d", "1", "--h", "1",
    ]
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    assert main(common + ["--out", str(out), "--keep-label-edges"]) == 0
    earlier = (out / "subgraph.nt").stat().st_size
    assert main(common + ["--out", str(out)]) == 0
    assert main(common + ["--out", str(fresh)]) == 0
    files = {path.name: path.read_bytes() for path in out.iterdir()}
    assert files == {path.name: path.read_bytes() for path in fresh.iterdir()}
    assert len(files["subgraph.nt"]) < earlier
    for name in files:
        assert not any(flags & os.O_TRUNC for flags in os_open_flags[out / name])


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


@pytest.mark.parametrize("flag", [["--layers", "-1"], ["--dim", "0"], ["--dim=-3"]])
def test_validate_impossible_shape_exits_two(mini_kg, task_cfg, capsys, flag):
    rc = main(
        [
            "validate", "--subgraph", str(mini_kg), "--config", str(task_cfg),
            "--kg", str(mini_kg), *flag,
        ]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("kgslice: RGCN ")
    assert "Traceback" not in captured.err


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


def test_export_without_kg_names_the_unknown_predicate(mini_kg, task_cfg, tmp_path, capsys):
    # a slice with its label edges stripped has no label predicate of its own
    slice_path = tmp_path / "stripped.nt"
    lines = mini_kg.read_text(encoding="utf-8").splitlines()
    slice_path.write_text(
        "".join(f"{line}\n" for line in lines if f"<{EX}hasLabel>" not in line), encoding="utf-8"
    )
    argv = ["export", "--subgraph", str(slice_path), "--config", str(task_cfg)]
    assert main([*argv, "--out", str(tmp_path / "bundle")]) == 2
    assert capsys.readouterr().err == f"kgslice: unknown predicate {EX}hasLabel: not in the graph\n"


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


def test_diff_versions_rejects_truncated_dump(mini_kg, tmp_path, capsys):
    text = mini_kg.read_text(encoding="utf-8")
    cut = tmp_path / "cut.nt"
    cut.write_text(text[: len(text) // 2 + 10], encoding="utf-8")
    added = tmp_path / "added.nt"
    rc = main(["diff-versions", str(mini_kg), str(cut), "--added-out", str(added)])
    assert rc == 2
    assert "not a valid N-Triples statement" in capsys.readouterr().err
    assert not added.exists()


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


def test_endpoint_term_not_valid_ntriples_exits_two(
    mini_kg, task_cfg, tmp_path, capsys, monkeypatch
):
    from kgslice import endpoint
    from kgslice.graph import load_ntriples
    from kgslice.patterns import PatternTask, get_bgp
    from sparql_double import SparqlDouble

    page_columns = endpoint._page_columns

    def leading_space(text):
        subjects, predicates, objects = page_columns(text)
        if subjects:
            subjects[0] = f" {subjects[0]}"
        return subjects, predicates, objects

    monkeypatch.setattr(endpoint, "_page_columns", leading_space)
    server = SparqlDouble(load_ntriples(mini_kg)[0])
    try:
        server.register(get_bgp(PatternTask(kind="nc", target_type_iri=f"{EX}T"), 1, 1))
        out = tmp_path / "remote"
        rc = main(
            [
                "extract", "--engine", "sparql", "--endpoint", server.url,
                "--config", str(task_cfg), "--out", str(out), "--d", "1", "--h", "1",
            ]
        )
    finally:
        server.close()
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("kgslice: endpoint returned unparsable terms: ' <")
    assert len(err.splitlines()) == 1
    assert not (out / "subgraph.nt").exists()


@pytest.mark.parametrize("reply", ["abc", "3.0", "-5"])
def test_endpoint_count_not_a_non_negative_integer_exits_two(
    task_cfg, tmp_path, capsys, monkeypatch, reply
):
    import requests
    from sparql_double import StubSession

    monkeypatch.setattr(requests, "Session", lambda: StubSession(f"?c\n{reply}\n"))
    out = tmp_path / "remote"
    rc = main(
        [
            "extract", "--engine", "sparql", "--endpoint", "http://127.0.0.1:9/sparql",
            "--config", str(task_cfg), "--out", str(out), "--d", "1", "--h", "1",
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err == (
        f"kgslice: endpoint reply rejected: count query returned {reply!r}, "
        "not a non-negative integer\n"
    )
    assert not (out / "subgraph.nt").exists()


def test_importing_the_cli_leaves_requests_unimported():
    env = {**os.environ, "PYTHONPATH": str(Path(kgslice.__file__).parents[1])}
    code = "import kgslice.cli, sys; sys.exit('requests' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_endpoint_extract_without_requests_fails_loudly(task_cfg, tmp_path, monkeypatch):
    monkeypatch.setitem(sys.modules, "requests", None)  # import requests raises ImportError
    out = tmp_path / "remote"
    with pytest.raises(ImportError):
        main(
            [
                "extract", "--engine", "sparql", "--endpoint", "http://127.0.0.1:9/sparql",
                "--config", str(task_cfg), "--out", str(out),
            ]
        )
    assert not out.exists()


@pytest.mark.parametrize(
    "flag,message",
    [
        (["--retries=-1"], "retries must be >= 0"),
        (["--timeout", "nan"], "timeout must be finite and > 0"),
    ],
)
def test_endpoint_bad_setting_exits_two_before_any_request(
    mini_kg, task_cfg, tmp_path, capsys, flag, message
):
    from kgslice.graph import load_ntriples
    from sparql_double import SparqlDouble

    server = SparqlDouble(load_ntriples(mini_kg)[0])
    try:
        out = tmp_path / "remote"
        rc = main(
            ["extract", "--engine", "sparql", "--endpoint", server.url,
             "--config", str(task_cfg), "--out", str(out), *flag]
        )
        assert rc == 2
        assert capsys.readouterr().err == f"kgslice: {message}\n"
        assert server.seen_headers == []
        assert not out.exists()
    finally:
        server.close()


@pytest.mark.parametrize(
    "line,message",
    [
        ("top_n_labels = 0", "top_n_labels must be >= 1"),
        ("top_n_labels = -1", "top_n_labels must be >= 1"),
        ("top_n_labels = abc", "config key top_n_labels: bad value 'abc'"),
        ("seed = x", "config key seed: bad value 'x'"),
        ("ratios = nan,0.5,0.5", "split ratios must be finite, positive and sum to 1"),
        ("ratios = 0.8,x,0.1", "config key ratios: bad value '0.8,x,0.1'"),
    ],
)
def test_export_bad_config_value_exits_two(mini_kg, task_cfg, tmp_path, capsys, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(task_cfg.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
    bundle = tmp_path / "bundle"
    rc = main(
        ["export", "--subgraph", str(mini_kg), "--config", str(cfg), "--kg", str(mini_kg),
         "--out", str(bundle)]
    )
    assert rc == 2
    assert capsys.readouterr().err == f"kgslice: {message}\n"
    assert not bundle.exists()


@pytest.mark.parametrize(
    "command,key",
    [
        ("extract", "target_type"),
        ("endpoint", "target_type"),
        ("export", "time_predicate"),
        ("export", "train_cut"),
        ("export", "valid_cut"),
    ],
)
def test_missing_required_config_key_exits_two(
    mini_kg, task_cfg, tmp_path, capsys, command, key
):
    from kgslice.graph import load_ntriples
    from sparql_double import SparqlDouble

    lines = task_cfg.read_text(encoding="utf-8").splitlines()
    if command == "export":
        lines = [line for line in lines if not line.startswith("split")]
        lines += ["split = time", f"time_predicate = {EX}cites", "train_cut = 1", "valid_cut = 2"]
    cfg = tmp_path / "missing.cfg"
    cfg.write_text(
        "".join(f"{line}\n" for line in lines if line.partition("=")[0].strip() != key),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    server = SparqlDouble(load_ntriples(mini_kg)[0])
    try:
        source = ["--endpoint", server.url] if command == "endpoint" else ["--kg", str(mini_kg)]
        if command == "export":
            argv = ["export", "--subgraph", str(mini_kg)]
        else:
            argv = ["extract", "--engine", "sparql"]
        rc = main([*argv, *source, "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"kgslice: config key {key} is required\n"
        assert server.seen_headers == []
        assert not out.exists()
    finally:
        server.close()


@pytest.mark.parametrize("engine", ["brw", "ibs", "sparql"])
@pytest.mark.parametrize(
    "flag,message",
    [
        (["--retries=-1"], "retries must be >= 0"),
        (["--timeout", "0"], "timeout must be finite and > 0"),
        (["--timeout", "inf"], "timeout must be finite and > 0"),
        (["--workers", "0"], "workers must be >= 1"),
    ],
)
def test_local_extract_bad_request_policy_exits_two(tmp_path, capsys, engine, flag, message):
    """Every engine checks --retries, --timeout and --workers before it reads a file."""
    out = tmp_path / "out"
    rc = main(
        ["extract", "--engine", engine, "--kg", str(tmp_path / "no.nt"),
         "--config", str(tmp_path / "no.cfg"), "--out", str(out), *flag]
    )
    assert rc == 2
    assert capsys.readouterr().err == f"kgslice: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "engine,source,flag,message",
    [
        ("sparql", "endpoint", ["--workers", "0"], "workers must be >= 1"),
        ("sparql", "kg", ["--bs", "0"], "batch size must be >= 1"),
        ("sparql", "endpoint", ["--bs=-2"], "batch size must be >= 1"),
        ("ibs", "kg", ["--bs", "0"], "batch size must be >= 1"),
    ],
)
def test_extract_bad_workers_or_bs_exits_two(
    mini_kg, tmp_path, capsys, engine, source, flag, message
):
    """--workers and --bs are checked before any file is read or request sent."""
    from kgslice.graph import load_ntriples
    from sparql_double import SparqlDouble

    out = tmp_path / "out"
    server = SparqlDouble(load_ntriples(mini_kg)[0])
    try:
        if source == "endpoint":
            where = ["--endpoint", server.url]
        else:
            where = ["--kg", str(tmp_path / "no.nt")]
        rc = main(
            ["extract", "--engine", engine, *where, "--config", str(tmp_path / "no.cfg"),
             "--out", str(out), *flag]
        )
        assert rc == 2
        assert capsys.readouterr().err == f"kgslice: {message}\n"
        assert server.seen_headers == []
        assert not out.exists()
    finally:
        server.close()


WALK_MESSAGE = "walk_length, batch_size, walks_per_seed must be >= 1"


@pytest.mark.parametrize(
    "engine,source,flag,cfg_edit,message",
    [
        ("ibs", "kg", ["--alpha", "2"], None, "alpha must be in (0, 1)"),
        ("ibs", "kg", ["--epsilon", "nan"], None, "epsilon must be finite and > 0"),
        ("ibs", "kg", ["--k", "0"], None, "k must be >= 1"),
        ("brw", "kg", ["--h", "0"], None, WALK_MESSAGE),
        ("brw", "kg", ["--walks-per-seed", "0"], None, WALK_MESSAGE),
        ("brw", "kg", ["--bs", "0"], None, WALK_MESSAGE),
        ("sparql", "kg", ["--h", "3"], None, "h must be 1 or 2, got 3"),
        ("sparql", "kg", [], "drop target_predicate",
         "node classification requires a label predicate"),
        ("sparql", "endpoint", [], "drop target_predicate",
         "node classification requires a label predicate"),
        ("sparql", "kg", [], "top_n_labels = 0", "top_n_labels must be >= 1"),
        ("sparql", "endpoint", [], "top_n_labels = 0", "top_n_labels must be >= 1"),
    ],
)
def test_extract_bad_engine_parameter_or_task_exits_two_before_the_load(
    mini_kg, task_cfg, tmp_path, capsys, engine, source, flag, cfg_edit, message
):
    """Engine parameters and graph-free task rules fail before --kg is read or a request sent."""
    from kgslice.graph import load_ntriples
    from sparql_double import SparqlDouble

    lines = task_cfg.read_text(encoding="utf-8").splitlines()
    if cfg_edit == "drop target_predicate":
        lines = [line for line in lines if not line.startswith("target_predicate")]
    elif cfg_edit is not None:
        lines.append(cfg_edit)
    cfg = tmp_path / "edited.cfg"
    cfg.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    out = tmp_path / "out"
    server = SparqlDouble(load_ntriples(mini_kg)[0])
    try:
        if source == "endpoint":
            where = ["--endpoint", server.url]
        else:
            where = ["--kg", str(tmp_path / "missing.nt")]
        rc = main(
            ["extract", "--engine", engine, *where, "--config", str(cfg),
             "--out", str(out), *flag]
        )
        assert rc == 2
        assert capsys.readouterr().err == f"kgslice: {message}\n"
        assert server.seen_headers == []
        assert not out.exists()
    finally:
        server.close()


@pytest.mark.parametrize("command", ["metrics", "compare", "validate", "export"])
def test_slice_command_bad_task_config_exits_two_before_the_load(
    mini_kg, task_cfg, tmp_path, capsys, command
):
    """The slice commands apply the graph-free task rules before --kg is read."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(task_cfg.read_text(encoding="utf-8") + "top_n_labels = 0\n", encoding="utf-8")
    slices = {
        "metrics": ["--subgraph", str(mini_kg)],
        "compare": [str(mini_kg), str(mini_kg)],
        "validate": ["--subgraph", str(mini_kg)],
        "export": ["--subgraph", str(mini_kg), "--out", str(tmp_path / "out")],
    }[command]
    rc = main([command, *slices, "--config", str(cfg), "--kg", str(tmp_path / "missing.nt")])
    assert rc == 2
    assert capsys.readouterr().err == "kgslice: top_n_labels must be >= 1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("type_predicate", [TYPE_IRI, f"{EX}isa"])
@pytest.mark.parametrize("d,h", [(1, 1), (2, 2)])
def test_endpoint_extract_writes_the_local_slice(mini_kg, task_cfg, tmp_path, type_predicate, d, h):
    """Both extract paths strip label edges and honour --type-predicate."""
    from kgslice.graph import load_ntriples
    from kgslice.patterns import PatternTask, get_bgp
    from sparql_double import SparqlDouble

    dump = tmp_path / "dump.nt"
    dump.write_text(
        mini_kg.read_text(encoding="utf-8").replace(f"<{TYPE_IRI}>", f"<{type_predicate}>"),
        encoding="utf-8",
    )
    kg, _ = load_ntriples(dump, type_predicate_iri=type_predicate)
    server = SparqlDouble(kg)
    try:
        task = PatternTask(kind="nc", target_type_iri=f"{EX}T", type_predicate_iri=type_predicate)
        server.register(get_bgp(task, d, h))
        common = [
            "extract", "--engine", "sparql", "--config", str(task_cfg),
            "--type-predicate", type_predicate, "--d", str(d), "--h", str(h), "--bs", "7",
        ]
        assert main(common + ["--endpoint", server.url, "--out", str(tmp_path / "remote")]) == 0
        assert main(common + ["--kg", str(dump), "--out", str(tmp_path / "local")]) == 0
    finally:
        server.close()

    def statements(name):
        return sorted((tmp_path / name / "subgraph.nt").read_text(encoding="utf-8").splitlines())

    def manifest(name):
        return json.loads((tmp_path / name / "manifest.json").read_text(encoding="utf-8"))

    assert statements("remote") == statements("local")
    assert not [line for line in statements("remote") if f"<{EX}hasLabel>" in line]
    remote, local = manifest("remote"), manifest("local")
    for key in ("vertices", "triples", "node_types", "predicates"):
        assert remote[key] == local[key]
    assert remote["node_types"] == 1
    excluded = remote["provenance"]["label_edges_excluded"]
    assert excluded == local["provenance"]["label_edges_excluded"] == 30

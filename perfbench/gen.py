"""Seeded input generators for the benchmark workloads.

Run as its own process before anything is timed:

    python3 perfbench/gen.py --graph nc --seed 1 --size full --out DIR

writes ``DIR/dump.nt``, ``DIR/task.cfg`` (the CLI's flat task config)
and ``DIR/inputs.json`` with the dump's sha256 and the generator-side
input properties. Only the standard library is used, and every random
draw comes from one ``random.Random(seed)``, so the same seed gives a
byte-identical dump on any machine with the same Python.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

EX = "http://example.org/"
RDF_TYPE = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
XSD_GYEAR = "<http://www.w3.org/2001/XMLSchema#gYear>"

# Sizes per graph. "full" is what the timed runs use; "toy" is the
# self-test scale. nc "full" is the acceptance-test-10 generator at a
# fifth of its size (test 10: 300k entities, 20k targets, 850k edges),
# plus one label triple per target over 50 label classes.
SIZES = {
    "nc": {
        "full": {"entities": 60_000, "targets": 4_000, "typed": 30_000, "edges": 170_000, "labels": 50},
        "toy": {"entities": 600, "targets": 60, "typed": 300, "edges": 1_700, "labels": 5},
    },
    "scholarly": {
        "full": {"papers": 15_000, "authors": 6_000, "orgs": 150, "venues": 120, "topics": 300,
                 "affiliations": 1_000},
        "toy": {"papers": 300, "authors": 120, "orgs": 8, "venues": 6, "topics": 12,
                "affiliations": 40},
    },
}


def _iri(name: str) -> str:
    return f"<{EX}{name}>"


def nc_lines(rng: random.Random, size: dict):
    """Uniform-degree typed graph with per-target label hubs.

    Entities v0..v{targets-1} are the targets (type T0); the next typed
    entities cycle through T1..T11; random edges over 20 predicates join
    uniformly drawn entities; each target gets one ``venue`` triple to
    one of ``labels`` label vertices, which makes every label vertex a
    hub of about targets/labels edges.
    """
    n_entities, n_targets = size["entities"], size["targets"]
    for v in range(n_targets):
        yield f"{_iri(f'v{v}')} {RDF_TYPE} {_iri('T0')} ."
    for v in range(n_targets, size["typed"]):
        yield f"{_iri(f'v{v}')} {RDF_TYPE} {_iri(f'T{1 + v % 11}')} ."
    for _ in range(size["edges"]):
        s = rng.randrange(n_entities)
        p = rng.randrange(20)
        o = rng.randrange(n_entities)
        yield f"{_iri(f'v{s}')} {_iri(f'p{p}')} {_iri(f'v{o}')} ."
    n_labels = size["labels"]
    for v in range(n_targets):
        yield f"{_iri(f'v{v}')} {_iri('venue')} {_iri(f'label{rng.randrange(n_labels)}')} ."


def _zipf_sampler(rng: random.Random, n: int, exponent: float):
    """Draw ranks 0..n-1 with P(rank k) proportional to 1/(k+1)^exponent."""
    cum = list(itertools.accumulate(1.0 / (k + 1) ** exponent for k in range(n)))
    total = cum[-1]

    def draw() -> int:
        return min(bisect.bisect_left(cum, rng.random() * total), n - 1)

    return draw


def scholarly_lines(rng: random.Random, size: dict):
    """Zipf-skewed scholarly graph: papers, authors, orgs, venues, topics.

    Venue, topic, author and org popularity follow Zipf laws, so the top
    venue is a hub with about a sixth of all papers. Papers carry a year
    and a title literal; a fixed number of distinct authors carry an
    ``affiliation`` to an org (the link-prediction bridge).
    """
    venue = _zipf_sampler(rng, size["venues"], 1.0)
    topic = _zipf_sampler(rng, size["topics"], 1.0)
    author = _zipf_sampler(rng, size["authors"], 0.8)
    org = _zipf_sampler(rng, size["orgs"], 1.0)
    for kind, n in (("Venue", "venues"), ("Topic", "topics"), ("Org", "orgs"), ("Author", "authors")):
        for i in range(size[n]):
            yield f"{_iri(f'{kind.lower()}{i}')} {RDF_TYPE} {_iri(kind)} ."
    for i in range(size["topics"]):
        yield f'{_iri(f"topic{i}")} {_iri("label")} "topic {i}"@en .'
    for p in range(size["papers"]):
        paper = _iri(f"paper{p}")
        yield f"{paper} {RDF_TYPE} {_iri('Paper')} ."
        yield f'{paper} {_iri("title")} "Paper {p} on topic {rng.randrange(10_000)}"@en .'
        yield f'{paper} {_iri("year")} "{1990 + rng.randrange(35)}"^^{XSD_GYEAR} .'
        yield f"{paper} {_iri('publishedIn')} {_iri(f'venue{venue()}')} ."
        for t in sorted({topic() for _ in range(1 + rng.randrange(3))}):
            yield f"{paper} {_iri('hasTopic')} {_iri(f'topic{t}')} ."
        for a in sorted({author() for _ in range(1 + rng.randrange(4))}):
            yield f"{paper} {_iri('author')} {_iri(f'author{a}')} ."
        if p:
            for c in sorted({rng.randrange(p) for _ in range(rng.randrange(5))}):
                yield f"{paper} {_iri('cites')} {_iri(f'paper{c}')} ."
    for a in sorted(rng.sample(range(size["authors"]), size["affiliations"])):
        yield f"{_iri(f'author{a}')} {_iri('affiliation')} {_iri(f'org{org()}')} ."


GRAPHS = {"nc": nc_lines, "scholarly": scholarly_lines}


def generate(graph: str, seed: int, size_name: str, outdir: Path, task_cfg: str) -> dict:
    """Write dump.nt and task.cfg into ``outdir``; return the input record."""
    outdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    digest = hashlib.sha256()
    lines = literals = 0
    with open(outdir / "dump.nt", "wb") as fh:
        for line in GRAPHS[graph](rng, SIZES[graph][size_name]):
            data = (line + "\n").encode("utf-8")
            digest.update(data)
            fh.write(data)
            lines += 1
            literals += '"' in line  # only literal objects contain quotes
    (outdir / "task.cfg").write_text(task_cfg, encoding="utf-8")
    record = {
        "graph": graph,
        "size": size_name,
        "seed": seed,
        "dump_sha256": digest.hexdigest(),
        "dump_lines": lines,
        "literal_share": literals / lines,
    }
    (outdir / "inputs.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--graph", choices=sorted(GRAPHS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "toy"), default="full")
    ap.add_argument("--task-cfg", required=True, help="task config text to write as task.cfg")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    generate(args.graph, args.seed, args.size, Path(args.out), args.task_cfg)
    return 0


if __name__ == "__main__":
    sys.exit(main())

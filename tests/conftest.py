from __future__ import annotations

import io
import random
import time

import numpy as np
import pytest

from kgslice.graph import KnowledgeGraph, ingest_ntriples

EX = "http://ex/"
TYPE_IRI = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"


class Budget:
    """Fails the enclosed block if it runs longer than ``seconds``."""

    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its {self.seconds}s budget: {elapsed:.2f}s"
            )
            print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.3f}s)")
        return False


def iri(name: str) -> str:
    return f"<{EX}{name}>"


def nt(s: str, p: str, o: str) -> str:
    """One N-Triples line from bare local names (quoted o passes through)."""
    os = o if o.startswith('"') else iri(o)
    ps = f"<{TYPE_IRI}>" if p == "a" else iri(p)
    return f"{iri(s)} {ps} {os} ."


def make_kg(lines) -> KnowledgeGraph:
    text = "\n".join(lines) + "\n"
    kg, errors = ingest_ntriples(io.BytesIO(text.encode("utf-8")))
    assert not errors, errors
    return kg


def random_kg_lines(
    rng: random.Random,
    n_vertices: int = 100,
    n_predicates: int = 5,
    n_types: int = 4,
    n_triples: int = 300,
    typed_fraction: float = 0.8,
    literal_fraction: float = 0.0,
    multi_type_fraction: float = 0.1,
) -> list[str]:
    """Synthetic N-Triples lines with random structure (may contain dups)."""
    lines = []
    for v in range(n_vertices):
        if rng.random() < typed_fraction:
            lines.append(nt(f"v{v}", "a", f"T{rng.randrange(n_types)}"))
            if rng.random() < multi_type_fraction:
                lines.append(nt(f"v{v}", "a", f"T{rng.randrange(n_types)}"))
    for _ in range(n_triples):
        s = rng.randrange(n_vertices)
        p = rng.randrange(n_predicates)
        if literal_fraction and rng.random() < literal_fraction:
            lines.append(nt(f"v{s}", f"p{p}", f'"lit{rng.randrange(40)}"'))
        else:
            o = rng.randrange(n_vertices)
            lines.append(nt(f"v{s}", f"p{p}", f"v{o}"))
    return lines


def random_kg(rng: random.Random, **kwargs) -> KnowledgeGraph:
    return make_kg(random_kg_lines(rng, **kwargs))


def tokenize_query(text: str) -> list[str]:
    """Whitespace-insensitive token stream for query comparisons."""
    text = text.replace("{", " { ").replace("}", " } ")
    tokens: list[str] = []
    for raw in text.split():
        tail = []
        while raw != "." and raw.endswith("."):
            raw = raw[:-1]
            tail.append(".")
        if raw:
            tokens.append(raw)
        tokens.extend(tail)
    return tokens


def constant_features(vertices, dim: int, value: float = 1.0) -> dict[int, np.ndarray]:
    return {v: np.full(dim, value) for v in vertices}


@pytest.fixture
def rng():
    return random.Random(20240817)

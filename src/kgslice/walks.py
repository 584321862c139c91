"""Random-walk extraction seeded at task target vertices.

Walks expand from a sampled batch of targets and the union of everything
they visit is closed into an induced subgraph. Walks move over the
entity-to-entity view (no type edges, no literals), so every visited
vertex stays connected to its seed inside the extracted subgraph.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .errors import EmptyTargetSet, KgsliceError
from .graph import BOTH, OUTGOING, KnowledgeGraph, Subgraph
from .tasks import TaskSpec, resolve_targets


@dataclass
class WalkParams:
    walk_length: int = 3
    batch_size: int = 20000
    walks_per_seed: int = 1
    seed: int = 0
    direction: str = BOTH

    def __post_init__(self):
        if self.walk_length < 1 or self.batch_size < 1 or self.walks_per_seed < 1:
            raise KgsliceError("walk_length, batch_size, walks_per_seed must be >= 1")
        if self.direction not in (OUTGOING, BOTH):
            raise KgsliceError(f"bad walk direction {self.direction!r}")


def derived_seed(seed: int, *scope) -> int:
    """Independent 64-bit seed per (seed, scope); stable across runs and platforms."""
    key = ":".join(map(str, (seed, *scope))).encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def get_initial_vertices(bs: int, targets, seed: int) -> list[int]:
    """min(bs, |targets|) target vertices, uniform without replacement."""
    targets = sorted(targets)
    if not targets:
        raise EmptyTargetSet("no targets to seed walks from")
    if bs >= len(targets):
        return targets
    rng = random.Random(derived_seed(seed, "init"))
    return sorted(rng.sample(targets, bs))


def random_walk_sample(
    kg: KnowledgeGraph, v: int, h: int, direction: str, rng: random.Random
) -> set[int]:
    """All vertices visited on one h-step walk from v (v included).

    Each step picks uniformly among the current vertex's walk neighbors,
    one ``rng.randrange(degree)`` into its run of the
    :meth:`KnowledgeGraph.walk_adjacency` CSR; a dead end stops the walk
    early. An unknown ``v`` raises :class:`UnknownVertex`, a negative
    ``h`` :class:`KgsliceError`.
    """
    kg._check_vertex(v)
    if h < 0:
        raise KgsliceError(f"walk length must be >= 0, got {h}")
    adj = kg.walk_adjacency(direction)
    offsets, neighbours = adj.offsets, adj.neighbours
    visited = {v}
    current = v
    for _ in range(h):
        lo = offsets[current]
        degree = offsets[current + 1] - lo
        if not degree:
            break
        current = neighbours[lo + rng.randrange(degree)]
        visited.add(current)
    return visited


def extract_random_walk(kg: KnowledgeGraph, task: TaskSpec, params: WalkParams) -> Subgraph:
    """Walk-based extraction: seed at targets, expand, induce."""
    targets = resolve_targets(kg, task)
    if not targets:
        raise EmptyTargetSet("task has no target vertices")
    initial = get_initial_vertices(params.batch_size, targets, params.seed)
    visited: set[int] = set(initial)
    for v in initial:
        for w in range(params.walks_per_seed):
            rng = random.Random(derived_seed(params.seed, "walk", v, w))
            visited |= random_walk_sample(kg, v, params.walk_length, params.direction, rng)
    sg = kg.induced_subgraph(visited)
    sg.provenance = {
        "engine": "brw",
        "walk_length": params.walk_length,
        "batch_size": params.batch_size,
        "walks_per_seed": params.walks_per_seed,
        "seed": params.seed,
        "direction": params.direction,
    }
    return sg

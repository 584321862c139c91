"""Influence-driven extraction via approximate Personalized PageRank.

Scores come from the forward-push approximation run on the entity walk
graph (type edges and literals excluded): maintain an estimate p and a
residual r with r(source) = 1; repeatedly pick the vertex with the
highest residual-to-degree ratio (ties by vertex id), convert an alpha
fraction of its residual into estimate, and spread the rest equally over
its neighbors.

At termination every residual sits below epsilon * degree, which bounds
the pointwise gap to the stationary PPR by the same amount on undirected
walk graphs.

Scoring is streamed: each target's run is reduced to its top-k as soon as
it finishes and then dropped, so the score and residual dictionaries of
one finished run, not of every target's, are alive while the next runs.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .errors import DuplicateTarget, EmptyTargetSet, KgsliceError, check_at_least_one
from .graph import BOTH, KnowledgeGraph, Subgraph
from .tasks import TaskSpec, resolve_targets
from .walks import _derived_rng, get_initial_vertices


@dataclass
class PprParams:
    alpha: float = 0.25
    epsilon: float = 0.0002

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise KgsliceError("alpha must be in (0, 1)")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise KgsliceError("epsilon must be finite and > 0")


@dataclass
class InfluenceScores:
    source: int
    scores: dict[int, float]
    residuals: dict[int, float] = field(default_factory=dict)

    def mass(self) -> float:
        return sum(self.scores.values()) + sum(self.residuals.values())


def approximate_ppr(kg: KnowledgeGraph, source: int, params: PprParams) -> InfluenceScores:
    """Forward-push PPR estimate from one source vertex."""
    kg._check_vertex(source)
    neighbors, degree, distinct = kg.walk_index()
    if not degree[source]:
        # the walk can only teleport home: the whole residual converts
        return InfluenceScores(source=source, scores={source: 1.0})
    alpha, eps = params.alpha, params.epsilon
    keep = 1.0 - alpha
    p: dict[int, float] = {}
    r: dict[int, float] = {source: 1.0}
    p_get, r_get = p.get, r.get
    push, pop = heapq.heappush, heapq.heappop

    # lazy max-heap on residual/degree ratio, ties by vertex id; push order
    # decides the scores bit for bit, so every branch below keeps it. The
    # walk graph is symmetric: every vertex that gets residual has degree >= 1
    heap: list[tuple[float, int]] = []

    def enqueue(u: int) -> None:
        ru, deg = r_get(u, 0.0), degree[u]
        if ru >= eps * deg:
            push(heap, (-(ru / deg), u))

    enqueue(source)
    while heap:
        neg_ratio, u = pop(heap)
        ru = r_get(u, 0.0)
        deg = degree[u]
        if ru < eps * deg or -(ru / deg) != neg_ratio:
            continue  # stale entry
        p[u] = p_get(u, 0.0) + alpha * ru
        r[u] = 0.0
        share = keep * ru / deg
        nbrs = neighbors[u]
        if distinct[u] is nbrs:
            # each neighbor gets one share, so its residual is final here
            for w in nbrs:
                rw = r_get(w, 0.0) + share
                r[w] = rw
                dw = degree[w]
                if rw >= eps * dw:
                    push(heap, (-(rw / dw), w))
        else:
            # parallel edges: all shares land before any neighbor is enqueued
            for w in nbrs:
                r[w] = r_get(w, 0.0) + share
            for w in distinct[u]:
                enqueue(w)

    residuals = {u: ru for u, ru in r.items() if ru > 0.0}
    scores = {u: pu for u, pu in p.items() if pu > 0.0}
    return InfluenceScores(source=source, scores=scores, residuals=residuals)


def influence_scores(kg: KnowledgeGraph, targets, params: PprParams) -> Iterator[InfluenceScores]:
    """One independent PPR run per target, as a one-shot iterator in target order.

    The targets are checked here, at call time; each run starts only when
    the iterator reaches it, so a consumer that drops each result before
    taking the next keeps one run alive at a time.
    """
    targets = list(targets)
    if not targets:
        raise EmptyTargetSet("no targets for influence scoring")
    if len(set(targets)) != len(targets):
        raise DuplicateTarget("duplicate target vertices")
    return (approximate_ppr(kg, t, params) for t in targets)


def select_topk(targets, scores: Iterable[InfluenceScores], k: int) -> list[tuple[int, int]]:
    """Per target, its k highest-scored neighbors (self excluded).

    `scores` is read once, in step with `targets`, and must hold exactly one
    entry per target. Ties break toward the smaller vertex id; targets with
    fewer than k scored neighbors contribute fewer pairs.
    """
    if k < 1:
        raise KgsliceError("k must be >= 1")
    pairs: list[tuple[int, int]] = []
    for target, inf in zip(targets, scores, strict=True):
        # (-score, id) keys are unique, so this is the sorted order's first k
        candidates = [(-s, u) for u, s in inf.scores.items() if u != target]
        pairs.extend((target, u) for _, u in heapq.nsmallest(k, candidates))
    return pairs


def build_partition(pairs, bs: int, rng) -> set[int]:
    """Greedy batch of bs targets whose neighbor sets overlap most.

    Starts from a random target, then repeatedly adds the target whose
    neighbor set intersects the accumulated neighbor pool the most (ties
    by vertex id). Returns the chosen targets plus their neighbors.

    Each target's overlap (its gain) is counted incrementally: a neighbor
    entering the pool raises the gain of every target holding it by one.
    """
    if not pairs:
        raise KgsliceError("no (target, neighbor) pairs to partition")
    neighbor_sets: dict[int, set[int]] = {}
    for t, u in pairs:
        neighbor_sets.setdefault(t, set()).add(u)
    holders: dict[int, list[int]] = {}
    for t, nbrs in neighbor_sets.items():
        for u in nbrs:
            holders.setdefault(u, []).append(t)
    targets = sorted(neighbor_sets)
    gain = dict.fromkeys(targets, 0)
    # lazy heap of (-gain, t): gains only grow, so a target's newest entry
    # pops before its older ones, which are skipped once it is selected
    heap = [(0, t) for t in targets]  # sorted, hence already a heap
    selected: set[int] = set()
    pool: set[int] = set()

    def select(t: int) -> None:
        selected.add(t)
        for u in neighbor_sets[t]:
            if u in pool:
                continue
            pool.add(u)
            for h in holders[u]:
                if h not in selected:
                    g = gain[h] + 1
                    gain[h] = g
                    heapq.heappush(heap, (-g, h))

    select(targets[rng.randrange(len(targets))])
    while heap and len(selected) < bs:
        _, t = heapq.heappop(heap)
        if t not in selected:
            select(t)
    return selected | pool


def extract_influence(
    kg: KnowledgeGraph,
    task: TaskSpec,
    bs: int,
    k: int,
    params: PprParams,
    seed: int = 0,
) -> Subgraph:
    """Influence-based extraction: score, select top-k, partition, induce.

    Scoring and top-k selection are streamed: each target's PPR run is cut
    to its k pairs as it finishes, so the runs are never all held at once.

    Vertices of the induced subgraph with no in-subgraph path to a target
    are dropped; a top-k selection can occasionally skip the connecting
    vertex of a distant neighbor, and such strays never influence the
    targets' embeddings.
    """
    check_at_least_one(bs, "batch size")
    targets = resolve_targets(kg, task)
    if not targets:
        raise EmptyTargetSet("task has no target vertices")
    pairs = select_topk(targets, influence_scores(kg, targets, params), k)
    if pairs:
        partition = build_partition(pairs, bs, _derived_rng(seed, "partition"))
    else:
        # every target is isolated in the walk graph: plain target batch
        partition = set(get_initial_vertices(bs, targets, seed))
    sg = kg.induced_subgraph(partition)

    reachable = set(sg.undirected_distances(set(targets) & sg.vertices))
    if reachable != sg.vertices:
        sg = kg.induced_subgraph(reachable)
    sg.provenance = {
        "engine": "ibs",
        "batch_size": bs,
        "top_k": k,
        "alpha": params.alpha,
        "epsilon": params.epsilon,
        "direction": BOTH,
        "seed": seed,
    }
    return sg

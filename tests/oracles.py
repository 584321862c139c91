"""Independent reference computations the main code is checked against.

Everything here deliberately avoids the package's own index structures:
brute-force scans, dense matrices, textbook algorithms. Keep it that way.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import warnings
from collections import Counter, deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from kgslice.errors import IoFailure
from kgslice.export import (
    _EDGE_FILE,
    LITERAL_TYPE,
    UNTYPED,
    DanglingLabelWarning,
    ExportBundle,
    _write,
)
from kgslice.graph import KIND_LITERAL, Subgraph, open_for_rewrite
from kgslice.tasks import LabelMap

from conftest import TYPE_IRI


def surface_triples(kg, triples=None):
    """Triples as surface-form string tuples (id-space independent)."""
    src = kg.triples if triples is None else triples
    return {(kg.term(s), kg.predicate_term(p), kg.term(o)) for s, p, o in src}


def scan_vertices_of_type(kg, type_iri: str) -> list[int]:
    """Linear scan over all triples for (v, rdf:type, type_iri)."""
    out = set()
    for s, p, o in kg.triples:
        if kg.predicate_iri(p) == kg.type_predicate_iri and kg.lexical(o) == type_iri:
            out.add(s)
    return sorted(out)


def filter_induced(kg, vs):
    """O(|T|) filter over every triple in the graph."""
    vs = set(vs)
    tp = kg.type_predicate
    kept = set()
    for s, p, o in kg.triples:
        if p == tp:
            if s in vs:
                kept.add((s, p, o))
        elif s in vs and o in vs:
            kept.add((s, p, o))
    return kept


def undirected_adjacency(kg, include_type_edges=False, include_literals=True):
    adj: dict[int, set[int]] = {}
    tp = kg.type_predicate
    for s, p, o in kg.triples:
        if not include_type_edges and p == tp:
            continue
        if not include_literals and kg.kind(o) == "literal":
            continue
        adj.setdefault(s, set()).add(o)
        adj.setdefault(o, set()).add(s)
    return adj


def walk_lists(kg, direction: str) -> dict[int, list[int]]:
    """Walk lists by a scan over every triple, with multiplicity.

    Skips type triples and triples with a literal endpoint; ``both`` also
    lists each subject under its object. Only vertices with a list appear.
    """
    tp = kg.type_predicate
    lists: dict[int, list[int]] = {}
    for s, p, o in kg.triples:
        if p == tp or kg.kind(s) == "literal" or kg.kind(o) == "literal":
            continue
        lists.setdefault(s, []).append(o)
        if direction == "both":
            lists.setdefault(o, []).append(s)
    return {v: sorted(lst) for v, lst in lists.items()}


@dataclass
class ReferenceStore:
    """What a graph's store holds, computed in plain Python; see :func:`reference_store`."""

    spo: list[tuple[int, int, int]]
    ops: list[tuple[int, int, int]]
    pso: list[tuple[int, int, int]]
    subject_offsets: list[int]
    object_offsets: list[int]
    predicate_offsets: list[int]
    by_type: dict[int, list[int]]
    walk: dict[str, dict[int, list[int]]]  # direction -> walk lists
    neighbors: list  # walk lists of "both" by vertex id, () for none


def _reference_offsets(rows, column: int, n: int) -> list[int]:
    """``offsets[i]``: how many rows hold an id below i in ``column``."""
    return [sum(1 for t in rows if t[column] < i) for i in range(n + 1)]


def reference_store(statements, type_predicate_iri: str) -> ReferenceStore:
    """The store of the graph built from ``statements``, from ``sorted(set(id triples))``.

    Terms and predicates are numbered in first-encounter order, as the
    builder numbers them; every order is a Python sort of the unique id
    triples and every offset a count, with no array and no index.
    """
    terms: dict[str, int] = {}
    preds: dict[str, int] = {}
    ids = [
        (terms.setdefault(s, len(terms)), preds.setdefault(p, len(preds)), terms.setdefault(o, len(terms)))
        for s, p, o in statements
    ]
    spo = sorted(set(ids))
    n = len(terms)
    tp = preds.get(f"<{type_predicate_iri}>")
    literal = [t.startswith('"') for t in terms]
    by_type: dict[int, list[int]] = {}
    for s, p, o in spo:
        if p == tp:
            by_type.setdefault(o, []).append(s)
    walk: dict[str, dict[int, list[int]]] = {}
    for direction in ("outgoing", "both"):
        lists: dict[int, list[int]] = {}
        for s, p, o in spo:
            if p == tp or literal[s] or literal[o]:
                continue
            lists.setdefault(s, []).append(o)
            if direction == "both":
                lists.setdefault(o, []).append(s)
        walk[direction] = {v: sorted(lst) for v, lst in lists.items()}
    return ReferenceStore(
        spo=spo,
        ops=sorted(spo, key=lambda t: (t[2], t[1], t[0])),
        pso=sorted(spo, key=lambda t: (t[1], t[0], t[2])),
        subject_offsets=_reference_offsets(spo, 0, n),
        object_offsets=_reference_offsets(spo, 2, n),
        predicate_offsets=_reference_offsets(spo, 1, len(preds)),
        by_type=by_type,
        walk=walk,
        neighbors=[walk["both"].get(v, ()) for v in range(n)],
    )


def bfs_distances(adj, sources):
    dist = {s: 0 for s in sources}
    q = deque(sources)
    while q:
        u = q.popleft()
        for w in adj.get(u, ()):
            if w not in dist:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def pattern_triples(kg, targets, d: int, h: int):
    """Triples on direction-respecting paths of length <= h from targets.

    d=1 follows edge direction outward; d=2 ignores direction. Paths run
    over non-type edges. A non-type triple qualifies when the endpoint on
    the appropriate side sits at path distance <= h-1 from a target; a
    type triple qualifies when its subject does (reached vertices keep
    their type assertions, unreached ones keep nothing).
    """
    targets = set(targets)
    tp = kg.type_predicate
    if d == 1:
        adj: dict[int, set[int]] = {}
        for s, p, o in kg.triples:
            if p != tp:
                adj.setdefault(s, set()).add(o)
        dist = bfs_distances(adj, targets)
    else:
        adj = undirected_adjacency(kg, include_type_edges=False, include_literals=True)
        dist = bfs_distances(adj, targets)
    keep = set()
    for s, p, o in kg.triples:
        if p == tp:
            near = dist.get(s, math.inf)
        elif d == 1:
            near = dist.get(s, math.inf)
        else:
            near = min(dist.get(s, math.inf), dist.get(o, math.inf))
        if near <= h - 1:
            keep.add((s, p, o))
    return keep


def branch_solutions(kg, bgp, index: int) -> list[tuple[int, int, int]]:
    """Projected (s, p, o) id rows of every solution of a branch's text, with repeats.

    Reads the branch as the SPARQL an endpoint receives: the triple
    patterns and the ``!=`` FILTER conjuncts of its WHERE text, and the
    projection of its select clause, ``distinct`` ignored. ``a`` stands
    for rdf:type. Each triple pattern is matched by a scan over surface
    forms, and the solutions are joined on their shared variables, so
    this is bag semantics: a solution counts once per distinct binding of
    all its variables, hidden ones included.
    """
    branch = bgp.branches[index]
    where, _, filt = branch.where_text.partition(" filter ")
    tokens = where.split()
    assert len(tokens) % 4 == 0 and tokens[3::4] == ["."] * (len(tokens) // 4), where
    patterns = [tokens[i : i + 3] for i in range(0, len(tokens), 4)]
    filters = []
    if filt:
        for conjunct in filt.strip("()").split(" && "):
            var, op, term = conjunct.split()
            assert op == "!=", conjunct
            filters.append((var, term))

    surface = [
        ((kg.term(s), kg.predicate_term(p), kg.term(o)), (s, p, o)) for s, p, o in kg.triples
    ]
    predicate_ids = {kg.predicate_term(p): p for _, p, _ in kg.triples}

    def constant(token: str) -> str:
        return f"<{TYPE_IRI}>" if token == "a" else token

    solutions: list[dict[str, int]] = [{}]
    for pattern in patterns:
        matches = []
        for terms, ids in surface:
            binding: dict[str, int] = {}
            for token, term, vid in zip(pattern, terms, ids):
                if not token.startswith("?"):
                    if constant(token) != term:
                        break
                elif binding.setdefault(token, vid) != vid:
                    break
            else:
                matches.append(binding)
        shared = sorted(set(pattern) & set(solutions[0]) if solutions else ())
        # a predicate variable and a vertex variable live in different id
        # spaces; no branch text joins on a predicate
        assert pattern[1] not in shared, pattern
        by_key: dict[tuple[int, ...], list[dict[str, int]]] = {}
        for m in matches:
            by_key.setdefault(tuple(m[v] for v in shared), []).append(m)
        solutions = [
            {**sol, **m}
            for sol in solutions
            for m in by_key.get(tuple(sol[v] for v in shared), ())
        ]

    def passes(sol) -> bool:
        return all(kg.predicate_term(sol[var]) != constant(term) for var, term in filters)

    words = branch.select_clause.split()[1:]
    if words[0] == "distinct":
        words = words[1:]
    projection = []  # one expression per projected variable, in ?s ?p ?o order
    while words:
        expr, words = words[0], words[1:]
        if words[:1] == ["as"]:
            words = words[2:]
        projection.append(expr)
    assert len(projection) == 3, branch.select_clause

    def value(sol, expr: str, position: int) -> int:
        if expr.startswith("?"):
            return sol[expr]
        assert position == 1, expr  # only the bridge predicate is projected as a constant
        return predicate_ids[constant(expr)]

    return [
        tuple(value(sol, expr, i) for i, expr in enumerate(projection))
        for sol in solutions
        if passes(sol)
    ]


def power_iteration_ppr(adj, n_vertices, source, alpha, tol=1e-12, max_iter=100000):
    """Stationary PPR by dense power iteration.

    Transition: with prob alpha teleport to source, else move to a uniform
    random out-entry of the adjacency list; vertices with no entries send
    their mass back to the source.
    """
    n = n_vertices
    trans = np.zeros((n, n))  # trans[u, w]: prob of the non-teleport move u -> w
    for u in range(n):
        nbrs = adj.get(u, [])
        if not nbrs:
            trans[u, source] = 1.0
        else:
            share = 1.0 / len(nbrs)
            for w in nbrs:
                trans[u, w] += share
    p = np.zeros(n)
    p[source] = 1.0
    teleport = np.zeros(n)
    teleport[source] = alpha
    for _ in range(max_iter):
        nxt = teleport + (1 - alpha) * (p @ trans)
        if np.abs(nxt - p).sum() < tol:
            return nxt
        p = nxt
    return p


def reference_forward_push(adj, source, alpha, eps):
    """Forward-push PPR over a dict adjacency: (scores, residuals) dicts.

    Pops by (residual/degree, id) from a lazy heap and enqueues neighbors
    only after all their shares landed; a degree-0 vertex returns its
    residual to the source. The package's push must match it bit for bit,
    since any change in push order shifts the scores.
    """
    p: dict[int, float] = {}
    r: dict[int, float] = {source: 1.0}

    def ready(u: int, ru: float) -> bool:
        deg = len(adj.get(u, ()))
        return ru > 0.0 if deg == 0 else ru >= eps * deg

    # lazy max-heap on residual/degree ratio, ties by vertex id
    heap: list[tuple[float, int]] = []

    def enqueue(u: int) -> None:
        ru = r.get(u, 0.0)
        if ready(u, ru):
            deg = len(adj.get(u, ()))
            ratio = ru / deg if deg else float("inf")
            heapq.heappush(heap, (-ratio, u))

    enqueue(source)
    while heap:
        neg_ratio, u = heapq.heappop(heap)
        ru = r.get(u, 0.0)
        nbrs = adj.get(u, ())
        deg = len(nbrs)
        if not ready(u, ru):
            continue  # stale entry
        current_ratio = ru / deg if deg else float("inf")
        if current_ratio != -neg_ratio:
            continue  # stale entry
        if deg == 0:
            if u == source:
                # the walk can only teleport home: the whole residual converts
                p[u] = p.get(u, 0.0) + ru
                r[u] = 0.0
            else:
                p[u] = p.get(u, 0.0) + alpha * ru
                r[u] = 0.0
                r[source] = r.get(source, 0.0) + (1.0 - alpha) * ru
                enqueue(source)
            continue
        p[u] = p.get(u, 0.0) + alpha * ru
        r[u] = 0.0
        share = (1.0 - alpha) * ru / deg
        for w in nbrs:
            r[w] = r.get(w, 0.0) + share
        for w in set(nbrs):
            enqueue(w)

    residuals = {u: ru for u, ru in r.items() if ru > 0.0}
    scores = {u: pu for u, pu in p.items() if pu > 0.0}
    return scores, residuals


def rescan_partition(pairs, bs: int, rng) -> set[int]:
    """Greedy max-overlap batch that rescans every remaining target per pick.

    Starts from a random target, then repeatedly adds the target whose
    neighbor set intersects the accumulated neighbor pool the most (ties
    by vertex id). Returns the chosen targets plus their neighbors.
    """
    neighbor_sets: dict[int, set[int]] = {}
    for t, u in pairs:
        neighbor_sets.setdefault(t, set()).add(u)
    remaining = sorted(neighbor_sets)
    start = remaining[rng.randrange(len(remaining))]
    selected = [start]
    remaining.remove(start)
    pool = set(neighbor_sets[start])
    while remaining and len(selected) < bs:
        best = max(remaining, key=lambda t: (len(neighbor_sets[t] & pool), -t))
        remaining.remove(best)
        selected.append(best)
        pool |= neighbor_sets[best]
    return set(selected) | pool


def entropy_of_counts(counts) -> float:
    """Shannon entropy (bits) of the empirical distribution of ``counts``."""
    hist = Counter(counts)
    n = sum(hist.values())
    h = 0.0
    for c in hist.values():
        prob = c / n
        h -= prob * math.log2(prob)
    return h


class UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def dense_rgcn_forward(model, sg, feats):
    """Reference forward pass via explicit per-relation dense matmuls."""
    verts = sg.entity_vertices()
    pos = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    d = model.dim
    h = np.zeros((n, d))
    for v in verts:
        h[pos[v]] = feats[v]
    rels = sorted({p for _, p, _ in sg.non_type_triples})
    mats = {}
    for r in rels:
        a = np.zeros((n, n))
        for s, p, o in sg.non_type_triples:
            if p == r and s in pos and o in pos:
                a[pos[o], pos[s]] += 1.0
        mats[r] = a
        mats[(r, "inv")] = a.T.copy()
    for layer in range(model.layers):
        z = h @ model.self_weight(layer).T
        for key, a in mats.items():
            if isinstance(key, tuple):
                w = model.relation_weight(layer, key[0], inverse=True)
            else:
                w = model.relation_weight(layer, key, inverse=False)
            deg = a.sum(axis=1)
            norm = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
            msg = (a * norm[:, None]) @ h
            z = z + msg @ w.T
        h = np.maximum(z, 0.0)
    return {v: h[pos[v]].copy() for v in verts}


def in_neighbor_lists(sg):
    """vertex -> sorted [(relation key, sorted neighbor list)] over entity edges."""
    kind = sg.kg.kind
    lists: dict[int, dict[tuple[int, int], list[int]]] = {}
    for s, p, o in sg.non_type_triples:
        if kind(s) == "literal" or kind(o) == "literal":
            continue
        lists.setdefault(o, {}).setdefault((p, 0), []).append(s)
        lists.setdefault(s, {}).setdefault((p, 1), []).append(o)
    out: dict[int, list[tuple[tuple[int, int], list[int]]]] = {}
    for v, by_rel in lists.items():
        out[v] = sorted((key, sorted(js)) for key, js in by_rel.items())
    return out


def reference_rgcn_forward(model, sg, feats):
    """rgcn_forward as first written: a per-vertex loop over sorted neighbor lists.

    The package's grouped pass must equal it bit for bit on every vertex.
    """
    from kgslice.errors import MissingFeature

    verts = sg.entity_vertices()
    for v in verts:
        if v not in feats:
            raise MissingFeature(v)
    pos = {v: i for i, v in enumerate(verts)}
    h = np.array([np.asarray(feats[v], dtype=float) for v in verts]) if verts else np.zeros((0, model.dim))
    in_lists = in_neighbor_lists(sg)
    weight_cache: dict = {}

    def weight(key):
        w = weight_cache.get(key)
        if w is None:
            kind, layer, rel = key
            if kind == "self":
                w = model.self_weight(layer)
            else:
                w = model.relation_weight(layer, rel[0], inverse=bool(rel[1]))
            weight_cache[key] = w
        return w

    for layer in range(model.layers):
        w0 = weight(("self", layer, None))
        nxt = np.empty_like(h)
        for v in verts:
            i = pos[v]
            z = np.dot(w0, h[i])
            for rel, js in in_lists.get(v, ()):
                idx = [pos[j] for j in js]
                msg = h[idx].sum(axis=0) / len(idx)
                z = z + np.dot(weight(("rel", layer, rel)), msg)
            nxt[i] = np.maximum(z, 0.0)
        h = nxt
    return {v: h[pos[v]].copy() for v in verts}


def dense_rgcn_jacobian(model, sg, feats, v, u):
    """Analytic d h_u / d X_v by forward-mode accumulation on dense ops."""
    verts = sg.entity_vertices()
    pos = {v2: i for i, v2 in enumerate(verts)}
    n = len(verts)
    d = model.dim
    h = np.zeros((n, d))
    for w2 in verts:
        h[pos[w2]] = feats[w2]
    # jac[i, a, b] = d h[i, a] / d X_v[b]
    jac = np.zeros((n, d, d))
    jac[pos[v]] = np.eye(d)
    rels = sorted({p for _, p, _ in sg.non_type_triples})
    mats = {}
    for r in rels:
        a = np.zeros((n, n))
        for s, p, o in sg.non_type_triples:
            if p == r and s in pos and o in pos:
                a[pos[o], pos[s]] += 1.0
        mats[r] = a
        mats[(r, "inv")] = a.T.copy()
    for layer in range(model.layers):
        w0 = model.self_weight(layer)
        z = h @ w0.T
        zjac = np.einsum("ab,ibc->iac", w0, jac)
        for key, a in mats.items():
            if isinstance(key, tuple):
                w = model.relation_weight(layer, key[0], inverse=True)
            else:
                w = model.relation_weight(layer, key, inverse=False)
            deg = a.sum(axis=1)
            norm = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
            an = a * norm[:, None]
            z = z + (an @ h) @ w.T
            zjac = zjac + np.einsum("ab,ibc->iac", w, np.einsum("ij,jbc->ibc", an, jac))
        mask = (z > 0).astype(float)
        h = np.maximum(z, 0.0)
        jac = zjac * mask[:, :, None]
    return jac[pos[u]]


def influence_fd(model, sg, feats, v, u, step=1e-4) -> float:
    """Central finite-difference estimate of total |d h_u / d X_v|.

    Probes the package's own forward pass; :func:`dense_rgcn_jacobian` is
    the analytic value it is checked against.
    """
    from kgslice.rgcn import rgcn_forward

    total = 0.0
    base = dict(feats)
    x = np.asarray(feats[v], dtype=float)
    for j in range(model.dim):
        bump = np.zeros_like(x)
        bump[j] = step
        base[v] = x + bump
        hi = rgcn_forward(model, sg, base)[u]
        base[v] = x - bump
        lo = rgcn_forward(model, sg, base)[u]
        base[v] = x
        total += float(np.abs((hi - lo) / (2.0 * step)).sum())
    return total


def ppr_mass(inf) -> float:
    """Estimate plus residual of a push result: 1 up to rounding, since the push conserves mass."""
    return sum(inf.scores.values()) + sum(inf.residuals.values())


def reference_quality_report(sg, task, kg):
    """quality_report as first written: dict-of-sets adjacency, one BFS per indicator.

    Returns a kgslice.metrics.QualityReport, so the fast version can be
    compared with ``==``, float for float.
    """
    from kgslice.metrics import QualityReport
    from kgslice.tasks import resolve_targets

    def entity_vertices():
        return sorted(v for v in sg.vertices if kg.kind(v) != "literal")

    def distances(targets):
        adj: dict[int, set[int]] = {}
        for s, _, o in sg.non_type_triples:
            adj.setdefault(s, set()).add(o)
            adj.setdefault(o, set()).add(s)
        return bfs_distances(adj, list(targets))

    def neighbor_type_counts():
        type_of = sg.kg.type_of
        nbr_types: dict[int, set[int]] = {}
        literal = {v for v in sg.vertices if sg.kg.kind(v) == "literal"}
        for s, _, o in sg.non_type_triples:
            if o not in literal and s not in literal:
                nbr_types.setdefault(s, set()).update(type_of.get(o, ()))
                nbr_types.setdefault(o, set()).update(type_of.get(s, ()))
        return {v: len(nbr_types.get(v, ())) for v in sg.vertices if v not in literal}

    def entropy():
        counts = neighbor_type_counts()
        if not counts:
            return 0.0
        hist = Counter(counts.values())
        n = len(counts)
        h = 0.0
        for c in hist.values():
            p = c / n
            h -= p * math.log2(p)
        return h

    targets = set(resolve_targets(kg, task)) & sg.vertices
    if not sg.vertices and not sg.triples:
        return QualityReport(0, 0, 0, 0, 0.0, 0, 0, 0.0, 0.0, True, 0.0, empty=True)
    entity = entity_vertices()
    ratio = 100.0 * len(targets) / len(entity) if entity else 0.0
    dist = distances(targets)
    reached = [d for v, d in dist.items() if v not in targets and v in sg.vertices]
    avg = sum(reached) / len(reached) if reached else 0.0
    non_targets = [v for v in sg.vertices if v not in targets]
    disconnected = (
        100.0 * sum(1 for v in non_targets if v not in dist) / len(non_targets)
        if non_targets
        else 0.0
    )
    return QualityReport(
        vertex_count=len(sg.vertices),
        vertex_count_no_literals=len(entity),
        triple_count=len(sg.triples),
        target_count=len(targets),
        target_ratio=ratio,
        node_type_count=len(sg.node_type_ids),
        edge_type_count=len(sg.predicate_ids),
        target_disconnected_ratio=disconnected,
        avg_distance_to_target=avg,
        no_connected_non_targets=not reached,
        neighbor_type_entropy=entropy(),
    )


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


def reference_export_bundle(
    sg: Subgraph,
    labels: LabelMap | None,
    splits: dict[int, str] | None,
    outdir,
    exclude_label_edges: bool = False,
    label_predicate: int | None = None,
) -> ExportBundle:
    """The per-triple dict-and-loop export that :func:`kgslice.export.export_bundle` replaced.

    Writes the same files and returns the same manifest wrapper.

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

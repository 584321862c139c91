"""Deterministic relational graph convolution reference.

Exists to validate extractions, not to train anything: a fixed-seed
multi-layer forward pass whose target embeddings must not change when
vertices outside the targets' message-passing neighborhood are pruned,
and a finite-difference influence probe that must vanish exactly for
unreachable vertex pairs.

Messages flow along edge direction (the object aggregates its subjects);
with inverse_relations on (the default), each predicate also acts in
reverse through its own weight matrix. Per-relation sums run over
neighbor lists in sorted order and each vertex is combined with fixed
shapes, so results are bit-reproducible no matter how the subgraph was
built or pruned.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import MissingFeature
from .graph import KIND_LITERAL, Subgraph, hop_distances


def _derived_array(seed: int, scope: tuple, shape: tuple[int, ...]) -> np.ndarray:
    key = ":".join(map(str, (seed, *scope))).encode()
    digest = hashlib.sha256(key).digest()
    gen = np.random.default_rng(int.from_bytes(digest[:8], "big"))
    return gen.uniform(-0.5, 0.5, size=shape)


@dataclass
class RgcnReferenceModel:
    layers: int
    dim: int
    seed: int = 0
    inverse_relations: bool = True

    def self_weight(self, layer: int) -> np.ndarray:
        return _derived_array(self.seed, ("w0", layer), (self.dim, self.dim))

    def relation_weight(self, layer: int, predicate: int, inverse: bool = False) -> np.ndarray:
        tag = "wr-inv" if inverse else "wr"
        return _derived_array(self.seed, (tag, layer, predicate), (self.dim, self.dim))


def random_features(vertices, dim: int, seed: int = 0) -> dict[int, np.ndarray]:
    return {v: _derived_array(seed, ("feat", v), (dim,)) for v in vertices}


def _entity_triples(sg: Subgraph):
    kg = sg.kg
    for s, p, o in sg.non_type_triples:
        if kg.kind(o) == KIND_LITERAL or kg.kind(s) == KIND_LITERAL:
            continue
        yield s, p, o


def _in_neighbor_lists(sg: Subgraph, inverse: bool):
    """vertex -> sorted [(relation key, sorted neighbor list)]."""
    lists: dict[int, dict[tuple[int, int], list[int]]] = {}
    for s, p, o in _entity_triples(sg):
        lists.setdefault(o, {}).setdefault((p, 0), []).append(s)
        if inverse:
            lists.setdefault(s, {}).setdefault((p, 1), []).append(o)
    out: dict[int, list[tuple[tuple[int, int], list[int]]]] = {}
    for v, by_rel in lists.items():
        out[v] = sorted((key, sorted(js)) for key, js in by_rel.items())
    return out


def rgcn_forward(
    model: RgcnReferenceModel, sg: Subgraph, feats: dict[int, np.ndarray]
) -> dict[int, np.ndarray]:
    """Final-layer embeddings for every entity vertex of the subgraph."""
    verts = sg.entity_vertices()
    for v in verts:
        if v not in feats:
            raise MissingFeature(v)
    pos = {v: i for i, v in enumerate(verts)}
    h = np.array([np.asarray(feats[v], dtype=float) for v in verts]) if verts else np.zeros((0, model.dim))
    in_lists = _in_neighbor_lists(sg, model.inverse_relations)
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


def message_reach(sg: Subgraph, targets, hops: int, inverse_relations: bool = True) -> set[int]:
    """Vertices with a message-passing path of <= hops into a target."""
    s, o = sg.non_type_edges()
    literal = sg.kg.literal_mask()
    keep = ~(literal[s] | literal[o])
    s, o = s[keep], o[keep]
    # a message runs from subject to object: search from the receiving end
    if inverse_relations:
        s, o = np.concatenate([s, o]), np.concatenate([o, s])
    return set(hop_distances(o, s, set(targets) & sg.vertices, hops))


def prune_outside_reach(
    sg: Subgraph, targets, hops: int, inverse_relations: bool = True
) -> Subgraph:
    """Drop every vertex that cannot message a target within ``hops``."""
    return sg.restricted(message_reach(sg, targets, hops, inverse_relations))


def influence_fd(
    model: RgcnReferenceModel,
    sg: Subgraph,
    feats: dict[int, np.ndarray],
    v: int,
    u: int,
    step: float = 1e-4,
) -> float:
    """Central finite-difference estimate of total |d h_u / d X_v|."""
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

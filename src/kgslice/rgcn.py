"""Deterministic relational graph convolution reference.

Exists to validate extractions, not to train anything: a fixed-seed
multi-layer forward pass whose target embeddings must not change when
vertices outside the targets' message-passing neighborhood are pruned.
(The tests also probe it by finite differences: the influence of an
unreachable vertex on a target must vanish exactly.)

Messages flow along edge direction (the object aggregates its subjects),
and each predicate also acts in reverse through its own weight matrix.
Each vertex adds its self term, then one term per (relation, direction)
in sorted order: the mean of its senders' rows, summed in sorted sender
order, times that relation's weight. One grouped numpy pass per layer
computes every vertex at once with exactly the operations, and the order,
of a per-vertex loop (one gemv per row, never a gemm over the batch), so
results are bit-reproducible no matter how the subgraph was built or
pruned.

Features and weights are uniform in [-0.5, 0.5) and derived in bulk by
:func:`_uniform_rows`, keyed like a counter-based generator (Salmon et
al., SC 2011): a vertex's feature row is a pure function of (seed,
vertex id), a weight matrix of (seed, layer, predicate id, direction).
No per-vertex generator is built, and a vertex gets the same row in any
slice. This derivation replaced one numpy Generator per vertex, so
embedding values differ from earlier versions for the same seed; the
validator's verdicts do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import shake_128

import numpy as np

from .errors import MissingFeature, UnsupportedParams
from .graph import Subgraph, hop_distances


def _uniform_rows(seed: int, tag: str, keys, width: int) -> np.ndarray:
    """One row of ``width`` floats in [-0.5, 0.5) per key, as an (n, width) array.

    Row i is a pure function of (seed, tag, keys[i]): the key's
    ``shake_128`` digest read as little-endian uint64s, whose top 53 bits
    scale to [0, 1). No generator state is kept, so a key's row does not
    depend on which other keys are asked for.
    """
    size = 8 * width
    digests = b"".join(shake_128(f"{seed}:{tag}:{key}".encode()).digest(size) for key in keys)
    bits = np.frombuffer(digests, dtype="<u8").reshape(-1, width)
    return (bits >> 11) * 2.0**-53 - 0.5


@dataclass
class RgcnReferenceModel:
    layers: int
    dim: int
    seed: int = 0

    def __post_init__(self):
        if self.layers < 0:
            raise UnsupportedParams(f"RGCN layers must be >= 0, got {self.layers}")
        if self.dim < 1:
            raise UnsupportedParams(f"RGCN dim must be >= 1, got {self.dim}")

    def self_weight(self, layer: int) -> np.ndarray:
        d = self.dim
        return _uniform_rows(self.seed, "w0", [layer], d * d).reshape(d, d)

    def relation_weight(self, layer: int, predicate: int, inverse: bool = False) -> np.ndarray:
        d = self.dim
        tag = "wr-inv" if inverse else "wr"
        return _uniform_rows(self.seed, tag, [f"{layer}:{predicate}"], d * d).reshape(d, d)


def random_features(vertices, dim: int, seed: int = 0) -> dict[int, np.ndarray]:
    """One feature row per vertex, keyed by vertex id; rows are views of one (n, dim) array."""
    vertices = list(vertices)
    return dict(zip(vertices, _uniform_rows(seed, "feat", vertices, dim)))


def _entity_mask(sg: Subgraph) -> np.ndarray:
    """Which non-type triples join two non-literal vertices."""
    s, o = sg.non_type_edges()
    literal = sg.kg.literal_mask()
    return ~(literal[s] | literal[o])


def _message_plan(sg: Subgraph, rows: np.ndarray):
    """The entity edges of ``sg``, grouped once for every layer of a forward pass.

    Each triple (s, p, o) gives two message edges: o receives s under key
    (p, 0) and s receives o under key (p, 1). One lexsort orders them by
    key, then receiver, then sender. A message is one (key, receiver) run
    of senders. Returns:

    - ``keys``: (p, inverse, lo, hi) per key in ascending order, whose
      messages are ``lo:hi``;
    - ``receivers``: the receiving row of each message;
    - ``sums``: (messages, senders, count) per distinct sender count, where
      ``senders`` is a (messages, count) block of sender rows, each row
      ascending.
    """
    s, o = sg.non_type_edges()
    keep = _entity_mask(sg)
    pred = sg.non_type_spo[:, 1].astype(np.int64)
    pred, s, o = pred[keep], np.searchsorted(rows, s[keep]), np.searchsorted(rows, o[keep])
    key = np.concatenate([2 * pred, 2 * pred + 1])
    recv = np.concatenate([o, s])
    send = np.concatenate([s, o])
    order = np.lexsort((send, recv, key))
    key, recv, send = key[order], recv[order], send[order]
    # slice assignment keeps an empty slice empty; np.r_[True, ...] would not
    first = np.ones(len(key), dtype=bool)
    first[1:] = (key[1:] != key[:-1]) | (recv[1:] != recv[:-1])
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=len(key))
    msg_key = key[starts]
    lo = np.flatnonzero(np.diff(msg_key, prepend=-1))
    hi = np.append(lo[1:], len(msg_key))
    keys = [
        (k >> 1, bool(k & 1), a, b)
        for k, a, b in zip(msg_key[lo].tolist(), lo.tolist(), hi.tolist())
    ]
    # Stable sorts by sender count lay out each count's messages, and their
    # senders, as one block of a few shared arrays. Two fresh arrays per
    # count left more heap behind: lp-skew peak RSS rose 2.7%, not 1.3%.
    by_count = np.argsort(counts, kind="stable")
    senders = send[np.argsort(np.repeat(counts, counts), kind="stable")]
    sizes = counts[by_count]
    first_edge = np.concatenate([[0], np.cumsum(sizes)])
    lo = np.flatnonzero(np.diff(sizes, prepend=0))
    hi = np.append(lo[1:], len(sizes))
    sums = [
        (by_count[a:b], senders[first_edge[a]:first_edge[b]].reshape(b - a, c), c)
        for a, b, c in zip(lo.tolist(), hi.tolist(), sizes[lo].tolist())
    ]
    return keys, recv[starts], sums


def rgcn_forward(
    model: RgcnReferenceModel, sg: Subgraph, feats: dict[int, np.ndarray]
) -> dict[int, np.ndarray]:
    """Final-layer embeddings for every entity vertex of the subgraph."""
    verts = sg.entity_vertices()
    for v in verts:
        if v not in feats:
            raise MissingFeature(v)
    h = np.array([np.asarray(feats[v], dtype=float) for v in verts]) if verts else np.zeros((0, model.dim))
    keys, receivers, sums = _message_plan(sg, np.asarray(verts, dtype=np.int64))
    for layer in range(model.layers):
        # Each product is one matrix times one vector: np.matmul runs this
        # stack of (d, d) @ (d, 1) as one gemv per row, the same call as
        # w0 @ h[i]. A gemm over the batch (h @ w0.T) gives rows that depend
        # on how many rows the batch has (OpenBLAS), so a pruned slice would
        # not match the full one. A broadcast multiply with .sum(-1) does not
        # depend on the batch, but its rows differ from w0 @ h[i].
        z = np.matmul(model.self_weight(layer)[None], h[:, :, None])[:, :, 0]
        # A message is the mean of its senders' rows, summed by the same
        # reduction as h[senders].sum(axis=0): one (messages, count, d) gather
        # per distinct count. np.add.at would sum in order, but numpy sums a
        # contiguous axis pairwise (dim 1, from 8 senders on), and
        # np.add.reduceat does not sum a segment in order at all.
        msg = np.empty((len(receivers), model.dim))
        for msgs, senders, count in sums:
            msg[msgs] = h[senders].sum(axis=1) / count
        # every vertex adds its relations in ascending (p, inverse) order
        for p, inverse, lo, hi in keys:
            w = model.relation_weight(layer, p, inverse=inverse)
            recv = receivers[lo:hi]
            z[recv] = z[recv] + np.matmul(w[None], msg[lo:hi, :, None])[:, :, 0]
        h = np.maximum(z, 0.0)
    # h is a fresh array (np.array or np.maximum), so the rows alias no input
    return dict(zip(verts, h))


def message_reach(sg: Subgraph, targets, hops: int) -> set[int]:
    """Vertices with a message-passing path of <= hops into a target."""
    s, o = sg.non_type_edges()
    keep = _entity_mask(sg)
    s, o = s[keep], o[keep]
    # messages run both ways along each entity edge
    tails, heads = np.concatenate([s, o]), np.concatenate([o, s])
    return set(hop_distances(tails, heads, set(targets) & sg.vertices, hops))


def prune_outside_reach(sg: Subgraph, targets, hops: int) -> Subgraph:
    """Drop every vertex that cannot message a target within ``hops``."""
    return sg.restricted(message_reach(sg, targets, hops))


"""MHCN — Multi-channel Hypergraph Convolutional Network (Yu et al., WWW 2021).

The published model builds motif-induced hypergraph channels from the
social and interaction structure, runs LightGCN-style propagation per
channel, fuses channels with attention, and adds a self-supervised
mutual-information objective.  This implementation keeps all three
elements:

* **channels** — (1) social triangles (``S·S ∘ S``), (2) joint
  social+purchase motifs (``(Y·Yᵀ) ∘ S``), (3) plain purchase
  co-occurrence (``Y·Yᵀ``), each symmetric-normalized;
* **channel attention** fusing the per-channel user embeddings;
* **self-supervision** — a hierarchical MIM reduced to its core: channel
  embeddings of a user should agree with their channel-neighbourhood
  summary more than with a shuffled one (InfoNCE-style pairwise loss).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import scipy.sparse as sp

from repro.autograd import ops
from repro.autograd.tensor import Tensor
from repro.engine.propagate import LayerStack
from repro.graph.adjacency import symmetric_normalize
from repro.graph.hetero import CollaborativeHeteroGraph
from repro.models.base import Recommender
from repro.nn import init
from repro.nn.layers import Embedding
from repro.nn.module import Parameter


def _motif_channels(graph: CollaborativeHeteroGraph) -> List[sp.csr_matrix]:
    """The three motif-induced user-user channel adjacencies."""
    social = graph.social.tocsr()
    interaction = graph.interaction.tocsr()
    co_purchase = (interaction @ interaction.T).tocsr()
    co_purchase.setdiag(0)
    co_purchase.eliminate_zeros()

    triangle = (social @ social).multiply(social)  # social triangles
    joint = co_purchase.multiply(social)           # friends with shared items
    channels = []
    for matrix in (triangle, joint, co_purchase):
        matrix = sp.csr_matrix(matrix)
        if matrix.nnz == 0:  # fall back to the raw social graph
            matrix = social.copy()
        channels.append(symmetric_normalize(matrix))
    return channels


class MHCN(Recommender):
    """Three motif channels + attention fusion + self-supervised MIM."""

    name = "mhcn"

    def __init__(self, graph: CollaborativeHeteroGraph, embed_dim: int = 16,
                 seed: int = 0, num_layers: int = 2, ssl_weight: float = 0.1):
        super().__init__(graph, embed_dim, seed)
        rng = np.random.default_rng(seed)
        self.num_layers = int(num_layers)
        self.ssl_weight = float(ssl_weight)
        self.user_embedding = Embedding(graph.num_users, embed_dim, rng=rng)
        self.item_embedding = Embedding(graph.num_items, embed_dim, rng=rng)
        self.channel_attention = Parameter(init.xavier_uniform((embed_dim, 3), rng))
        self._channels = _motif_channels(graph)
        self._ssl_rng = np.random.default_rng(seed + 7)
        self._stack = LayerStack(self.num_layers, combine="mean")

    def _channel_embeddings(self) -> List[Tensor]:
        users = self.user_embedding.all()
        return [
            self._stack.run(users,
                            lambda _, current: ops.spmm(channel, current))
            for channel in self._channels
        ]

    def propagate(self) -> Tuple[Tensor, Tensor]:
        channel_embs = self._channel_embeddings()
        base = self.user_embedding.all()
        # Attention over channels, queried by the base embedding.
        scores = ops.softmax(ops.matmul(base, self.channel_attention), axis=1)
        fused = None
        for index, channel_emb in enumerate(channel_embs):
            weight = ops.reshape(scores[:, np.int64(index)], (self.graph.num_users, 1))
            term = ops.mul(channel_emb, weight)
            fused = term if fused is None else ops.add(fused, term)
        # Items: LightGCN-style propagation through the interaction graph.
        items = self.item_embedding.all()
        item_agg = ops.spmm(self.graph.item_user_mean, fused)
        item_final = ops.add(items, item_agg)
        user_agg = ops.spmm(self.graph.user_item_mean, items)
        user_final = ops.add(fused, user_agg)
        return user_final, item_final

    def bpr_loss(self, users, positives, negatives, l2: float = 1e-4) -> Tensor:
        """BPR plus the channel-level self-supervised MIM term."""
        loss = super().bpr_loss(users, positives, negatives, l2=l2)
        if self.ssl_weight <= 0:
            return loss
        channel_embs = self._channel_embeddings()
        batch_users = np.asarray(users, dtype=np.int64)
        shuffled = self._ssl_rng.permutation(batch_users)
        ssl_terms = []
        for index, channel_emb in enumerate(channel_embs):
            summary = ops.spmm(self._channels[index], channel_emb)
            own = ops.sum(ops.mul(ops.gather_rows(channel_emb, batch_users),
                                  ops.gather_rows(summary, batch_users)), axis=1)
            other = ops.sum(ops.mul(ops.gather_rows(channel_emb, shuffled),
                                    ops.gather_rows(summary, batch_users)), axis=1)
            ssl_terms.append(ops.neg(ops.mean(ops.log_sigmoid(ops.sub(own, other)))))
        ssl_loss = ssl_terms[0]
        for term in ssl_terms[1:]:
            ssl_loss = ops.add(ssl_loss, term)
        return ops.add(loss, ops.mul(Tensor(np.array(self.ssl_weight / 3.0)), ssl_loss))

"""LightGCN (He et al., SIGIR 2020) — parameter-free propagation baseline.

Included as the strongest plain graph-CF reference (cited as [16] in the
paper): embeddings are propagated over the symmetric-normalized bipartite
graph with no transforms or nonlinearities, and the final representation
is the mean of all layer outputs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor
from repro.engine.propagate import LayerStack
from repro.graph.hetero import CollaborativeHeteroGraph
from repro.models.base import Recommender
from repro.nn.layers import Embedding


class LightGCN(Recommender):
    """LightGCN: mean of propagated embedding layers."""

    name = "lightgcn"

    def __init__(self, graph: CollaborativeHeteroGraph, embed_dim: int = 16,
                 seed: int = 0, num_layers: int = 3):
        super().__init__(graph, embed_dim, seed)
        rng = np.random.default_rng(seed)
        self.num_layers = int(num_layers)
        self.user_embedding = Embedding(graph.num_users, embed_dim, rng=rng)
        self.item_embedding = Embedding(graph.num_items, embed_dim, rng=rng)
        self._stack = LayerStack(self.num_layers, combine="mean")

    def propagate(self) -> Tuple[Tensor, Tensor]:
        joint = ops.cat([self.user_embedding.all(), self.item_embedding.all()], axis=0)
        mean = self._stack.run(
            joint, lambda _, current: ops.spmm(self.graph.bipartite_norm, current))
        user_index = np.arange(self.graph.num_users)
        item_index = self.graph.num_users + np.arange(self.graph.num_items)
        return mean[user_index], mean[item_index]

    def propagate_on(self, subgraph) -> Tuple[Tensor, Tensor]:
        """Sampled path: identical stack over the sliced bipartite graph."""
        joint = ops.cat([
            ops.gather_rows(self.user_embedding.weight, subgraph.user_ids),
            ops.gather_rows(self.item_embedding.weight, subgraph.item_ids)],
            axis=0)
        mean = self._stack.run(
            joint,
            lambda _, current: ops.spmm(subgraph.bipartite_norm, current))
        user_index = np.arange(subgraph.num_users)
        item_index = subgraph.num_users + np.arange(subgraph.num_items)
        return mean[user_index], mean[item_index]

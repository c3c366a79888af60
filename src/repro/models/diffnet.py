"""DiffNet — neural social influence diffusion (Wu et al., SIGIR 2019).

The published model diffuses user embeddings through the social graph
layer by layer,

.. math::  h_u^{(l+1)} = \\text{mean}_{u' \\in N^S_u} h_{u'}^{(l)} + h_u^{(l)},

then forms the final user representation as the diffused embedding plus
the mean of the user's interacted items' embeddings.  Items keep their
free embeddings — the design choice the paper criticizes DiffNet for
(no item-side relational modeling), which Table II reflects.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor
from repro.engine.propagate import LayerStack
from repro.graph.hetero import CollaborativeHeteroGraph
from repro.models.base import Recommender
from repro.nn import init
from repro.nn.layers import Embedding
from repro.nn.module import Parameter


class DiffNet(Recommender):
    """Layer-wise social diffusion with interacted-item fusion."""

    name = "diffnet"

    def __init__(self, graph: CollaborativeHeteroGraph, embed_dim: int = 16,
                 seed: int = 0, num_layers: int = 2):
        super().__init__(graph, embed_dim, seed)
        rng = np.random.default_rng(seed)
        self.num_layers = int(num_layers)
        self.user_embedding = Embedding(graph.num_users, embed_dim, rng=rng)
        self.item_embedding = Embedding(graph.num_items, embed_dim, rng=rng)
        # Per-layer fusion weights of the diffusion step.
        self.layer_weights = Parameter(
            init.xavier_uniform((self.num_layers, embed_dim, embed_dim), rng))
        self._stack = LayerStack(self.num_layers, combine="last")

    def _step_on(self, view, layer_index: int, diffused: Tensor) -> Tensor:
        social_mean = ops.spmm(view.social_mean, diffused)
        weight = self.layer_weights[np.int64(layer_index)]
        return ops.add(ops.leaky_relu(ops.matmul(social_mean, weight), 0.2),
                       diffused)

    def propagate(self) -> Tuple[Tensor, Tensor]:
        items = self.item_embedding.all()
        diffused = self._stack.run(
            self.user_embedding.all(),
            lambda index, current: self._step_on(self.graph, index, current))
        interacted = ops.spmm(self.graph.user_item_mean, items)
        user_final = ops.add(diffused, interacted)
        return user_final, items

    def propagate_on(self, subgraph) -> Tuple[Tensor, Tensor]:
        """Sampled path: social diffusion over the sliced adjacencies."""
        items = ops.gather_rows(self.item_embedding.weight, subgraph.item_ids)
        diffused = self._stack.run(
            ops.gather_rows(self.user_embedding.weight, subgraph.user_ids),
            lambda index, current: self._step_on(subgraph, index, current))
        interacted = ops.spmm(subgraph.user_item_mean, items)
        return ops.add(diffused, interacted), items

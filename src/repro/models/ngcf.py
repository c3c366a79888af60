"""NGCF — Neural Graph Collaborative Filtering (Wang et al., SIGIR 2019).

Propagation over the symmetric-normalized user-item bipartite graph:

.. math::
   E^{(l+1)} = \\text{LeakyReLU}\\big((\\hat A + I) E^{(l)} W_1
               + (\\hat A E^{(l)}) \\odot E^{(l)} W_2\\big)

with the final representation being the concatenation of all layers —
exactly the published message-passing rule.  Per the paper's fair-
comparison note, the graph-CF baselines also receive the side context:
the social graph and the item-relation graph are appended as extra
propagation channels with small fixed weight.
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
from repro.nn.module import Module, ModuleList, Parameter


class _NgcfLayer(Module):
    """One NGCF propagation layer (W1: sum term, W2: affinity term)."""

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.weight_sum = Parameter(init.xavier_uniform((dim, dim), rng))
        self.weight_affinity = Parameter(init.xavier_uniform((dim, dim), rng))

    def forward(self, adjacency, embeddings: Tensor) -> Tensor:
        aggregated = ops.spmm(adjacency, embeddings)
        summed = ops.matmul(ops.add(aggregated, embeddings), self.weight_sum)
        affinity = ops.matmul(ops.mul(aggregated, embeddings), self.weight_affinity)
        return ops.leaky_relu(ops.add(summed, affinity), 0.2)


class NGCF(Recommender):
    """NGCF with social/item-relation context channels.

    Parameters
    ----------
    num_layers:
        Propagation depth (default 2, the paper's common setting).
    context_weight:
        Mixing weight of the social and item-relation context channels
        (0 recovers vanilla NGCF).
    """

    name = "ngcf"

    def __init__(self, graph: CollaborativeHeteroGraph, embed_dim: int = 16,
                 seed: int = 0, num_layers: int = 2, context_weight: float = 0.3):
        super().__init__(graph, embed_dim, seed)
        rng = np.random.default_rng(seed)
        self.num_layers = int(num_layers)
        self.context_weight = float(context_weight)
        self.user_embedding = Embedding(graph.num_users, embed_dim, rng=rng)
        self.item_embedding = Embedding(graph.num_items, embed_dim, rng=rng)
        self.layers = ModuleList([_NgcfLayer(embed_dim, rng)
                                  for _ in range(self.num_layers)])
        self._stack = LayerStack(self.num_layers, combine="concat")

    def minibatch_hops(self) -> int:
        """Exact depth: each layer is a bipartite hop *and* a context hop."""
        return 2 * max(self.num_layers, 1)

    def _step_on(self, view, layer_index: int, joint: Tensor) -> Tensor:
        joint = self.layers[layer_index](view.bipartite_norm, joint)
        if self.context_weight > 0:
            user_part = joint[np.arange(view.num_users)]
            item_part = joint[view.num_users + np.arange(view.num_items)]
            social = ops.spmm(view.social_mean, user_part)
            related = ops.spmm(view.item_context, item_part)
            context = ops.cat([social, related], axis=0)
            joint = ops.add(joint, ops.mul(Tensor(np.array(self.context_weight)),
                                           context))
        return joint

    def propagate(self) -> Tuple[Tensor, Tensor]:
        joint = ops.cat([self.user_embedding.all(), self.item_embedding.all()],
                        axis=0)
        final = self._stack.run(
            joint, lambda index, current: self._step_on(self.graph, index,
                                                        current))
        user_final = final[np.arange(self.graph.num_users)]
        item_final = final[self.graph.num_users + np.arange(self.graph.num_items)]
        return user_final, item_final

    def propagate_on(self, subgraph) -> Tuple[Tensor, Tensor]:
        """Sampled path: the same layer rule over the sliced adjacencies."""
        joint = ops.cat([
            ops.gather_rows(self.user_embedding.weight, subgraph.user_ids),
            ops.gather_rows(self.item_embedding.weight, subgraph.item_ids)],
            axis=0)
        final = self._stack.run(
            joint,
            lambda index, current: self._step_on(subgraph, index, current))
        user_final = final[np.arange(subgraph.num_users)]
        item_final = final[subgraph.num_users + np.arange(subgraph.num_items)]
        return user_final, item_final

"""DGNN — the paper's Disentangled Graph Neural Network.

The model follows Section IV end to end:

1. **Inputs** (Eq. 1): user, item and relation-node embeddings on the
   collaborative heterogeneous graph.
2. **Memory-augmented propagation** (Eqs. 3–6): each relation type owns a
   :class:`~repro.models.memory.MemoryBank`; user updates combine the
   target-gated social message with the source-gated interaction message
   under the joint ``1/(|N^S|+|N^Y|)`` normalization (Eq. 4); item
   updates combine user and relation-node messages under
   ``1/(|N^Y|+|N^T|)`` (Eq. 5); relation nodes aggregate item gates
   (Eq. 6).
3. **Stabilization** (Eq. 7): LayerNorm with learned scale/shift inside a
   LeakyReLU, plus a memory-encoded self-loop.
4. **Cross-layer aggregation** (Eq. 8): concatenation of all layer
   outputs followed by LayerNorm, for users and items.  No score reads
   the relation nodes' concat, so it is never built, and the last
   layer skips its relation update.
5. **Social recalibration** (Eqs. 9–10): the scoring user vector is
   ``H*[u] + τ(H*[u])`` where ``τ`` averages the user's social
   neighbourhood (self included); folded into the returned user
   embeddings so the shared dot-product scorer applies.

Ablation switches map one-to-one onto the paper's variants:
``use_memory=False`` is "-M" (single shared transform per relation, no
gating), ``use_tau=False`` is "-τ", ``use_layernorm=False`` is "-LN", and
building the graph with ``use_social=False`` / ``use_item_relations=
False`` yields "-S" / "-T" / "-ST" (Fig. 5).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.autograd import ops
from repro.autograd.tensor import Tensor, no_grad
from repro.engine.propagate import LayerStack, bpr_terms
from repro.graph.hetero import CollaborativeHeteroGraph
from repro.models.base import Recommender
from repro.models.memory import MemoryBank
from repro.nn.layers import Dropout, Embedding, LayerNorm
from repro.nn.module import Module, ModuleDict, ModuleList, Parameter
from repro.nn import init

_EDGE_TYPES = ("social", "user_from_item", "item_from_user", "item_from_relation",
               "relation_from_item", "self_user", "self_item", "self_relation")


class _PlainTransforms(Module):
    """The "-M" ablation: one shared linear transform per edge type."""

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        for edge_type in _EDGE_TYPES:
            setattr(self, f"weight_{edge_type}",
                    Parameter(init.xavier_uniform((dim, dim), rng)))

    def apply(self, edge_type: str, embeddings: Tensor) -> Tensor:
        return ops.matmul(embeddings, getattr(self, f"weight_{edge_type}"))


class _DgnnLayer(Module):
    """One propagation layer: Eqs. 3–7 for users, items and relation nodes."""

    def __init__(self, dim: int, num_memory_units: int, rng: np.random.Generator,
                 use_memory: bool, use_layernorm: bool, literal_eq4: bool = False,
                 message_dropout: float = 0.0):
        super().__init__()
        self.use_memory = use_memory
        self.use_layernorm = use_layernorm
        self.literal_eq4 = literal_eq4
        self.dropout = Dropout(message_dropout, rng=np.random.default_rng(
            int(rng.integers(0, 2**31))))
        if use_memory:
            self.banks = ModuleDict({
                edge_type: MemoryBank(dim, num_memory_units, rng)
                for edge_type in _EDGE_TYPES})
        else:
            self.plain = _PlainTransforms(dim, rng)
        self.norm_user = LayerNorm(dim)
        self.norm_item = LayerNorm(dim)
        self.norm_relation = LayerNorm(dim)

    # -- message builders ------------------------------------------------
    def _encode(self, edge_type: str, targets: Tensor,
                aggregated: Tensor) -> Tensor:
        """Eq. 3 on an aggregated message: target gates pick the transform."""
        if self.use_memory:
            return self.banks[edge_type].encode_target_gated(targets, aggregated)
        return self.plain.apply(edge_type, aggregated)

    def _target_gated(self, edge_type: str, targets: Tensor, sources: Tensor,
                      adjacency: sp.spmatrix) -> Tensor:
        return self._encode(edge_type, targets, ops.spmm(adjacency, sources))

    def _source_gated(self, edge_type: str, targets: Tensor, sources: Tensor,
                      adjacency: sp.spmatrix) -> Tensor:
        if self.use_memory:
            return self.banks[edge_type].encode_source_gated(targets, sources, adjacency)
        # Without memory units the source-gated form degrades to a plain
        # transform of the target scaled by its (normalized) in-degree.
        degree = np.asarray(adjacency.sum(axis=1))
        return ops.mul(self.plain.apply(edge_type, targets), Tensor(degree))

    def _self_loop(self, edge_type: str, embeddings: Tensor) -> Tensor:
        if self.use_memory:
            return self.banks[edge_type].encode_self(embeddings)
        return self.plain.apply(edge_type, embeddings)

    def _stabilize(self, aggregated: Tensor, previous: Tensor, norm: LayerNorm,
                   edge_type: str,
                   keep: Optional[np.ndarray] = None) -> Tensor:
        """Eq. 7: LeakyReLU(LayerNorm(message)) + memory self-propagation.

        Message dropout (training only) regularizes the aggregated message
        before normalization — the standard graph-recommender training
        detail (NGCF / LightGCN family release code); ``keep`` is its
        mask (``None`` when off).  Dropout, LayerNorm and LeakyReLU run as
        one ``layer_norm`` node; the "-LN" ablation keeps plain dropout →
        LeakyReLU.
        """
        if self.use_layernorm:
            activated = ops.layer_norm(
                aggregated, norm.scale, norm.shift, norm.eps,
                keep=keep, negative_slope=0.2)
        else:
            if keep is not None:
                aggregated = ops.mul(aggregated, Tensor(keep))
            activated = ops.leaky_relu(aggregated, 0.2)
        return ops.add(activated, self._self_loop(edge_type, previous))

    # -- full layer --------------------------------------------------------
    def forward(self, graph: CollaborativeHeteroGraph, users: Tensor,
                items: Tensor, relations: Tensor,
                rows: Optional[np.ndarray] = None, last: bool = False,
                ) -> Tuple[Tensor, Tensor, Optional[Tensor]]:
        """Eqs. 3–7 for every node set, or only for what a score reads.

        With ``last`` the relation update, which only a later layer would
        read, is skipped and the third result is ``None``.  With ``rows``
        (sorted, unique item ids) the item update runs only at those rows
        and the item result holds them alone; per row, the numbers are
        the full layer's.  Dropout masks are drawn at full shape either
        way (the skipped relation mask included), so the dropout stream
        depends on neither argument.
        """
        # Users (Eq. 4): social message + interaction message under the
        # joint 1/(|N^S|+|N^Y|) normalization.  By default both use the
        # Eq. 3 form (target gates transform aggregated source
        # embeddings); ``literal_eq4`` reproduces the equation exactly as
        # printed, where aggregated item *gates* transform the user's own
        # embedding (see DESIGN.md §"Eq. 4 reading").
        if self.literal_eq4:
            interaction_message = self._source_gated(
                "user_from_item", users, items, graph.user_item_joint)
        else:
            interaction_message = self._target_gated(
                "user_from_item", users, items, graph.user_item_joint)
        user_message = ops.add(
            self._target_gated("social", users, users, graph.user_social_joint),
            interaction_message)

        # Items (Eq. 5): user messages + relation-node messages under the
        # joint 1/(|N^Y|+|N^T|) normalization; a row slice of each
        # adjacency gives the messages of the rows in ``rows``.
        item_targets = items
        from_users, from_relations = (graph.item_user_joint,
                                      graph.item_relation_joint)
        if rows is not None:
            item_targets = ops.gather_rows(items, rows)
            from_users, from_relations = from_users[rows], from_relations[rows]
        item_message = ops.add(
            self._target_gated("item_from_user", item_targets, users,
                               from_users),
            self._target_gated("item_from_relation", item_targets, relations,
                               from_relations))

        # Relation nodes (Eq. 6): aggregated item messages, memory-gated.
        if last:
            relation_message = None
        elif self.literal_eq4:
            relation_message = self._source_gated(
                "relation_from_item", relations, items, graph.relation_item_mean)
        else:
            relation_message = self._target_gated(
                "relation_from_item", relations, items, graph.relation_item_mean)

        new_users = self._stabilize(user_message, users, self.norm_user,
                                    "self_user", self.dropout.mask(users.shape))
        item_keep = self.dropout.mask(items.shape)
        if rows is not None and item_keep is not None:
            item_keep = item_keep[rows]
        new_items = self._stabilize(item_message, item_targets, self.norm_item,
                                    "self_item", item_keep)
        # Drawn even when the relation update is skipped, for the stream.
        relation_keep = self.dropout.mask(relations.shape)
        if relation_message is None:
            return new_users, new_items, None
        new_relations = self._stabilize(relation_message, relations,
                                        self.norm_relation, "self_relation",
                                        relation_keep)
        return new_users, new_items, new_relations


class DGNN(Recommender):
    """Disentangled Graph Neural Network (the paper's model).

    Parameters
    ----------
    graph:
        Collaborative heterogeneous graph built from the training split.
    embed_dim:
        Hidden dimensionality ``d`` (paper default 16).
    num_layers:
        Graph propagation depth ``L`` (paper default 2).
    num_memory_units:
        ``|M|`` per memory bank (paper default 8).
    use_memory / use_tau / use_layernorm:
        Ablation switches for "-M" / "-τ" / "-LN" (Fig. 4).
    message_dropout:
        Training-time dropout on each aggregated message, in ``[0, 1)``.
    """

    name = "dgnn"

    def __init__(self, graph: CollaborativeHeteroGraph, embed_dim: int = 16,
                 seed: int = 0, num_layers: int = 2, num_memory_units: int = 8,
                 use_memory: bool = True, use_tau: bool = True,
                 use_layernorm: bool = True, literal_eq4: bool = False,
                 message_dropout: float = 0.1):
        if embed_dim < 1:
            raise ValueError(f"embed_dim must be >= 1, got {embed_dim}")
        if num_layers < 0:
            raise ValueError("num_layers must be >= 0")
        if use_memory and num_memory_units < 1:
            raise ValueError(f"num_memory_units must be >= 1 with use_memory, "
                             f"got {num_memory_units}")
        if not 0.0 <= message_dropout < 1.0:
            raise ValueError(f"message_dropout must be in [0, 1), "
                             f"got {message_dropout}")
        super().__init__(graph, embed_dim, seed)
        rng = np.random.default_rng(seed)
        self.num_layers = int(num_layers)
        self.num_memory_units = int(num_memory_units)
        self.use_memory = use_memory
        self.use_tau = use_tau
        self.use_layernorm = use_layernorm
        self.literal_eq4 = literal_eq4
        self.message_dropout = float(message_dropout)

        self.user_embedding = Embedding(graph.num_users, embed_dim, rng=rng)
        self.item_embedding = Embedding(graph.num_items, embed_dim, rng=rng)
        self.relation_embedding = Embedding(graph.num_relations, embed_dim, rng=rng)
        self.layers = ModuleList([
            _DgnnLayer(embed_dim, num_memory_units, rng, use_memory, use_layernorm,
                       literal_eq4, message_dropout)
            for _ in range(self.num_layers)
        ])
        self.final_norm = LayerNorm(embed_dim * (self.num_layers + 1))
        self._cached_layer_tables: Optional[List[Tuple[
            np.ndarray, np.ndarray, Optional[np.ndarray]]]] = None

    # ------------------------------------------------------------------
    def _stack(self) -> LayerStack:
        """The Eq. 8 cross-layer aggregation as a shared LayerStack."""
        return LayerStack(
            self.num_layers, combine="concat",
            final_norm=self.final_norm if self.use_layernorm else None)

    def _tables(self) -> Tuple[Tensor, Tensor, Tensor]:
        """Layer-0 user / item / relation embeddings (Eq. 1)."""
        return (self.user_embedding.all(), self.item_embedding.all(),
                self.relation_embedding.all())

    def _layers(self, graph: CollaborativeHeteroGraph,
                initial: Tuple[Tensor, Tensor, Tensor],
                rows: Optional[np.ndarray] = None,
                ) -> List[Tuple[Tensor, Tensor, Optional[Tensor]]]:
        """Eqs. 3–7 on ``graph``: the one loop that drives DGNN's layers.

        Returns ``L + 1`` ``(users, items, relations)`` states: entry
        ``l`` enters layer ``l`` (entry 0 is ``initial``) and entry ``L``
        is the last layer's output.  The last layer skips its relation
        update, which no score reads, so entry ``L``'s relations are
        ``None``; with ``rows`` its item update runs only at those rows.
        """
        states = [tuple(initial)]
        for index, layer in enumerate(self.layers):
            last = index == self.num_layers - 1
            states.append(layer(graph, *states[-1],
                                rows=rows if last else None, last=last))
        return states

    def _finish(self, graph: CollaborativeHeteroGraph, states,
                rows: Optional[np.ndarray] = None) -> Tuple[Tensor, Tensor]:
        """Eq. 8 on the user and item states, then τ (Eqs. 9–10).

        τ, when on, gives ``H*[u] + τ(H*[u])``: the row-normalized
        ``S + I`` average of a user's social neighbourhood including
        themselves, served as a cached graph view so it is normalized
        once per graph, not per call.  With ``rows``, the last item
        state covers those rows only, and the earlier item states enter
        the concat gathered at them.
        """
        stack = self._stack()
        users = stack.merge([state[0] for state in states])
        if self.use_tau:
            users = ops.add(users, ops.spmm(graph.social_self_loop_mean, users))
        items = [state[1] for state in states]
        if rows is not None:
            items[:-1] = [ops.gather_rows(table, rows) for table in items[:-1]]
        return users, stack.merge(items)

    def invalidate_cache(self) -> None:
        """Drop the cached final embeddings and per-layer tables."""
        super().invalidate_cache()
        self._cached_layer_tables = None

    def layer_tables(self) -> List[Tuple[np.ndarray, np.ndarray,
                                         Optional[np.ndarray]]]:
        """Inference-mode user / item / relation states entering each layer.

        Entry ``l`` holds the layer-``l`` tables (entry 0 is Eq. 1's
        embeddings), computed once with dropout off and no graph, and
        cached until :meth:`invalidate_cache` — the neighbour rows
        cold-start inference reads, so a cold embedding costs
        O(neighbours) instead of a full propagation, and
        :meth:`memory_attention` reads its gating tables.  Entry ``L``
        holds the last layer's user and item outputs and ``None`` for
        relations: the last relation update feeds no score, so it is
        never computed.
        """
        if self._cached_layer_tables is None:
            was_training = self.training
            self.eval()  # message dropout off
            try:
                with no_grad():
                    states = self._layers(self.graph, self._tables())
            finally:
                if was_training:
                    self.train()
            self._cached_layer_tables = [
                tuple(None if tensor is None else tensor.data.copy()
                      for tensor in state)
                for state in states]
        return self._cached_layer_tables

    def propagate(self) -> Tuple[Tensor, Tensor]:
        """Final embeddings with τ folded into the user side (Eq. 10)."""
        return self._finish(self.graph, self._layers(self.graph,
                                                     self._tables()))

    def bpr_loss(self, users: np.ndarray, positives: np.ndarray,
                 negatives: np.ndarray, l2: float = 1e-4) -> Tensor:
        """Eq. 11 on a triple batch, computing only the rows it reads.

        The loss reads final embeddings at the batch's users, their τ
        neighbourhood (Eqs. 9–10) and the batch's positive and negative
        items.  So the last layer computes its item update (Eqs. 3, 5
        and 7) only at ``rows = unique(positives ∪ negatives)``, through
        row slices of the item adjacencies, and skips the relation update
        that no score reads; the earlier layers run in full, and so does
        the last layer's user update, since τ reads most users.  Eq. 8
        concatenates the layers' item tables at ``rows`` and the scores
        index those local rows.

        The loss equals :meth:`Recommender.bpr_loss` (the full-graph
        path) bitwise, and the dropout stream is consumed identically;
        gradients agree up to summation order.  An id outside the user
        or item range raises ``ValueError``.
        """
        if not self.num_layers:
            return super().bpr_loss(users, positives, negatives, l2=l2)
        users, positives, negatives = self._check_batch(users, positives,
                                                        negatives)
        rows = np.unique(np.concatenate([positives, negatives]))
        self.invalidate_cache()
        user_emb, item_emb = self._finish(
            self.graph, self._layers(self.graph, self._tables(), rows), rows)
        return bpr_terms(user_emb, item_emb, users,
                         np.searchsorted(rows, positives),
                         np.searchsorted(rows, negatives), l2=l2)

    # ------------------------------------------------------------------
    # Minibatch (neighbour-sampled) training
    # ------------------------------------------------------------------
    def minibatch_hops(self) -> int:
        """Exact closure depth: one hop per layer, plus one for τ.

        The τ recalibration (Eq. 9) averages each batch user's social
        neighbourhood *after* the layer stack, so exactness needs those
        neighbours' full L-layer embeddings — one extra expansion round.
        """
        return self.num_layers + (1 if self.use_tau else 0)

    def propagate_on(self, subgraph) -> Tuple[Tensor, Tensor]:
        """Run the propagation on a sampled subgraph.

        ``subgraph`` is a :class:`repro.graph.sampling.SubgraphView`
        (parent-normalized slices — exact message weights); the returned
        embeddings cover its local user/item rows and gradients scatter
        back into the global embedding tables.
        """
        initial = (
            ops.gather_rows(self.user_embedding.weight, subgraph.user_ids),
            ops.gather_rows(self.item_embedding.weight, subgraph.item_ids),
            self.relation_embedding.all())
        return self._finish(subgraph, self._layers(subgraph, initial))

    # ------------------------------------------------------------------
    # Introspection for the case studies (Figs. 9-10)
    # ------------------------------------------------------------------
    def memory_attention(self, edge_type: str, layer: int = -1) -> np.ndarray:
        """Gate vectors ``η`` of the given edge type's bank at one layer.

        Returns the ``(n, |M|)`` attention of the bank's *gating* nodes
        (users for ``"social"``, items for ``"user_from_item"``, ...),
        evaluated on the inference-mode embeddings entering that layer
        (:meth:`layer_tables`, so message dropout never perturbs it).
        This is the quantity visualized in Fig. 10.
        """
        if not self.use_memory:
            raise RuntimeError("memory attention requires use_memory=True")
        if not len(self.layers):
            raise RuntimeError("memory attention requires at least one layer")
        bank: MemoryBank = self.layers[layer].banks[edge_type]
        user_final, item_final, relation_final = self.layer_tables()[
            layer % len(self.layers)]
        # The gating side is the node set whose embeddings feed η for this
        # bank: the target for Eq. 3 (target-gated) banks, the source for
        # the literal Eq. 4 / Eq. 6 (source-gated) forms.
        gating_side = {
            "social": user_final,
            "user_from_item": item_final if self.literal_eq4 else user_final,
            "item_from_user": item_final,
            "item_from_relation": item_final,
            "relation_from_item": (item_final if self.literal_eq4
                                   else relation_final),
            "self_user": user_final,
            "self_item": item_final,
            "self_relation": relation_final,
        }[edge_type]
        return bank.gate_values(gating_side)

    def user_memory_attention(self, edge_type: str = "social",
                              layer: int = -1) -> np.ndarray:
        """User-side gate vectors for Fig. 10 (``social`` or ``self_user``)."""
        if edge_type not in ("social", "self_user"):
            raise ValueError("user-side attention exists for 'social'/'self_user'")
        return self.memory_attention(edge_type, layer)

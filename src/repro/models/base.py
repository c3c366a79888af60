"""Common interface for every recommender in the repository.

All models — DGNN and the 15 baselines — share one contract:
:meth:`Recommender.propagate` produces final user and item embedding
matrices, prediction is their dot product, and training minimizes the
pairwise BPR objective of Eq. 11.  Models whose published scoring rule is
not a plain dot product (e.g. DGNN's social recalibration ``τ``) fold the
extra terms into the final user embedding, which Eq. 10 shows is exactly
equivalent.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.engine import backends
from repro.eval.full_ranking import exact_topk
from repro.eval.metrics import block_rows
from repro.engine.propagate import bpr_terms, check_ids
from repro.graph.hetero import CollaborativeHeteroGraph
from repro.nn.module import Module


class Recommender(Module):
    """Base class: embedding-producing recommender trained with BPR.

    Parameters
    ----------
    graph:
        The collaborative heterogeneous graph built from the training
        split.
    embed_dim:
        Dimensionality ``d`` of the final embeddings.
    seed:
        Seed controlling weight initialization.
    """

    name = "base"

    def __init__(self, graph: CollaborativeHeteroGraph, embed_dim: int = 16,
                 seed: int = 0):
        super().__init__()
        self.graph = graph
        self.embed_dim = int(embed_dim)
        self.seed = int(seed)
        self._cached_embeddings: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # To implement in subclasses
    # ------------------------------------------------------------------
    def propagate(self) -> Tuple[Tensor, Tensor]:
        """Return final ``(user_embeddings, item_embeddings)`` tensors.

        Shapes are ``(num_users, d*)`` and ``(num_items, d*)`` with a
        shared ``d*`` (models may widen via layer concatenation).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Training objective (Eq. 11)
    # ------------------------------------------------------------------
    def bpr_loss(self, users: np.ndarray, positives: np.ndarray,
                 negatives: np.ndarray, l2: float = 1e-4) -> Tensor:
        """Pairwise BPR loss on a triple batch plus embedding L2.

        The math lives in :func:`repro.engine.propagate.bpr_terms`; this
        method owns only the model plumbing (cache invalidation and the
        forward propagation).  The regularizer, Eq. 11's λ (``l2``), is
        applied to the gathered final embeddings of the batch (the
        standard BPR practice).
        """
        self.invalidate_cache()
        user_emb, item_emb = self.propagate()
        return bpr_terms(user_emb, item_emb, users, positives, negatives, l2=l2)

    def _check_batch(self, users, positives, negatives
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A batch's global ids as int64 arrays, each checked against the
        graph (``ValueError`` when out of range)."""
        return (check_ids(users, self.graph.num_users, "user"),
                check_ids(positives, self.graph.num_items, "item"),
                check_ids(negatives, self.graph.num_items, "item"))

    # ------------------------------------------------------------------
    # Minibatch (neighbour-sampled) training
    # ------------------------------------------------------------------
    def supports_minibatch(self) -> bool:
        """Whether the model implements the sampled propagation path."""
        return type(self).propagate_on is not Recommender.propagate_on

    def minibatch_hops(self) -> int:
        """Neighbourhood depth at which *uncapped* sampling is exact.

        The number of expansion rounds needed so that every node whose
        message reaches a batch row under :meth:`propagate` is inside
        the sampled closure.  The default — one hop per propagation
        layer — is right for single-edge-per-layer models; models whose
        layers traverse more than one edge (or that post-process with an
        extra aggregation, like DGNN's τ) override it.
        """
        return max(int(getattr(self, "num_layers", 1)), 1)

    def propagate_on(self, subgraph) -> Tuple[Tensor, Tensor]:
        """Run propagation on a sampled subgraph; local-row embeddings.

        ``subgraph`` is a :class:`repro.graph.sampling.SubgraphView`
        (parent-normalized adjacency slices); the returned tensors cover
        its local user/item rows and gradients scatter back into the
        global embedding tables through the engine's ``gather_rows`` op.
        """
        raise NotImplementedError(
            f"{self.name} does not implement sampled propagation")

    def bpr_loss_on(self, subgraph, users: np.ndarray, positives: np.ndarray,
                    negatives: np.ndarray, l2: float = 1e-4) -> Tensor:
        """BPR loss evaluated on a prebuilt subgraph.

        The building block the prefetching pipeline uses: sampling and
        subgraph construction happen elsewhere (possibly on a worker
        thread), the compute step only propagates and scores.
        """
        # Global ids are checked before the local lookup, which would
        # read a negative id from the end of its table.
        users, positives, negatives = self._check_batch(users, positives,
                                                        negatives)
        self.invalidate_cache()
        user_emb, item_emb = self.propagate_on(subgraph)
        return bpr_terms(user_emb, item_emb, subgraph.local_users(users),
                         subgraph.local_items(positives),
                         subgraph.local_items(negatives), l2=l2)

    def bpr_loss_sampled(self, users: np.ndarray, positives: np.ndarray,
                         negatives: np.ndarray, l2: float = 1e-4,
                         hops: Optional[int] = None,
                         fanout: Optional[int] = 20,
                         seed: int = 0) -> Tensor:
        """BPR loss on the batch's sampled L-hop neighbourhood.

        A drop-in alternative to :meth:`bpr_loss` whose cost scales with
        the neighbourhood instead of the full graph.  ``hops`` defaults
        to :meth:`minibatch_hops` (exact closure depth); ``fanout`` caps
        sampled neighbours per node per relation (``None`` keeps all —
        with the default hops this reproduces the full-graph loss to
        dtype tolerance).
        """
        from repro.graph.sampling import sample_subgraph_view

        subgraph = sample_subgraph_view(
            self.graph, np.asarray(users, np.int64),
            np.concatenate([np.asarray(positives, np.int64),
                            np.asarray(negatives, np.int64)]),
            hops=self.minibatch_hops() if hops is None else hops,
            fanout=fanout, seed=seed)
        return self.bpr_loss_on(subgraph, users, positives, negatives, l2=l2)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def invalidate_cache(self) -> None:
        """Drop cached inference embeddings (call after parameter updates)."""
        self._cached_embeddings = None

    def final_embeddings(self) -> Tuple[np.ndarray, np.ndarray]:
        """Numpy final embeddings, cached until :meth:`invalidate_cache`."""
        if self._cached_embeddings is None:
            was_training = self.training
            self.eval()
            with no_grad():
                user_emb, item_emb = self.propagate()
            self._cached_embeddings = (user_emb.data.copy(), item_emb.data.copy())
            if was_training:
                self.train()
        return self._cached_embeddings

    def score_candidates(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Dot-product scores for per-user candidate item lists.

        ``users`` is ``(n,)`` and ``items`` is ``(n, c)``; the result has
        shape ``(n, c)``.  Runs through the engine's
        ``gathered_rowwise_dot`` kernel, so evaluation scoring shows up
        in kernel instrumentation alongside training.  Users are scored
        a block at a time (:func:`repro.eval.metrics.block_rows`), so the
        gathered operands never span more than one block.

        Raises ``ValueError`` for an id outside its table (a negative id
        would otherwise score the last rows) and for shapes that do not
        pair one candidate row with each user.
        """
        user_emb, item_emb = self.final_embeddings()
        users = check_ids(users, user_emb.shape[0], "user")
        items = check_ids(items, item_emb.shape[0], "item")
        if users.ndim != 1 or items.ndim != 2 or len(items) != len(users):
            raise ValueError(f"expected users (n,) and items (n, c), got "
                             f"{users.shape} and {items.shape}")
        num_candidates = items.shape[1]
        scores = np.empty(items.shape, np.result_type(user_emb, item_emb))
        # Per user: both gathered (c, d) operands and the repeated ids.
        row_bytes = num_candidates * (2 * user_emb.shape[1] * user_emb.itemsize
                                      + 8)
        step = block_rows(row_bytes)
        for start in range(0, len(users), step):
            block_users = users[start:start + step]
            scores[start:start + step] = backends.gathered_rowwise_dot(
                user_emb, np.repeat(block_users, num_candidates),
                item_emb, items[start:start + step].reshape(-1)
            ).reshape(len(block_users), num_candidates)
        return scores

    def score_pairs(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Dot-product scores for aligned ``(user, item)`` arrays.

        :meth:`score_candidates` with one candidate per user, so the same
        kernel, blocks and checks: ``ValueError`` for an id outside its
        table and for ``users`` and ``items`` that are not 1-D of one
        length.
        """
        items = np.asarray(items)
        if items.ndim != 1:
            raise ValueError(f"expected 1-D items, got shape {items.shape}")
        return self.score_candidates(users, items[:, None])[:, 0]

    def recommend(self, user: int, top_n: int = 10) -> np.ndarray:
        """Top-N item ids for one user, training items excluded.

        One row of :func:`repro.eval.full_ranking.exact_topk`, the
        scorer evaluation and serving use.  Raises ``ValueError`` for a
        user id outside ``[0, num_users)``: a negative id would otherwise
        index from the end and answer for the wrong user.
        """
        user_emb, item_emb = self.final_embeddings()
        users = check_ids([user], user_emb.shape[0], "user")
        train = self.graph.interaction
        return exact_topk(user_emb, item_emb, users, train.indptr,
                          train.indices, top_n)[0]

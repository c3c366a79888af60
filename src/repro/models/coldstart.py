"""Cold-start inference — the paper's named future-work direction.

The conclusion of the paper singles out cold-start recommendation as the
next step for DGNN.  This module implements the natural zero-shot
mechanism the architecture already supports: a **new user with no
interaction history but known social ties** (or a new item with known
relation links) can be embedded by running the trained propagation
operators over their side relations only.

For a new user ``u`` with friend set ``F``:

* layer-0 state: the mean of the friends' trained layer-0 embeddings
  (the best available prior under social homophily);
* each layer: the trained layer's own Eq. 3 encoder (its social bank,
  gated by the new user's state) transforms the friends' mean layer-l
  embedding, and the same layer's Eq. 7 step stabilizes it;
* Eq. 8: the model's own layer stack concatenates the layer states;
* τ: half the friends' mean final embedding (their final embeddings
  already carry their own τ).

For a new item with relation nodes ``R`` the same path runs on the
item-from-relation bank and the item-side norm and self-loop (Eq. 5's
second term).  With ``use_memory=False`` / ``use_layernorm=False`` the
layer's own "-M" / "-LN" branches apply, so every ablation is covered.

This is *inductive inference with frozen parameters* — no gradient steps
for the new entity.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.autograd import no_grad
from repro.autograd.tensor import Tensor
from repro.eval.metrics import top_k_indices
from repro.models.dgnn import DGNN


def _check_ids(ids: Sequence[int], count: int, what: str) -> np.ndarray:
    ids = np.asarray(list(ids), dtype=np.int64)
    if ids.size == 0:
        raise ValueError(f"a cold-start embedding needs at least one {what}")
    if ids.min() < 0 or ids.max() >= count:
        raise ValueError(f"{what} id out of range")
    return ids


def _embed_cold(model: DGNN, ids: np.ndarray, side: int, edge_type: str,
                norm: str, self_edge: str) -> np.ndarray:
    """Eqs. 3, 7 and 8 for one new node whose neighbours are ``ids``.

    ``side`` picks the neighbours' table (0 users, 2 relation nodes).
    Each trained layer encodes the neighbours' mean layer-``l``
    embedding with its ``edge_type`` bank, gated by the new node's own
    state, then stabilizes it with its ``norm`` and ``self_edge``
    self-loop; the model's own stack concatenates the layer states.
    The neighbours' layer-``l`` rows come from the model's cached
    :meth:`~repro.models.dgnn.DGNN.layer_tables`, so a call touches only
    those rows.
    """
    tables = model.layer_tables()

    def neighbour_mean(index: int) -> Tensor:
        return Tensor(tables[index][side][ids].mean(axis=0, keepdims=True))

    def step(index: int, state: Tensor) -> Tensor:
        layer = model.layers[index]
        message = layer._encode(edge_type, state, neighbour_mean(index))
        return layer._stabilize(message, state, getattr(layer, norm),
                                self_edge)

    was_training = model.training
    model.eval()  # message dropout off
    try:
        with no_grad():
            return model._stack().run(neighbour_mean(0), step).data[0]
    finally:
        if was_training:
            model.train()


def embed_cold_user(model: DGNN, friend_ids: Sequence[int]) -> np.ndarray:
    """Embedding for an unseen user defined only by social ties.

    Parameters
    ----------
    model:
        A trained :class:`DGNN`.
    friend_ids:
        Ids of existing users the new user trusts.

    Returns
    -------
    A vector in the model's final embedding space (τ included), directly
    comparable with ``model.final_embeddings()[1]`` item rows.
    """
    friend_ids = _check_ids(friend_ids, model.graph.num_users, "friend")
    final = _embed_cold(model, friend_ids, 0, "social", "norm_user",
                        "self_user")
    if model.use_tau:
        # The friends' final embeddings already include their own τ
        # doubling; halve to approximate the pre-τ average.
        user_final, _ = model.final_embeddings()
        final = final + user_final[friend_ids].mean(axis=0) / 2.0
    return final


def embed_cold_item(model: DGNN, relation_ids: Sequence[int]) -> np.ndarray:
    """Embedding for an unseen item defined only by its relation nodes."""
    relation_ids = _check_ids(relation_ids, model.graph.num_relations,
                              "relation")
    return _embed_cold(model, relation_ids, 2, "item_from_relation",
                       "norm_item", "self_item")


def recommend_cold_user(model: DGNN, friend_ids: Sequence[int],
                        top_n: int = 10) -> np.ndarray:
    """Top-N item ids for a brand-new user known only through friends."""
    user_vector = embed_cold_user(model, friend_ids)
    _, item_emb = model.final_embeddings()
    scores = item_emb @ user_vector
    return top_k_indices(scores, top_n)

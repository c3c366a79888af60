"""Full-ranking evaluation (all-item protocol) and the one exact scorer.

The paper's protocol samples 100 negatives per test user (fast, and what
Tables II/III report).  Production evaluations often rank the held-out
positive against *every* item the user has not interacted with; this
module implements that protocol so the two can be cross-checked — the
model ordering should agree, while absolute numbers drop sharply.

This module owns exact scoring.  :func:`exact_topk` is what
:meth:`repro.models.base.Recommender.recommend`,
:class:`repro.serve.RecommendService` (exact mode and the IVF fallback)
and :func:`full_ranking_topk` return, so serving equals evaluation
bitwise by construction.  All of them, and :func:`full_ranking_ranks`,
walk users through one masked block loop:

* **Blocks** — :data:`BLOCK_USERS` users at a time, so a call holds one
  ``(BLOCK_USERS, num_items)`` score buffer, allocated once per call.
* **Precision** — each block is written via ``np.matmul(..., out=...)``
  into a buffer of the user table's dtype (float32 under the production
  policy), so an upcast operand cannot double the block's memory.
* **Masking** — each user's training items are set to ``-inf`` through
  one ragged CSR gather (:func:`repro.engine.ragged.gather_ragged_rows`),
  with no per-user loop.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.data.split import Split
from repro.engine.ragged import gather_ragged_rows
from repro.eval.metrics import hit_rate_at, mrr, ndcg_at, top_k_indices

#: Users per exact score block.  Read at call time, so tests can shrink
#: it; results are bitwise equal for any block size.
BLOCK_USERS = 256


def _masked_blocks(user_emb: np.ndarray, item_emb: np.ndarray,
                   users: np.ndarray, indptr: np.ndarray,
                   indices: np.ndarray
                   ) -> Iterator[Tuple[slice, np.ndarray]]:
    """Yield ``(rows, scores)`` for each block of ``users``.

    ``rows`` slices ``users``; ``scores`` is the block's
    ``(len(rows), num_items)`` dot products, with each user's items in
    the CSR ``indptr``/``indices`` set to ``-inf``.  Every block is
    written into one buffer, so a consumer must be done with a block
    before it asks for the next.
    """
    step = BLOCK_USERS
    buffer = np.empty((min(step, len(users)), item_emb.shape[0]),
                      dtype=user_emb.dtype)
    for start in range(0, len(users), step):
        block_users = users[start:start + step]
        scores = np.matmul(user_emb[block_users], item_emb.T,
                           out=buffer[:len(block_users)])
        gathered = gather_ragged_rows(indptr, block_users)
        scores[gathered.owners(), indices[gathered.positions]] = -np.inf
        yield slice(start, start + len(block_users)), scores


def _train_csr(split: Split) -> Tuple[np.ndarray, np.ndarray]:
    """``indptr`` and sorted ``indices`` of the split's train matrix."""
    train_matrix = split.train_matrix().tocsr()
    train_matrix.sort_indices()
    return train_matrix.indptr, train_matrix.indices


def exact_topk(user_emb: np.ndarray, item_emb: np.ndarray,
               users: np.ndarray, indptr: np.ndarray, indices: np.ndarray,
               k: int) -> np.ndarray:
    """Top-``k`` item ids per user by exact dot product, best first.

    Each user's items in the CSR ``indptr``/``indices`` (the training
    items) are excluded.  Returns an ``(len(users), min(k, num_items))``
    int64 array.  Ties break as in :func:`top_k_indices`.

    ``users`` are not range-checked here: each caller checks its ids
    once.  Raises ``ValueError`` for ``k`` below 1.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    users = np.asarray(users, dtype=np.int64)
    top = np.empty((len(users), min(int(k), item_emb.shape[0])),
                   dtype=np.int64)
    for rows, scores in _masked_blocks(user_emb, item_emb, users, indptr,
                                       indices):
        top[rows] = top_k_indices(scores, k)
    return top


def full_ranking_ranks(model, split: Split) -> np.ndarray:
    """Rank of each test user's held-out positive among all unseen items.

    ``model`` is any :class:`repro.models.base.Recommender`; ``split``
    defines the test users, their positives and the training items
    excluded from each ranking.  Ties count half a position.
    """
    user_emb, item_emb = model.final_embeddings()
    users = split.test_users
    positives = split.test_items
    indptr, indices = _train_csr(split)
    # Ranks accumulate tie counts; float64 is the metric domain, not a
    # score-block upcast.
    ranks = np.empty(len(users), dtype=np.float64)
    for rows, scores in _masked_blocks(user_emb, item_emb, users, indptr,
                                       indices):
        positive_scores = scores[np.arange(len(scores)), positives[rows]]
        better = (scores > positive_scores[:, None]).sum(axis=1)
        ties = (scores == positive_scores[:, None]).sum(axis=1) - 1
        ranks[rows] = better + 0.5 * ties
    return ranks


def full_ranking_topk(model, split: Split, users: Optional[np.ndarray] = None,
                      top_n: int = 10) -> np.ndarray:
    """Top-N recommended item ids per user under the all-item protocol.

    :func:`exact_topk` over the model's final embeddings with the
    split's training items excluded.  ``users`` defaults to the split's
    test users.  Returns an ``(len(users), top_n)`` int array, best item
    first.

    Raises ``ValueError`` for a user id outside ``[0, num_users)`` (a
    negative id would otherwise index from the end and answer for the
    wrong user), and for ``top_n`` below 1.
    """
    if top_n < 1:
        raise ValueError(f"top_n must be positive, got {top_n}")
    user_emb, item_emb = model.final_embeddings()
    if users is None:
        users = split.test_users
    else:
        users = np.asarray(users, dtype=np.int64)
        if users.ndim != 1:
            raise ValueError("users must be 1-D")
        if users.size and (users.min() < 0
                           or users.max() >= user_emb.shape[0]):
            raise ValueError("user id out of range")
    indptr, indices = _train_csr(split)
    return exact_topk(user_emb, item_emb, users, indptr, indices, top_n)


def evaluate_full_ranking(model, split: Split,
                          ks: Sequence[int] = (10, 20, 50)) -> Dict[str, float]:
    """HR@N / NDCG@N / MRR under the all-item protocol."""
    ranks = full_ranking_ranks(model, split)
    metrics: Dict[str, float] = {}
    for k in ks:
        metrics[f"full-hr@{k}"] = hit_rate_at(ranks, k)
        metrics[f"full-ndcg@{k}"] = ndcg_at(ranks, k)
    metrics["full-mrr"] = mrr(ranks)
    return metrics

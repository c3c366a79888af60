"""Full-ranking evaluation (all-item protocol).

The paper's protocol samples 100 negatives per test user (fast, and what
Tables II/III report).  Production evaluations often rank the held-out
positive against *every* item the user has not interacted with; this
module implements that protocol so the two can be cross-checked — the
model ordering should agree, while absolute numbers drop sharply.

The score blocks here are also the serving layer's hot path
(:mod:`repro.serve`), so two production disciplines apply:

* **Precision** — each ``(b, num_items)`` block is computed in the
  embeddings' own dtype (float32 under the production policy), written
  via ``np.matmul(..., out=...)`` so a silent float64 upcast upstream
  fails loudly instead of doubling the block's memory traffic.
* **Allocation** — blocks are checked out of the engine's buffer arena
  (:mod:`repro.engine.arena`) instead of freshly allocated per block;
  inside a ``step_scope`` the same physical buffer is recycled across
  blocks and calls.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.data.split import Split
from repro.engine import arena
from repro.engine.ragged import gather_ragged_rows
from repro.eval.metrics import hit_rate_at, ndcg_at, top_k_indices


def _mask_train_items(scores: np.ndarray, block_users: np.ndarray,
                      indptr: np.ndarray, indices: np.ndarray) -> None:
    """Set each block user's training items to ``-inf``, in place.

    One shared ragged CSR gather (:func:`gather_ragged_rows`) flattens
    every block user's training-item list into one (row, col) index
    pair set — no per-user loop.
    """
    gathered = gather_ragged_rows(indptr, block_users)
    rows = gathered.owners()
    cols = indices[gathered.positions]
    scores[rows, cols] = -np.inf


def _score_block(user_emb: np.ndarray, item_emb: np.ndarray,
                 block_users: np.ndarray) -> np.ndarray:
    """One ``(b, num_items)`` score block in the embeddings' dtype.

    The output buffer comes from the engine arena (recycled across
    blocks inside a ``step_scope``, plain ``np.empty`` outside one) and
    is fully overwritten by the matmul, so pooled and allocate-fresh
    runs are bitwise identical.  ``np.matmul`` refuses to cast into
    ``out``, so a dtype mismatch between the two embedding tables — the
    silent-upcast failure mode — raises instead of upcasting.
    """
    scores = arena.empty((len(block_users), item_emb.shape[0]),
                         user_emb.dtype)
    return np.matmul(user_emb[block_users], item_emb.T, out=scores)


def full_ranking_ranks(model, split: Split, batch_size: int = 256,
                       mask_train: bool = True,
                       max_users: Optional[int] = None,
                       seed: int = 0) -> np.ndarray:
    """Rank of each test user's held-out positive among all unseen items.

    Parameters
    ----------
    model:
        Any :class:`repro.models.base.Recommender`.
    split:
        Leave-one-out split (defines test users and their positives).
    batch_size:
        Users scored per block (bounds the score-matrix memory).
    mask_train:
        Exclude each user's training items from the ranking (standard).
    max_users:
        Optional uniform subsample of test users for quick estimates.
        The subsample is drawn from a generator seeded with ``seed``
        alone, so repeated calls with the same arguments select the
        same users.

    Raises ``ValueError`` for ``batch_size`` below 1.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    user_emb, item_emb = model.final_embeddings()
    users = split.test_users
    positives = split.test_items
    if max_users is not None and len(users) > max_users:
        rng = np.random.default_rng(seed)
        chosen = np.sort(rng.choice(len(users), size=max_users, replace=False))
        users = users[chosen]
        positives = positives[chosen]

    train_matrix = split.train_matrix().tocsr()
    train_matrix.sort_indices()
    indptr, indices = train_matrix.indptr, train_matrix.indices
    # Ranks accumulate tie counts; float64 is the metric domain, not a
    # score-block upcast.
    ranks = np.empty(len(users), dtype=np.float64)
    for start in range(0, len(users), batch_size):
        block_users = users[start:start + batch_size]
        block_positives = positives[start:start + batch_size]
        scores = _score_block(user_emb, item_emb, block_users)
        if mask_train:
            _mask_train_items(scores, block_users, indptr, indices)
        positive_scores = scores[np.arange(len(block_users)), block_positives]
        better = (scores > positive_scores[:, None]).sum(axis=1)
        ties = (scores == positive_scores[:, None]).sum(axis=1) - 1
        ranks[start:start + len(block_users)] = better + 0.5 * ties
        arena.release(scores)
    return ranks


def full_ranking_topk(model, split: Split, users: Optional[np.ndarray] = None,
                      top_n: int = 10, batch_size: int = 256,
                      mask_train: bool = True) -> np.ndarray:
    """Top-N recommended item ids per user under the all-item protocol.

    The batched counterpart of :meth:`Recommender.recommend`: one score
    matrix per block, training items masked via the shared CSR gather,
    and the per-row top N selected with :func:`top_k_indices`.  Returns
    an ``(len(users), top_n)`` int array, best item first.

    Raises ``ValueError`` for a user id outside ``[0, num_users)`` (a
    negative id would otherwise index from the end and answer for the
    wrong user), and for ``top_n`` or ``batch_size`` below 1.
    """
    if top_n < 1:
        raise ValueError(f"top_n must be positive, got {top_n}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
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
    train_matrix = split.train_matrix().tocsr()
    train_matrix.sort_indices()
    indptr, indices = train_matrix.indptr, train_matrix.indices
    top = np.empty((len(users), min(top_n, item_emb.shape[0])), dtype=np.int64)
    for start in range(0, len(users), batch_size):
        block_users = users[start:start + batch_size]
        scores = _score_block(user_emb, item_emb, block_users)
        if mask_train:
            _mask_train_items(scores, block_users, indptr, indices)
        top[start:start + len(block_users)] = top_k_indices(scores, top_n)
        arena.release(scores)
    return top


def evaluate_full_ranking(model, split: Split, ks: Sequence[int] = (10, 20, 50),
                          batch_size: int = 256,
                          max_users: Optional[int] = None,
                          seed: int = 0) -> Dict[str, float]:
    """HR@N / NDCG@N / MRR under the all-item protocol."""
    ranks = full_ranking_ranks(model, split, batch_size=batch_size,
                               max_users=max_users, seed=seed)
    metrics: Dict[str, float] = {}
    for k in ks:
        metrics[f"full-hr@{k}"] = hit_rate_at(ranks, k)
        metrics[f"full-ndcg@{k}"] = ndcg_at(ranks, k)
    metrics["full-mrr"] = float(np.mean(1.0 / (ranks + 1.0))) if len(ranks) else 0.0
    return metrics

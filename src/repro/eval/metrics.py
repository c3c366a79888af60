"""Top-N ranking metrics: HR@N and NDCG@N (Eq. 12 of the paper).

With a single held-out positive per test user, the per-user discounted
cumulative gain reduces to ``1/log2(rank + 2)`` when the positive lands in
the top N (and the ideal DCG is 1), so NDCG@N equals the mean reciprocal
log-discount of ranked hits — exactly the quantity the paper reports.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

import numpy as np

#: Bytes of temporaries one scoring block may hold.  Row-independent
#: scoring (candidate dots, top-k selection) walks its rows in blocks of
#: this size, so its peak memory is the output plus one block, never
#: rows x candidates x d.
_BLOCK_BYTES = 4 << 20


def block_rows(row_bytes: int) -> int:
    """Rows per scoring block: as many rows of ``row_bytes`` temporaries
    as fit the block budget, and at least one."""
    return max(1, _BLOCK_BYTES // max(int(row_bytes), 1))


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest scores, ordered by descending score.

    Partial-sorts with ``argpartition`` (O(n + k log k), not a full
    sort), then orders just the selected k.  Works on a 1-D score vector
    (returns ``(k,)`` indices) or row-wise on a 2-D score matrix
    (returns ``(rows, k)``).  ``k`` is clamped to the number of scores.

    Ties *within* the selected k are broken deterministically by
    ascending index (lexsort on ``(-score, index)``), so equal-scoring
    items always emerge in the same order — the property the serving
    layer's bitwise snapshot-parity contract relies on.  Which tied
    items are selected at the k boundary follows ``argpartition``,
    which is deterministic for a given input.

    Rows are selected a block at a time (:func:`block_rows`), so the
    negated copy and ``argpartition``'s index matrix never span more
    than one block; each row's selection is the same either way.
    """
    scores = np.asarray(scores)
    if scores.ndim == 0:
        raise ValueError("scores must be at least 1-D")
    k = int(k)
    if k <= 0:
        raise ValueError("k must be positive")
    n = scores.shape[-1]
    k = min(k, n)
    kth = min(k, n - 1)
    rows = scores.reshape(math.prod(scores.shape[:-1]), n)
    top = np.empty((len(rows), k), dtype=np.intp)
    step = block_rows(n * (rows.itemsize + top.itemsize))
    for start in range(0, len(rows), step):
        top[start:start + step] = _top_k_rows(rows[start:start + step], k,
                                              kth)
    return top.reshape(scores.shape[:-1] + (k,))


def _top_k_rows(rows: np.ndarray, k: int, kth: int) -> np.ndarray:
    """Ordered top-``k`` of each row of one 2-D block.  Its temporaries
    (the negated block and the full-width partition indices) die on
    return, before the next block allocates its own."""
    selected = np.argpartition(-rows, kth, axis=-1)[:, :k]
    selected_scores = np.take_along_axis(rows, selected, axis=-1)
    # lexsort: last key majors — descending score, then ascending index.
    order = np.lexsort((selected, -selected_scores), axis=-1)
    return np.take_along_axis(selected, order, axis=-1)


def ranks_of_positives(scores: np.ndarray) -> np.ndarray:
    """Zero-based rank of the positive (column 0) within each row.

    Ties between the positive and negatives contribute half a position
    each, making the metric deterministic without favouring either side.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError("scores must be (num_users, num_candidates)")
    positive = scores[:, :1]
    better = (scores[:, 1:] > positive).sum(axis=1)
    ties = (scores[:, 1:] == positive).sum(axis=1)
    return better + 0.5 * ties


def hit_rate_at(ranks: np.ndarray, top_n: int) -> float:
    """Fraction of test users whose positive ranks inside the top ``top_n``."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        return 0.0
    return float((ranks < top_n).mean())


def ndcg_at(ranks: np.ndarray, top_n: int) -> float:
    """Mean ``1/log2(rank + 2)`` over hits (single-positive NDCG@N)."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        return 0.0
    hits = ranks < top_n
    gains = np.where(hits, 1.0 / np.log2(ranks + 2.0), 0.0)
    return float(gains.mean())


def mrr(ranks: np.ndarray) -> float:
    """Mean reciprocal rank of the positives (``1/(rank+1)`` averaged)."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        return 0.0
    return float(np.mean(1.0 / (ranks + 1.0)))


def precision_at(ranks: np.ndarray, top_n: int) -> float:
    """Precision@N with a single relevant item: ``HR@N / N``."""
    return hit_rate_at(ranks, top_n) / top_n


def average_rank(ranks: np.ndarray) -> float:
    """Mean zero-based rank of the positives (lower is better)."""
    ranks = np.asarray(ranks, dtype=np.float64)
    return float(ranks.mean()) if ranks.size else 0.0


def ranking_metrics(scores: np.ndarray, ks: Sequence[int] = (5, 10, 20),
                    include_extras: bool = False) -> Dict[str, float]:
    """Compute ``hr@k`` and ``ndcg@k`` for every ``k`` from raw scores.

    ``include_extras`` adds ``mrr``, ``precision@k`` and ``avg-rank`` —
    quantities not reported in the paper but standard in top-N libraries.
    """
    ranks = ranks_of_positives(scores)
    metrics: Dict[str, float] = {}
    for k in ks:
        metrics[f"hr@{k}"] = hit_rate_at(ranks, k)
        metrics[f"ndcg@{k}"] = ndcg_at(ranks, k)
    if include_extras:
        metrics["mrr"] = mrr(ranks)
        for k in ks:
            metrics[f"precision@{k}"] = precision_at(ranks, k)
        metrics["avg-rank"] = average_rank(ranks)
    return metrics

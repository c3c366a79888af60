"""Evaluation: ranking metrics (Eq. 12) and the paper's test protocol."""

from repro.eval.metrics import (
    average_rank,
    hit_rate_at,
    mrr,
    ndcg_at,
    precision_at,
    ranking_metrics,
    ranks_of_positives,
    top_k_indices,
)
from repro.eval.protocol import evaluate_model, evaluate_scores
from repro.eval.sparsity import group_users_by_quantile, evaluate_by_group
from repro.eval.full_ranking import (
    evaluate_full_ranking,
    exact_topk,
    full_ranking_ranks,
    full_ranking_topk,
)

__all__ = [
    "ranks_of_positives",
    "hit_rate_at",
    "ndcg_at",
    "mrr",
    "precision_at",
    "average_rank",
    "ranking_metrics",
    "evaluate_model",
    "evaluate_scores",
    "group_users_by_quantile",
    "evaluate_by_group",
    "evaluate_full_ranking",
    "exact_topk",
    "full_ranking_ranks",
    "full_ranking_topk",
    "top_k_indices",
]

"""Serving-facing full-ranking contracts: ties, masking, blocking."""

import numpy as np
import pytest

from repro.eval import full_ranking
from repro.eval.full_ranking import (evaluate_full_ranking, exact_topk,
                                     full_ranking_ranks, full_ranking_topk)
from repro.eval.metrics import top_k_indices
from repro.models.lightgcn import LightGCN


@pytest.fixture(scope="module")
def model(tiny_graph):
    return LightGCN(tiny_graph, embed_dim=16, num_layers=2, seed=0)


class TestTopKTieBreaking:
    def test_ties_break_by_ascending_index(self):
        scores = np.array([1.0, 3.0, 3.0, 2.0, 3.0])
        np.testing.assert_array_equal(top_k_indices(scores, 3), [1, 2, 4])

    def test_2d_rows_independent(self):
        scores = np.array([[5.0, 5.0, 1.0, 5.0],
                           [0.0, 2.0, 2.0, 2.0]])
        np.testing.assert_array_equal(top_k_indices(scores, 2),
                                      [[0, 1], [1, 2]])

    def test_all_equal_returns_first_k(self):
        scores = np.ones(7)
        np.testing.assert_array_equal(top_k_indices(scores, 4), [0, 1, 2, 3])

    def test_descending_score_order(self):
        rng = np.random.default_rng(0)
        scores = rng.standard_normal((5, 30))
        top = top_k_indices(scores, 10)
        picked = np.take_along_axis(scores, top, axis=-1)
        assert (np.diff(picked, axis=-1) <= 0).all()

    def test_repeated_calls_identical(self):
        rng = np.random.default_rng(1)
        # Quantized scores force plenty of exact ties.
        scores = np.round(rng.standard_normal((8, 40)), 1)
        first = top_k_indices(scores, 6)
        second = top_k_indices(scores.copy(), 6)
        np.testing.assert_array_equal(first, second)


class TestTrainMasking:
    def test_masked_items_never_in_topk(self, model, tiny_split):
        users = tiny_split.test_users
        top = full_ranking_topk(model, tiny_split, users=users, top_n=20)
        train = tiny_split.train_matrix().tocsr()
        for row, user in enumerate(users):
            seen = set(train.indices[train.indptr[user]:
                                     train.indptr[user + 1]].tolist())
            assert not seen & set(top[row].tolist())


@pytest.mark.parametrize("make_kwargs, message", [
    pytest.param(lambda n: dict(users=[-1]), "user id out of range",
                 id="negative-user-masked"),
    pytest.param(lambda n: dict(users=[n]), "user id out of range",
                 id="user-past-end"),
    pytest.param(lambda n: dict(users=[[0, 1]]), "users must be 1-D",
                 id="2d-users"),
    pytest.param(lambda n: dict(users=[0, 1], top_n=-3),
                 "top_n must be positive", id="negative-top-n"),
    pytest.param(lambda n: dict(users=[0, 1], top_n=0),
                 "top_n must be positive", id="zero-top-n"),
])
def test_topk_rejects_invalid_arguments(model, tiny_split, make_kwargs,
                                        message):
    kwargs = make_kwargs(tiny_split.dataset.num_users)
    with pytest.raises(ValueError, match=message):
        full_ranking_topk(model, tiny_split, **kwargs)


class TestExactTopk:
    def test_block_size_does_not_change_results(self, model, tiny_split,
                                                monkeypatch):
        users = tiny_split.test_users
        top = full_ranking_topk(model, tiny_split, users=users, top_n=20)
        ranks = full_ranking_ranks(model, tiny_split)
        metrics = evaluate_full_ranking(model, tiny_split)
        # 7 leaves a ragged last block.
        monkeypatch.setattr(full_ranking, "BLOCK_USERS", 7)
        np.testing.assert_array_equal(
            full_ranking_topk(model, tiny_split, users=users, top_n=20), top)
        np.testing.assert_array_equal(full_ranking_ranks(model, tiny_split),
                                      ranks)
        assert evaluate_full_ranking(model, tiny_split) == metrics

    def test_matches_unblocked_masked_scores(self, model, tiny_split):
        user_emb, item_emb = model.final_embeddings()
        train = tiny_split.train_matrix().tocsr()
        users = tiny_split.test_users[:40]
        scores = user_emb[users] @ item_emb.T
        for row, user in enumerate(users):
            scores[row, train.indices[train.indptr[user]:
                                      train.indptr[user + 1]]] = -np.inf
        np.testing.assert_array_equal(
            exact_topk(user_emb, item_emb, users, train.indptr,
                       train.indices, 15),
            top_k_indices(scores, 15))

    def test_k_clamped_to_catalogue_and_no_users(self, model, tiny_split):
        user_emb, item_emb = model.final_embeddings()
        train = tiny_split.train_matrix().tocsr()
        num_items = item_emb.shape[0]
        top = exact_topk(user_emb, item_emb, [0], train.indptr,
                         train.indices, num_items + 5)
        assert top.shape == (1, num_items)
        empty = exact_topk(user_emb, item_emb, [], train.indptr,
                           train.indices, 5)
        assert empty.shape == (0, 5) and empty.dtype == np.int64

    @pytest.mark.parametrize("k", [0, -2])
    def test_rejects_non_positive_k(self, model, tiny_split, k):
        user_emb, item_emb = model.final_embeddings()
        train = tiny_split.train_matrix().tocsr()
        with pytest.raises(ValueError, match="k must be positive"):
            exact_topk(user_emb, item_emb, [0], train.indptr, train.indices,
                       k)

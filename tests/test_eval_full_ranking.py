"""Serving-facing full-ranking contracts: ties, masking, subsampling."""

import numpy as np
import pytest

from repro.eval.full_ranking import (evaluate_full_ranking, full_ranking_ranks,
                                     full_ranking_topk)
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

    def test_unmasked_can_return_train_items(self, model, tiny_split):
        users = tiny_split.test_users
        masked = full_ranking_topk(model, tiny_split, users=users, top_n=20)
        unmasked = full_ranking_topk(model, tiny_split, users=users,
                                     top_n=20, mask_train=False)
        assert not np.array_equal(masked, unmasked)


@pytest.mark.parametrize("make_kwargs, message", [
    pytest.param(lambda n: dict(users=[-1], mask_train=False),
                 "user id out of range", id="negative-user-unmasked"),
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
    pytest.param(lambda n: dict(users=[0, 1], batch_size=0),
                 "batch_size must be positive", id="zero-batch-size"),
])
def test_topk_rejects_invalid_arguments(model, tiny_split, make_kwargs,
                                        message):
    kwargs = make_kwargs(tiny_split.dataset.num_users)
    with pytest.raises(ValueError, match=message):
        full_ranking_topk(model, tiny_split, **kwargs)


@pytest.mark.parametrize("batch_size", [0, -1])
def test_ranks_reject_non_positive_batch_size(model, tiny_split, batch_size):
    with pytest.raises(ValueError, match="batch_size must be positive"):
        full_ranking_ranks(model, tiny_split, batch_size=batch_size)
    with pytest.raises(ValueError, match="batch_size must be positive"):
        evaluate_full_ranking(model, tiny_split, batch_size=batch_size)


class TestMaxUsersDeterminism:
    def test_same_seed_same_subsample(self, model, tiny_split):
        a = full_ranking_ranks(model, tiny_split, max_users=10, seed=3)
        b = full_ranking_ranks(model, tiny_split, max_users=10, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_different_subsample(self, model, tiny_split):
        a = full_ranking_ranks(model, tiny_split, max_users=10, seed=3)
        b = full_ranking_ranks(model, tiny_split, max_users=10, seed=4)
        assert not np.array_equal(a, b)

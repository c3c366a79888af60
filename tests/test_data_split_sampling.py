"""Tests for leave-one-out splitting and the samplers."""

import numpy as np
import pytest

from repro.data import (BprSampler, build_eval_candidates, leave_one_out,
                        medium, tiny)


def _leave_one_out_loop(dataset, seed=0, min_history=2, max_test_users=None):
    """The per-user loop ``leave_one_out`` replaced: the bitwise reference."""
    rng = np.random.default_rng(seed)
    train_rows, test_users, test_items = [], [], []
    for user, items in enumerate(dataset.user_histories()):
        if len(items) < min_history:
            if len(items):
                train_rows.append(np.stack(
                    [np.full(len(items), user, dtype=np.int64), items], axis=1))
            continue
        held = int(rng.integers(0, len(items)))
        kept = np.delete(items, held)
        train_rows.append(np.stack(
            [np.full(len(kept), user, dtype=np.int64), kept], axis=1))
        test_users.append(user)
        test_items.append(int(items[held]))
    test_users = np.asarray(test_users, dtype=np.int64)
    test_items = np.asarray(test_items, dtype=np.int64)
    if max_test_users is not None and len(test_users) > max_test_users:
        chosen = np.sort(rng.choice(len(test_users), size=max_test_users,
                                    replace=False))
        test_users, test_items = test_users[chosen], test_items[chosen]
    return np.concatenate(train_rows, axis=0), test_users, test_items


class TestLeaveOneOut:
    def test_partition_is_exact(self, tiny_dataset):
        split = leave_one_out(tiny_dataset, seed=0)
        total = len(split.train_pairs) + split.num_test_users
        assert total == len(tiny_dataset.interactions)

    def test_held_out_not_in_train(self, tiny_dataset):
        split = leave_one_out(tiny_dataset, seed=0)
        train_set = {tuple(pair) for pair in split.train_pairs}
        for user, item in zip(split.test_users, split.test_items):
            assert (user, item) not in train_set

    def test_held_out_was_a_real_interaction(self, tiny_dataset):
        split = leave_one_out(tiny_dataset, seed=0)
        full = {tuple(pair) for pair in tiny_dataset.interactions}
        for user, item in zip(split.test_users, split.test_items):
            assert (user, item) in full

    def test_deterministic(self, tiny_dataset):
        a = leave_one_out(tiny_dataset, seed=5)
        b = leave_one_out(tiny_dataset, seed=5)
        np.testing.assert_array_equal(a.test_items, b.test_items)

    def test_min_history_excludes_sparse_users(self, tiny_dataset):
        split = leave_one_out(tiny_dataset, seed=0, min_history=100)
        assert split.num_test_users == 0
        assert len(split.train_pairs) == len(tiny_dataset.interactions)

    def test_max_test_users_subsamples(self, tiny_dataset):
        split = leave_one_out(tiny_dataset, seed=0, max_test_users=10)
        assert split.num_test_users == 10

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("kwargs", [
        {},
        {"min_history": 9},           # many users below the floor
        {"max_test_users": 25},
        {"min_history": 11, "max_test_users": 10},
    ], ids=["default", "min_history", "max_test_users", "both"])
    @pytest.mark.parametrize("factory", [tiny, medium], ids=["tiny", "medium"])
    def test_matches_the_per_user_loop(self, factory, kwargs, seed):
        dataset = factory(seed=seed)
        split = leave_one_out(dataset, seed=seed, **kwargs)
        train, users, items = _leave_one_out_loop(dataset, seed=seed, **kwargs)
        below = (dataset.user_degrees() < kwargs.get("min_history", 2)).sum()
        assert kwargs.get("min_history") is None or below > 0
        for got, want in ((split.train_pairs, train), (split.test_users, users),
                          (split.test_items, items)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_train_matrix_excludes_test(self, tiny_dataset):
        split = leave_one_out(tiny_dataset, seed=0)
        matrix = split.train_matrix()
        for user, item in zip(split.test_users, split.test_items):
            assert matrix[user, item] == 0


class TestBprSampler:
    def test_batch_shapes(self, tiny_split):
        sampler = BprSampler(tiny_split, batch_size=64, seed=0)
        users, positives, negatives = sampler.sample()
        assert users.shape == positives.shape == negatives.shape == (64,)

    def test_positives_are_training_interactions(self, tiny_split):
        sampler = BprSampler(tiny_split, batch_size=256, seed=0)
        train_set = {tuple(pair) for pair in tiny_split.train_pairs}
        users, positives, _ = sampler.sample()
        for user, item in zip(users, positives):
            assert (user, item) in train_set

    def test_negatives_never_in_training_history(self, tiny_split):
        sampler = BprSampler(tiny_split, batch_size=256, seed=0)
        matrix = tiny_split.train_matrix()
        users, _, negatives = sampler.sample()
        for user, item in zip(users, negatives):
            assert matrix[user, item] == 0

    def test_epoch_yields_requested_batches(self, tiny_split):
        sampler = BprSampler(tiny_split, batch_size=32, seed=0)
        assert len(list(sampler.epoch(5))) == 5

    def test_batches_for_full_epoch(self, tiny_split):
        sampler = BprSampler(tiny_split, batch_size=100, seed=0)
        expected = int(np.ceil(len(tiny_split.train_pairs) / 100))
        assert sampler.batches_for_full_epoch() == expected

    def test_deterministic_given_seed(self, tiny_split):
        a = BprSampler(tiny_split, batch_size=16, seed=9).sample()
        b = BprSampler(tiny_split, batch_size=16, seed=9).sample()
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestEvalCandidates:
    def test_positive_is_first_column(self, tiny_split, tiny_candidates):
        np.testing.assert_array_equal(tiny_candidates.items[:, 0],
                                      tiny_split.test_items)

    def test_negatives_not_interacted(self, tiny_dataset, tiny_candidates):
        full = tiny_dataset.interaction_matrix()
        for user, row in zip(tiny_candidates.users, tiny_candidates.items):
            for item in row[1:]:
                assert full[user, item] == 0

    def test_negatives_unique_per_user(self, tiny_candidates):
        for row in tiny_candidates.items:
            assert len(set(row[1:])) == len(row) - 1

    def test_num_candidates(self, tiny_candidates):
        assert tiny_candidates.num_candidates == 51
        assert len(tiny_candidates) == tiny_candidates.items.shape[0]

    def test_too_few_items_raises(self):
        dataset = tiny(seed=0, num_items=40)
        split = leave_one_out(dataset, seed=0)
        with pytest.raises(ValueError):
            build_eval_candidates(split, num_negatives=60, seed=0)

    def test_deterministic(self, tiny_split):
        a = build_eval_candidates(tiny_split, num_negatives=20, seed=4)
        b = build_eval_candidates(tiny_split, num_negatives=20, seed=4)
        np.testing.assert_array_equal(a.items, b.items)

"""Tests for cold-start inference, classic baselines and full-ranking eval."""

import numpy as np
import pytest

from repro.autograd import no_grad
from repro.autograd.tensor import Tensor
from repro.eval import evaluate_full_ranking, full_ranking_ranks
from repro.models import DGNN, SoRec, TrustMF, create_model
from repro.models.coldstart import (
    embed_cold_item,
    embed_cold_user,
    recommend_cold_user,
)
from repro.train import TrainConfig, Trainer


@pytest.fixture(scope="module")
def trained_dgnn(tiny_graph, tiny_split, tiny_candidates):
    model = DGNN(tiny_graph, embed_dim=8, num_memory_units=2, seed=0)
    config = TrainConfig(epochs=6, batch_size=256, eval_every=3, patience=None)
    Trainer(model, tiny_split, config, tiny_candidates).fit()
    return model


class TestColdStartUser:
    def test_embedding_shape_matches_final_space(self, trained_dgnn):
        vector = embed_cold_user(trained_dgnn, [0, 1, 2])
        user_emb, _ = trained_dgnn.final_embeddings()
        assert vector.shape == (user_emb.shape[1],)
        assert np.all(np.isfinite(vector))

    def test_requires_friends(self, trained_dgnn):
        with pytest.raises(ValueError):
            embed_cold_user(trained_dgnn, [])

    def test_friend_id_bounds(self, trained_dgnn):
        with pytest.raises(ValueError):
            embed_cold_user(trained_dgnn, [10_000])

    def test_cold_embedding_resembles_friends(self, trained_dgnn, tiny_graph):
        # A cold user cloned from user u's friends should score items
        # more like u than like a random unrelated user.
        user = int(np.argmax(tiny_graph.social.sum(axis=1)))
        friends = tiny_graph.social[user].indices
        vector = embed_cold_user(trained_dgnn, friends)
        user_emb, item_emb = trained_dgnn.final_embeddings()
        cold_scores = item_emb @ vector
        own_scores = item_emb @ user_emb[user]
        correlation = np.corrcoef(cold_scores, own_scores)[0, 1]
        assert correlation > 0.3

    def test_recommend_cold_user(self, trained_dgnn, tiny_graph):
        top = recommend_cold_user(trained_dgnn, [0, 1], top_n=5)
        assert len(top) == 5
        assert top.max() < tiny_graph.num_items

    def test_deterministic(self, trained_dgnn):
        a = embed_cold_user(trained_dgnn, [3, 4])
        b = embed_cold_user(trained_dgnn, [3, 4])
        np.testing.assert_allclose(a, b)


def _propagating_cold_embedding(model, ids, side, edge_type, norm, self_edge):
    """Oracle: the cold embedding with a full-graph layer pass per layer.

    Recomputes the neighbours' layer-``l`` tables by running every
    trained layer over the whole graph, instead of reading the model's
    cached :meth:`DGNN.layer_tables`.
    """
    tables = model._tables()

    def neighbour_mean():
        return Tensor(tables[side].data[ids].mean(axis=0, keepdims=True))

    def step(index, state):
        nonlocal tables
        layer = model.layers[index]
        message = layer._encode(edge_type, state, neighbour_mean())
        tables = layer(model.graph, *tables)
        return layer._stabilize(message, state, getattr(layer, norm),
                                self_edge)

    was_training = model.training
    model.eval()
    try:
        with no_grad():
            return model._stack().run(neighbour_mean(), step).data[0]
    finally:
        if was_training:
            model.train()


def _oracle_cold_user(model, friend_ids):
    friend_ids = np.asarray(friend_ids, dtype=np.int64)
    final = _propagating_cold_embedding(model, friend_ids, 0, "social",
                                        "norm_user", "self_user")
    if model.use_tau:
        user_final, _ = model.final_embeddings()
        final = final + user_final[friend_ids].mean(axis=0) / 2.0
    return final


def _oracle_cold_item(model, relation_ids):
    return _propagating_cold_embedding(
        model, np.asarray(relation_ids, dtype=np.int64), 2,
        "item_from_relation", "norm_item", "self_item")


@pytest.mark.parametrize("kwargs", [
    dict(use_memory=False), dict(use_layernorm=False), dict(use_tau=False),
    dict(literal_eq4=True), dict(num_layers=0), dict(), dict(num_layers=3)])
def test_cold_start_covers_every_variant(tiny_graph, kwargs):
    """Each ablation switch takes its layer branch; the mode is restored.

    The cached-table path is bitwise equal to the per-call propagation
    oracle, in train mode (cache built with dropout off) and again after
    a parameter change plus ``invalidate_cache``.
    """
    model = DGNN(tiny_graph, embed_dim=8, num_memory_units=2, seed=0,
                 **kwargs)
    user_emb, item_emb = model.final_embeddings()
    model.train()
    user = embed_cold_user(model, [0, 1])
    item = embed_cold_item(model, [0])
    assert model.training
    assert user.shape == (user_emb.shape[1],)
    assert item.shape == (item_emb.shape[1],)
    assert np.all(np.isfinite(user)) and np.all(np.isfinite(item))
    assert np.array_equal(user, _oracle_cold_user(model, [0, 1]))
    assert np.array_equal(item, _oracle_cold_item(model, [0]))
    assert model.training

    for param in model.parameters():
        param.data += 0.01
    model.invalidate_cache()
    moved_user = embed_cold_user(model, [2, 3, 4])
    moved_item = embed_cold_item(model, [1])
    assert np.array_equal(moved_user, _oracle_cold_user(model, [2, 3, 4]))
    assert np.array_equal(moved_item, _oracle_cold_item(model, [1]))


def test_layer_tables_cached_until_invalidated(tiny_graph):
    model = DGNN(tiny_graph, embed_dim=8, num_memory_units=2, seed=0)
    tables = model.layer_tables()
    assert len(tables) == model.num_layers + 1
    assert model.layer_tables() is tables
    # Layer 0 is a copy: an in-place parameter update does not leak in.
    before = tables[0][0].copy()
    model.user_embedding.weight.data += 1.0
    assert np.array_equal(model.layer_tables()[0][0], before)
    model.invalidate_cache()
    assert model.layer_tables() is not tables
    assert np.array_equal(model.layer_tables()[0][0], before + 1.0)


class TestColdStartItem:
    def test_embedding_shape(self, trained_dgnn):
        vector = embed_cold_item(trained_dgnn, [0, 1])
        _, item_emb = trained_dgnn.final_embeddings()
        assert vector.shape == (item_emb.shape[1],)

    def test_requires_relations(self, trained_dgnn):
        with pytest.raises(ValueError):
            embed_cold_item(trained_dgnn, [])

    def test_relation_bounds(self, trained_dgnn):
        with pytest.raises(ValueError):
            embed_cold_item(trained_dgnn, [999])

    def test_same_category_items_cluster(self, trained_dgnn, tiny_graph):
        cold_a = embed_cold_item(trained_dgnn, [0])
        cold_b = embed_cold_item(trained_dgnn, [0])
        cold_c = embed_cold_item(trained_dgnn, [1])
        np.testing.assert_allclose(cold_a, cold_b)
        assert not np.allclose(cold_a, cold_c)


class TestClassicBaselines:
    @pytest.mark.parametrize("cls", [SoRec, TrustMF])
    def test_propagate_and_loss(self, cls, tiny_graph, tiny_split):
        model = cls(tiny_graph, embed_dim=8, seed=0)
        users = tiny_split.train_pairs[:32, 0]
        positives = tiny_split.train_pairs[:32, 1]
        negatives = (positives + 1) % tiny_graph.num_items
        loss = model.bpr_loss(users, positives, negatives)
        assert np.isfinite(loss.item())
        loss.backward()

    def test_sorec_social_term_active(self, tiny_graph, tiny_split):
        users = tiny_split.train_pairs[:32, 0]
        positives = tiny_split.train_pairs[:32, 1]
        negatives = (positives + 1) % tiny_graph.num_items
        with_social = SoRec(tiny_graph, embed_dim=8, seed=0, social_weight=1.0)
        without = SoRec(tiny_graph, embed_dim=8, seed=0, social_weight=0.0)
        assert (with_social.bpr_loss(users, positives, negatives).item()
                != without.bpr_loss(users, positives, negatives).item())

    def test_trustmf_has_two_user_tables(self, tiny_graph):
        model = TrustMF(tiny_graph, embed_dim=8, seed=0)
        names = {name for name, _ in model.named_parameters()}
        assert any("truster" in n for n in names)
        assert any("trustee" in n for n in names)

    def test_registered_in_registry(self, tiny_graph):
        assert create_model("sorec", tiny_graph, embed_dim=8).name == "sorec"
        assert create_model("trustmf", tiny_graph, embed_dim=8).name == "trustmf"


class TestFullRanking:
    def test_ranks_within_bounds(self, trained_dgnn, tiny_split):
        ranks = full_ranking_ranks(trained_dgnn, tiny_split)
        assert len(ranks) == tiny_split.num_test_users
        assert ranks.min() >= 0
        assert ranks.max() < tiny_split.dataset.num_items

    def test_metrics_keys_and_bounds(self, trained_dgnn, tiny_split):
        metrics = evaluate_full_ranking(trained_dgnn, tiny_split, ks=(10, 50))
        assert set(metrics) == {"full-hr@10", "full-ndcg@10", "full-hr@50",
                                "full-ndcg@50", "full-mrr"}
        for value in metrics.values():
            assert 0.0 <= value <= 1.0

    def test_full_ranking_harder_than_sampled(self, trained_dgnn, tiny_split,
                                              tiny_candidates):
        from repro.eval import evaluate_model

        sampled = evaluate_model(trained_dgnn, tiny_candidates, ks=(10,))
        full = evaluate_full_ranking(trained_dgnn, tiny_split, ks=(10,))
        # ranking against all items can never be easier than against 50
        assert full["full-hr@10"] <= sampled["hr@10"] + 1e-9

    def test_batching_consistent(self, trained_dgnn, tiny_split,
                                 monkeypatch):
        from repro.eval import full_ranking

        default = full_ranking_ranks(trained_dgnn, tiny_split)
        monkeypatch.setattr(full_ranking, "BLOCK_USERS", 7)
        np.testing.assert_array_equal(
            full_ranking_ranks(trained_dgnn, tiny_split), default)


class TestAnalysis:
    def test_disentanglement_report(self, trained_dgnn):
        from repro.analysis import disentanglement_report

        report = disentanglement_report(trained_dgnn)
        assert 0.0 <= report["social_gate_entropy"] <= 1.0
        assert 0.0 <= report["cross_bank_specialization"] <= 1.0
        assert report["max_unit_share"] >= report["min_unit_share"]

    def test_gate_entropy_extremes(self):
        from repro.analysis import gate_entropy

        concentrated = np.zeros((10, 4))
        concentrated[:, 0] = 100.0
        uniform = np.ones((10, 4))
        assert gate_entropy(concentrated) < 0.3
        assert gate_entropy(uniform) > 0.99

    def test_gate_specialization_extremes(self):
        from repro.analysis import gate_specialization

        a = np.zeros((5, 4))
        a[:, 0] = 10.0
        b = np.zeros((5, 4))
        b[:, 3] = 10.0
        assert gate_specialization(a, a) < 0.01
        assert gate_specialization(a, b) > 0.8

    def test_gate_specialization_shape_mismatch(self):
        from repro.analysis import gate_specialization

        with pytest.raises(ValueError):
            gate_specialization(np.ones((3, 2)), np.ones((4, 2)))

    def test_error_breakdowns(self, trained_dgnn, tiny_split, tiny_candidates):
        from repro.analysis import (
            performance_by_item_popularity,
            performance_by_user_degree,
        )

        by_degree = performance_by_user_degree(trained_dgnn, tiny_split,
                                               tiny_candidates, num_groups=3)
        by_pop = performance_by_item_popularity(trained_dgnn, tiny_split,
                                                tiny_candidates, num_groups=3)
        assert len(by_degree) == len(by_pop) == 3
        degrees = [g["mean_degree"] for g in by_degree]
        assert degrees == sorted(degrees)
        pops = [g["mean_popularity"] for g in by_pop]
        assert pops == sorted(pops)

    def test_topk_agrees_with_recommend(self, trained_dgnn, tiny_split):
        from repro.eval import full_ranking_topk

        users = tiny_split.test_users[:5]
        top = full_ranking_topk(trained_dgnn, tiny_split, users=users,
                                top_n=10)
        assert top.shape == (5, 10)
        for row, user in enumerate(users):
            np.testing.assert_array_equal(
                top[row], trained_dgnn.recommend(int(user), top_n=10))

    def test_topk_unmasked_includes_train_items(self, trained_dgnn,
                                                tiny_split):
        from repro.eval import full_ranking_topk

        users = tiny_split.test_users[:5]
        masked = full_ranking_topk(trained_dgnn, tiny_split, users=users,
                                   top_n=10)
        train = tiny_split.train_matrix().tocsr()
        for row, user in enumerate(users):
            seen = set(train[int(user)].indices)
            assert not seen.intersection(masked[row])

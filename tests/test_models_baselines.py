"""Contract tests applied uniformly to every registered model."""

import numpy as np
import pytest

from repro.autograd import no_grad
from repro.models import available_models, create_model
from repro.nn import Adam

TRAINABLE = [name for name in available_models() if name != "most-popular"]


@pytest.fixture(scope="module")
def batch(tiny_split):
    users = tiny_split.train_pairs[:48, 0]
    positives = tiny_split.train_pairs[:48, 1]
    rng = np.random.default_rng(0)
    negatives = rng.integers(0, tiny_split.dataset.num_items, size=48)
    return users, positives, negatives


class TestPropagateContract:
    @pytest.mark.parametrize("name", available_models())
    def test_propagate_shapes_and_finite(self, name, tiny_graph):
        model = create_model(name, tiny_graph, embed_dim=8, seed=0)
        with no_grad():
            users, items = model.propagate()
        assert users.shape[0] == tiny_graph.num_users
        assert items.shape[0] == tiny_graph.num_items
        assert users.shape[1] == items.shape[1]
        assert np.all(np.isfinite(users.data))
        assert np.all(np.isfinite(items.data))

    @pytest.mark.parametrize("name", available_models())
    def test_deterministic_construction(self, name, tiny_graph):
        a = create_model(name, tiny_graph, embed_dim=8, seed=3)
        b = create_model(name, tiny_graph, embed_dim=8, seed=3)
        with no_grad():
            ua, _ = a.propagate()
            ub, _ = b.propagate()
        np.testing.assert_allclose(ua.data, ub.data)


class TestTrainingContract:
    @pytest.mark.parametrize("name", TRAINABLE)
    def test_loss_finite_and_grads_flow(self, name, tiny_graph, batch):
        model = create_model(name, tiny_graph, embed_dim=8, seed=0)
        users, positives, negatives = batch
        loss = model.bpr_loss(users, positives, negatives, l2=1e-4)
        assert np.isfinite(loss.item())
        loss.backward()
        total_grad = sum(float(np.abs(p.grad).sum())
                         for p in model.parameters() if p.grad is not None)
        assert total_grad > 0

    @pytest.mark.parametrize("name", TRAINABLE)
    def test_one_optimizer_step_changes_scores(self, name, tiny_graph, batch):
        model = create_model(name, tiny_graph, embed_dim=8, seed=0)
        users, positives, negatives = batch
        items = np.stack([positives, negatives], axis=1)
        before = model.score_candidates(users, items).copy()
        optimizer = Adam(model.parameters(), lr=0.05)
        loss = model.bpr_loss(users, positives, negatives)
        loss.backward()
        optimizer.step()
        model.invalidate_cache()
        after = model.score_candidates(users, items)
        assert not np.allclose(before, after)

    @pytest.mark.parametrize("name", TRAINABLE)
    def test_training_reduces_loss(self, name, tiny_graph, batch):
        model = create_model(name, tiny_graph, embed_dim=8, seed=0)
        users, positives, negatives = batch
        optimizer = Adam(model.parameters(), lr=0.02)
        first = None
        last = None
        for _ in range(8):
            optimizer.zero_grad()
            loss = model.bpr_loss(users, positives, negatives, l2=0.0)
            loss.backward()
            optimizer.step()
            value = loss.item()
            first = value if first is None else first
            last = value
        assert last < first


class TestScoringContract:
    @pytest.mark.parametrize("name", available_models())
    def test_score_candidates_shape(self, name, tiny_graph, tiny_candidates):
        model = create_model(name, tiny_graph, embed_dim=8, seed=0)
        scores = model.score_candidates(tiny_candidates.users[:5],
                                        tiny_candidates.items[:5])
        assert scores.shape == (5, tiny_candidates.num_candidates)
        assert np.all(np.isfinite(scores))

    def test_most_popular_orders_by_count(self, tiny_graph):
        model = create_model("most-popular", tiny_graph)
        counts = np.asarray(tiny_graph.interaction.sum(axis=0)).reshape(-1)
        unseen = np.ones(len(counts), dtype=bool)
        unseen[tiny_graph.interaction[0].indices] = False
        top = model.recommend(0, top_n=5)
        assert unseen[top].all()
        assert counts[top[0]] == counts[unseen].max()

    @pytest.mark.parametrize("user", [-1, "past-end"])
    def test_recommend_rejects_out_of_range_user(self, user, tiny_graph):
        model = create_model("lightgcn", tiny_graph, embed_dim=8, seed=0)
        if user == "past-end":
            user = tiny_graph.num_users
        with pytest.raises(ValueError, match="out of range"):
            model.recommend(user, top_n=5)

    def test_most_popular_refuses_training(self, tiny_graph):
        model = create_model("most-popular", tiny_graph)
        with pytest.raises(RuntimeError):
            model.bpr_loss(np.array([0]), np.array([0]), np.array([1]))


class TestRegistry:
    def test_unknown_name_raises(self, tiny_graph):
        with pytest.raises(KeyError):
            create_model("not-a-model", tiny_graph)

    def test_registry_contains_paper_models(self):
        from repro.models.registry import MODEL_REGISTRY, PAPER_TABLE2_MODELS
        for name in PAPER_TABLE2_MODELS:
            assert name in MODEL_REGISTRY

    def test_name_attribute_matches_registry_key(self, tiny_graph):
        for name in available_models():
            model = create_model(name, tiny_graph, embed_dim=8, seed=0)
            assert model.name == name

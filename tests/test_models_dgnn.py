"""Tests for the DGNN model (Eqs. 1-10)."""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.engine import instrument
from repro.graph import CollaborativeHeteroGraph
from repro.graph.adjacency import add_self_loops, row_normalize
from repro.graph.sampling import sample_subgraph_view
from repro.models.dgnn import DGNN


@pytest.fixture(scope="module")
def model(tiny_graph):
    return DGNN(tiny_graph, embed_dim=8, num_layers=2, num_memory_units=4, seed=0)


class TestShapes:
    def test_propagate_shapes(self, model, tiny_graph):
        users, items = model.propagate()
        concat_dim = 8 * 3  # (L+1) * d
        assert users.shape == (tiny_graph.num_users, concat_dim)
        assert items.shape == (tiny_graph.num_items, concat_dim)

    def test_layer_tables_hold_relation_states(self, model, tiny_graph):
        # Relation states enter every layer; the last layer's relation
        # update feeds no score, so it is never computed.
        tables = model.layer_tables()
        assert len(tables) == 3
        assert [state[2].shape for state in tables[:-1]] == [
            (tiny_graph.num_relations, 8)] * 2
        assert tables[-1][2] is None
        assert tables[-1][0].shape == (tiny_graph.num_users, 8)
        assert tables[-1][1].shape == (tiny_graph.num_items, 8)

    def test_zero_layers(self, tiny_graph):
        model = DGNN(tiny_graph, embed_dim=8, num_layers=0, seed=0)
        users, items = model.propagate()
        assert users.shape == (tiny_graph.num_users, 8)

    def test_negative_layers_rejected(self, tiny_graph):
        with pytest.raises(ValueError):
            DGNN(tiny_graph, num_layers=-1)

    @pytest.mark.parametrize("kwargs, match", [
        (dict(num_memory_units=0), "num_memory_units"),
        (dict(message_dropout=1.0), "message_dropout"),
        (dict(message_dropout=-0.5), "message_dropout"),
        (dict(embed_dim=0), "embed_dim"),
    ])
    def test_invalid_hyperparameters_rejected(self, tiny_graph, kwargs, match):
        with pytest.raises(ValueError, match=match):
            DGNN(tiny_graph, **kwargs)


class TestDeterminism:
    def test_same_seed_same_output(self, tiny_graph):
        a = DGNN(tiny_graph, embed_dim=8, seed=7)
        b = DGNN(tiny_graph, embed_dim=8, seed=7)
        with no_grad():
            ua, _ = a.propagate()
            ub, _ = b.propagate()
        np.testing.assert_allclose(ua.data, ub.data)

    def test_different_seed_differs(self, tiny_graph):
        a = DGNN(tiny_graph, embed_dim=8, seed=0)
        b = DGNN(tiny_graph, embed_dim=8, seed=1)
        with no_grad():
            ua, _ = a.propagate()
            ub, _ = b.propagate()
        assert not np.allclose(ua.data, ub.data)


class TestTauRecalibration:
    def test_tau_matches_manual_average(self, tiny_graph):
        model = DGNN(tiny_graph, embed_dim=8, num_layers=1, seed=0)
        # Same seed, same parameters: the "-τ" twin gives pre-τ users.
        twin = DGNN(tiny_graph, embed_dim=8, num_layers=1, seed=0,
                    use_tau=False)
        model.eval()  # disable message dropout for exact comparison
        twin.eval()
        with no_grad():
            user_all, _ = twin.propagate()
            users_with_tau, _ = model.propagate()
        tau_matrix = row_normalize(add_self_loops(tiny_graph.social))
        expected = user_all.data + tau_matrix @ user_all.data
        np.testing.assert_allclose(users_with_tau.data, expected, atol=1e-10)

    def test_use_tau_false_skips(self, tiny_graph):
        model = DGNN(tiny_graph, embed_dim=8, num_layers=1, seed=0, use_tau=False)
        model.eval()  # disable message dropout for exact comparison
        # Pre-τ users rebuilt from the layer tables: Eq. 8's concat + norm.
        concat = np.concatenate([state[0] for state in model.layer_tables()],
                                axis=1)
        with no_grad():
            user_all = model.final_norm(Tensor(concat))
            users, _ = model.propagate()
        np.testing.assert_allclose(users.data, user_all.data)


class TestOneLayerLoop:
    """Every path drives the layers through one loop, which skips the
    last layer's relation update and builds no relation concat.  At the
    paper settings (d=16, L=2, |M|=8) a layer runs 8 mixtures and 3
    LayerNorms; the skipped update saves 2 and 1, and Eq. 8 adds one
    norm each for users and items."""

    def test_final_embeddings_kernel_counts(self, tiny_graph):
        model = DGNN(tiny_graph, seed=0)
        with instrument.track() as used:
            model.final_embeddings()
        assert used["calls.memory_mixture"] == 14
        assert used["calls.layer_norm"] == 7

    def test_layer_tables_kernel_counts(self, tiny_graph):
        model = DGNN(tiny_graph, seed=0)
        with instrument.track() as used:
            model.layer_tables()
        assert used["calls.memory_mixture"] == 14
        assert used["calls.layer_norm"] == 5

    def test_minibatch_step_kernel_counts(self, tiny_graph):
        model = DGNN(tiny_graph, seed=0)
        rng = np.random.default_rng(3)
        users = rng.integers(0, tiny_graph.num_users, 32)
        positives = rng.integers(0, tiny_graph.num_items, 32)
        negatives = rng.integers(0, tiny_graph.num_items, 32)
        subgraph = sample_subgraph_view(
            tiny_graph, users, np.concatenate([positives, negatives]),
            hops=model.minibatch_hops(), fanout=10)
        with instrument.track() as used:
            loss = model.bpr_loss_on(subgraph, users, positives, negatives)
            loss.backward()
            del loss
        assert used["calls.memory_mixture"] == 14
        assert used["calls.memory_mixture_backward"] == 14
        assert used["calls.layer_norm"] == 7
        assert used["calls.layer_norm_backward"] == 7


class TestAblationSwitches:
    @pytest.mark.parametrize("kwargs", [
        {"use_memory": False},
        {"use_layernorm": False},
        {"literal_eq4": True},
    ])
    def test_variants_change_output(self, tiny_graph, kwargs):
        base = DGNN(tiny_graph, embed_dim=8, seed=0)
        variant = DGNN(tiny_graph, embed_dim=8, seed=0, **kwargs)
        with no_grad():
            ub, _ = base.propagate()
            uv, _ = variant.propagate()
        assert not np.allclose(ub.data, uv.data)

    def test_no_memory_has_fewer_parameters(self, tiny_graph):
        base = DGNN(tiny_graph, embed_dim=8, num_memory_units=8, seed=0)
        plain = DGNN(tiny_graph, embed_dim=8, num_memory_units=8, seed=0,
                     use_memory=False)
        assert plain.num_parameters() < base.num_parameters()

    def test_relation_ablation_changes_output(self, tiny_dataset, tiny_split):
        full = CollaborativeHeteroGraph(tiny_dataset, tiny_split.train_pairs)
        no_social = CollaborativeHeteroGraph(tiny_dataset, tiny_split.train_pairs,
                                             use_social=False)
        a = DGNN(full, embed_dim=8, seed=0)
        b = DGNN(no_social, embed_dim=8, seed=0)
        with no_grad():
            ua, _ = a.propagate()
            ub, _ = b.propagate()
        assert not np.allclose(ua.data, ub.data)


class TestTraining:
    def test_bpr_loss_finite_and_backward(self, model, tiny_split):
        users = tiny_split.train_pairs[:32, 0]
        positives = tiny_split.train_pairs[:32, 1]
        negatives = np.zeros(32, dtype=np.int64)
        model.zero_grad()
        loss = model.bpr_loss(users, positives, negatives, l2=1e-4)
        assert np.isfinite(loss.item())
        loss.backward()
        grads = [p.grad for p in model.parameters() if p.grad is not None]
        assert grads, "no gradients flowed"
        assert all(np.all(np.isfinite(g)) for g in grads)

    def test_embedding_gradients_reach_all_tables(self, model, tiny_split):
        users = tiny_split.train_pairs[:64, 0]
        positives = tiny_split.train_pairs[:64, 1]
        negatives = (positives + 1) % model.graph.num_items
        model.zero_grad()
        model.bpr_loss(users, positives, negatives).backward()
        assert model.user_embedding.weight.grad is not None
        assert model.item_embedding.weight.grad is not None
        assert model.relation_embedding.weight.grad is not None
        assert float(np.abs(model.relation_embedding.weight.grad).sum()) > 0


class TestMemoryAttention:
    def test_attention_shapes(self, model, tiny_graph):
        attention = model.memory_attention("social")
        assert attention.shape == (tiny_graph.num_users, 4)
        attention = model.memory_attention("item_from_user")
        assert attention.shape == (tiny_graph.num_items, 4)

    def test_attention_is_inference_mode_in_train_mode(self, tiny_graph):
        """Message dropout never perturbs the Fig. 10 gates."""
        model = DGNN(tiny_graph, embed_dim=8, num_memory_units=4, seed=0)
        model.eval()
        expected = model.memory_attention("social", layer=1)
        model.invalidate_cache()
        model.train()
        assert np.array_equal(model.memory_attention("social", layer=1),
                              expected)
        assert model.training

    def test_user_side_helper_validates(self, model):
        with pytest.raises(ValueError):
            model.user_memory_attention("item_from_user")

    def test_requires_memory(self, tiny_graph):
        plain = DGNN(tiny_graph, embed_dim=8, seed=0, use_memory=False)
        with pytest.raises(RuntimeError):
            plain.memory_attention("social")

    def test_requires_layers(self, tiny_graph):
        shallow = DGNN(tiny_graph, embed_dim=8, num_layers=0, seed=0)
        with pytest.raises(RuntimeError):
            shallow.memory_attention("social")


class TestScoring:
    def test_score_candidates_is_dot_product(self, model):
        users = np.array([0, 1])
        items = np.array([[0, 1, 2], [3, 4, 5]])
        scores = model.score_candidates(users, items)
        user_emb, item_emb = model.final_embeddings()
        expected = np.array([[user_emb[0] @ item_emb[j] for j in items[0]],
                             [user_emb[1] @ item_emb[j] for j in items[1]]])
        np.testing.assert_allclose(scores, expected, atol=1e-10)

    def test_cache_invalidation_after_update(self, tiny_graph):
        model = DGNN(tiny_graph, embed_dim=8, seed=0)
        before = model.final_embeddings()[0].copy()
        model.user_embedding.weight.data += 1.0
        model.invalidate_cache()
        after = model.final_embeddings()[0]
        assert not np.allclose(before, after)

    def test_recommend_excludes_training_items(self, model, tiny_graph):
        user = 0
        seen = set(tiny_graph.interaction[user].indices)
        recommended = model.recommend(user, top_n=10)
        assert not (set(recommended) & seen)

"""End-to-end integration tests across the whole stack."""

import numpy as np
import pytest

from repro.data import (
    build_eval_candidates,
    leave_one_out,
    load_dataset,
    save_dataset,
    tiny,
)
from repro.eval import evaluate_model
from repro.graph import CollaborativeHeteroGraph
from repro.models import DGNN, create_model
from repro.train import TrainConfig, Trainer


class TestEndToEnd:
    def test_dgnn_beats_random_ranking(self, tiny_graph, tiny_split,
                                       tiny_candidates):
        # Random ranking over 51 candidates gives HR@10 ≈ 10/51 ≈ 0.196.
        model = DGNN(tiny_graph, embed_dim=16, num_memory_units=4, seed=0)
        config = TrainConfig(epochs=25, batch_size=256, eval_every=5,
                             patience=None)
        history = Trainer(model, tiny_split, config, tiny_candidates).fit()
        assert history.best_metrics["hr@10"] > 10 / 51

    def test_full_pipeline_through_disk(self, tmp_path):
        # generate -> save -> load -> split -> train -> evaluate
        dataset = tiny(seed=11)
        save_dataset(dataset, tmp_path / "ds.npz")
        dataset = load_dataset(tmp_path / "ds.npz")
        split = leave_one_out(dataset, seed=0)
        candidates = build_eval_candidates(split, num_negatives=50, seed=0)
        graph = CollaborativeHeteroGraph(dataset, split.train_pairs)
        model = create_model("dgnn", graph, embed_dim=8, seed=0,
                             num_memory_units=2)
        config = TrainConfig(epochs=3, batch_size=128, patience=None)
        Trainer(model, split, config, candidates).fit()
        metrics = evaluate_model(model, candidates)
        assert 0.0 <= metrics["hr@10"] <= 1.0

    def test_training_resumption_via_state_dict(self, tiny_graph, tiny_split,
                                                tiny_candidates):
        config = TrainConfig(epochs=3, batch_size=128, patience=None, seed=5)
        first = DGNN(tiny_graph, embed_dim=8, num_memory_units=2, seed=0)
        Trainer(first, tiny_split, config, tiny_candidates).fit()
        snapshot = first.state_dict()

        second = DGNN(tiny_graph, embed_dim=8, num_memory_units=2, seed=99)
        second.load_state_dict(snapshot)
        second.invalidate_cache()
        np.testing.assert_allclose(
            first.score_candidates(tiny_candidates.users[:4],
                                   tiny_candidates.items[:4]),
            second.score_candidates(tiny_candidates.users[:4],
                                    tiny_candidates.items[:4]))

    def test_identical_seeds_identical_training(self, tiny_graph, tiny_split,
                                                tiny_candidates):
        def train_once():
            model = DGNN(tiny_graph, embed_dim=8, num_memory_units=2, seed=3)
            config = TrainConfig(epochs=3, batch_size=128, patience=None,
                                 seed=3)
            history = Trainer(model, tiny_split, config, tiny_candidates).fit()
            return history.losses

        np.testing.assert_allclose(train_once(), train_once())

    def test_shared_candidates_make_models_comparable(self, tiny_graph,
                                                      tiny_split,
                                                      tiny_candidates):
        # Two different models evaluated on the same candidates yield
        # metrics on identical negative samples.
        scores = {}
        for name in ("most-popular", "bpr-mf"):
            model = create_model(name, tiny_graph, embed_dim=8, seed=0)
            scores[name] = model.score_candidates(tiny_candidates.users,
                                                  tiny_candidates.items)
        assert scores["most-popular"].shape == scores["bpr-mf"].shape


class TestAblationIntegrity:
    def test_st_variant_reduces_to_pure_cf(self, tiny_dataset, tiny_split):
        # With both S and T removed, DGNN's propagation sees only Y: its
        # user update must not depend on the social matrix at all.
        graph = CollaborativeHeteroGraph(tiny_dataset, tiny_split.train_pairs,
                                         use_social=False,
                                         use_item_relations=False)
        model = DGNN(graph, embed_dim=8, num_memory_units=2, seed=0)
        model.eval()  # deterministic propagation (no message dropout)
        from repro.autograd import no_grad

        with no_grad():
            users, items = model.propagate()
        assert np.all(np.isfinite(users.data))
        # τ over an empty social graph is the identity mean (self only):
        # final user embedding = 2 * pre-tau embedding.  The same-seed
        # "-τ" twin has the same parameters and gives the pre-τ users.
        twin = DGNN(graph, embed_dim=8, num_memory_units=2, seed=0,
                    use_tau=False)
        twin.eval()
        with no_grad():
            pre_tau, _ = twin.propagate()
        np.testing.assert_allclose(users.data, 2.0 * pre_tau.data, atol=1e-10)

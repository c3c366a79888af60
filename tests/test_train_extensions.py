"""Tests for checkpointing and grid search."""

import json

import numpy as np
import pytest

from repro.experiments import ExperimentContext, default_train_config
from repro.models import BprMF, DGNN
from repro.train import (
    GridSearchReport,
    grid_search,
    load_checkpoint,
    paper_tuning_grid,
    restore_model,
    save_checkpoint,
)


class TestCheckpointing:
    def test_round_trip(self, tiny_graph, tmp_path):
        model = DGNN(tiny_graph, embed_dim=8, num_memory_units=2, seed=0)
        for param in model.parameters():
            param.data += 0.5
        path = tmp_path / "model.npz"
        save_checkpoint(model, path, epoch=7, metrics={"hr@10": 0.4})

        fresh = DGNN(tiny_graph, embed_dim=8, num_memory_units=2, seed=99)
        meta = restore_model(fresh, path)
        assert meta["epoch"] == 7
        assert meta["metrics"]["hr@10"] == 0.4
        for (_, a), (_, b) in zip(model.named_parameters(),
                                  fresh.named_parameters()):
            np.testing.assert_allclose(a.data, b.data)

    def test_load_checkpoint_returns_state(self, tiny_graph, tmp_path):
        model = BprMF(tiny_graph, embed_dim=4, seed=0)
        path = tmp_path / "mf.npz"
        save_checkpoint(model, path)
        state, meta = load_checkpoint(path)
        assert meta["model_name"] == "bpr-mf"
        assert "user_embedding.weight" in state

    def test_checkpoint_with_node_permutation_is_refused(self, tiny_graph,
                                                         tmp_path):
        # Older versions stored a node permutation under ``__perm__/``
        # next to rows in the permuted order; such rows cannot be mapped
        # back, so the load must fail instead of treating them as state.
        model = BprMF(tiny_graph, embed_dim=4, seed=0)
        meta = {"model_name": "bpr-mf", "embed_dim": 4, "epoch": 3,
                "metrics": {}, "extra": {}, "has_optimizer": False,
                "has_permutation": True, "reorder_strategy": "rcm"}
        payload = dict(model.state_dict())
        payload["__perm__/user_perm"] = np.arange(tiny_graph.num_users)
        payload["__perm__/item_perm"] = np.arange(tiny_graph.num_items)
        payload["__checkpoint_meta__"] = np.asarray(json.dumps(meta))
        path = tmp_path / "permuted.npz"
        np.savez_compressed(path, **payload)
        with pytest.raises(ValueError, match="reordered split"):
            load_checkpoint(path)
        with pytest.raises(ValueError, match="reordered split"):
            restore_model(BprMF(tiny_graph, embed_dim=4, seed=1), path)

    def test_wrong_model_name_rejected(self, tiny_graph, tmp_path):
        mf = BprMF(tiny_graph, embed_dim=8, seed=0)
        path = tmp_path / "mf.npz"
        save_checkpoint(mf, path)
        dgnn = DGNN(tiny_graph, embed_dim=8, seed=0)
        with pytest.raises(ValueError):
            restore_model(dgnn, path)

    def test_restored_model_scores_identically(self, tiny_graph,
                                               tiny_candidates, tmp_path):
        model = BprMF(tiny_graph, embed_dim=8, seed=0)
        path = tmp_path / "snap.npz"
        save_checkpoint(model, path)
        clone = BprMF(tiny_graph, embed_dim=8, seed=5)
        restore_model(clone, path)
        np.testing.assert_allclose(
            model.score_candidates(tiny_candidates.users[:3],
                                   tiny_candidates.items[:3]),
            clone.score_candidates(tiny_candidates.users[:3],
                                   tiny_candidates.items[:3]))


class TestGridSearch:
    @pytest.fixture(scope="class")
    def context(self):
        return ExperimentContext.build("tiny", seed=0, num_negatives=50)

    def test_grid_covers_product(self, context):
        report = grid_search(
            "bpr-mf", context,
            model_grid={"embed_dim": (4, 8)},
            config_grid={"l2": (1e-4, 1e-3)},
            base_config_kwargs=dict(epochs=2, batch_size=128, patience=None))
        assert len(report.results) == 4
        assert isinstance(report, GridSearchReport)

    def test_results_sorted_descending(self, context):
        report = grid_search(
            "bpr-mf", context, model_grid={"embed_dim": (4, 8, 16)},
            base_config_kwargs=dict(epochs=2, batch_size=128, patience=None))
        values = [r.metrics["hr@10"] for r in report.results]
        assert values == sorted(values, reverse=True)
        assert report.best.metrics["hr@10"] == values[0]

    def test_render_mentions_best(self, context):
        report = grid_search(
            "bpr-mf", context, model_grid={"embed_dim": (4,)},
            base_config_kwargs=dict(epochs=1, batch_size=128, patience=None))
        text = report.render()
        assert "bpr-mf" in text and "embed_dim=4" in text

    def test_empty_grids_run_defaults(self, context):
        report = grid_search(
            "bpr-mf", context,
            base_config_kwargs=dict(epochs=1, batch_size=128, patience=None))
        assert len(report.results) == 1
        assert report.best.describe() == "(defaults)"

    def test_paper_tuning_grid_shape(self):
        model_grid, config_grid = paper_tuning_grid()
        assert model_grid["embed_dim"] == (4, 8, 16, 32)
        assert 1e-4 in config_grid["l2"]
        assert 512 in config_grid["batch_size"]

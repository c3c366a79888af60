"""Tests for the trainer, config and early stopping."""

import resource

import numpy as np
import pytest

from repro.data import build_eval_candidates
from repro.models import BprMF, create_model
from repro.train import EarlyStopping, TrainConfig, Trainer
from repro.train.config import PaperHyperparameters


class TestTrainConfig:
    def test_defaults_match_paper(self):
        config = TrainConfig()
        assert config.learning_rate == 0.01
        assert 512 <= config.batch_size <= 4096

    @pytest.mark.parametrize("kwargs", [
        {"epochs": 0}, {"batch_size": 0}, {"learning_rate": 0.0},
        {"eval_every": 0}, {"l2": -1.0}, {"propagation": "sampled"},
        {"hops": -1}, {"fanout": 0}, {"spmm_block": -1},
        {"patience": 0}, {"patience": -2},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("batches", [0, -3])
    def test_non_positive_batches_per_epoch_rejected(self, batches):
        # 0 used to train a full epoch and a negative count trained
        # nothing while recording loss -0.0.
        with pytest.raises(ValueError, match="batches_per_epoch"):
            TrainConfig(batches_per_epoch=batches)

    def test_workers_must_be_zero(self):
        assert TrainConfig(workers=0).workers == 0
        for workers in (1, -1):
            with pytest.raises(ValueError, match="workers"):
                TrainConfig(workers=workers)

    @pytest.mark.parametrize("clip_norm", [0.0, -1.0, float("nan")])
    def test_non_positive_clip_norm_rejected(self, clip_norm):
        # A negative bound would flip every gradient (ascent); 0 would
        # zero them all.
        with pytest.raises(ValueError, match="clip_norm"):
            TrainConfig(clip_norm=clip_norm)
        assert TrainConfig(clip_norm=None).clip_norm is None

    @pytest.mark.parametrize("metric, ks", [
        ("hr@50", (5, 10, 20)), ("mrr", (5, 10, 20)), ("recall@10", (10,)),
        ("ndcg@10", (5, 20)),
    ])
    def test_unevaluated_early_stopping_metric_rejected(self, metric, ks):
        # Checked up front, not as a KeyError after the first epoch.
        with pytest.raises(ValueError, match="early_stopping_metric"):
            TrainConfig(early_stopping_metric=metric, eval_ks=ks)

    @pytest.mark.parametrize("metric, ks", [
        ("hr@10", (5, 10, 20)), ("ndcg@20", (5, 10, 20)), ("hr@50", (50,)),
    ])
    def test_evaluated_early_stopping_metric_accepted(self, metric, ks):
        config = TrainConfig(early_stopping_metric=metric, eval_ks=ks)
        assert config.early_stopping_metric == metric

    def test_paper_hyperparameters_grid(self):
        # Section V-A4's grids are written once; every sweep reads them.
        import inspect

        from repro.experiments.complexity import measure_memory_scaling
        from repro.experiments.hyperparams import PAPER_GRIDS
        from repro.train import paper_tuning_grid

        hp = PaperHyperparameters()
        assert hp.embed_dim == 16
        assert hp.num_memory_units == 8
        assert 2 in hp.memory_grid and 16 in hp.memory_grid
        assert PAPER_GRIDS == {"embed_dim": hp.embed_dim_grid,
                               "num_layers": hp.layer_grid,
                               "num_memory_units": hp.memory_grid}
        assert paper_tuning_grid() == (
            {"embed_dim": hp.embed_dim_grid},
            {"l2": hp.l2_grid, "batch_size": hp.batch_size_grid})
        default_grid = inspect.signature(
            measure_memory_scaling).parameters["memory_grid"].default
        assert default_grid == hp.memory_grid


class TestEarlyStopping:
    def test_tracks_best_and_stops(self, tiny_graph):
        model = BprMF(tiny_graph, embed_dim=4, seed=0)
        stopper = EarlyStopping(metric="hr@10", patience=2)
        assert not stopper.update({"hr@10": 0.3}, model, epoch=0)
        assert not stopper.update({"hr@10": 0.2}, model, epoch=1)
        assert stopper.update({"hr@10": 0.1}, model, epoch=2)
        assert stopper.best_epoch == 0
        assert stopper.best_value == 0.3

    def test_restore_best(self, tiny_graph):
        model = BprMF(tiny_graph, embed_dim=4, seed=0)
        stopper = EarlyStopping(metric="hr@10", patience=None)
        stopper.update({"hr@10": 0.5}, model, epoch=0)
        snapshot = model.user_embedding.weight.data.copy()
        model.user_embedding.weight.data += 10.0
        stopper.restore_best(model)
        np.testing.assert_allclose(model.user_embedding.weight.data, snapshot)

    def test_patience_none_never_stops(self, tiny_graph):
        model = BprMF(tiny_graph, embed_dim=4, seed=0)
        stopper = EarlyStopping(patience=None)
        for epoch in range(20):
            assert not stopper.update({"hr@10": 0.0}, model, epoch=epoch)


class TestTrainer:
    def test_history_lengths(self, tiny_graph, tiny_split, tiny_candidates):
        model = BprMF(tiny_graph, embed_dim=8, seed=0)
        config = TrainConfig(epochs=4, batch_size=64, eval_every=2,
                             patience=None)
        history = Trainer(model, tiny_split, config, tiny_candidates).fit()
        assert history.epochs_run == 4
        assert len(history.train_seconds) == 4
        assert history.eval_epochs == [1, 3]
        assert len(history.metrics) == 2
        assert history.stop_reason is None

    def test_training_learns_to_rank_training_pairs(self, tiny_graph,
                                                    tiny_split, tiny_candidates):
        # Deterministic training contract: after fitting, observed training
        # pairs must outscore random items by a clear margin (generalization
        # quality is exercised by the experiment-level tests).
        model = BprMF(tiny_graph, embed_dim=16, seed=0)
        users = tiny_split.train_pairs[:, 0]
        positives = tiny_split.train_pairs[:, 1]
        rng = np.random.default_rng(1)
        randoms = rng.integers(0, tiny_graph.num_items, size=len(users))
        margin_before = (model.score_pairs(users, positives)
                         - model.score_pairs(users, randoms)).mean()
        config = TrainConfig(epochs=30, batch_size=128, patience=None)
        Trainer(model, tiny_split, config, tiny_candidates).fit()
        margin_after = (model.score_pairs(users, positives)
                        - model.score_pairs(users, randoms)).mean()
        assert margin_after > margin_before
        assert margin_after > 0.5

    def test_loss_decreases(self, tiny_graph, tiny_split, tiny_candidates):
        model = BprMF(tiny_graph, embed_dim=8, seed=0)
        config = TrainConfig(epochs=10, batch_size=128, patience=None)
        history = Trainer(model, tiny_split, config, tiny_candidates).fit()
        assert history.losses[-1] < history.losses[0]

    def test_early_stopping_restores_best(self, tiny_graph, tiny_split,
                                          tiny_candidates):
        from repro.eval import evaluate_model

        model = create_model("dgnn", tiny_graph, embed_dim=8, seed=0,
                             num_memory_units=2)
        config = TrainConfig(epochs=12, batch_size=128, eval_every=1, patience=3)
        history = Trainer(model, tiny_split, config, tiny_candidates).fit()
        final = evaluate_model(model, tiny_candidates)
        assert final["hr@10"] == pytest.approx(history.best_metrics["hr@10"])

    def test_metric_curve(self, tiny_graph, tiny_split, tiny_candidates):
        model = BprMF(tiny_graph, embed_dim=8, seed=0)
        config = TrainConfig(epochs=3, batch_size=64, eval_every=1, patience=None)
        history = Trainer(model, tiny_split, config, tiny_candidates).fit()
        curve = history.metric_curve("hr@10")
        assert len(curve) == 3
        assert all(0.0 <= value <= 1.0 for value in curve)

    def test_default_candidates_built(self, tiny_graph, tiny_split):
        model = BprMF(tiny_graph, embed_dim=4, seed=0)
        config = TrainConfig(epochs=1, batch_size=64, patience=None)
        trainer = Trainer(model, tiny_split, config)
        assert trainer.candidates is not None
        assert len(trainer.candidates) == tiny_split.num_test_users

    def test_timings_recorded(self, tiny_graph, tiny_split, tiny_candidates):
        model = BprMF(tiny_graph, embed_dim=4, seed=0)
        config = TrainConfig(epochs=2, batch_size=64, patience=None)
        history = Trainer(model, tiny_split, config, tiny_candidates).fit()
        assert history.mean_train_seconds() > 0
        assert history.mean_eval_seconds() > 0

    def test_resource_usage_recorded_per_epoch(self, tiny_graph, tiny_split,
                                               tiny_candidates):
        """Minor page faults and system CPU seconds are per-epoch deltas
        of the process's ``getrusage``, next to the kernel counters."""
        model = create_model("dgnn", tiny_graph, embed_dim=8, seed=0)
        config = TrainConfig(epochs=3, batch_size=64, batches_per_epoch=2,
                             eval_every=3, patience=None)
        trainer = Trainer(model, tiny_split, config, tiny_candidates)
        before = resource.getrusage(resource.RUSAGE_SELF)
        history = trainer.fit()
        after = resource.getrusage(resource.RUSAGE_SELF)
        assert (len(history.minor_page_faults) == len(history.system_seconds)
                == len(history.kernel_counters) == 3)
        assert all(isinstance(f, int) and f >= 0
                   for f in history.minor_page_faults)
        assert all(s >= 0.0 for s in history.system_seconds)
        # Deltas, not running totals: the epochs sum to at most the run's.
        assert (sum(history.minor_page_faults)
                <= after.ru_minflt - before.ru_minflt)
        assert (sum(history.system_seconds)
                <= after.ru_stime - before.ru_stime + 1e-9)


class TestNonFiniteStop:
    """A diverged run stops with a recorded reason instead of training on."""

    @staticmethod
    def _plant_nan_after(trainer, steps):
        # After ``steps`` optimizer steps, poison one entry of the final
        # LayerNorm's shift: every score, hence every later loss, is NaN.
        model, step = trainer.model, trainer.optimizer.step
        calls = [0]

        def planting_step():
            step()
            calls[0] += 1
            if calls[0] == steps:
                model.final_norm.shift.data[0] = np.nan

        trainer.optimizer.step = planting_step

    @pytest.mark.parametrize("propagation", ["full", "minibatch"])
    def test_nan_parameter_stops_and_restores_best(
            self, tiny_graph, tiny_split, tiny_candidates, propagation):
        model = create_model("dgnn", tiny_graph, embed_dim=8, num_layers=1,
                             num_memory_units=2, seed=0)
        config = TrainConfig(epochs=4, batch_size=64, batches_per_epoch=3,
                             propagation=propagation, prefetch=True,
                             patience=None)
        trainer = Trainer(model, tiny_split, config, tiny_candidates)
        self._plant_nan_after(trainer, steps=4)  # epoch 1, after batch 0
        history = trainer.fit()
        assert history.stop_reason == "non-finite loss nan at epoch 1, batch 1"
        assert history.losses and len(history.losses) == 1
        assert history.best_epoch == 0
        for name, values in model.state_dict().items():
            assert np.isfinite(values).all(), f"{name} not restored"

    def test_non_finite_gradient_norm_skips_the_step(
            self, tiny_graph, tiny_split, tiny_candidates, monkeypatch):
        import repro.train.trainer as trainer_module

        model = BprMF(tiny_graph, embed_dim=4, seed=0)
        before = model.state_dict()
        monkeypatch.setattr(trainer_module, "clip_grad_norm",
                            lambda parameters, max_norm: float("inf"))
        config = TrainConfig(epochs=2, batch_size=64, patience=None)
        trainer = Trainer(model, tiny_split, config, tiny_candidates)
        history = trainer.fit()
        assert history.stop_reason == (
            "non-finite gradient norm inf at epoch 0, batch 0")
        assert history.epochs_run == 0
        assert all(p.grad is None for p in model.parameters())
        for name, values in model.state_dict().items():
            np.testing.assert_array_equal(values, before[name])

    def test_train_and_publish_publishes_nothing(
            self, tiny_graph, tiny_split, tiny_candidates, tmp_path):
        from repro.serve import SnapshotStore
        from repro.train import train_and_publish

        model = create_model("dgnn", tiny_graph, embed_dim=8, num_layers=1,
                             num_memory_units=2, seed=0)
        model.final_norm.shift.data[0] = np.nan
        config = TrainConfig(epochs=2, batch_size=64, patience=None)
        history, version = train_and_publish(model, tiny_split, config,
                                             tiny_candidates,
                                             store=tmp_path / "store")
        assert history.stop_reason == "non-finite loss nan at epoch 0, batch 0"
        assert version is None
        assert SnapshotStore(tmp_path / "store").versions() == []

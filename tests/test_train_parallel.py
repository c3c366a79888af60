"""Multi-process shared-memory training: parity oracles and lifecycle.

The load-bearing assertions:

* a 1-worker :class:`ParallelTrainer` run is bitwise-identical to the
  single-process :class:`Trainer` (losses, final parameters, metrics);
* a run is bitwise-reproducible at a fixed worker count > 1;
* :class:`SharedParamStore` adoption/restore round-trips parameters
  without leaking shm segments;
* a worker that dies mid-epoch makes ``fit`` raise instead of hang, and
  leaves no shm segment behind;
* parallel training publishes a serving snapshot end-to-end.
"""

import os
import re
import threading

import numpy as np
import pytest

from repro.data import build_eval_candidates, leave_one_out, tiny
from repro.graph.hetero import CollaborativeHeteroGraph
from repro.models import create_model
from repro.nn.module import Parameter
from repro.train import (
    ParallelTrainer,
    SharedParamStore,
    TrainConfig,
    Trainer,
    fit_model,
    train_and_publish,
)

BASE = dict(epochs=3, batch_size=64, batches_per_epoch=4,
            propagation="minibatch", fanout=5, eval_every=2, patience=None,
            seed=0)


def _build(seed=0, model_name="lightgcn"):
    dataset = tiny(seed=seed)
    split = leave_one_out(dataset, seed=seed)
    graph = CollaborativeHeteroGraph(dataset, split.train_pairs)
    model = create_model(model_name, graph, embed_dim=8, seed=seed)
    candidates = build_eval_candidates(split, seed=seed)
    return model, split, candidates


def _assert_bitwise_equal(model_a, model_b):
    for pa, pb in zip(model_a.parameters(), model_b.parameters()):
        assert np.array_equal(pa.data, pb.data)


# ----------------------------------------------------------------------
# Parity oracles
# ----------------------------------------------------------------------
def test_one_worker_bitwise_identical_to_trainer():
    model_seq, split, candidates = _build()
    history_seq = Trainer(model_seq, split, TrainConfig(**BASE),
                          candidates).fit()

    model_par, split_par, candidates_par = _build()
    history_par = ParallelTrainer(
        model_par, split_par,
        TrainConfig(workers=1, **BASE),
        candidates_par).fit()

    assert history_seq.losses == history_par.losses
    assert history_seq.metrics == history_par.metrics
    assert history_seq.eval_epochs == history_par.eval_epochs
    assert history_seq.best_epoch == history_par.best_epoch
    _assert_bitwise_equal(model_seq, model_par)


def test_one_worker_parity_sgd_momentum_decay():
    overrides = dict(BASE, optimizer="sgd", momentum=0.9, weight_decay=1e-3)
    model_seq, split, candidates = _build()
    history_seq = Trainer(model_seq, split, TrainConfig(**overrides),
                          candidates).fit()
    model_par, split_par, candidates_par = _build()
    history_par = ParallelTrainer(
        model_par, split_par,
        TrainConfig(workers=1, **overrides),
        candidates_par).fit()
    assert history_seq.losses == history_par.losses
    _assert_bitwise_equal(model_seq, model_par)


def test_sync_mode_reproducible_at_two_workers():
    runs = []
    for _ in range(2):
        model, split, candidates = _build()
        history = ParallelTrainer(
            model, split, TrainConfig(workers=2, **BASE),
            candidates).fit()
        runs.append((model, history))
    (model_a, history_a), (model_b, history_b) = runs
    assert history_a.losses == history_b.losses
    assert history_a.metrics == history_b.metrics
    _assert_bitwise_equal(model_a, model_b)


def test_parallel_trainer_rejects_full_propagation():
    model, split, candidates = _build()
    config = TrainConfig(workers=1, propagation="full", epochs=1)
    with pytest.raises(ValueError, match="minibatch"):
        ParallelTrainer(model, split, config, candidates)


# ----------------------------------------------------------------------
# SharedParamStore lifecycle
# ----------------------------------------------------------------------
def test_shared_param_store_roundtrips_parameters():
    param = Parameter(np.arange(12, dtype=np.float64).reshape(4, 3))
    original = param.data.copy()
    store = SharedParamStore()
    store.adopt_parameters([param])
    assert store.num_segments == 1
    assert np.array_equal(param.data, original)
    # The adopted view is shm-backed: an ordinary array owns its data.
    assert not param.data.flags["OWNDATA"]
    param.data[0, 0] = 42.0
    store.restore()
    assert store.num_segments == 0
    assert param.data.flags["OWNDATA"]
    assert param.data[0, 0] == 42.0  # updates survive the copy-back
    store.restore()  # idempotent


# ----------------------------------------------------------------------
# Failure paths
# ----------------------------------------------------------------------
def test_dead_worker_raises_and_releases_shared_memory(monkeypatch):
    model, split, candidates = _build()
    created = []
    share_array = SharedParamStore.share_array

    def recording_share_array(self, array):
        view = share_array(self, array)
        created.append(self._segments[-1].name)
        return view

    def die(*args, **kwargs):
        os._exit(3)

    monkeypatch.setattr(SharedParamStore, "share_array",
                        recording_share_array)
    # Forked workers inherit the patched model and exit on their first
    # batch without relaying anything to the parent.
    monkeypatch.setattr(model, "bpr_loss_on", die)
    trainer = ParallelTrainer(model, split, TrainConfig(workers=2, **BASE),
                              candidates)
    outcome = {}

    def run():
        try:
            trainer.fit()
        except Exception as error:  # noqa: BLE001 - inspected below
            outcome["error"] = error

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=60.0)
    assert not thread.is_alive(), "fit blocked on a dead worker"
    error = outcome.get("error")
    assert isinstance(error, RuntimeError)
    assert re.search(r"worker [01] exited with code 3", str(error))
    assert trainer.worker_pids() == []
    assert created
    leaked = [name for name in created
              if os.path.exists(os.path.join("/dev/shm", name))]
    assert leaked == []


# ----------------------------------------------------------------------
# Config plumbing and dispatch
# ----------------------------------------------------------------------
def test_config_validates_parallel_knobs():
    with pytest.raises(ValueError, match="workers"):
        TrainConfig(workers=-1)


def test_config_resolves_parallel_knobs_from_env():
    assert TrainConfig().workers == 0
    assert TrainConfig(workers=1).workers == 1


def test_fit_model_dispatches_on_worker_count():
    overrides = dict(BASE, epochs=1)
    model_seq, split, candidates = _build()
    fit_model(model_seq, split, TrainConfig(workers=0, **overrides),
              candidates)
    model_par, split_par, candidates_par = _build()
    fit_model(model_par, split_par,
              TrainConfig(workers=1, **overrides),
              candidates_par)
    _assert_bitwise_equal(model_seq, model_par)


# ----------------------------------------------------------------------
# End-to-end: parallel training feeds the serving layer
# ----------------------------------------------------------------------
def test_train_and_publish_serves_parallel_trained_model(tmp_path):
    from repro.serve import RecommendService, SnapshotStore

    model, split, candidates = _build()
    config = TrainConfig(workers=2, **BASE)
    history, version = train_and_publish(model, split, config, candidates,
                                         store=tmp_path / "snapshots")
    assert history.epochs_run == BASE["epochs"]
    assert version is not None

    store = SnapshotStore(tmp_path / "snapshots")
    snapshot = store.load_latest()
    user_emb, item_emb = model.final_embeddings()
    assert np.array_equal(np.asarray(snapshot.user_emb), np.asarray(user_emb))
    assert np.array_equal(np.asarray(snapshot.item_emb), np.asarray(item_emb))

    service = RecommendService(snapshot)
    items = service.recommend(np.arange(4), k=5)
    assert items.shape == (4, 5)
    assert (items >= 0).all()

"""Snapshot store: publish/load lifecycle, integrity, bitwise parity, and
the train_and_publish handoff."""

import dataclasses
import json
import os
import sys
import tempfile
import threading

import numpy as np
import pytest

from repro.engine.precision import use_dtype
from repro.eval.full_ranking import full_ranking_topk
from repro.models import create_model
from repro.models.lightgcn import LightGCN
from repro.serve import (
    EmbeddingSnapshot,
    RecommendService,
    SnapshotIntegrityError,
    SnapshotStore,
)
from repro.train import TrainConfig, train_and_publish


@pytest.fixture(scope="module")
def model(tiny_graph):
    return LightGCN(tiny_graph, embed_dim=16, num_layers=2, seed=0)


@pytest.fixture()
def snapshot(model, tiny_split):
    return EmbeddingSnapshot.from_model(model, tiny_split)


class TestLifecycle:
    def test_publish_load_roundtrip(self, snapshot, tmp_path):
        store = SnapshotStore(tmp_path)
        version = store.publish(snapshot)
        assert version == "v000001"
        assert snapshot.version == "v000001"
        loaded = store.load_latest()
        assert loaded.version == "v000001"
        for name, array in snapshot.arrays().items():
            np.testing.assert_array_equal(np.asarray(loaded.arrays()[name]),
                                          array)
        assert loaded.meta["model"] == snapshot.meta["model"]

    def test_memmap_loading(self, snapshot, tmp_path):
        store = SnapshotStore(tmp_path)
        store.publish(snapshot)
        loaded = store.load_latest(mmap=True)
        assert isinstance(loaded.user_emb, np.memmap)
        in_memory = store.load_latest(mmap=False)
        assert not isinstance(in_memory.user_emb, np.memmap)
        np.testing.assert_array_equal(np.asarray(loaded.user_emb),
                                      in_memory.user_emb)

    def test_versions_advance_and_latest_moves(self, snapshot, tmp_path):
        store = SnapshotStore(tmp_path)
        store.publish(snapshot)
        second = EmbeddingSnapshot(**{name: array.copy() for name, array
                                      in snapshot.arrays().items()})
        store.publish(second)
        assert store.versions() == ["v000001", "v000002"]
        assert store.latest_version() == "v000002"
        # Nothing but the version directories: no pointer file to go stale.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "v000001", "v000002"]

    def test_empty_store(self, tmp_path):
        store = SnapshotStore(tmp_path)
        assert store.versions() == []
        assert store.latest_version() is None
        with pytest.raises(FileNotFoundError):
            store.load_latest()

    def test_prune_keeps_newest(self, snapshot, tmp_path):
        store = SnapshotStore(tmp_path)
        for _ in range(4):
            store.publish(snapshot)
        deleted = store.prune(keep=2)
        assert deleted == ["v000001", "v000002"]
        assert store.versions() == ["v000003", "v000004"]
        assert store.load_latest().version == "v000004"

    def test_prune_zero_keeps_the_newest(self, snapshot, tmp_path):
        store = SnapshotStore(tmp_path)
        for _ in range(3):
            store.publish(snapshot)
        assert store.prune(keep=0) == ["v000001", "v000002"]
        assert store.versions() == ["v000003"]
        assert store.load_latest().version == "v000003"

    def test_prune_rejects_negative_keep(self, snapshot, tmp_path):
        store = SnapshotStore(tmp_path)
        for _ in range(4):
            store.publish(snapshot)
        with pytest.raises(ValueError, match="keep must be >= 0"):
            store.prune(keep=-2)
        assert store.versions() == ["v000001", "v000002", "v000003",
                                    "v000004"]


class TestConcurrentPublish:
    """A rival publish lands while this one is in flight: both must get
    distinct, complete versions instead of a bare ``OSError``."""

    def _rival_after_first_call(self, monkeypatch, module, name, store,
                                rival):
        real = getattr(module, name)
        published = []

        def racing(*args, **kwargs):
            if not published:
                published.append(None)
                published[0] = store.publish(rival)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, racing)
        return published

    def _assert_both_published(self, store, mine, rival, ours, theirs):
        assert sorted([ours, theirs]) == ["v000001", "v000002"]
        assert store.versions() == ["v000001", "v000002"]
        for version, source in ((ours, mine), (theirs, rival)):
            loaded = store.load(version)
            np.testing.assert_array_equal(np.asarray(loaded.user_emb),
                                          source.user_emb)
        assert not [p for p in store.root.iterdir()
                    if p.name.startswith(".staging-")]

    def test_rival_publishes_while_staging(self, snapshot, tmp_path,
                                           monkeypatch):
        store = SnapshotStore(tmp_path)
        rival = dataclasses.replace(snapshot, user_emb=snapshot.user_emb + 1)
        published = self._rival_after_first_call(
            monkeypatch, tempfile, "mkdtemp", store, rival)
        ours = store.publish(snapshot)
        self._assert_both_published(store, snapshot, rival, ours,
                                    published[0])

    def test_rival_takes_the_name_before_rename(self, snapshot, tmp_path,
                                                monkeypatch):
        store = SnapshotStore(tmp_path)
        rival = dataclasses.replace(snapshot, user_emb=snapshot.user_emb + 1)
        published = self._rival_after_first_call(
            monkeypatch, os, "rename", store, rival)
        ours = store.publish(snapshot)
        assert (ours, published[0]) == ("v000002", "v000001")
        self._assert_both_published(store, snapshot, rival, ours,
                                    published[0])

    def test_rival_publishing_after_our_rename_is_latest(
            self, snapshot, tmp_path, monkeypatch):
        # The rival's whole publish lands between our rename and our
        # return: the newer version must stay the latest.
        store = SnapshotStore(tmp_path)
        rival = dataclasses.replace(snapshot, user_emb=snapshot.user_emb + 1)
        real = os.rename
        published = []

        def rename_then_rival(*args, **kwargs):
            real(*args, **kwargs)
            if not published:
                published.append(None)
                published[0] = store.publish(rival)

        monkeypatch.setattr(os, "rename", rename_then_rival)
        ours = store.publish(snapshot)
        assert (ours, published[0]) == ("v000001", "v000002")
        assert store.latest_version() == "v000002"
        np.testing.assert_array_equal(
            np.asarray(store.load_latest().user_emb), rival.user_emb)
        self._assert_both_published(store, snapshot, rival, ours,
                                    published[0])

    def test_threads_publishing_at_once_get_distinct_versions(
            self, snapshot, tmp_path):
        store = SnapshotStore(tmp_path)
        threads, each = 6, 3
        start = threading.Barrier(threads)
        names, errors = [], []

        def publisher(offset):
            start.wait()
            for _ in range(each):
                mine = dataclasses.replace(
                    snapshot, user_emb=snapshot.user_emb + offset)
                try:
                    names.append((store.publish(mine), offset))
                except Exception as error:  # noqa: BLE001 — the result
                    errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=publisher, args=(offset,))
                       for offset in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert len({name for name, _ in names}) == threads * each
        assert store.versions() == sorted(name for name, _ in names)
        for name, offset in names:
            np.testing.assert_array_equal(
                np.asarray(store.load(name).user_emb),
                snapshot.user_emb + offset)


class TestIdChecks:
    """Snapshot lookups reject ids outside ``[0, num_users)`` instead of
    answering for the user a negative id wraps to."""

    def test_social_row_rejects_out_of_range(self, snapshot):
        assert snapshot.social_row(snapshot.num_users - 1).size > 0
        for user in (-1, snapshot.num_users):
            with pytest.raises(ValueError, match="out of range"):
                snapshot.social_row(user)

    @pytest.mark.parametrize("user", [-1, "past-end"])
    def test_cold_user_mask_rejects_out_of_range(self, snapshot, user):
        if user == "past-end":
            user = snapshot.num_users
        with pytest.raises(ValueError, match="out of range"):
            snapshot.cold_user_mask([0, user])

    def test_service_rejects_negative_user(self, snapshot):
        with pytest.raises(ValueError, match="out of range"):
            RecommendService(snapshot).recommend([-1], 5)


class TestIntegrity:
    def test_corrupted_array_raises(self, snapshot, tmp_path):
        store = SnapshotStore(tmp_path)
        version = store.publish(snapshot)
        target = tmp_path / version / "item_emb.bin"
        raw = bytearray(target.read_bytes())
        raw[0] ^= 0xFF
        target.write_bytes(bytes(raw))
        with pytest.raises(SnapshotIntegrityError, match="checksum"):
            store.load_latest()
        # Same-size corruption passes only when validation is skipped.
        store.load_latest(validate=False)

    def test_truncated_array_raises_even_unvalidated(self, snapshot, tmp_path):
        store = SnapshotStore(tmp_path)
        version = store.publish(snapshot)
        target = tmp_path / version / "user_emb.bin"
        target.write_bytes(target.read_bytes()[:-8])
        with pytest.raises(SnapshotIntegrityError, match="bytes"):
            store.load_latest(validate=False)

    def test_missing_array_raises(self, snapshot, tmp_path):
        store = SnapshotStore(tmp_path)
        version = store.publish(snapshot)
        meta_path = tmp_path / version / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["arrays"]["social_indices"]
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(SnapshotIntegrityError, match="social_indices"):
            store.load_latest()

    def test_unknown_format_version_raises(self, snapshot, tmp_path):
        store = SnapshotStore(tmp_path)
        version = store.publish(snapshot)
        meta_path = tmp_path / version / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(SnapshotIntegrityError, match="format"):
            store.load_latest()

    def test_no_half_published_snapshots(self, snapshot, tmp_path):
        store = SnapshotStore(tmp_path)
        store.publish(snapshot)
        leftovers = [p.name for p in tmp_path.iterdir()
                     if p.name.startswith(".staging")]
        assert leftovers == []

    def test_publish_refuses_nan_user_table_and_keeps_latest(
            self, snapshot, tmp_path):
        store = SnapshotStore(tmp_path)
        good = store.publish(snapshot)
        before = sorted(p.name for p in tmp_path.iterdir())
        user_emb = np.array(snapshot.user_emb, copy=True)
        user_emb[3, 0] = np.nan
        bad = dataclasses.replace(snapshot, user_emb=user_emb, version=None)
        with pytest.raises(SnapshotIntegrityError, match="user_emb"):
            store.publish(bad)
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert store.versions() == [good]
        assert store.latest_version() == good
        assert bad.version is None

    def test_publish_refuses_infinite_item_table_on_empty_store(
            self, snapshot, tmp_path):
        store = SnapshotStore(tmp_path)
        item_emb = np.array(snapshot.item_emb, copy=True)
        item_emb[-1, -1] = -np.inf
        bad = dataclasses.replace(snapshot, item_emb=item_emb)
        with pytest.raises(SnapshotIntegrityError, match="item_emb"):
            store.publish(bad)
        assert list(tmp_path.iterdir()) == []
        assert store.latest_version() is None


class TestServingParity:
    def test_memmap_exact_topk_bitwise(self, model, tiny_split, tmp_path):
        snapshot = EmbeddingSnapshot.from_model(model, tiny_split)
        store = SnapshotStore(tmp_path)
        store.publish(snapshot)
        served = store.load_latest()
        service = RecommendService(served, retrieval="exact")
        users = tiny_split.test_users
        expected = full_ranking_topk(model, tiny_split, users=users,
                                     top_n=10)
        np.testing.assert_array_equal(service.recommend(users, 10), expected)

    def test_parity_holds_under_float32(self, tiny_graph, tiny_split,
                                        tmp_path):
        with use_dtype("float32"):
            model = LightGCN(tiny_graph, embed_dim=16, num_layers=2, seed=0)
            snapshot = EmbeddingSnapshot.from_model(model, tiny_split)
            assert snapshot.user_emb.dtype == np.float32
            store = SnapshotStore(tmp_path)
            store.publish(snapshot)
            served = store.load_latest()
            assert served.user_emb.dtype == np.float32
            service = RecommendService(served, retrieval="exact")
            users = tiny_split.test_users
            expected = full_ranking_topk(model, tiny_split, users=users,
                                         top_n=10)
            np.testing.assert_array_equal(service.recommend(users, 10),
                                          expected)

    def test_cold_user_tau_parity(self, tiny_graph, tiny_split, tmp_path):
        # A τ-recalibrated model's snapshot records τ, and the service's
        # cold path scales the friends' mean by 1.5 from the snapshot
        # alone; a new user and a cold dispatched user agree.
        from repro.eval.metrics import top_k_indices
        from repro.models.dgnn import DGNN

        model = DGNN(tiny_graph, embed_dim=8, num_layers=1, seed=0)
        assert model.use_tau
        snapshot = EmbeddingSnapshot.from_model(model, tiny_split)
        assert snapshot.meta["tau"] is True
        store = SnapshotStore(tmp_path)
        store.publish(snapshot)
        served = store.load_latest()
        service = RecommendService(served)
        friends = [0, 3, 7]
        vector = 1.5 * np.asarray(served.user_emb)[friends].mean(axis=0)
        expected = top_k_indices(
            vector[None, :] @ np.asarray(served.item_emb).T, 10)[0]
        np.testing.assert_array_equal(service.recommend_cold_user(friends, 10),
                                      expected)


class TestTrainAndPublish:
    def test_train_and_publish_serves_trained_model(self, tiny_graph,
                                                    tiny_split,
                                                    tiny_candidates,
                                                    tmp_path):
        model = create_model("lightgcn", tiny_graph, embed_dim=8, seed=0)
        config = TrainConfig(epochs=3, batch_size=64, batches_per_epoch=4,
                             propagation="minibatch", fanout=5,
                             eval_every=2, patience=None, seed=0)
        history, version = train_and_publish(model, tiny_split, config,
                                             tiny_candidates,
                                             store=tmp_path / "snapshots")
        assert history.epochs_run == config.epochs
        assert version is not None

        served = SnapshotStore(tmp_path / "snapshots").load_latest()
        user_emb, item_emb = model.final_embeddings()
        np.testing.assert_array_equal(np.asarray(served.user_emb),
                                      np.asarray(user_emb))
        np.testing.assert_array_equal(np.asarray(served.item_emb),
                                      np.asarray(item_emb))
        items = RecommendService(served).recommend(np.arange(4), k=5)
        assert items.shape == (4, 5)
        assert (items >= 0).all()

    def test_train_and_publish_without_store(self, tiny_graph, tiny_split,
                                             tiny_candidates):
        model = create_model("lightgcn", tiny_graph, embed_dim=8, seed=0)
        config = TrainConfig(epochs=1, batch_size=64, batches_per_epoch=2,
                             patience=None, seed=0)
        history, version = train_and_publish(model, tiny_split, config,
                                             tiny_candidates)
        assert history.epochs_run == 1
        assert version is None

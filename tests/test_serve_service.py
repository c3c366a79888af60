"""RecommendService: retrieval modes, masking, cold dispatch, swap."""

import threading
import time

import numpy as np
import pytest

from repro.engine.precision import use_dtype
from repro.eval import full_ranking
from repro.eval.metrics import top_k_indices
from repro.models.lightgcn import LightGCN
from repro.serve import (
    EmbeddingSnapshot,
    RecommendService,
    SnapshotStore,
    cold_user_embedding,
    topk_recall,
)
from repro.serve.snapshot import ARRAY_NAMES


@pytest.fixture(scope="module")
def model(tiny_graph):
    return LightGCN(tiny_graph, embed_dim=16, num_layers=2, seed=0)


@pytest.fixture(scope="module")
def snapshot(model, tiny_split):
    return EmbeddingSnapshot.from_model(model, tiny_split)


def _make_cold(snapshot, user):
    """Copy of ``snapshot`` with ``user``'s train row emptied."""
    arrays = {name: np.array(array) for name, array
              in snapshot.arrays().items()}
    indptr, indices = arrays["train_indptr"], arrays["train_indices"]
    lo, hi = int(indptr[user]), int(indptr[user + 1])
    arrays["train_indices"] = np.delete(indices, np.s_[lo:hi])
    indptr = indptr.copy()
    indptr[user + 1:] -= hi - lo
    arrays["train_indptr"] = indptr
    return EmbeddingSnapshot(meta=dict(snapshot.meta), **arrays)


class TestRetrievalModes:
    @pytest.mark.parametrize("retrieval", ["exact", "ivf"])
    def test_never_returns_train_items(self, snapshot, tiny_split, retrieval):
        service = RecommendService(snapshot, retrieval=retrieval, nprobe=4)
        users = tiny_split.test_users
        top = service.recommend(users, 10)
        assert top.shape == (len(users), 10)
        train = tiny_split.train_matrix().tocsr()
        for row, user in enumerate(users):
            seen = set(train.indices[train.indptr[user]:
                                     train.indptr[user + 1]].tolist())
            assert not seen & set(top[row].tolist())

    @pytest.mark.parametrize("retrieval", ["ivf"])
    def test_ann_recall_reasonable(self, snapshot, tiny_split, retrieval):
        users = tiny_split.test_users
        exact = RecommendService(snapshot).recommend(users, 10)
        approx = RecommendService(snapshot, retrieval=retrieval,
                                  nprobe=8).recommend(users, 10)
        assert topk_recall(approx, exact) >= 0.5

    def test_ann_all_cells_probed_matches_exact(self, snapshot, tiny_split):
        users = tiny_split.test_users
        exact = RecommendService(snapshot).recommend(users, 10)
        service = RecommendService(snapshot, retrieval="ivf", num_cells=6,
                                   nprobe=6)
        np.testing.assert_array_equal(service.recommend(users, 10), exact)

    def test_blocking_invariant(self, snapshot, tiny_split, monkeypatch):
        users = tiny_split.test_users
        services = [RecommendService(snapshot),
                    RecommendService(snapshot, retrieval="ivf", nprobe=4,
                                     num_cells=8)]
        default = [service.recommend(users, 5) for service in services]
        # 7 users per block leaves a ragged last block.
        monkeypatch.setattr(full_ranking, "BLOCK_USERS", 7)
        for service, expected in zip(services, default):
            np.testing.assert_array_equal(service.recommend(users, 5),
                                          expected)

    def test_fallback_covers_thin_buckets(self, snapshot, tiny_split):
        # 250 cells over 250 items: at most one item per cell, so two
        # probes never hold k candidates and every row falls back — and
        # must then equal the exact results.
        users = tiny_split.test_users
        service = RecommendService(snapshot, retrieval="ivf",
                                   num_cells=snapshot.num_items, nprobe=2)
        top = service.recommend(users, 10)
        assert service.stats["fallback_rows"] > 0
        exact = RecommendService(snapshot).recommend(users, 10)
        np.testing.assert_array_equal(top, exact)

    def test_invalid_inputs(self, snapshot):
        service = RecommendService(snapshot)
        with pytest.raises(ValueError, match="retrieval"):
            RecommendService(snapshot, retrieval="annoy")
        with pytest.raises(ValueError, match="out of range"):
            service.recommend([snapshot.num_users], 5)
        with pytest.raises(ValueError, match="positive"):
            service.recommend([0], 0)
        assert service.recommend([], 5).shape == (0, 5)

    @pytest.mark.parametrize("retrieval, kwargs", [
        ("ivf", {"nprobe": 0}),
        ("ivf", {"nprobe": -2}),
    ], ids=["nprobe=0", "nprobe=-2"])
    def test_non_positive_sizes_rejected_at_construction(self, snapshot,
                                                         retrieval, kwargs):
        # Zero sizes used to fail only at request time.
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            RecommendService(snapshot, retrieval=retrieval, **kwargs)


class TestColdDispatch:
    def test_cold_mask_detects_social_only_user(self, snapshot):
        cold_snapshot = _make_cold(snapshot, user=2)
        assert snapshot.social_row(2).size > 0
        mask = cold_snapshot.cold_user_mask(np.array([0, 1, 2, 3]))
        assert mask.tolist() == [False, False, True, False]

    def test_cold_user_scored_from_social_mean(self, snapshot):
        cold_snapshot = _make_cold(snapshot, user=2)
        service = RecommendService(cold_snapshot)
        top = service.recommend(np.array([2, 5]), 10)
        assert service.stats["cold_users"] == 1
        vector = cold_user_embedding(cold_snapshot, cold_snapshot.social_row(2))
        expected = np.argsort(-(cold_snapshot.item_emb @ vector),
                              kind="stable")[:10]
        np.testing.assert_array_equal(top[0], expected)

    def test_tau_scaling_applied(self, snapshot):
        friends = np.array([0, 1])
        plain = cold_user_embedding(snapshot, friends)
        arrays = {name: np.array(a) for name, a in snapshot.arrays().items()}
        tau_snapshot = EmbeddingSnapshot(meta={"tau": True}, **arrays)
        scaled = cold_user_embedding(tau_snapshot, friends)
        np.testing.assert_allclose(scaled, plain * 1.5, rtol=1e-12)

    def test_cold_user_needs_friends(self, snapshot):
        with pytest.raises(ValueError, match="social tie"):
            cold_user_embedding(snapshot, [])


class TestSwap:
    def test_swap_serves_new_snapshot(self, model, tiny_split, tmp_path):
        snapshot = EmbeddingSnapshot.from_model(model, tiny_split)
        store = SnapshotStore(tmp_path)
        store.publish(snapshot)
        service = RecommendService(store.load_latest(), retrieval="ivf",
                                   nprobe=4)
        assert service.refresh(store) is False

        other = LightGCN(model.graph, embed_dim=16, num_layers=2, seed=9)
        store.publish(EmbeddingSnapshot.from_model(other, tiny_split))
        assert service.refresh(store) is True
        assert service.snapshot.version == "v000002"
        assert service.stats["swaps"] == 1
        fresh = RecommendService(store.load_latest(), retrieval="ivf",
                                 nprobe=4)
        users = tiny_split.test_users
        np.testing.assert_array_equal(service.recommend(users, 10),
                                      fresh.recommend(users, 10))


    def test_cold_answers_follow_the_swap(self, model, tiny_split):
        # Cold users are embedded from the served snapshot alone, so
        # after a swap they are answered from the new one.
        old = _make_cold(EmbeddingSnapshot.from_model(model, tiny_split), 2)
        other = LightGCN(model.graph, embed_dim=16, num_layers=2, seed=9)
        new = _make_cold(EmbeddingSnapshot.from_model(other, tiny_split), 2)
        service = RecommendService(old)
        service.swap(new)
        friends = new.social_row(2)
        vector = cold_user_embedding(new, friends)
        expected = top_k_indices(
            vector[None, :] @ np.asarray(new.item_emb).T, 10)[0]
        np.testing.assert_array_equal(service.recommend([2], 10)[0], expected)
        np.testing.assert_array_equal(service.recommend_cold_user(friends, 10),
                                      expected)
        assert service.stats["cold_users"] == 1


class _YieldingDict(dict):
    """A dict that gives up the GIL between reading and writing a key.

    CPython rarely switches threads inside ``d[k] += n``; yielding in
    ``__getitem__`` opens that window wide, so an unlocked
    read-modify-write loses updates almost every run.
    """

    def __getitem__(self, key):
        value = super().__getitem__(key)
        time.sleep(0)
        return value


class TestStats:
    def test_concurrent_callers_count_exactly(self, snapshot):
        service = RecommendService(snapshot)
        service.stats = _YieldingDict(service.stats)
        threads, calls, batch = 8, 200, 3
        start = threading.Barrier(threads)

        def caller(seed):
            users = np.random.default_rng(seed).integers(
                0, snapshot.num_users, size=(calls, batch))
            start.wait()
            for row in users:
                service.recommend(row, 5)

        workers = [threading.Thread(target=caller, args=(seed,))
                   for seed in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert service.stats["requests"] == threads * calls
        assert service.stats["users"] == threads * calls * batch


class TestDtypeDiscipline:
    @pytest.mark.parametrize("retrieval", ["exact", "ivf"])
    def test_serving_hot_path_leak_free_float32(self, tiny_dataset,
                                                tiny_split, tmp_path,
                                                retrieval):
        from tests.oracles.dtypecheck import detect_leaks
        from repro.graph import CollaborativeHeteroGraph

        with use_dtype("float32"):
            # The graph must be (re)built inside the dtype context: its
            # normalized adjacencies carry the ambient dtype.
            graph = CollaborativeHeteroGraph(tiny_dataset,
                                             tiny_split.train_pairs)
            with detect_leaks():
                model = LightGCN(graph, embed_dim=16, num_layers=2,
                                 seed=0)
                snapshot = EmbeddingSnapshot.from_model(model, tiny_split)
                store = SnapshotStore(tmp_path)
                store.publish(snapshot)
                served = store.load_latest()
                service = RecommendService(served, retrieval=retrieval,
                                           nprobe=4)
                top = service.recommend(tiny_split.test_users, 10)
            assert served.user_emb.dtype == np.float32
            assert top.shape == (len(tiny_split.test_users), 10)


class TestTopkRecall:
    def test_identical_is_one(self):
        top = np.array([[1, 2, 3], [4, 5, 6]])
        assert topk_recall(top, top) == 1.0

    def test_disjoint_is_zero(self):
        assert topk_recall(np.array([[1, 2]]), np.array([[3, 4]])) == 0.0

    def test_partial_overlap(self):
        approx = np.array([[1, 2, 9], [7, 8, 6]])
        exact = np.array([[1, 2, 3], [4, 5, 6]])
        assert topk_recall(approx, exact) == pytest.approx(3 / 6)

    def test_order_within_k_irrelevant(self):
        approx = np.array([[3, 1, 2]])
        exact = np.array([[1, 2, 3]])
        assert topk_recall(approx, exact) == 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            topk_recall(np.zeros((2, 3), dtype=int), np.zeros((2, 4), dtype=int))

"""Row-blocked scoring: candidate dots, pair dots and top-k selection.

``Recommender.score_candidates``, ``Recommender.score_pairs`` and
``top_k_indices`` walk their rows in blocks sized by one byte budget
(``repro.eval.metrics._BLOCK_BYTES``).  Each output row keeps its own
arithmetic, so any block size gives the bytes of a single-shot call;
and no temporary grows with rows x candidates, so peak memory is the
output plus about one block.
"""

import tracemalloc

import numpy as np
import pytest

from repro.engine import backends
from repro.engine.precision import use_dtype
from repro.eval import metrics
from repro.eval.metrics import block_rows, top_k_indices
from repro.models.mf import BprMF

DTYPES = ("float32", "float64")


def _same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _blocked_and_single(monkeypatch, call, row_bytes, rows_per_block=7):
    """``call()`` with blocks of ``rows_per_block`` rows, then in one block."""
    monkeypatch.setattr(metrics, "_BLOCK_BYTES", rows_per_block * row_bytes)
    blocked = call()
    monkeypatch.setattr(metrics, "_BLOCK_BYTES", 1 << 62)
    return blocked, call()


@pytest.fixture(params=DTYPES)
def model(request, tiny_graph):
    with use_dtype(request.param):
        mf = BprMF(tiny_graph, embed_dim=5, seed=3)
        mf.final_embeddings()
    return mf


class TestBlockRows:
    def test_rows_that_fit_the_budget(self, monkeypatch):
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 100)
        assert block_rows(10) == 10
        assert block_rows(30) == 3

    def test_at_least_one_row(self, monkeypatch):
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 100)
        assert block_rows(10 ** 9) == 1
        assert block_rows(0) == 100


class TestScoreCandidates:
    def test_blocked_bitwise_equal_to_single_shot(self, model, monkeypatch):
        rng = np.random.default_rng(0)
        users = rng.integers(0, model.graph.num_users, 45)
        items = rng.integers(0, model.graph.num_items, (45, 11))
        row_bytes = 11 * (2 * 5 * model.final_embeddings()[0].itemsize + 8)
        blocked, single = _blocked_and_single(
            monkeypatch, lambda: model.score_candidates(users, items),
            row_bytes)
        _same_bytes(blocked, single)
        # 45 rows at 7 a block: six full blocks and a ragged one of 3.
        user_emb, item_emb = model.final_embeddings()
        np.testing.assert_allclose(
            blocked, np.einsum("nd,ncd->nc", user_emb[users], item_emb[items]),
            rtol=1e-5)

    def test_zero_users(self, model):
        scores = model.score_candidates(np.zeros(0, np.int64),
                                        np.zeros((0, 4), np.int64))
        assert scores.shape == (0, 4)
        assert scores.dtype == model.final_embeddings()[0].dtype

    def test_negative_ids_raise(self, model):
        with pytest.raises(ValueError, match="user ids out of range"):
            model.score_candidates(np.array([-1]), np.array([[0, 1]]))
        with pytest.raises(ValueError, match="item ids out of range"):
            model.score_candidates(np.array([0]), np.array([[0, -1]]))

    def test_ids_past_the_end_raise(self, model):
        with pytest.raises(ValueError, match="user ids out of range"):
            model.score_candidates(np.array([model.graph.num_users]),
                                   np.array([[0]]))
        with pytest.raises(ValueError, match="item ids out of range"):
            model.score_candidates(np.array([0]),
                                   np.array([[model.graph.num_items]]))

    def test_shape_mismatch_raises(self, model):
        with pytest.raises(ValueError, match="expected users"):
            model.score_candidates(np.array([0, 1]), np.array([[0, 1]]))
        with pytest.raises(ValueError, match="expected users"):
            model.score_candidates(np.array([0, 1]), np.array([0, 1]))


class TestScorePairs:
    def test_blocked_bitwise_equal_to_single_shot(self, model, monkeypatch):
        rng = np.random.default_rng(1)
        users = rng.integers(0, model.graph.num_users, 103)
        items = rng.integers(0, model.graph.num_items, 103)
        blocked, single = _blocked_and_single(
            monkeypatch, lambda: model.score_pairs(users, items),
            2 * 5 * model.final_embeddings()[0].itemsize + 8,
            rows_per_block=10)
        _same_bytes(blocked, single)
        # ... and to one kernel call over every pair.
        user_emb, item_emb = model.final_embeddings()
        _same_bytes(blocked, backends.gathered_rowwise_dot(user_emb, users,
                                                           item_emb, items))

    def test_zero_pairs(self, model):
        assert model.score_pairs(np.zeros(0, np.int64),
                                 np.zeros(0, np.int64)).shape == (0,)

    def test_negative_ids_raise(self, model):
        with pytest.raises(ValueError, match="user ids out of range"):
            model.score_pairs(np.array([-1]), np.array([0]))
        with pytest.raises(ValueError, match="item ids out of range"):
            model.score_pairs(np.array([0]), np.array([-1]))

    def test_length_mismatch_raises(self, model):
        with pytest.raises(ValueError, match="expected"):
            model.score_pairs(np.array([0, 1, 2]), np.array([0, 1]))
        with pytest.raises(ValueError, match="expected"):
            model.score_pairs(np.array([[0, 1]]), np.array([[0, 1]]))


class TestTopKBlocks:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("k", [1, 4, 30, 31, 50])
    def test_blocked_bitwise_equal_to_single_shot(self, dtype, k,
                                                  monkeypatch):
        rng = np.random.default_rng(2)
        # Coarse values tie often; the first 8 columns tie on every row,
        # so ties straddle k = 4 and k = 1.  k >= 31 selects every column.
        scores = np.round(rng.standard_normal((40, 31)), 1).astype(dtype)
        scores[:, :8] = scores[:, :1]
        row_bytes = 31 * (scores.itemsize + np.dtype(np.intp).itemsize)
        blocked, single = _blocked_and_single(
            monkeypatch, lambda: top_k_indices(scores, k), row_bytes,
            rows_per_block=3)
        _same_bytes(blocked, single)
        assert blocked.shape == (40, min(k, 31))
        # Row-wise selection equals selecting each row on its own.
        for row in (0, 17, 39):
            _same_bytes(blocked[row], top_k_indices(scores[row], k))

    def test_zero_rows(self):
        top = top_k_indices(np.zeros((0, 9), np.float32), 3)
        assert top.shape == (0, 3)

    def test_leading_axes_kept(self, monkeypatch):
        rng = np.random.default_rng(3)
        scores = rng.standard_normal((4, 5, 12))
        blocked, single = _blocked_and_single(
            monkeypatch, lambda: top_k_indices(scores, 3), 12 * 16,
            rows_per_block=3)
        _same_bytes(blocked, single)
        assert blocked.shape == (4, 5, 3)
        _same_bytes(blocked[2, 1], top_k_indices(scores[2, 1], 3))


def _peak_bytes(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestScoringPeakMemory:
    """Peak traced allocation is the output plus about one block, where a
    single-shot call holds users x candidates x d operands."""

    def test_score_candidates(self, tiny_graph):
        with use_dtype("float64"):
            mf = BprMF(tiny_graph, embed_dim=48, seed=0)
            mf.final_embeddings()
        rng = np.random.default_rng(4)
        users = rng.integers(0, tiny_graph.num_users, 2000)
        items = rng.integers(0, tiny_graph.num_items, (2000, 101))
        scores, peak = _peak_bytes(lambda: mf.score_candidates(users, items))
        assert scores.nbytes == 2000 * 101 * 8
        # A single-shot call peaks near 151 MB here.
        assert peak < scores.nbytes + 2 * metrics._BLOCK_BYTES

    def test_top_k_indices(self):
        scores = np.random.default_rng(5).standard_normal(
            (256, 12000)).astype(np.float32)
        top, peak = _peak_bytes(lambda: top_k_indices(scores, 20))
        # A single-shot call peaks near 35 MB here.
        assert peak < top.nbytes + 2 * metrics._BLOCK_BYTES

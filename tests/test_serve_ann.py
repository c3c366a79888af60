"""ANN coarse indexes: partition correctness, probing, recall sanity."""

import numpy as np
import pytest

from repro.eval.metrics import top_k_indices
from repro.serve.ann import _kmeans, build_ivf_index
from tests.oracles import use_kernels


@pytest.fixture(scope="module")
def item_emb():
    rng = np.random.default_rng(11)
    # Clustered embeddings — the geometry IVF exploits.
    centers = rng.standard_normal((12, 8)) * 3.0
    members = centers[rng.integers(0, 12, size=500)]
    return (members + rng.standard_normal((500, 8)) * 0.4).astype(np.float64)


class TestIvf:
    def test_cells_partition_items(self, item_emb):
        index = build_ivf_index(item_emb, num_cells=20, seed=0)
        assert index.kind == "ivf"
        assert index.num_items == len(item_emb)
        np.testing.assert_array_equal(np.sort(index.grouped_ids),
                                      np.arange(len(item_emb)))
        assert index.indptr[0] == 0
        assert index.indptr[-1] == len(item_emb)
        np.testing.assert_array_equal(np.diff(index.indptr),
                                      index.cell_sizes())

    def test_grouped_embeddings_match_items(self, item_emb):
        index = build_ivf_index(item_emb, num_cells=20, seed=0)
        np.testing.assert_array_equal(index.grouped_emb,
                                      item_emb[index.grouped_ids])
        assert index.grouped_emb.flags["C_CONTIGUOUS"]

    def test_build_deterministic(self, item_emb):
        a = build_ivf_index(item_emb, num_cells=16, seed=3)
        b = build_ivf_index(item_emb, num_cells=16, seed=3)
        np.testing.assert_array_equal(a.grouped_ids, b.grouped_ids)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_no_empty_cells_on_clustered_data(self, item_emb):
        index = build_ivf_index(item_emb, num_cells=10, seed=0)
        assert (index.cell_sizes() > 0).all()

    def test_default_num_cells_sqrt(self, item_emb):
        index = build_ivf_index(item_emb, seed=0)
        assert index.num_cells == int(round(np.sqrt(len(item_emb))))

    def test_probe_shape_and_range(self, item_emb):
        index = build_ivf_index(item_emb, num_cells=20, seed=0)
        rng = np.random.default_rng(0)
        queries = rng.standard_normal((7, item_emb.shape[1]))
        cells = index.probe(queries, nprobe=5)
        assert cells.shape == (7, 5)
        assert (cells >= 0).all() and (cells < index.num_cells).all()
        # Probed cells are distinct per query.
        for row in cells:
            assert len(set(row.tolist())) == len(row)

    def test_probe_all_cells_recovers_exact_topk(self, item_emb):
        index = build_ivf_index(item_emb, num_cells=8, seed=0)
        rng = np.random.default_rng(1)
        query = rng.standard_normal(item_emb.shape[1])
        exact = top_k_indices(item_emb @ query, 10)
        cells = index.probe(query, nprobe=index.num_cells)[0]
        candidates = np.concatenate([
            index.grouped_ids[index.indptr[c]:index.indptr[c + 1]]
            for c in cells])
        scores = item_emb[candidates] @ query
        approx = candidates[top_k_indices(scores, 10)]
        np.testing.assert_array_equal(np.sort(approx), np.sort(exact))

    def test_clustered_recall_beats_random_baseline(self, item_emb):
        index = build_ivf_index(item_emb, num_cells=12, seed=0)
        rng = np.random.default_rng(2)
        # Query near a cluster center: its neighbours share the cell.
        query = item_emb[17]
        exact = set(top_k_indices(item_emb @ query, 10).tolist())
        cells = index.probe(query, nprobe=3)[0]
        probed = set()
        for c in cells:
            probed.update(index.grouped_ids[index.indptr[c]:
                                            index.indptr[c + 1]].tolist())
        recall = len(exact & probed) / len(exact)
        assert recall >= 0.8



def _add_at_segment_sum(values, segment_ids, num_segments):
    sums = np.zeros((num_segments,) + values.shape[1:], values.dtype)
    np.add.at(sums, segment_ids, values)
    return sums


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_kmeans_bitwise_equal_to_add_at_sums(dtype):
    # ``large``-shaped: 12k items with DGNN's 48-wide (d=16, L=2 concat)
    # final embeddings and the default sqrt(n) cells.
    rng = np.random.default_rng(5)
    centers = rng.standard_normal((40, 48)) * 2.0
    emb = (centers[rng.integers(0, 40, size=12_000)]
           + rng.standard_normal((12_000, 48))).astype(dtype)
    cells = int(round(np.sqrt(len(emb))))
    with use_kernels({"segment_sum": _add_at_segment_sum}):
        expected = _kmeans(emb, cells, 10, np.random.default_rng(0))
    centroids, assign = _kmeans(emb, cells, 10, np.random.default_rng(0))
    assert centroids.tobytes() == expected[0].tobytes()
    assert assign.tobytes() == expected[1].tobytes()

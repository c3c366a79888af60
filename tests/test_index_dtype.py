"""Engine index-dtype policy: overflow guard, canonicalization, parity.

Three layers of coverage:

* policy mechanics — ``int32`` default, ``int64`` opt-up, and the
  overflow guard that forces ``int64`` for domains of ``2**31`` or more
  regardless of policy;
* adjacency canonicalization — ``as_csr64`` / ``assert_csr64`` coerce
  and enforce the policy index dtype on CSR ``indices``/``indptr``
  (including the regression where scipy's constructor silently
  downcasts int64 index arrays back to int32);
* parity — sampled :class:`SubgraphView` adjacencies and
  :class:`RowSparseGrad` carriers built under ``int32`` are bitwise
  identical to their ``int64`` counterparts at the medium preset.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd.sparse import RowSparseGrad
from repro.data.split import leave_one_out
from repro.data.synthetic import medium
from repro.engine.precision import (
    INT32_LIMIT,
    as_index_array,
    get_index_dtype,
    index_dtype_for,
    set_index_dtype,
    use_index_dtype,
)
from repro.graph import CollaborativeHeteroGraph
from repro.engine.adjcache import cached_transpose
from repro.graph.adjacency import as_csr64, assert_csr64
from repro.graph.sampling import sample_subgraph_view


@pytest.fixture(scope="module")
def medium_data():
    dataset = medium(0)
    return dataset, leave_one_out(dataset, seed=0)


class TestPolicyMechanics:
    def test_default_is_int32(self):
        assert get_index_dtype() == np.dtype(np.int32)

    def test_set_index_dtype_roundtrip(self):
        previous = get_index_dtype()
        try:
            assert set_index_dtype("int64") == np.dtype(np.int64)
            assert get_index_dtype() == np.dtype(np.int64)
        finally:
            set_index_dtype(previous)

    def test_use_index_dtype_restores_on_exit(self):
        before = get_index_dtype()
        with use_index_dtype("int64") as active:
            assert active == np.dtype(np.int64)
        assert get_index_dtype() == before

    @pytest.mark.parametrize("bad", ["int16", "uint32", "float32"])
    def test_non_engine_index_dtypes_rejected(self, bad):
        with pytest.raises(ValueError):
            set_index_dtype(bad)

    def test_overflow_guard_forces_int64(self):
        assert index_dtype_for(INT32_LIMIT - 1) == np.dtype(np.int32)
        assert index_dtype_for(INT32_LIMIT) == np.dtype(np.int64)
        assert index_dtype_for(2 ** 40) == np.dtype(np.int64)

    def test_overflow_guard_overrides_policy(self):
        with use_index_dtype("int32"):
            assert index_dtype_for(INT32_LIMIT) == np.dtype(np.int64)

    def test_as_index_array_follows_policy(self):
        assert as_index_array([1, 2, 3], 100).dtype == np.int32
        with use_index_dtype("int64"):
            assert as_index_array([1, 2, 3], 100).dtype == np.int64
        assert as_index_array([0], INT32_LIMIT).dtype == np.int64

    def test_as_index_array_no_copy_when_dtype_matches(self):
        values = np.arange(10, dtype=index_dtype_for(100))
        assert as_index_array(values, 100) is values


class TestAdjacencyCanonicalization:
    def _matrix(self):
        return sp.random(50, 40, density=0.1, format="csr",
                         random_state=np.random.RandomState(0))

    def test_as_csr64_default_int32(self):
        canonical = as_csr64(self._matrix())
        assert canonical.indices.dtype == np.int32
        assert canonical.indptr.dtype == np.int32
        assert_csr64(canonical)

    def test_as_csr64_honours_int64_policy(self):
        """Regression: scipy's CSR constructor downcasts fitting int64
        index arrays back to int32, which must not undo the policy."""
        with use_index_dtype("int64"):
            canonical = as_csr64(self._matrix())
            assert canonical.indices.dtype == np.int64
            assert canonical.indptr.dtype == np.int64
            assert_csr64(canonical)

    @pytest.mark.parametrize("index_dtype", ["int32", "int64"])
    def test_cached_transpose_keeps_policy(self, index_dtype):
        """Regression: the transpose memo used scipy's constructor, which
        downcast int64 indices back to int32."""
        with use_index_dtype(index_dtype):
            canonical = as_csr64(self._matrix())
            transpose = cached_transpose(canonical)
            assert transpose.indices.dtype == np.dtype(index_dtype)
            assert transpose.indptr.dtype == np.dtype(index_dtype)
            assert transpose.has_sorted_indices
            assert_csr64(transpose)
            np.testing.assert_array_equal(transpose.toarray(),
                                          canonical.toarray().T)

    def test_assert_csr64_rejects_wrong_index_dtype(self):
        with use_index_dtype("int64"):
            canonical = as_csr64(self._matrix())
        # Back under the int32 default the same matrix is non-canonical.
        with pytest.raises(TypeError, match="indices/indptr"):
            assert_csr64(canonical)

    def test_hetero_graph_matrices_follow_policy(self, medium_data):
        dataset, split = medium_data
        graph = CollaborativeHeteroGraph(dataset, split.train_pairs)
        for name in ("interaction", "social", "item_relation"):
            matrix = getattr(graph, name)
            assert matrix.indices.dtype == np.int32, name
            assert matrix.indptr.dtype == np.int32, name


# SubgraphView adjacencies a DGNN layer stack touches, plus a baseline's.
_VIEWS = ("user_social_joint", "user_item_joint", "item_user_joint",
          "item_relation_joint", "relation_item_mean", "user_item_mean")


def _sampled_views(dataset, split, index_dtype):
    with use_index_dtype(index_dtype):
        graph = CollaborativeHeteroGraph(dataset, split.train_pairs)
        seeds = split.train_pairs[:32]
        view = sample_subgraph_view(graph, seeds[:, 0], seeds[:, 1],
                                    hops=2, fanout=10, seed=3)
        return view, {name: getattr(view, name) for name in _VIEWS}


class TestInt32Int64Parity:
    def test_subgraph_view_bitwise_parity_at_medium(self, medium_data):
        dataset, split = medium_data
        view32, mats32 = _sampled_views(dataset, split, "int32")
        view64, mats64 = _sampled_views(dataset, split, "int64")
        assert np.array_equal(view32.user_ids, view64.user_ids)
        assert np.array_equal(view32.item_ids, view64.item_ids)
        for name in _VIEWS:
            m32, m64 = mats32[name], mats64[name]
            assert m32.shape == m64.shape, name
            # Same structure, same values, same in-row order — bitwise.
            assert np.array_equal(m32.indptr, m64.indptr.astype(np.int32)), name
            assert np.array_equal(m32.indices, m64.indices.astype(np.int32)), name
            assert np.array_equal(m32.data, m64.data), name

    def test_row_sparse_grad_bitwise_parity(self):
        rng = np.random.default_rng(11)
        rows = rng.integers(0, 500, size=256)  # duplicates guaranteed
        values = rng.standard_normal((256, 8))
        with use_index_dtype("int32"):
            grad32 = RowSparseGrad(rows, values, num_rows=500)
        with use_index_dtype("int64"):
            grad64 = RowSparseGrad(rows, values, num_rows=500)
        assert grad32.rows.dtype == np.int32
        assert grad64.rows.dtype == np.int64
        assert np.array_equal(grad32.rows, grad64.rows.astype(np.int32))
        assert np.array_equal(grad32.values, grad64.values)
        assert np.array_equal(grad32.to_dense(), grad64.to_dense())

    def test_row_sparse_grad_overflow_guard(self):
        """Tables at or past ``2**31`` rows get int64 carriers even under
        the int32 default (no dense materialization — just the dtype)."""
        grad = RowSparseGrad([0, 5], np.ones((2, 4)), num_rows=INT32_LIMIT)
        assert grad.rows.dtype == np.int64
        small = RowSparseGrad([0, 5], np.ones((2, 4)), num_rows=100)
        assert small.rows.dtype == np.int32

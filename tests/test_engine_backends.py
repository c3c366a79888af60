"""Parity suite: the engine's kernels must match the naive loop oracle.

Three levels: raw kernels (forward values), autograd ops built on them
(gradients, including finite-difference checks), and end-to-end models
(final embeddings, loss values and one full Adam step for DGNN plus four
baselines).  ``"naive"`` runs a case on :mod:`tests.oracles.naive`
swapped into the engine's kernel table, ``"fast"`` on the engine's own
kernels; the seam-liveness tests check that the swap reaches the ops.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import Tensor, gradcheck, no_grad, ops
from repro.engine import backends, instrument, tolerances
from repro.models import create_model
from repro.nn.optim import Adam
from tests.oracles import KERNEL_SETS, use_kernel_set, use_kernels

PARITY_MODELS = ("dgnn", "lightgcn", "ngcf", "diffnet", "mhcn")


def _parity_atol():
    """Naive-vs-fast disagreement is pure accumulation-order noise, so the
    bar scales with the active engine precision: 1e-8 under the default
    float64, the policy atol (1e-4) under the float32 CI leg."""
    return max(1e-8, tolerances().atol)


def _random_csr(rng, rows, cols, density=0.2):
    matrix = sp.random(rows, cols, density=density, format="csr",
                       random_state=np.random.RandomState(int(rng.integers(2**31))))
    return sp.csr_matrix(matrix, dtype=np.float64)


class TestSeamLiveness:
    """A kernel swapped into the table must reach the ops, then go away.

    Were a caller to bind a kernel at import time, every naive-vs-fast
    case below would silently compare the engine kernels with
    themselves; these deliberately wrong kernels would go unseen.
    """

    def test_swapped_spmm_reaches_ops_and_is_restored(self, rng):
        matrix = _random_csr(rng, 6, 4)
        dense = Tensor(rng.normal(size=(4, 3)))
        expected = matrix @ dense.data
        assert np.abs(expected).max() > 0

        def zeros_spmm(matrix, dense):
            return np.zeros((matrix.shape[0],) + dense.shape[1:])

        with use_kernels({"spmm": zeros_spmm}):
            np.testing.assert_array_equal(ops.spmm(matrix, dense).data, 0.0)
        np.testing.assert_allclose(ops.spmm(matrix, dense).data, expected,
                                   atol=1e-12)

    def test_swapped_memory_mixture_reaches_ops_and_is_restored(self, rng):
        emb, gates = rng.normal(size=(5, 3)), rng.normal(size=(5, 2))
        transforms = rng.normal(size=(2, 3, 3))
        inputs = [Tensor(emb), Tensor(gates), Tensor(transforms)]
        expected = ops.memory_mixture(*inputs).data
        engine_mixture = backends._KERNELS["memory_mixture"]

        def doubled(*args, **kwargs):
            return 2.0 * engine_mixture(*args, **kwargs)

        with use_kernels({"memory_mixture": doubled}):
            np.testing.assert_allclose(ops.memory_mixture(*inputs).data,
                                       2.0 * expected, atol=1e-12)
        assert backends._KERNELS["memory_mixture"] is engine_mixture
        np.testing.assert_array_equal(ops.memory_mixture(*inputs).data,
                                      expected)

    def test_table_restored_when_the_block_raises(self):
        before = backends._KERNELS
        with pytest.raises(RuntimeError):
            with use_kernel_set("naive"):
                assert backends._KERNELS is not before
                raise RuntimeError
        assert backends._KERNELS is before


class TestKernelParity:
    def test_spmm_forward_parity(self, rng):
        matrix = _random_csr(rng, 17, 11)
        dense = rng.normal(size=(11, 5))
        outputs = {}
        for name in KERNEL_SETS:
            with use_kernel_set(name):
                outputs[name] = backends.spmm(matrix, dense)
        np.testing.assert_allclose(outputs["naive"], outputs["fast"],
                                   atol=1e-12)

    def test_gathered_rowwise_dot_parity(self, rng):
        a = rng.normal(size=(9, 6))
        b = rng.normal(size=(13, 6))
        ai = rng.integers(0, 9, size=25).astype(np.int64)
        bi = rng.integers(0, 13, size=25).astype(np.int64)
        outputs = {}
        for name in KERNEL_SETS:
            with use_kernel_set(name):
                outputs[name] = backends.gathered_rowwise_dot(a, ai, b, bi)
        expected = np.sum(a[ai] * b[bi], axis=1)
        for name in KERNEL_SETS:
            np.testing.assert_allclose(outputs[name], expected, atol=1e-12,
                                       err_msg=name)

    def test_segment_reductions_parity(self, rng):
        values = rng.normal(size=(20, 4))
        ids = rng.integers(0, 6, size=20).astype(np.int64)
        outputs = {}
        for name in KERNEL_SETS:
            with use_kernel_set(name):
                outputs[name] = backends.segment_sum(values, ids, 6)
        np.testing.assert_allclose(outputs["naive"], outputs["fast"],
                                   atol=1e-12)


def _add_at(values, indices, num_rows):
    out = np.zeros((num_rows,) + values.shape[indices.ndim:], values.dtype)
    np.add.at(out, indices, values)
    return out


def _scatter_cases(value_dtype, index_dtype, count=25):
    """Random scatters with duplicates, plus an empty and a 1-D batch."""
    rng = np.random.default_rng(17)
    cases = [(np.zeros((0, 4), value_dtype), np.zeros(0, index_dtype), 5),
             (rng.normal(size=40).astype(value_dtype),
              rng.integers(0, 7, 40).astype(index_dtype), 7)]
    for _ in range(count):
        rows = int(rng.integers(1, 300))
        batch = int(rng.integers(1, 2000))
        width = int(rng.integers(1, 40))
        # Values spanning many magnitudes make any reordering of a row's
        # sum show up in the low bits.
        values = (rng.normal(size=(batch, width))
                  * 10.0 ** rng.uniform(-4, 4, size=(batch, width)))
        cases.append((values.astype(value_dtype),
                      rng.integers(0, rows, batch).astype(index_dtype), rows))
    return cases


class TestOneHotScatter:
    """``scatter_add_rows`` and ``segment_sum`` run as a one-hot sparse
    product whose rows list their positions in batch order, so every
    output row sums in ``np.add.at``'s order: equal byte for byte."""

    @pytest.mark.parametrize("kernel", ["scatter_add_rows", "segment_sum"])
    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("value_dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_add_at(self, kernel, value_dtype, index_dtype):
        for values, indices, rows in _scatter_cases(value_dtype, index_dtype):
            got = getattr(backends, kernel)(values, indices, rows)
            expected = _add_at(values, indices, rows)
            assert got.dtype == expected.dtype
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    def test_multi_axis_indices_and_trailing_axes(self, rng):
        values = rng.normal(size=(6, 5, 3, 2))
        indices = rng.integers(0, 4, size=(6, 5))
        got = backends.scatter_add_rows(values, indices, 4)
        assert got.tobytes() == _add_at(values, indices, 4).tobytes()

    def test_bitwise_under_spmm_blocking(self):
        # Sorted, duplicate-heavy runs large enough for the blocked spmm
        # to take the one-hot product.
        from repro.engine import locality, use_spmm_block

        rng = np.random.default_rng(3)
        batch = locality.MIN_BLOCKED_NNZ + 4000
        indices = np.sort(rng.integers(0, 500, batch))
        values = rng.normal(size=(batch, 8)) * 10.0 ** rng.uniform(
            -4, 4, size=(batch, 8))
        with use_spmm_block("auto"):
            got = backends.scatter_add_rows(values, indices, 500)
        assert got.tobytes() == _add_at(values, indices, 500).tobytes()

    def test_counts_one_scatter_call_and_no_spmm(self, rng):
        values = rng.normal(size=(30, 4))
        indices = rng.integers(0, 9, 30)
        with instrument.track() as used:
            backends.scatter_add_rows(values, indices, 9)
            backends.segment_sum(values, indices, 9)
        assert used["calls.scatter_add_rows"] == 1
        assert used["calls.segment_sum"] == 1
        assert not used.get("calls.spmm")

    @pytest.mark.parametrize("bad", [-1, 9])
    def test_rejects_out_of_range_index(self, bad, rng):
        indices = np.array([0, bad, 3])
        with pytest.raises(IndexError):
            backends.scatter_add_rows(rng.normal(size=(3, 2)), indices, 9)


class TestOpGradParity:
    @pytest.mark.parametrize("kernel_set", KERNEL_SETS)
    def test_spmm_gradcheck(self, kernel_set, rng):
        matrix = _random_csr(rng, 7, 5)
        dense = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        with use_kernel_set(kernel_set):
            assert gradcheck(lambda d: ops.sum(ops.spmm(matrix, d)), [dense])

    @pytest.mark.parametrize("kernel_set", KERNEL_SETS)
    def test_gathered_rowwise_dot_gradcheck(self, kernel_set, rng):
        a = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
        ai = rng.integers(0, 6, size=10).astype(np.int64)
        bi = rng.integers(0, 8, size=10).astype(np.int64)
        with use_kernel_set(kernel_set):
            assert gradcheck(
                lambda x, y: ops.sum(ops.gathered_rowwise_dot(x, y, ai, bi)),
                [a, b])

    def test_gathered_rowwise_dot_squared_norm(self, rng):
        emb = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        idx = np.array([0, 2, 4], dtype=np.int64)
        out = ops.gathered_rowwise_dot(emb, emb, idx, idx)
        np.testing.assert_allclose(out.data,
                                   np.sum(emb.data[idx] ** 2, axis=1),
                                   atol=1e-12)
        ops.sum(out).backward()
        expected = np.zeros_like(emb.data)
        expected[idx] = 2.0 * emb.data[idx]
        np.testing.assert_allclose(emb.grad, expected, atol=1e-12)

    def test_spmm_grad_parity_across_backends(self, rng):
        matrix = _random_csr(rng, 12, 9)
        values = rng.normal(size=(9, 4))
        grads = {}
        for name in KERNEL_SETS:
            dense = Tensor(values.copy(), requires_grad=True)
            with use_kernel_set(name):
                ops.sum(ops.spmm(matrix, dense)).backward()
            grads[name] = dense.grad
        np.testing.assert_allclose(grads["naive"], grads["fast"], atol=1e-12)


def _batch(graph, rng, size=12):
    return (rng.integers(0, graph.num_users, size).astype(np.int64),
            rng.integers(0, graph.num_items, size).astype(np.int64),
            rng.integers(0, graph.num_items, size).astype(np.int64))


class TestModelParity:
    """Final embeddings, loss and one Adam step agree across kernel sets."""

    @pytest.mark.parametrize("model_name", PARITY_MODELS)
    def test_final_embeddings_parity(self, model_name, tiny_graph):
        embeddings = {}
        for kernel_set in KERNEL_SETS:
            with use_kernel_set(kernel_set):
                model = create_model(model_name, tiny_graph, embed_dim=8, seed=0)
                with no_grad():
                    users, items = model.propagate()
                embeddings[kernel_set] = (users.data.copy(),
                                          items.data.copy())
        for side in (0, 1):
            np.testing.assert_allclose(embeddings["naive"][side],
                                       embeddings["fast"][side],
                                       atol=_parity_atol())

    @pytest.mark.parametrize("model_name", PARITY_MODELS)
    def test_one_training_step_parity(self, model_name, tiny_graph):
        snapshots = {}
        for kernel_set in KERNEL_SETS:
            rng = np.random.default_rng(3)
            users, positives, negatives = _batch(tiny_graph, rng)
            with use_kernel_set(kernel_set):
                model = create_model(model_name, tiny_graph, embed_dim=8, seed=0)
                optimizer = Adam(model.parameters(), lr=0.01)
                loss = model.bpr_loss(users, positives, negatives)
                loss.backward()
                optimizer.step()
                snapshots[kernel_set] = (float(loss.data),
                                         model.state_dict())
        loss_naive, state_naive = snapshots["naive"]
        loss_fast, state_fast = snapshots["fast"]
        assert abs(loss_naive - loss_fast) < _parity_atol()
        assert set(state_naive) == set(state_fast)
        for name in state_naive:
            np.testing.assert_allclose(state_naive[name], state_fast[name],
                                       atol=_parity_atol(), err_msg=name)

    def test_dgnn_sampled_loss_parity(self, tiny_graph):
        losses = {}
        for kernel_set in KERNEL_SETS:
            rng = np.random.default_rng(5)
            users, positives, negatives = _batch(tiny_graph, rng)
            with use_kernel_set(kernel_set):
                model = create_model("dgnn", tiny_graph, embed_dim=8, seed=0)
                loss = model.bpr_loss_sampled(users, positives, negatives,
                                              seed=11)
                losses[kernel_set] = float(loss.data)
        assert abs(losses["naive"] - losses["fast"]) < _parity_atol()

    def test_kernel_call_counts_match_across_backends(self, tiny_graph):
        # An identical DGNN training step must dispatch the identical
        # kernel sequence whichever kernel set runs it: the sets differ
        # in how a kernel computes, never in which kernels a step calls.
        calls = {}
        for kernel_set in KERNEL_SETS:
            rng = np.random.default_rng(7)
            users, positives, negatives = _batch(tiny_graph, rng)
            with use_kernel_set(kernel_set), instrument.track() as used:
                model = create_model("dgnn", tiny_graph, embed_dim=8, seed=0)
                optimizer = Adam(model.parameters(), lr=0.01)
                loss = model.bpr_loss(users, positives, negatives)
                loss.backward()
                optimizer.step()
            calls[kernel_set] = {key: value for key, value in used.items()
                                 if key.startswith("calls.") and value}
        assert calls["naive"]["calls.spmm"] > 0
        assert calls["naive"]["calls.memory_mixture"] > 0
        assert calls["fast"] == calls["naive"]

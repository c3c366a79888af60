"""Parity suite: every backend must match the naive loop oracle.

Three levels: raw kernels (forward values), autograd ops built on them
(gradients, including finite-difference checks), and end-to-end models
(final embeddings, loss values and one full Adam step for DGNN plus four
baselines).  ``threaded`` inherits all fast kernels and overrides spmm
with a row-block-parallel version, so it runs the same gauntlet.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import Tensor, gradcheck, no_grad, ops
from repro.engine import (
    available_backends,
    get_backend,
    instrument,
    set_backend,
    tolerances,
    use_backend,
)
from repro.engine.backends import ThreadedBackend
from repro.models import create_model
from repro.nn.optim import Adam

ALL_BACKENDS = ("naive", "fast", "threaded")
PARITY_MODELS = ("dgnn", "lightgcn", "ngcf", "diffnet", "mhcn")


def _parity_atol():
    """Cross-backend disagreement is pure accumulation-order noise, so the
    bar scales with the active engine precision: 1e-8 under the default
    float64, the policy atol (1e-4) under the float32 CI leg."""
    return max(1e-8, tolerances().atol)


def _random_csr(rng, rows, cols, density=0.2):
    matrix = sp.random(rows, cols, density=density, format="csr",
                       random_state=np.random.RandomState(int(rng.integers(2**31))))
    return sp.csr_matrix(matrix, dtype=np.float64)


class TestKernelParity:
    def test_registry_contains_all(self):
        names = set(available_backends())
        assert {"naive", "fast", "threaded"} <= names

    def test_use_backend_restores(self):
        before = get_backend().name
        with use_backend("naive"):
            assert get_backend().name == "naive"
        assert get_backend().name == before

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError):
            set_backend("does-not-exist")

    def test_spmm_forward_parity(self, rng):
        matrix = _random_csr(rng, 17, 11)
        dense = rng.normal(size=(11, 5))
        outputs = {}
        for name in ALL_BACKENDS:
            with use_backend(name):
                outputs[name] = get_backend().spmm(matrix, dense)
        for name in ALL_BACKENDS[1:]:
            np.testing.assert_allclose(outputs["naive"], outputs[name],
                                       atol=1e-12, err_msg=name)

    def test_threaded_spmm_uses_row_blocks(self, rng):
        """Force the pool on and check block results match the plain product."""
        matrix = _random_csr(rng, 64, 40, density=0.3)
        dense = rng.normal(size=(40, 6))
        backend = ThreadedBackend(workers=3, min_parallel_nnz=0)
        np.testing.assert_array_equal(backend._spmm(matrix, dense),
                                      matrix @ dense)

    def test_threaded_row_blocks_cover_all_rows(self, rng):
        matrix = _random_csr(rng, 50, 20, density=0.15)
        bounds = ThreadedBackend._row_blocks(matrix.indptr, 4)
        assert bounds[0] == 0 and bounds[-1] == matrix.shape[0]
        assert np.all(np.diff(bounds) > 0)

    def test_gathered_rowwise_dot_parity(self, rng):
        a = rng.normal(size=(9, 6))
        b = rng.normal(size=(13, 6))
        ai = rng.integers(0, 9, size=25).astype(np.int64)
        bi = rng.integers(0, 13, size=25).astype(np.int64)
        outputs = {}
        for name in ALL_BACKENDS:
            with use_backend(name):
                outputs[name] = get_backend().gathered_rowwise_dot(a, ai, b, bi)
        expected = np.sum(a[ai] * b[bi], axis=1)
        for name in ALL_BACKENDS:
            np.testing.assert_allclose(outputs[name], expected, atol=1e-12,
                                       err_msg=name)

    def test_segment_reductions_parity(self, rng):
        values = rng.normal(size=(20, 4))
        ids = rng.integers(0, 6, size=20).astype(np.int64)
        for method in ("segment_sum", "segment_mean"):
            outputs = {}
            for name in ALL_BACKENDS:
                with use_backend(name):
                    outputs[name] = getattr(get_backend(), method)(values, ids, 6)
            for name in ALL_BACKENDS[1:]:
                np.testing.assert_allclose(outputs["naive"], outputs[name],
                                           atol=1e-12, err_msg=f"{method}/{name}")


class TestOpGradParity:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_spmm_gradcheck(self, backend, rng):
        matrix = _random_csr(rng, 7, 5)
        dense = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        with use_backend(backend):
            assert gradcheck(lambda d: ops.sum(ops.spmm(matrix, d)), [dense])

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_gathered_rowwise_dot_gradcheck(self, backend, rng):
        a = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
        ai = rng.integers(0, 6, size=10).astype(np.int64)
        bi = rng.integers(0, 8, size=10).astype(np.int64)
        with use_backend(backend):
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
        for name in ALL_BACKENDS:
            dense = Tensor(values.copy(), requires_grad=True)
            with use_backend(name):
                ops.sum(ops.spmm(matrix, dense)).backward()
            grads[name] = dense.grad
        for name in ALL_BACKENDS[1:]:
            np.testing.assert_allclose(grads["naive"], grads[name],
                                       atol=1e-12, err_msg=name)


def _batch(graph, rng, size=12):
    return (rng.integers(0, graph.num_users, size).astype(np.int64),
            rng.integers(0, graph.num_items, size).astype(np.int64),
            rng.integers(0, graph.num_items, size).astype(np.int64))


class TestModelParity:
    """Final embeddings, loss and one Adam step agree across backends."""

    @pytest.mark.parametrize("model_name", PARITY_MODELS)
    def test_final_embeddings_parity(self, model_name, tiny_graph):
        embeddings = {}
        for backend in ALL_BACKENDS:
            with use_backend(backend):
                model = create_model(model_name, tiny_graph, embed_dim=8, seed=0)
                with no_grad():
                    users, items = model.propagate()
                embeddings[backend] = (users.data.copy(), items.data.copy())
        for backend in ALL_BACKENDS[1:]:
            for side in (0, 1):
                np.testing.assert_allclose(embeddings["naive"][side],
                                           embeddings[backend][side],
                                           atol=_parity_atol(),
                                           err_msg=backend)

    @pytest.mark.parametrize("model_name", PARITY_MODELS)
    def test_one_training_step_parity(self, model_name, tiny_graph):
        snapshots = {}
        for backend in ALL_BACKENDS:
            rng = np.random.default_rng(3)
            users, positives, negatives = _batch(tiny_graph, rng)
            with use_backend(backend):
                model = create_model(model_name, tiny_graph, embed_dim=8, seed=0)
                optimizer = Adam(model.parameters(), lr=0.01)
                loss = model.bpr_loss(users, positives, negatives)
                loss.backward()
                optimizer.step()
                snapshots[backend] = (float(loss.data), model.state_dict())
        loss_naive, state_naive = snapshots["naive"]
        for backend in ALL_BACKENDS[1:]:
            loss_other, state_other = snapshots[backend]
            assert abs(loss_naive - loss_other) < _parity_atol()
            assert set(state_naive) == set(state_other)
            for name in state_naive:
                np.testing.assert_allclose(state_naive[name], state_other[name],
                                           atol=_parity_atol(),
                                           err_msg=f"{backend}/{name}")

    def test_dgnn_sampled_loss_parity(self, tiny_graph):
        losses = {}
        for backend in ALL_BACKENDS:
            rng = np.random.default_rng(5)
            users, positives, negatives = _batch(tiny_graph, rng)
            with use_backend(backend):
                model = create_model("dgnn", tiny_graph, embed_dim=8, seed=0)
                loss = model.bpr_loss_sampled(users, positives, negatives,
                                              seed=11)
                losses[backend] = float(loss.data)
        for backend in ALL_BACKENDS[1:]:
            assert abs(losses["naive"] - losses[backend]) < _parity_atol()

    def test_kernel_call_counts_match_across_backends(self, tiny_graph):
        # An identical DGNN training step must dispatch the identical
        # kernel sequence whichever backend runs it: backends differ in
        # how a kernel computes, never in which kernels a step calls.
        calls = {}
        for backend in ALL_BACKENDS:
            rng = np.random.default_rng(7)
            users, positives, negatives = _batch(tiny_graph, rng)
            with use_backend(backend), instrument.track() as used:
                model = create_model("dgnn", tiny_graph, embed_dim=8, seed=0)
                optimizer = Adam(model.parameters(), lr=0.01)
                loss = model.bpr_loss(users, positives, negatives)
                loss.backward()
                optimizer.step()
            calls[backend] = {key: value for key, value in used.items()
                              if key.startswith("calls.") and value}
        assert calls["naive"]["calls.spmm"] > 0
        assert calls["naive"]["calls.memory_mixture"] > 0
        for backend in ALL_BACKENDS[1:]:
            assert calls[backend] == calls["naive"], backend

"""Row-sparse gradients end-to-end: carrier, autograd, lazy optimizers.

Covers the full path: ``RowSparseGrad`` construction and coalescing,
``gather_rows`` backward emitting sparse gradients for leaf tables,
``Tensor._accumulate`` mixing rules, duplicate-index ``scatter_add_rows``
on both kernel sets (the primitive coalescing relies on), the lazy
Adam update semantics, and the trainer-level bitwise parity of
densified sparse gradients against dense Adam.
"""

import numpy as np
import pytest

from repro.autograd import (
    RowSparseGrad,
    Tensor,
    gradcheck,
    ops,
    set_sparse_grads,
    sparse_grads_enabled,
    use_sparse_grads,
)
from repro.engine import backends, use_dtype
from repro.nn import Adam, Parameter, clip_grad_norm
from tests.oracles import KERNEL_SETS, use_kernel_set


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestRowSparseGrad:
    def test_coalesces_duplicates(self, rng):
        rows = np.array([3, 1, 3, 7, 1])
        values = rng.standard_normal((5, 4))
        grad = RowSparseGrad(rows, values, 10)
        assert list(grad.rows) == [1, 3, 7]
        np.testing.assert_array_equal(grad.values[0], values[1] + values[4])
        np.testing.assert_array_equal(grad.values[1], values[0] + values[2])
        np.testing.assert_array_equal(grad.values[2], values[3])

    def test_to_dense_matches_scatter(self, rng):
        rows = rng.integers(0, 20, size=40)
        values = rng.standard_normal((40, 3))
        dense = np.zeros((20, 3))
        np.add.at(dense, rows, values)
        np.testing.assert_array_equal(
            RowSparseGrad(rows, values, 20).to_dense(), dense)

    def test_merge_matches_sum(self, rng):
        a = RowSparseGrad(rng.integers(0, 8, 6), rng.standard_normal((6, 2)), 8)
        b = RowSparseGrad(rng.integers(0, 8, 4), rng.standard_normal((4, 2)), 8)
        np.testing.assert_array_equal(
            a.merge(b).to_dense(), a.to_dense() + b.to_dense())

    def test_add_into_dense(self, rng):
        grad = RowSparseGrad([2, 5], rng.standard_normal((2, 3)), 6)
        dense = rng.standard_normal((6, 3))
        expected = dense + grad.to_dense()
        np.testing.assert_array_equal(grad.add_into_dense(dense), expected)

    def test_sq_sum_and_scale(self, rng):
        grad = RowSparseGrad([1, 4, 1], rng.standard_normal((3, 2)), 5)
        assert grad.sq_sum() == pytest.approx(float((grad.to_dense() ** 2).sum()))
        before = grad.to_dense()
        grad.scale_(0.5)
        np.testing.assert_allclose(grad.to_dense(), 0.5 * before)

    def test_shape_density_nnz(self):
        grad = RowSparseGrad([0, 9, 0], np.ones((3, 4)), 10)
        assert grad.shape == (10, 4)
        assert grad.nnz_rows == 2
        assert grad.density == pytest.approx(0.2)

    def test_out_of_range_rows_raise(self):
        with pytest.raises(IndexError):
            RowSparseGrad([10], np.ones((1, 2)), 10)
        with pytest.raises(IndexError):
            RowSparseGrad([-1], np.ones((1, 2)), 10)

    def test_merge_shape_mismatch_raises(self):
        a = RowSparseGrad([0], np.ones((1, 2)), 4)
        b = RowSparseGrad([0], np.ones((1, 3)), 4)
        with pytest.raises(ValueError):
            a.merge(b)


class TestSparseGradsFlag:
    def test_default_off(self):
        assert not sparse_grads_enabled()

    def test_context_manager_restores(self):
        with use_sparse_grads():
            assert sparse_grads_enabled()
            with use_sparse_grads(False):
                assert not sparse_grads_enabled()
            assert sparse_grads_enabled()
        assert not sparse_grads_enabled()

    def test_set_returns_flag(self):
        assert set_sparse_grads(True) is True
        assert set_sparse_grads(False) is False


class TestGatherRowsSparseBackward:
    def test_leaf_gets_sparse_grad_bitwise_equal_to_dense(self, rng):
        table = Tensor(rng.standard_normal((12, 4)), requires_grad=True)
        indices = np.array([3, 1, 3, 7, 1, 0])
        upstream = rng.standard_normal((6, 4))

        ops.gather_rows(table, indices).backward(upstream)
        dense = table.grad.copy()
        table.grad = None
        with use_sparse_grads():
            ops.gather_rows(table, indices).backward(upstream)
        assert isinstance(table.grad, RowSparseGrad)
        np.testing.assert_array_equal(table.grad.to_dense(), dense)

    def test_non_leaf_parent_stays_dense(self, rng):
        table = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        with use_sparse_grads():
            hidden = table * 2.0
            ops.gather_rows(hidden, np.array([1, 1, 4])).sum().backward()
        assert isinstance(table.grad, np.ndarray)

    def test_flag_off_stays_dense(self, rng):
        table = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        ops.gather_rows(table, np.array([0, 2])).sum().backward()
        assert isinstance(table.grad, np.ndarray)

    def test_two_backward_passes_merge_sparse(self, rng):
        table = Tensor(rng.standard_normal((8, 2)), requires_grad=True)
        with use_sparse_grads():
            ops.gather_rows(table, np.array([1, 3])).sum().backward()
            ops.gather_rows(table, np.array([3, 6])).sum().backward()
        assert isinstance(table.grad, RowSparseGrad)
        expected = np.zeros((8, 2))
        np.add.at(expected, [1, 3, 3, 6], 1.0)
        np.testing.assert_array_equal(table.grad.to_dense(), expected)

    def test_sparse_then_dense_densifies(self, rng):
        table = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
        with use_sparse_grads():
            ops.gather_rows(table, np.array([2])).sum().backward()
        (table * 1.0).sum().backward()
        assert isinstance(table.grad, np.ndarray)
        expected = np.ones((5, 2))
        expected[2] += 1.0
        np.testing.assert_array_equal(table.grad, expected)

    def test_dense_then_sparse_adds_into_dense(self, rng):
        table = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
        (table * 1.0).sum().backward()
        with use_sparse_grads():
            ops.gather_rows(table, np.array([2])).sum().backward()
        assert isinstance(table.grad, np.ndarray)
        expected = np.ones((5, 2))
        expected[2] += 1.0
        np.testing.assert_array_equal(table.grad, expected)


class TestScatterAddDuplicateIndices:
    """Duplicate-index scatter on both kernel sets vs a plain loop."""

    def _oracle(self, values, indices, num_rows):
        out = np.zeros((num_rows,) + values.shape[1:], dtype=values.dtype)
        for i, row in enumerate(indices):
            out[row] += values[i]
        return out

    @pytest.mark.parametrize("kernel_set", KERNEL_SETS)
    def test_duplicate_scatter_matches_oracle(self, kernel_set, rng):
        values = rng.standard_normal((30, 5))
        indices = rng.integers(0, 7, size=30)  # heavy duplication
        expected = self._oracle(values, indices, 7)
        with use_kernel_set(kernel_set):
            result = backends.scatter_add_rows(values, indices, 7)
        np.testing.assert_allclose(result, expected, rtol=1e-12)

    @pytest.mark.parametrize("kernel_set", KERNEL_SETS)
    def test_gather_rows_backward_gradcheck_duplicates(self, kernel_set, rng):
        table = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        indices = np.array([0, 2, 2, 4, 0, 2])
        weights = Tensor(rng.standard_normal((6, 3)))
        with use_kernel_set(kernel_set):
            assert gradcheck(
                lambda t: (ops.gather_rows(t, indices) * weights).sum(),
                [table])

    @pytest.mark.parametrize("kernel_set", KERNEL_SETS)
    def test_sparse_backward_matches_dense_per_backend(self, kernel_set, rng):
        indices = np.array([1, 1, 1, 3, 0, 3])
        upstream = rng.standard_normal((6, 2))
        with use_kernel_set(kernel_set):
            table = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
            ops.gather_rows(table, indices).backward(upstream)
            dense = table.grad.copy()
            table.grad = None
            with use_sparse_grads():
                ops.gather_rows(table, indices).backward(upstream)
            np.testing.assert_array_equal(table.grad.to_dense(), dense)


def _param64(values):
    # The lazy-optimizer trajectories are checked against float64
    # textbook references to near-machine precision, so the parameters
    # must be float64 even when the suite runs under the float32 CI leg.
    with use_dtype("float64"):
        return Parameter(np.asarray(values, dtype=np.float64).copy())


def _reference_adam(p0, grads, lr=0.1, betas=(0.9, 0.999), eps=1e-8, wd=0.0):
    """Textbook m_hat/v_hat Adam, one trajectory."""
    p = np.asarray(p0, dtype=np.float64).copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, 1):
        g = np.asarray(g, dtype=np.float64)
        if wd:
            g = g + wd * p
        m = betas[0] * m + (1 - betas[0]) * g
        v = betas[1] * v + (1 - betas[1]) * g * g
        m_hat = m / (1 - betas[0] ** t)
        v_hat = v / (1 - betas[1] ** t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p


class TestLazyAdam:
    def test_untouched_rows_do_not_move(self, rng):
        p0 = rng.standard_normal((6, 3))
        param = _param64(p0)
        opt = Adam([param], lr=0.1)
        param.grad = RowSparseGrad([2], rng.standard_normal((1, 3)), 6)
        opt.step()
        np.testing.assert_array_equal(param.data[[0, 1, 3, 4, 5]],
                                      p0[[0, 1, 3, 4, 5]])
        assert not np.array_equal(param.data[2], p0[2])

    def test_row_touched_every_step_matches_dense_reference(self, rng):
        p0 = rng.standard_normal((5, 3))
        param = _param64(p0)
        opt = Adam([param], lr=0.1)
        grads = [rng.standard_normal((1, 3)) for _ in range(6)]
        for g in grads:
            param.grad = RowSparseGrad([3], g, 5)
            opt.step()
        expected = _reference_adam(p0[3:4], grads)
        np.testing.assert_allclose(param.data[3], expected[0], rtol=1e-12)

    def test_per_row_bias_correction_on_intermittent_touch(self, rng):
        # A row touched at global steps 1 and 4 must be corrected with
        # its own counts n=1, n=2 — NOT the global step (TF LazyAdam).
        p0 = rng.standard_normal((5, 3))
        param = _param64(p0)
        opt = Adam([param], lr=0.1)
        g1, g2 = rng.standard_normal((1, 3)), rng.standard_normal((1, 3))
        param.grad = RowSparseGrad([2], g1, 5)
        opt.step()
        for _ in range(2):  # steps that touch a different row only
            param.grad = RowSparseGrad([0], rng.standard_normal((1, 3)), 5)
            opt.step()
        param.grad = RowSparseGrad([2], g2, 5)
        opt.step()
        expected = _reference_adam(p0[2:3], [g1, g2])
        np.testing.assert_allclose(param.data[2], expected[0], rtol=1e-12)

    def test_dense_correct_mode_bitwise_equals_dense_adam(self, rng):
        """A densified sparse grad steps Adam exactly like the dense scatter."""
        p0 = rng.standard_normal((10, 4))
        sparse_param = _param64(p0)
        dense_param = _param64(p0)
        sparse_opt = Adam([sparse_param], lr=0.01)
        dense_opt = Adam([dense_param], lr=0.01)
        for _ in range(6):
            k = int(rng.integers(1, 12))
            rows = rng.integers(0, 10, k)
            values = rng.standard_normal((k, 4))
            sparse_param.grad = RowSparseGrad(rows, values, 10).to_dense()
            dense_param.grad = np.zeros((10, 4))
            np.add.at(dense_param.grad, rows, values)
            sparse_opt.step()
            dense_opt.step()
            assert np.array_equal(sparse_param.data, dense_param.data)

    def test_touched_fraction(self, rng):
        param = Parameter(rng.standard_normal((10, 2)))
        opt = Adam([param], lr=0.1)
        assert opt.touched_fraction() == 1.0  # before any step
        param.grad = RowSparseGrad([0, 4], rng.standard_normal((2, 2)), 10)
        opt.step()
        assert opt.touched_fraction() == pytest.approx(0.2)
        param.grad = np.ones((10, 2))
        opt.step()
        assert opt.touched_fraction() == 1.0

    def test_state_dict_roundtrip_preserves_lazy_counters(self, rng):
        param = Parameter(rng.standard_normal((6, 2)))
        opt = Adam([param], lr=0.1)
        for _ in range(3):
            param.grad = RowSparseGrad(rng.integers(0, 6, 3),
                                       rng.standard_normal((3, 2)), 6)
            opt.step()
        state = opt.state_dict()
        clone = Adam([Parameter(param.data.copy())], lr=0.1)
        clone.load_state_dict(state)
        assert clone._step_count == opt._step_count
        np.testing.assert_array_equal(clone._m[0], opt._m[0])
        np.testing.assert_array_equal(clone._v[0], opt._v[0])
        np.testing.assert_array_equal(clone._row_steps[0], opt._row_steps[0])


class TestSparseClipGradNorm:
    def test_norm_counts_sparse_and_dense(self, rng):
        sparse_p = Parameter(np.zeros((5, 2)))
        dense_p = Parameter(np.zeros((3,)))
        sparse_p.grad = RowSparseGrad([1, 3], np.full((2, 2), 3.0), 5)
        dense_p.grad = np.array([4.0, 0.0, 0.0])
        total = clip_grad_norm([sparse_p, dense_p], max_norm=1.0)
        assert total == pytest.approx(np.sqrt(36.0 + 16.0))
        clipped_sq = sparse_p.grad.sq_sum() + float((dense_p.grad ** 2).sum())
        assert clipped_sq == pytest.approx(1.0)

    def test_sparse_norm_equals_dense_norm(self, rng):
        grad = RowSparseGrad(rng.integers(0, 8, 6),
                             rng.standard_normal((6, 3)), 8)
        p_sparse = Parameter(np.zeros((8, 3)))
        p_dense = Parameter(np.zeros((8, 3)))
        p_sparse.grad = grad
        p_dense.grad = grad.to_dense()
        assert (clip_grad_norm([p_sparse], 1e9)
                == pytest.approx(clip_grad_norm([p_dense], 1e9)))


class TestTrainerIntegration:
    @pytest.fixture(scope="class")
    def context(self):
        from repro.experiments.common import ExperimentContext

        return ExperimentContext.build("tiny", seed=0)

    def _fit(self, context, densify=False, **overrides):
        from repro.models.lightgcn import LightGCN
        from repro.train import TrainConfig, Trainer

        config = TrainConfig(epochs=2, batch_size=64, propagation="minibatch",
                             prefetch=False, eval_every=10, patience=None,
                             clip_norm=None, seed=0, **overrides)
        model = LightGCN(context.graph, embed_dim=8, num_layers=2, seed=0)
        trainer = Trainer(model, context.split, config,
                          candidates=context.candidates)
        if densify:
            optimizer = trainer.optimizer
            step = optimizer.step

            def densified_step():
                for param in optimizer.parameters:
                    if isinstance(param.grad, RowSparseGrad):
                        param.grad = param.grad.to_dense()
                step()

            optimizer.step = densified_step
        return model, trainer.fit()

    def test_dense_correct_reproduces_dense_trajectory_bitwise(self, context):
        """Sparse grads densified before each Adam step: the dense run."""
        dense_model, _ = self._fit(context, sparse_grads=False)
        sparse_model, _ = self._fit(context, densify=True, sparse_grads=True)
        for (name_a, a), (name_b, b) in zip(
                sorted(dense_model.state_dict().items()),
                sorted(sparse_model.state_dict().items())):
            assert name_a == name_b
            assert np.array_equal(a, b), f"trajectory diverged at {name_a}"

    def test_lazy_records_touched_fraction_below_one(self, context):
        _, history = self._fit(context, sparse_grads=True)
        assert history.touched_row_fractions
        assert history.mean_touched_row_fraction() < 1.0

    def test_dense_records_touched_fraction_one(self, context):
        _, history = self._fit(context, sparse_grads=False)
        assert history.mean_touched_row_fraction() == 1.0

    def test_sparse_flag_restored_after_fit(self, context):
        self._fit(context, sparse_grads=True)
        assert not sparse_grads_enabled()


class TestConfigKnobs:
    def test_minibatch_defaults_sparse_on(self):
        from repro.train import TrainConfig

        assert TrainConfig(propagation="minibatch").resolved_sparse_grads()
        assert not TrainConfig(propagation="full").resolved_sparse_grads()
        assert not TrainConfig(propagation="minibatch",
                               sparse_grads=False).resolved_sparse_grads()
        assert TrainConfig(propagation="full",
                           sparse_grads=True).resolved_sparse_grads()

    def test_invalid_knobs_raise(self):
        # Adam is the only optimizer and l2 the only Eq. 11 regularizer:
        # a removed knob is an unknown field, never a silently ignored one.
        from repro.train import TrainConfig

        for knob in ({"optimizer": "sgd"}, {"momentum": 0.5},
                     {"weight_decay": 1e-4}):
            with pytest.raises(TypeError):
                TrainConfig(**knob)


class TestOptimizerCheckpoint:
    def test_save_restore_optimizer_roundtrip(self, rng, tmp_path):
        from repro.train import restore_optimizer, save_checkpoint

        class TinyModel:
            name = "tiny-model"
            embed_dim = 2

            def __init__(self, data):
                self._param = Parameter(data)

            def state_dict(self):
                return {"w": self._param.data}

        param = Parameter(rng.standard_normal((6, 2)))
        opt = Adam([param], lr=0.1)
        for _ in range(3):
            param.grad = RowSparseGrad(rng.integers(0, 6, 3),
                                       rng.standard_normal((3, 2)), 6)
            opt.step()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(TinyModel(param.data), path, epoch=3, optimizer=opt)
        clone = Adam([Parameter(param.data.copy())], lr=0.1)
        meta = restore_optimizer(clone, path)
        assert meta["epoch"] == 3
        assert clone._step_count == opt._step_count
        np.testing.assert_array_equal(clone._row_steps[0], opt._row_steps[0])

    def test_restore_optimizer_without_state_raises(self, rng, tmp_path):
        from repro.train import restore_optimizer, save_checkpoint

        class TinyModel:
            name = "tiny-model"
            embed_dim = 2

            def state_dict(self):
                return {"w": np.zeros((2, 2))}

        path = tmp_path / "ckpt.npz"
        save_checkpoint(TinyModel(), path)
        opt = Adam([Parameter(np.zeros((2, 2)))], lr=0.1)
        with pytest.raises(ValueError):
            restore_optimizer(opt, path)

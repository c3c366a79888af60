"""Gradient and semantics tests for every autograd op."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import Tensor, gradcheck, ops


def _t(shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(scale * rng.normal(size=shape), requires_grad=True)


class TestArithmetic:
    def test_add_broadcast_gradcheck(self):
        a, b = _t((3, 4), 0), _t((4,), 1)
        assert gradcheck(lambda a, b: ops.add(a, b).sum(), [a, b])

    def test_sub_broadcast_gradcheck(self):
        a, b = _t((2, 3), 0), _t((2, 1), 1)
        assert gradcheck(lambda a, b: ops.sub(a, b).sum(), [a, b])

    def test_mul_gradcheck(self):
        a, b = _t((3, 3), 0), _t((3, 3), 1)
        assert gradcheck(lambda a, b: (ops.mul(a, b) * ops.mul(a, b)).sum(), [a, b])

    def test_div_gradcheck(self):
        a = _t((3,), 0)
        b = Tensor(np.array([2.0, 3.0, 4.0]), requires_grad=True)
        assert gradcheck(lambda a, b: ops.div(a, b).sum(), [a, b])

    def test_power_gradcheck(self):
        a = Tensor(np.array([1.5, 2.5, 0.5]), requires_grad=True)
        assert gradcheck(lambda a: ops.power(a, 3.0).sum(), [a])

    def test_scalar_broadcast_shapes(self):
        a = Tensor(np.ones((2, 3)))
        out = ops.add(a, 5.0)
        np.testing.assert_allclose(out.data, np.full((2, 3), 6.0))


class TestMatmul:
    def test_2d_gradcheck(self):
        a, b = _t((3, 4), 0), _t((4, 2), 1)
        assert gradcheck(lambda a, b: ops.matmul(a, b).sum(), [a, b])

    def test_vec_mat_gradcheck(self):
        a, b = _t((4,), 0), _t((4, 3), 1)
        assert gradcheck(lambda a, b: ops.matmul(a, b).sum(), [a, b])

    def test_mat_vec_gradcheck(self):
        a, b = _t((3, 4), 0), _t((4,), 1)
        assert gradcheck(lambda a, b: ops.matmul(a, b).sum(), [a, b])

    def test_dot_product_gradcheck(self):
        a, b = _t((5,), 0), _t((5,), 1)
        assert gradcheck(lambda a, b: ops.matmul(a, b), [a, b])

    def test_3d_rejected(self):
        with pytest.raises(ValueError):
            ops.matmul(_t((2, 3, 4)), _t((4, 2)))


class TestSparse:
    def test_spmm_matches_dense(self):
        matrix = sp.random(6, 4, density=0.5, random_state=0, format="csr")
        x = _t((4, 3), 2)
        out = ops.spmm(matrix, x)
        np.testing.assert_allclose(out.data, matrix.toarray() @ x.data)

    def test_spmm_gradcheck(self):
        matrix = sp.random(5, 4, density=0.6, random_state=1, format="csr")
        x = _t((4, 2), 3)
        assert gradcheck(lambda x: (ops.spmm(matrix, x) ** 2).sum(), [x])

    def test_spmm_rejects_dense_first_arg(self):
        with pytest.raises(TypeError):
            ops.spmm(np.eye(3), _t((3, 2)))

    def test_spmm_empty_matrix(self):
        matrix = sp.csr_matrix((3, 4))
        out = ops.spmm(matrix, _t((4, 2)))
        np.testing.assert_allclose(out.data, np.zeros((3, 2)))


class TestShapeOps:
    def test_reshape_gradcheck(self):
        a = _t((2, 6), 0)
        assert gradcheck(lambda a: (ops.reshape(a, (3, 4)) ** 2).sum(), [a])

    def test_transpose_axes_gradcheck(self):
        a = _t((2, 3, 4), 0)
        assert gradcheck(lambda a: (ops.transpose(a, (2, 0, 1)) ** 2).sum(), [a])

    def test_transpose_default_reverses(self):
        a = Tensor(np.zeros((2, 3, 4)))
        assert ops.transpose(a).shape == (4, 3, 2)

    def test_cat_gradcheck(self):
        a, b = _t((2, 3), 0), _t((2, 2), 1)
        assert gradcheck(lambda a, b: (ops.cat([a, b], axis=1) ** 2).sum(), [a, b])

    def test_cat_axis0_values(self):
        a, b = Tensor(np.ones((2, 2))), Tensor(np.zeros((1, 2)))
        out = ops.cat([a, b], axis=0)
        assert out.shape == (3, 2)
        np.testing.assert_allclose(out.data[2], [0.0, 0.0])

    def test_cat_empty_list_raises(self):
        with pytest.raises(ValueError):
            ops.cat([])

    def test_stack_gradcheck(self):
        a, b = _t((3,), 0), _t((3,), 1)
        assert gradcheck(lambda a, b: (ops.stack([a, b]) ** 2).sum(), [a, b])

    def test_getitem_int_array_gradcheck(self):
        a = _t((5, 3), 0)
        idx = np.array([0, 2, 2, 4])
        assert gradcheck(lambda a: (ops.gather_rows(a, idx) ** 2).sum(), [a])

    def test_gather_repeated_rows_accumulate(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        out = ops.gather_rows(a, np.array([1, 1, 1]))
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [[0, 0], [3, 3], [0, 0]])


class TestReductions:
    @pytest.mark.parametrize("axis,keepdims", [
        (None, False), (0, False), (1, False), (0, True), ((0, 1), False),
    ])
    def test_sum_gradcheck(self, axis, keepdims):
        a = _t((3, 4), 0)
        assert gradcheck(
            lambda a: (ops.sum(a, axis=axis, keepdims=keepdims) ** 2).sum(), [a])

    @pytest.mark.parametrize("axis", [None, 0, 1, -1])
    def test_mean_gradcheck(self, axis):
        a = _t((2, 5), 1)
        assert gradcheck(lambda a: (ops.mean(a, axis=axis) ** 2).sum(), [a])

    def test_mean_value(self):
        a = Tensor(np.array([[1.0, 3.0], [5.0, 7.0]]))
        assert ops.mean(a).item() == 4.0
        np.testing.assert_allclose(ops.mean(a, axis=0).data, [3.0, 5.0])


class TestSegmentOps:
    def test_segment_sum_values(self):
        a = Tensor(np.arange(8.0).reshape(4, 2))
        seg = np.array([0, 0, 2, 2])
        out = ops.segment_sum(a, seg, 3)
        np.testing.assert_allclose(out.data, [[2, 4], [0, 0], [10, 12]])

    def test_segment_sum_gradcheck(self):
        a = _t((6, 2), 0)
        seg = np.array([0, 1, 1, 2, 2, 2])
        assert gradcheck(lambda a: (ops.segment_sum(a, seg, 3) ** 2).sum(), [a])

    def test_segment_sum_validates_ids(self):
        with pytest.raises(ValueError):
            ops.segment_sum(_t((3, 2)), np.array([0, 1]), 2)

    def test_segment_softmax_sums_to_one(self):
        scores = _t((7,), 0)
        seg = np.array([0, 0, 1, 1, 1, 2, 2])
        out = ops.segment_softmax(scores, seg, 3)
        sums = np.zeros(3)
        np.add.at(sums, seg, out.data)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_segment_softmax_gradcheck(self):
        scores = _t((5,), 3)
        seg = np.array([0, 0, 0, 1, 1])
        weights = Tensor(np.arange(5.0))
        assert gradcheck(
            lambda s: (ops.segment_softmax(s, seg, 2) * weights).sum(), [scores])

    def test_segment_softmax_large_scores_stable(self):
        scores = Tensor(np.array([1000.0, 1001.0, -1000.0]))
        out = ops.segment_softmax(scores, np.array([0, 0, 1]), 2)
        assert np.all(np.isfinite(out.data))


class TestNonlinearities:
    @pytest.mark.parametrize("fn", [ops.exp, ops.tanh, ops.sigmoid,
                                    ops.softplus, ops.log_sigmoid])
    def test_smooth_gradcheck(self, fn):
        a = _t((3, 3), 0)
        assert gradcheck(lambda a: fn(a).sum(), [a])

    def test_log_gradcheck_positive(self):
        a = Tensor(np.array([0.5, 1.5, 3.0]), requires_grad=True)
        assert gradcheck(lambda a: ops.log(a).sum(), [a])

    def test_sqrt_gradcheck_positive(self):
        a = Tensor(np.array([0.25, 4.0, 9.0]), requires_grad=True)
        assert gradcheck(lambda a: ops.sqrt(a).sum(), [a])

    def test_relu_values_and_grad(self):
        a = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        out = ops.relu(a)
        out.sum().backward()
        np.testing.assert_allclose(out.data, [0.0, 2.0])
        np.testing.assert_allclose(a.grad, [0.0, 1.0])

    def test_leaky_relu_slope(self):
        a = Tensor(np.array([-10.0, 10.0]), requires_grad=True)
        out = ops.leaky_relu(a, 0.2)
        out.sum().backward()
        np.testing.assert_allclose(out.data, [-2.0, 10.0])
        np.testing.assert_allclose(a.grad, [0.2, 1.0])

    def test_sigmoid_extreme_values_stable(self):
        a = Tensor(np.array([-1000.0, 1000.0]))
        out = ops.sigmoid(a)
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_log_sigmoid_stable_and_correct(self):
        a = Tensor(np.array([-50.0, 0.0, 50.0]))
        out = ops.log_sigmoid(a)
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data[1], np.log(0.5))

    def test_softmax_rows_sum_to_one(self):
        a = _t((4, 6), 0)
        out = ops.softmax(a, axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0)

    def test_softmax_gradcheck(self):
        a = _t((3, 4), 0)
        weights = Tensor(np.arange(12.0).reshape(3, 4))
        assert gradcheck(lambda a: (ops.softmax(a, axis=1) * weights).sum(), [a])


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        a = _t((10, 10), 0)
        out = ops.dropout(a, 0.5, rng, training=False)
        assert out is a

    def test_zero_rate_is_identity(self, rng):
        a = _t((4, 4), 0)
        assert ops.dropout(a, 0.0, rng, training=True) is a

    def test_preserves_expected_scale(self):
        rng = np.random.default_rng(0)
        a = Tensor(np.ones((200, 200)))
        out = ops.dropout(a, 0.3, rng, training=True)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_invalid_rate_raises(self, rng):
        with pytest.raises(ValueError):
            ops.dropout(_t((2, 2)), 1.5, rng, training=True)

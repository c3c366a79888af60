"""Tests for the gradient-checking utility itself."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck, numerical_gradient, ops
from repro.engine import use_dtype


def _f64(values):
    # ``numerical_gradient``'s 1e-6 central-difference step assumes
    # float64 inputs (gradcheck upcasts before calling it); build them
    # explicitly so the suite also passes under the float32 CI leg.
    with use_dtype("float64"):
        return Tensor(np.asarray(values, dtype=np.float64),
                      requires_grad=True)


class TestNumericalGradient:
    def test_matches_analytic_for_quadratic(self):
        x = _f64([1.0, -2.0, 3.0])

        def fn(x):
            return (x * x).sum()

        grad = numerical_gradient(fn, [x], 0)
        np.testing.assert_allclose(grad, 2.0 * x.data, atol=1e-5)

    def test_does_not_mutate_input(self):
        x = _f64([1.0, 2.0])
        snapshot = x.data.copy()
        numerical_gradient(lambda x: x.sum(), [x], 0)
        np.testing.assert_array_equal(x.data, snapshot)

    def test_respects_index(self):
        x = _f64([2.0])
        y = _f64([3.0])

        def fn(x, y):
            return (x * y).sum()

        np.testing.assert_allclose(numerical_gradient(fn, [x, y], 0), [3.0],
                                   atol=1e-5)
        np.testing.assert_allclose(numerical_gradient(fn, [x, y], 1), [2.0],
                                   atol=1e-5)


class TestGradcheck:
    def test_passes_for_correct_gradient(self):
        x = Tensor(np.array([0.5, -1.5]), requires_grad=True)
        assert gradcheck(lambda x: ops.tanh(x).sum(), [x])

    def test_fails_for_wrong_gradient(self):
        # An op with a deliberately broken backward must be caught.
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)

        def broken(x):
            out = Tensor._make(
                x.data * 2.0, (x,),
                lambda out: x._accumulate(out.grad * 3.0))  # wrong: 3 != 2
            return out.sum()

        with pytest.raises(AssertionError):
            gradcheck(broken, [x])

    def test_requires_scalar_output(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            gradcheck(lambda x: x * 2.0, [x])

    def test_skips_constant_inputs(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        c = Tensor(np.array([5.0]))  # no grad required
        assert gradcheck(lambda x, c: (x * c).sum(), [x, c])

    def test_clears_stale_gradients(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        x.grad = np.array([999.0])  # stale
        assert gradcheck(lambda x: (x * x).sum(), [x])

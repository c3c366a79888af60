"""Tests for Adam and gradient clipping."""

import numpy as np
import pytest

from repro.engine import use_dtype
from repro.nn import Adam, Parameter, clip_grad_norm


def _param(values):
    # Optimizer-algebra tests compare against float64 textbook references
    # to near-machine precision, so the parameter must be float64 even
    # when the suite runs under the float32 CI leg.
    with use_dtype("float64"):
        p = Parameter(np.asarray(values, dtype=np.float64))
    return p


class TestAdam:
    def test_first_step_moves_by_lr(self):
        # With bias correction, the first Adam step is ~lr * sign(grad).
        p = _param([0.0])
        p.grad = np.array([3.0])
        Adam([p], lr=0.01).step()
        np.testing.assert_allclose(p.data, [-0.01], atol=1e-6)

    def test_matches_reference_two_steps(self):
        p = _param([1.0])
        opt = Adam([p], lr=0.1, betas=(0.9, 0.999), eps=1e-8)
        # reference implementation
        theta, m, v = 1.0, 0.0, 0.0
        for step in (1, 2):
            grad = theta  # pretend loss = theta^2/2
            p.grad = np.array([theta if step == 1 else float(p.data[0])])
            grad = p.grad[0]
            m = 0.9 * m + 0.1 * grad
            v = 0.999 * v + 0.001 * grad * grad
            m_hat = m / (1 - 0.9 ** step)
            v_hat = v / (1 - 0.999 ** step)
            theta_expected = float(p.data[0]) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
            opt.step()
            np.testing.assert_allclose(p.data, [theta_expected], rtol=1e-10)

    def test_skips_params_without_grad(self):
        p = _param([1.0])
        Adam([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [1.0])

    def test_zero_grad(self):
        p = _param([1.0])
        p.grad = np.array([1.0])
        opt = Adam([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None

    def test_converges_on_quadratic(self):
        p = _param([5.0])
        opt = Adam([p], lr=0.3)
        for _ in range(200):
            p.grad = 2.0 * p.data
            opt.step()
        assert abs(p.data[0]) < 1e-2

    def test_empty_parameter_list_raises(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)


class TestClipGradNorm:
    def test_clips_when_above(self):
        p1, p2 = _param([0.0]), _param([0.0])
        p1.grad = np.array([3.0])
        p2.grad = np.array([4.0])
        total = clip_grad_norm([p1, p2], max_norm=1.0)
        assert total == pytest.approx(5.0)
        clipped = np.sqrt(p1.grad[0] ** 2 + p2.grad[0] ** 2)
        assert clipped == pytest.approx(1.0)

    def test_no_clip_when_below(self):
        p = _param([0.0])
        p.grad = np.array([0.5])
        clip_grad_norm([p], max_norm=1.0)
        np.testing.assert_allclose(p.grad, [0.5])

    def test_ignores_gradless_params(self):
        p = _param([0.0])
        assert clip_grad_norm([p], max_norm=1.0) == 0.0

    @pytest.mark.parametrize("max_norm", [0.0, -2.0])
    def test_rejects_non_positive_max_norm(self, max_norm):
        # A negative bound would turn [1, 1, 1, 1] into [-0.5] * 4
        # (gradient ascent); 0 would zero the gradient.
        p = _param([0.0] * 4)
        p.grad = np.ones(4)
        with pytest.raises(ValueError, match="max_norm"):
            clip_grad_norm([p], max_norm=max_norm)
        np.testing.assert_array_equal(p.grad, np.ones(4))


class TestFoldedAdamTrajectory:
    """The in-place dense Adam folds bias correction into a scalar step
    size instead of materializing m_hat/v_hat temporaries; the trajectory
    must match the textbook update to rounding error over many steps."""

    @staticmethod
    def _reference(p0, grads, lr, betas, eps):
        theta = np.asarray(p0, dtype=np.float64).copy()
        m = np.zeros_like(theta)
        v = np.zeros_like(theta)
        trajectory = []
        for t, g in enumerate(grads, 1):
            g = np.asarray(g, dtype=np.float64)
            m = betas[0] * m + (1 - betas[0]) * g
            v = betas[1] * v + (1 - betas[1]) * g * g
            m_hat = m / (1 - betas[0] ** t)
            v_hat = v / (1 - betas[1] ** t)
            theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
            trajectory.append(theta.copy())
        return trajectory

    def test_trajectory_parity_with_textbook_adam(self):
        rng = np.random.default_rng(42)
        p0 = rng.standard_normal((8, 4))
        grads = [rng.standard_normal((8, 4)) for _ in range(50)]
        lr, betas, eps = 0.05, (0.9, 0.999), 1e-8
        with use_dtype("float64"):
            p = Parameter(p0.copy())
        opt = Adam([p], lr=lr, betas=betas, eps=eps)
        expected = self._reference(p0, grads, lr, betas, eps)
        for g, want in zip(grads, expected):
            p.grad = g.copy()
            opt.step()
            np.testing.assert_allclose(p.data, want, rtol=1e-12, atol=1e-14)

    def test_step_does_not_allocate_mhat_vhat_copies(self):
        # The folded update mutates the denominator buffer in place; the
        # optimizer state after a step must still be raw m and v (not the
        # bias-corrected variants).
        p = _param([[1.0, 2.0]])
        p.grad = np.array([[0.5, -0.25]])
        opt = Adam([p], lr=0.1)
        opt.step()
        np.testing.assert_allclose(opt._m[0], 0.1 * p.grad)
        np.testing.assert_allclose(opt._v[0], 0.001 * p.grad ** 2)

"""The branch-free LeakyReLU and ReLU selects against ``np.where``.

``repro.engine.backends.leaky_select``, ``leaky_grad`` and
``relu_select`` replace ``np.where`` in Eq. 3's gates, Eq. 7's
``layer_norm`` and ``ops.leaky_relu``/``ops.relu``.  They must give the
same bytes as the ``np.where`` forms they replaced on every input: ±0,
±inf and NaN included, in SIMD bodies and scalar tails alike, at both
engine dtypes, forward and backward.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, ops
from repro.engine import backends, use_dtype

SLOPES = (0.0, 0.2, 1.0, 1.5)
#: ``ops.leaky_relu`` takes any slope; the fused kernels reject ``s < 0``.
HELPER_SLOPES = SLOPES + (-0.5,)
DTYPES = ("float32", "float64")
SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.5, -2.5,
            1e-40, -1e-40, 1e-310, -1e-310, 3e38, -3e38)


def _inputs(dtype):
    """Arrays holding every special value, at the start, the middle and
    the scalar tail of vector loops, plus strided 2-D views."""
    rng = np.random.default_rng(0)
    with np.errstate(over="ignore"):
        specials = np.array(SPECIALS, dtype=dtype)
    arrays = []
    for length in (1, 7, 17, 64, 67):
        for position in {0, length // 2, length - 1}:
            for value in specials:
                x = rng.normal(size=length).astype(dtype)
                x[position] = value
                arrays.append(x)
    block = np.resize(specials, (12, 14))
    arrays += [block, block.T, block[:, ::3], block[::2, 1:]]
    return arrays


def _where_forward(x, slope):
    return np.where(x > 0, x, slope * x)


def _where_backward(grad, mask, slope):
    return np.where(mask, grad, grad * grad.dtype.type(slope))


def _assert_same_bytes(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.ascontiguousarray(actual).tobytes() == \
        np.ascontiguousarray(expected).tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("slope", HELPER_SLOPES)
def test_leaky_select_and_grad_match_where(dtype, slope):
    with np.errstate(all="ignore"):
        for x in _inputs(dtype):
            _assert_same_bytes(backends.leaky_select(x, slope),
                               _where_forward(x, slope))
            grad = x[::-1].copy()
            mask = _where_forward(x, slope) > 0
            _assert_same_bytes(backends.leaky_grad(grad, mask, slope),
                               _where_backward(grad, mask, slope))


def test_slope_zero_needs_more_than_a_maximum():
    """``max(x, 0·x)`` is NaN at ``+inf``; the select keeps ``+inf``."""
    x = np.array([np.inf, -np.inf, -1.0], dtype=np.float32)
    with np.errstate(invalid="ignore"):
        assert np.isnan(np.maximum(x, 0.0 * x)[0])
        _assert_same_bytes(backends.leaky_select(x, 0.0),
                           _where_forward(x, 0.0))


@pytest.mark.parametrize("dtype", DTYPES)
def test_relu_select_matches_where(dtype):
    for x in _inputs(dtype):
        _assert_same_bytes(backends.relu_select(x), np.where(x > 0, x, 0.0))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("slope", HELPER_SLOPES)
def test_leaky_relu_op_matches_where(dtype, slope):
    with use_dtype(dtype), np.errstate(all="ignore"):
        for x in _inputs(dtype):
            grad = x[::-1].copy()
            a = Tensor(x, requires_grad=True)
            out = ops.leaky_relu(a, negative_slope=slope)
            out.backward(grad)
            _assert_same_bytes(out.data, _where_forward(x, slope))
            _assert_same_bytes(a.grad, _where_backward(grad, x > 0, slope))


@pytest.mark.parametrize("dtype", DTYPES)
def test_relu_op_matches_where(dtype):
    with use_dtype(dtype), np.errstate(all="ignore"):
        for x in _inputs(dtype):
            grad = x[::-1].copy()
            a = Tensor(x, requires_grad=True)
            out = ops.relu(a)
            out.backward(grad)
            _assert_same_bytes(out.data, np.where(x > 0, x, 0.0))
            _assert_same_bytes(a.grad, grad * (x > 0))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("slope", SLOPES)
def test_fused_kernels_select_like_where(dtype, slope):
    """The gates and LayerNorm kernels, on pre-activations with specials."""
    rng = np.random.default_rng(1)
    emb = rng.normal(size=(len(SPECIALS), 4)).astype(dtype)
    keys = rng.normal(size=(4, 3)).astype(dtype)
    with np.errstate(all="ignore"):
        bias = np.array(SPECIALS[:3], dtype=dtype)
        raw = emb @ keys
        raw += bias
        gates = backends.memory_gates(emb, keys, bias, slope)
        _assert_same_bytes(gates, _where_forward(raw, slope))
        grad = rng.normal(size=gates.shape).astype(dtype)
        grad_raw = _where_backward(grad, gates > 0, slope)
        grad_emb, grad_keys, grad_bias = backends.memory_gates_backward(
            grad, emb, keys, gates, slope)
        _assert_same_bytes(grad_emb, grad_raw @ keys.T)
        _assert_same_bytes(grad_keys, emb.T @ grad_raw)
        _assert_same_bytes(grad_bias, grad_raw.sum(axis=0))

        x = rng.normal(size=(6, 5)).astype(dtype)
        scale = np.ones(5, dtype)
        shift = np.array(SPECIALS[2:7], dtype=dtype)
        out, normed, std = backends.layer_norm(x, scale, shift, 1e-5,
                                               None, slope)
        plain = backends.layer_norm(x, scale, shift, 1e-5, None, None)[0]
        _assert_same_bytes(out, _where_forward(plain, slope))
        grad = rng.normal(size=out.shape).astype(dtype)
        with_slope = backends.layer_norm_backward(
            grad, out, normed, std, scale, None, slope)
        without = backends.layer_norm_backward(
            _where_backward(grad, out > 0, slope), out, normed, std, scale,
            None, None)
        for actual, expected in zip(with_slope, without):
            _assert_same_bytes(actual, expected)

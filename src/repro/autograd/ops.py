"""Differentiable operations for :class:`repro.autograd.Tensor`.

Each op validates inputs, computes the numpy forward result, and records
a ``backward(out)`` function with :meth:`Tensor._make`.  The backward
pass calls it with the output node; it reads ``out.grad`` (and
``out.data`` where the derivative needs it) and accumulates into the
parents, which it closes over.  It never closes over its output, so a
graph holds no reference cycles.  Broadcasting follows numpy semantics;
gradients of broadcast operands are reduced back to the operand shape by
:func:`_unbroadcast`.

The op set is grouped as:

* arithmetic — ``add``, ``sub``, ``mul``, ``div``, ``neg``, ``power``
* linear algebra — ``matmul`` (2-D), ``spmm`` (scipy.sparse constant @ dense)
* shape — ``reshape``, ``transpose``, ``cat``, ``stack``, ``getitem``
* reductions — ``sum``, ``mean``
* indexing / graph — ``gather_rows``, ``gathered_rowwise_dot``,
  ``segment_sum``, ``segment_softmax``
* DGNN layer ops — ``memory_gates``, ``memory_mixture`` (Eq. 3) and
  ``layer_norm`` (Eq. 7 with its dropout and LeakyReLU fused in)
* nonlinearities — ``exp``, ``log``, ``sqrt``, ``relu``, ``leaky_relu``,
  ``sigmoid``, ``tanh``, ``softplus``, ``log_sigmoid``, ``softmax``,
  ``dropout``

The sparse/graph kernels (``spmm``, ``gather_rows``,
``gathered_rowwise_dot``, ``segment_sum``), the DGNN layer ops and their
backwards call the instrumented kernels of :mod:`repro.engine.backends`
as ``backends.<kernel>(...)``, so every model shares one kernel set and
its counters.

A backward that allocated its gradient array itself passes it with
``owned=True`` and ``Tensor._accumulate`` adopts it instead of copying;
a backward that forwards ``out.grad`` (or a view of it) never does.
"""

from __future__ import annotations

import builtins
from typing import Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.autograd.sparse import RowSparseGrad, sparse_grads_enabled
from repro.autograd.tensor import Tensor, as_tensor
from repro.engine import arena, backends
from repro.engine.adjcache import cached_transpose
from repro.engine.precision import as_index_array, get_dtype
from repro.engine.stable_math import stable_sigmoid, stable_softplus

Axis = Union[None, int, Tuple[int, ...]]


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _check_slope(negative_slope: float) -> float:
    """The fused ops read the LeakyReLU mask off the output's sign."""
    slope = float(negative_slope)
    if slope < 0.0:
        raise ValueError(f"negative_slope must be >= 0, got {slope}")
    return slope


def _accumulate_owned(tensors, grads) -> None:
    """Hand each freshly allocated kernel gradient to its input."""
    for tensor, grad in zip(tensors, grads):
        if grad is not None:
            tensor._accumulate(grad, owned=True)


def _normalize_axis(axis: Axis, ndim: int) -> Optional[Tuple[int, ...]]:
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
def add(a, b) -> Tensor:
    """Elementwise ``a + b`` with numpy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def backward(out: Tensor):
        a._accumulate(_unbroadcast(out.grad, a.shape))
        b._accumulate(_unbroadcast(out.grad, b.shape))

    return Tensor._make(data, (a, b), backward)


def sub(a, b) -> Tensor:
    """Elementwise ``a - b`` with numpy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data

    def backward(out: Tensor):
        a._accumulate(_unbroadcast(out.grad, a.shape))
        b._accumulate(_unbroadcast(-out.grad, b.shape))

    return Tensor._make(data, (a, b), backward)


def mul(a, b) -> Tensor:
    """Elementwise ``a * b`` with numpy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def backward(out: Tensor):
        a._accumulate(_unbroadcast(out.grad * b.data, a.shape), owned=True)
        b._accumulate(_unbroadcast(out.grad * a.data, b.shape), owned=True)

    return Tensor._make(data, (a, b), backward)


def div(a, b) -> Tensor:
    """Elementwise ``a / b`` with numpy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    data = a.data / b.data

    def backward(out: Tensor):
        a._accumulate(_unbroadcast(out.grad / b.data, a.shape))
        b._accumulate(_unbroadcast(-out.grad * a.data / (b.data * b.data), b.shape))

    return Tensor._make(data, (a, b), backward)


def neg(a) -> Tensor:
    """Elementwise negation."""
    a = as_tensor(a)

    def backward(out: Tensor):
        a._accumulate(-out.grad)

    return Tensor._make(-a.data, (a,), backward)


def power(a, exponent: float) -> Tensor:
    """Elementwise ``a ** exponent`` for a scalar exponent."""
    a = as_tensor(a)
    exponent = float(exponent)
    data = a.data ** exponent

    def backward(out: Tensor):
        a._accumulate(out.grad * exponent * a.data ** (exponent - 1.0))

    return Tensor._make(data, (a,), backward)


# ----------------------------------------------------------------------
# Linear algebra
# ----------------------------------------------------------------------
def matmul(a, b) -> Tensor:
    """Matrix product of 1-D/2-D tensors (``a @ b``)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim > 2 or b.ndim > 2:
        raise ValueError("matmul supports only 1-D and 2-D operands; "
                         "reshape batched operands explicitly")
    data = a.data @ b.data

    def backward(out: Tensor):
        grad = out.grad
        a_data, b_data = a.data, b.data
        if a.ndim == 1 and b.ndim == 1:  # dot product -> scalar
            a._accumulate(grad * b_data)
            b._accumulate(grad * a_data)
        elif a.ndim == 1:  # (d,) @ (d, k) -> (k,)
            a._accumulate(grad @ b_data.T)
            b._accumulate(np.outer(a_data, grad))
        elif b.ndim == 1:  # (n, d) @ (d,) -> (n,)
            a._accumulate(np.outer(grad, b_data))
            b._accumulate(a_data.T @ grad)
        else:
            a._accumulate(grad @ b_data.T, owned=True)
            b._accumulate(a_data.T @ grad, owned=True)

    return Tensor._make(data, (a, b), backward)


def spmm(matrix: sp.spmatrix, dense) -> Tensor:
    """Sparse-constant times dense-tensor product.

    ``matrix`` is a fixed (non-differentiable) scipy sparse matrix of shape
    ``(m, n)``; ``dense`` is an ``(n, d)`` (or ``(n,)``) tensor.  Used for
    all neighbourhood aggregations: the normalized adjacency is constant,
    the node features flow gradients.
    """
    dense = as_tensor(dense)
    if not sp.issparse(matrix):
        raise TypeError("spmm expects a scipy.sparse matrix as the first operand")
    matrix = matrix.tocsr()
    data = backends.spmm(matrix, dense.data)

    def backward(out: Tensor):
        # The CSR transpose is memoized per matrix (the seed rebuilt
        # it on every forward call).
        dense._accumulate(backends.spmm(cached_transpose(matrix),
                                        out.grad), owned=True)

    return Tensor._make(data, (dense,), backward)


# ----------------------------------------------------------------------
# Shape ops
# ----------------------------------------------------------------------
def reshape(a, shape: Sequence[int]) -> Tensor:
    """Return ``a`` viewed with a new shape."""
    a = as_tensor(a)
    shape = tuple(int(s) for s in shape)
    data = a.data.reshape(shape)

    def backward(out: Tensor):
        a._accumulate(out.grad.reshape(a.shape))

    return Tensor._make(data, (a,), backward)


def transpose(a, axes: Optional[Sequence[int]] = None) -> Tensor:
    """Permute tensor axes (defaults to full reversal, like ``.T``)."""
    a = as_tensor(a)
    if axes is None:
        axes = tuple(range(a.ndim))[::-1]
    axes = tuple(int(ax) for ax in axes)
    inverse = tuple(np.argsort(axes))
    data = a.data.transpose(axes)

    def backward(out: Tensor):
        a._accumulate(out.grad.transpose(inverse))

    return Tensor._make(data, (a,), backward)


def cat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("cat requires at least one tensor")
    axis = axis % tensors[0].ndim if tensors[0].ndim else 0
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(out: Tensor):
        slicer = [builtins.slice(None)] * out.grad.ndim
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            slicer[axis] = builtins.slice(int(start), int(stop))
            tensor._accumulate(out.grad[tuple(slicer)])

    return Tensor._make(data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(out: Tensor):
        grads = np.moveaxis(out.grad, axis, 0)
        for tensor, grad in zip(tensors, grads):
            tensor._accumulate(grad)

    return Tensor._make(data, tensors, backward)


def getitem(a, index) -> Tensor:
    """Index/slice ``a``; integer-array indices scatter-add on backward."""
    a = as_tensor(a)
    if isinstance(index, Tensor):
        index = index.data.astype(np.int64)
    data = a.data[index]

    def backward(out: Tensor):
        grad = arena.zeros(a.data.shape, a.data.dtype)
        np.add.at(grad, index, out.grad)
        a._accumulate(grad)

    return Tensor._make(data, (a,), backward)


def gather_rows(a, indices) -> Tensor:
    """Gather rows ``a[indices]`` for an integer index array.

    Equivalent to an embedding lookup; the backward pass scatter-adds the
    incoming gradient into the selected rows.  Both halves run as
    engine kernels (``gather_rows`` / ``scatter_add_rows``), so
    minibatch seed gathering is visible to the engine counters.
    """
    a = as_tensor(a)
    indices = as_index_array(indices, a.shape[0])
    data = backends.gather_rows(a.data, indices)

    def backward(out: Tensor):
        # Leaf tables (embedding weights) can take a row-sparse
        # gradient — nothing downstream reads it but the optimizer.
        # Non-leaf parents feed further backward closures that expect
        # dense arrays, so they always get the dense scatter.
        if (sparse_grads_enabled()
                and a._backward is None and not a._parents):
            a._accumulate(RowSparseGrad(indices, out.grad, a.shape[0]))
        else:
            a._accumulate(backends.scatter_add_rows(
                out.grad, indices, a.shape[0]), owned=True)

    return Tensor._make(data, (a,), backward)


def gathered_rowwise_dot(a, b, a_indices, b_indices) -> Tensor:
    """Fused ``sum(a[a_indices] * b[b_indices], axis=1)`` — BPR scoring.

    ``a`` and ``b`` are 2-D embedding tables; the index arrays are equal
    length.  Equivalent to gather → elementwise multiply → row sum, but
    recorded as one graph node, so no gathered ``(batch, d)`` copies are
    kept alive by the graph.  The backward scatters both gradients
    through the ``scatter_add_rows`` kernel.  Passing the same table
    (and indices) for both sides yields per-row squared norms — the
    batch L2 regularizer.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("gathered_rowwise_dot expects 2-D embedding tables")
    a_indices = as_index_array(a_indices, a.shape[0])
    b_indices = as_index_array(b_indices, b.shape[0])
    if a_indices.shape != b_indices.shape or a_indices.ndim != 1:
        raise ValueError("index arrays must be 1-D and of equal length")
    data = backends.gathered_rowwise_dot(a.data, a_indices,
                                         b.data, b_indices)

    def backward(out: Tensor):
        grad = out.grad.reshape(-1, 1)
        a._accumulate(backends.scatter_add_rows(
            grad * b.data[b_indices], a_indices, a.shape[0]), owned=True)
        b._accumulate(backends.scatter_add_rows(
            grad * a.data[a_indices], b_indices, b.shape[0]), owned=True)

    return Tensor._make(data, (a, b), backward)


def memory_mixture(embeddings, gates, transforms) -> Tensor:
    """Fused gated mixture-of-transforms — DGNN Eq. 3 in one op.

    ``embeddings`` is ``(n, d)``, ``gates`` is ``(n, M)`` and
    ``transforms`` is ``(M, d, d)``; the result is
    ``out[n] = Σ_m gates[n, m] · (embeddings[n] @ transforms[m])``.

    Equivalent to the unfused five-op composition (transpose → reshape →
    matmul → mul → sum) but run as a single engine kernel: the forward
    never materializes the ``(n, M, d)`` per-unit activations and the
    backward is hand-written in :mod:`repro.engine.backends`, so the
    hottest path in the DGNN memory encoder costs one graph node instead
    of five.
    """
    embeddings = as_tensor(embeddings)
    gates = as_tensor(gates)
    transforms = as_tensor(transforms)
    if embeddings.ndim != 2 or gates.ndim != 2 or transforms.ndim != 3:
        raise ValueError("memory_mixture expects embeddings (n, d), "
                         "gates (n, M), transforms (M, d, d)")
    n, d = embeddings.shape
    units = transforms.shape[0]
    if gates.shape != (n, units):
        raise ValueError(f"gates shape {gates.shape} does not match "
                         f"(n={n}, M={units})")
    if transforms.shape[1:] != (d, d):
        raise ValueError(f"transforms shape {transforms.shape} does not "
                         f"match (M, d={d}, d={d})")
    data = backends.memory_mixture(embeddings.data, gates.data,
                                   transforms.data)

    def backward(out: Tensor):
        needs = (embeddings.requires_grad, gates.requires_grad,
                 transforms.requires_grad)
        _accumulate_owned((embeddings, gates, transforms),
                          backends.memory_mixture_backward(
                              out.grad, embeddings.data, gates.data,
                              transforms.data, needs=needs))

    return Tensor._make(data, (embeddings, gates, transforms), backward)


def memory_gates(embeddings, keys, bias, negative_slope: float = 0.2) -> Tensor:
    """DGNN Eq. 3's gates ``η = LeakyReLU(embeddings @ keys + bias)``.

    ``embeddings`` is ``(n, d)``, ``keys`` is ``(d, M)`` and ``bias`` is
    ``(M,)``; the result is ``(n, M)``.  One graph node with a
    hand-written backward (:func:`repro.engine.backends.memory_gates`),
    equal to matmul → add → leaky_relu.
    """
    embeddings, keys, bias = (as_tensor(embeddings), as_tensor(keys),
                              as_tensor(bias))
    if embeddings.ndim != 2 or keys.ndim != 2 or bias.ndim != 1:
        raise ValueError("memory_gates expects embeddings (n, d), keys "
                         "(d, M), bias (M,)")
    if keys.shape != (embeddings.shape[1], bias.shape[0]):
        raise ValueError(f"keys shape {keys.shape} does not match "
                         f"(d={embeddings.shape[1]}, M={bias.shape[0]})")
    slope = _check_slope(negative_slope)
    data = backends.memory_gates(embeddings.data, keys.data, bias.data, slope)

    def backward(out: Tensor):
        needs = (embeddings.requires_grad, keys.requires_grad,
                 bias.requires_grad)
        _accumulate_owned((embeddings, keys, bias),
                          backends.memory_gates_backward(
                              out.grad, embeddings.data, keys.data,
                              out.data, slope, needs=needs))

    return Tensor._make(data, (embeddings, keys, bias), backward)


def layer_norm(x, scale, shift, eps: float = 1e-5,
               keep: Optional[np.ndarray] = None,
               negative_slope: Optional[float] = None) -> Tensor:
    """LayerNorm over the last axis (Ba et al., 2016), as one graph node.

    ``normed * scale + shift`` with ``normed = (x - mean) / sqrt(var +
    eps)``.  DGNN's Eq. 7 runs its whole message stabilization through
    this op: ``keep`` (a :func:`dropout_mask`) is applied to ``x``
    first, and ``negative_slope`` adds a LeakyReLU on the output.  The
    backward is hand-written (:func:`repro.engine.backends.layer_norm`),
    so the op keeps only the normalized rows and per-row deviations
    alive instead of the nine nodes of the composed chain.
    """
    x, scale, shift = as_tensor(x), as_tensor(scale), as_tensor(shift)
    if scale.shape != x.shape[-1:] or shift.shape != x.shape[-1:]:
        raise ValueError(f"scale {scale.shape} and shift {shift.shape} must "
                         f"match the last axis of x {x.shape}")
    if keep is not None and keep.shape != x.shape:
        raise ValueError(f"keep mask shape {keep.shape} does not match "
                         f"x shape {x.shape}")
    slope = None if negative_slope is None else _check_slope(negative_slope)
    data, normed, std = backends.layer_norm(x.data, scale.data, shift.data,
                                            eps, keep, slope)

    def backward(out: Tensor):
        needs = (x.requires_grad, scale.requires_grad, shift.requires_grad)
        _accumulate_owned((x, scale, shift),
                          backends.layer_norm_backward(
                              out.grad, out.data, normed, std,
                              scale.data, keep, slope, needs=needs))

    return Tensor._make(data, (x, scale, shift), backward)


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------
def sum(a, axis: Axis = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Sum over ``axis`` (all axes if ``None``)."""
    a = as_tensor(a)
    norm_axis = _normalize_axis(axis, a.ndim)
    data = a.data.sum(axis=norm_axis, keepdims=keepdims)

    def backward(out: Tensor):
        grad = out.grad
        if norm_axis is not None and not keepdims:
            for ax in sorted(norm_axis):
                grad = np.expand_dims(grad, ax)
        a._accumulate(np.broadcast_to(grad, a.shape))

    return Tensor._make(data, (a,), backward)


def mean(a, axis: Axis = None, keepdims: bool = False) -> Tensor:
    """Arithmetic mean over ``axis`` (all axes if ``None``)."""
    a = as_tensor(a)
    norm_axis = _normalize_axis(axis, a.ndim)
    if norm_axis is None:
        count = a.data.size
    else:
        count = int(np.prod([a.shape[ax] for ax in norm_axis]))
    data = a.data.mean(axis=norm_axis, keepdims=keepdims)

    def backward(out: Tensor):
        grad = out.grad / count
        if norm_axis is not None and not keepdims:
            for ax in sorted(norm_axis):
                grad = np.expand_dims(grad, ax)
        a._accumulate(np.broadcast_to(grad, a.shape))

    return Tensor._make(data, (a,), backward)


# ----------------------------------------------------------------------
# Segment ops (graph aggregation along explicit edge lists)
# ----------------------------------------------------------------------
def segment_sum(a, segment_ids, num_segments: int) -> Tensor:
    """Sum rows of ``a`` that share a segment id.

    ``a`` has shape ``(E, ...)``; ``segment_ids`` is an ``(E,)`` integer
    array with values in ``[0, num_segments)``.  Returns a tensor of shape
    ``(num_segments, ...)``.  The backward pass gathers the incoming
    gradient by segment id.
    """
    a = as_tensor(a)
    segment_ids = as_index_array(segment_ids, num_segments)
    if segment_ids.ndim != 1 or segment_ids.shape[0] != a.shape[0]:
        raise ValueError("segment_ids must be 1-D and match a.shape[0]")
    data = backends.segment_sum(a.data, segment_ids, num_segments)

    def backward(out: Tensor):
        a._accumulate(out.grad[segment_ids])

    return Tensor._make(data, (a,), backward)


def segment_softmax(scores, segment_ids, num_segments: int, eps: float = 1e-12) -> Tensor:
    """Softmax of per-edge ``scores`` grouped by target segment.

    Composed from primitive ops so it is differentiable end to end; the
    per-segment max used for numerical stability is treated as a constant
    shift, which does not alter the softmax gradient.
    """
    scores = as_tensor(scores)
    segment_ids = as_index_array(segment_ids, num_segments)
    shift = np.full(num_segments, -np.inf, dtype=scores.data.dtype)
    np.maximum.at(shift, segment_ids, scores.data)
    shift[~np.isfinite(shift)] = 0.0
    shifted = sub(scores, Tensor(shift[segment_ids]))
    exps = exp(shifted)
    denom = segment_sum(exps, segment_ids, num_segments)
    denom_per_edge = gather_rows(denom, segment_ids)
    return div(exps, add(denom_per_edge, Tensor(np.array(eps))))


# ----------------------------------------------------------------------
# Nonlinearities
# ----------------------------------------------------------------------
def exp(a) -> Tensor:
    """Elementwise exponential."""
    a = as_tensor(a)
    data = np.exp(a.data)

    def backward(out: Tensor):
        a._accumulate(out.grad * out.data)

    return Tensor._make(data, (a,), backward)


def log(a) -> Tensor:
    """Elementwise natural logarithm."""
    a = as_tensor(a)
    data = np.log(a.data)

    def backward(out: Tensor):
        a._accumulate(out.grad / a.data)

    return Tensor._make(data, (a,), backward)


def sqrt(a) -> Tensor:
    """Elementwise square root."""
    a = as_tensor(a)
    data = np.sqrt(a.data)

    def backward(out: Tensor):
        a._accumulate(out.grad * 0.5 / out.data)

    return Tensor._make(data, (a,), backward)


def relu(a) -> Tensor:
    """Rectified linear unit."""
    a = as_tensor(a)
    mask = a.data > 0
    data = np.where(mask, a.data, 0.0)

    def backward(out: Tensor):
        a._accumulate(out.grad * mask)

    return Tensor._make(data, (a,), backward)


def leaky_relu(a, negative_slope: float = 0.2) -> Tensor:
    """LeakyReLU with the paper's default negative slope of 0.2."""
    a = as_tensor(a)
    slope = float(negative_slope)
    mask = a.data > 0
    data = np.where(mask, a.data, slope * a.data)

    def backward(out: Tensor):
        grad = out.grad
        a._accumulate(np.where(mask, grad, grad * grad.dtype.type(slope)),
                      owned=True)

    return Tensor._make(data, (a,), backward)


def sigmoid(a) -> Tensor:
    """Numerically stable logistic sigmoid."""
    a = as_tensor(a)
    data = stable_sigmoid(a.data)

    def backward(out: Tensor):
        a._accumulate(out.grad * out.data * (1.0 - out.data))

    return Tensor._make(data, (a,), backward)


def tanh(a) -> Tensor:
    """Hyperbolic tangent."""
    a = as_tensor(a)
    data = np.tanh(a.data)

    def backward(out: Tensor):
        a._accumulate(out.grad * (1.0 - out.data * out.data))

    return Tensor._make(data, (a,), backward)


def softplus(a) -> Tensor:
    """Numerically stable ``log(1 + exp(a))``."""
    a = as_tensor(a)
    data = stable_softplus(a.data)

    def backward(out: Tensor):
        a._accumulate(out.grad * stable_sigmoid(a.data))

    return Tensor._make(data, (a,), backward)


def log_sigmoid(a) -> Tensor:
    """Stable ``log(sigmoid(a)) == -softplus(-a)`` (the BPR loss kernel)."""
    return neg(softplus(neg(a)))


def softmax(a, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` with max-shift stabilization."""
    a = as_tensor(a)
    axis = axis % a.ndim
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    data = exps / exps.sum(axis=axis, keepdims=True)

    def backward(out: Tensor):
        s = out.data
        dot = (out.grad * s).sum(axis=axis, keepdims=True)
        a._accumulate((out.grad - dot) * s)

    return Tensor._make(data, (a,), backward)


def dropout_mask(shape: Tuple[int, ...], rate: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout keep mask: ``0`` with probability ``rate``, else
    ``1 / (1 - rate)``, in the engine dtype.

    Draws one ``rng.random(shape)`` per call.  The scale is cast to the
    engine dtype once, so the mask equals the float64 mask cast down.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    scale = get_dtype().type(1.0 / (1.0 - rate))
    return (rng.random(shape) >= rate) * scale


def dropout(a, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: zero entries with probability ``rate`` and rescale."""
    a = as_tensor(a)
    if not training or rate <= 0.0:
        return a
    return mul(a, Tensor(dropout_mask(a.shape, rate, rng)))

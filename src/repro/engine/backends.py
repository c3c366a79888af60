"""The engine's sparse kernels: one instrumented set under every model.

Every neighbourhood aggregation in the repository bottoms out in a
handful of kernels — sparse-matrix × dense-matrix products (``spmm``:
the per-relation means of DGNN Eqs. 4–6 and the τ of Eqs. 9–10), the
gathered row-wise dot behind BPR scoring (Eq. 11), row gather and
scatter-add for embedding lookups, ``segment_sum`` for edge-list
aggregations — plus DGNN's per-layer dense math, each with a
hand-written backward: Eq. 3's memory gates
(``η = LeakyReLU(x @ W² + b)``) and memory mixture
(``out[n] = Σ_m gates[n, m] · (embeddings[n] @ transforms[m])``), and
Eq. 7's dropout → LayerNorm → LeakyReLU (``layer_norm``, also every plain
LayerNorm).  The kernels are vectorized: scipy's compiled CSR spmm,
einsum gather+dot, scatter reductions as a one-hot CSR product (bitwise
equal to ``np.add.at``), the mixture forward as one stacked
``(n, d) @ (d, |M|·d)`` GEMM gated and summed by one einsum, and its
backward as two stacked GEMMs through one ``(n, |M|·d)`` buffer: one for
the embedding and gate gradients, one for all ``|M|`` transform
gradients.  LeakyReLU and ReLU select without a branch
(:func:`leaky_select`, :func:`leaky_grad`, :func:`relu_select`), byte
for byte equal to the ``np.where`` forms they replaced, everywhere but
the gates' backward.

Every kernel allocates its own result; ``spmm``, ``gather_rows``,
``scatter_add_rows``, ``segment_sum`` and ``memory_mixture`` take it
from the buffer arena when a step scope pools that shape.  Every
backward kernel returns freshly allocated gradients, which
:meth:`repro.autograd.tensor.Tensor._accumulate` adopts instead of
copying.

Each public function computes its call's cost model (nonzeros,
dense-FLOP and bytes-moved estimates) and hands it to one private
helper, ``_run``, which looks the kernel up in the private ``_KERNELS``
table, times it and records the call in :mod:`repro.engine.instrument`.
Kernels compute in the dtype of their inputs; the engine-wide precision
policy lives in :mod:`repro.engine.precision`.

Because the lookup happens at call time, ``_KERNELS`` is the one seam
the test suite swaps (``tests/oracles``: Python-loop reference kernels
and a dtype-leak checker), so callers reach the kernels as
``backends.<kernel>(...)`` and never bind a kernel at import time.

:mod:`repro.engine.locality` supplies a cache-blocked spmm (plus a
chunked gather) that these kernels switch to when an spmm block budget
is active (``REPRO_ENGINE_SPMM_BLOCK`` / ``TrainConfig.spmm_block``);
both are bitwise identical to the flat kernels, and the scatter
reductions reach the blocked spmm through their one-hot product.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.engine import arena, locality
from repro.engine.instrument import counters

try:  # pragma: no cover - import guard for exotic scipy builds
    from scipy.sparse import _sparsetools as _csr_tools
except ImportError:  # pragma: no cover
    _csr_tools = None


# -- branch-free selects -------------------------------------------------
# ``np.where`` over a mask of random signs runs ~10x slower than a
# maximum, minimum or product of the same arrays.  These helpers give the
# same bytes as the ``np.where`` forms in their docstrings, for every
# input including ±0, ±inf and NaN.
def leaky_grad(grad: np.ndarray, mask: np.ndarray,
               negative_slope: float) -> np.ndarray:
    """``np.where(mask, grad, grad * negative_slope)``, as ``grad`` times
    the two-entry table ``[negative_slope, 1]`` taken at ``mask``."""
    return grad * np.array([negative_slope, 1], grad.dtype).take(mask)


def leaky_select(x: np.ndarray, negative_slope: float) -> np.ndarray:
    """LeakyReLU, ``np.where(x > 0, x, negative_slope * x)``.

    ``max(x, s·x)`` for ``0 < s <= 1`` and ``min(x, s·x)`` for ``s > 1``.
    At ``s = 0``, ``0·inf`` is NaN where ``np.where`` keeps ``+inf``, and
    at ``s < 0`` the maximum would choose between ``+0`` and ``-0``; both
    multiply by :func:`leaky_grad`'s table instead.
    """
    if negative_slope > 1:
        return np.minimum(x, negative_slope * x)
    if negative_slope > 0:
        return np.maximum(x, negative_slope * x)
    return leaky_grad(x, x > 0, negative_slope)


def relu_select(x: np.ndarray) -> np.ndarray:
    """ReLU, ``np.where(x > 0, x, 0.0)``: ``fmax`` maps NaN to ``0``, and
    adding ``+0`` turns the ``-0`` that ``fmax`` may keep into ``+0``."""
    out = np.fmax(x, 0.0)
    out += 0.0
    return out


# -- kernels -------------------------------------------------------------
def _spmm(matrix: sp.csr_matrix, dense: np.ndarray) -> np.ndarray:
    dtype = np.result_type(matrix.dtype, dense.dtype)
    out_shape = (matrix.shape[0],) + dense.shape[1:]
    block_bytes = locality.get_spmm_block()
    if block_bytes is None and not arena.get_arena().pools(out_shape, dtype):
        return matrix @ dense
    out = arena.empty(out_shape, dtype)
    if (block_bytes is not None
            and locality.can_block_spmm(matrix, dense, out)):
        # Row-block CSC streaming: the output tile stays cache-resident
        # while the dense operand is read in ascending column order.
        # Per-element accumulation order matches csr_matvecs on sorted
        # indices, so the result is bitwise identical to the flat path.
        return locality.blocked_spmm(matrix, dense, out,
                                     block_bytes=block_bytes)
    if (_csr_tools is not None and dense.ndim == 2
            and matrix.dtype == dense.dtype == out.dtype
            and matrix.indices.dtype == matrix.indptr.dtype
            and dense.flags.c_contiguous and out.flags.c_contiguous):
        # scipy's own __matmul__ bottoms out in csr_matvecs on a zeroed
        # result, so writing through it is bitwise identical to
        # `matrix @ dense` — minus the fresh allocation.
        out[...] = 0
        _csr_tools.csr_matvecs(
            matrix.shape[0], matrix.shape[1], dense.shape[1],
            matrix.indptr, matrix.indices, matrix.data,
            dense.ravel(), out.ravel())
    else:
        out[...] = matrix @ dense
    return out


def _gathered_rowwise_dot(a, a_indices, b, b_indices) -> np.ndarray:
    return np.einsum("nd,nd->n", a[a_indices], b[b_indices])


def _gather_rows(table, indices) -> np.ndarray:
    out_shape = indices.shape + table.shape[1:]
    block_bytes = locality.get_spmm_block()
    if (block_bytes is None
            and not arena.get_arena().pools(out_shape, table.dtype)):
        return table[indices]
    out = arena.empty(out_shape, table.dtype)
    if block_bytes is not None and table.ndim > 1:
        return locality.gather_rows_blocked(table, indices, out,
                                            block_bytes=block_bytes)
    np.take(table, indices, axis=0, out=out)
    return out


def _one_hot_sum(values, indices, num_rows) -> np.ndarray:
    # Row ``r`` of the one-hot ``(num_rows, n)`` CSR lists, in batch
    # order, the positions whose index is ``r`` (a stable argsort, with
    # bincount for the row pointer), so the product sums each output
    # row's contributions in the order ``np.add.at`` does: bitwise equal.
    flat = indices.reshape(-1)
    if flat.size and (flat.min() < 0 or flat.max() >= num_rows):
        raise IndexError(f"scatter index out of range [0, {num_rows})")
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=num_rows), out=indptr[1:])
    one_hot = sp.csr_matrix(
        (np.ones(flat.size, values.dtype), np.argsort(flat, kind="stable"),
         indptr), shape=(num_rows, flat.size))
    trailing = values.shape[indices.ndim:]
    width = int(np.prod(trailing, dtype=np.int64))
    summed = _spmm(one_hot, values.reshape(flat.size, width))
    return summed.reshape((num_rows,) + trailing)


def _memory_mixture(embeddings, gates, transforms) -> np.ndarray:
    # One (n, d) @ (d, M·d) GEMM computes every unit's transform, and one
    # einsum gates and sums them, adding the units in ascending order.
    dtype = np.result_type(embeddings.dtype, gates.dtype, transforms.dtype)
    rows = embeddings.shape[0]
    units, dim = transforms.shape[0], transforms.shape[1]
    stacked = arena.empty((rows, units * dim), dtype)
    np.matmul(embeddings,
              transforms.transpose(1, 0, 2).reshape(dim, units * dim),
              out=stacked)
    out = arena.empty(embeddings.shape, dtype)
    np.einsum("nm,nmd->nd", gates, stacked.reshape(rows, units, dim),
              out=out)
    arena.release(stacked)
    return out


def _memory_mixture_backward(grad_out, embeddings, gates, transforms, needs):
    # One (n, M·d) buffer serves both halves.  First it holds every
    # unit's ``grad_out @ W_m.T`` from one stacked GEMM; the embedding and
    # gate gradients are two contractions of it.  Then it holds the
    # feature-major operand ``gates[:, m] * embeddings[:, i]`` as
    # (M, d, n), so all M transform gradients are one (M·d, n) @ (n, d)
    # GEMM.  Reusing the buffer, rather than allocating the operand,
    # spares the allocator a second (n, M·d) block of fresh pages a call.
    dtype = np.result_type(grad_out.dtype, embeddings.dtype,
                           gates.dtype, transforms.dtype)
    rows = grad_out.shape[0]
    units, dim = transforms.shape[0], transforms.shape[1]
    grad_emb = grad_gates = grad_transforms = None
    buffer = arena.empty((rows, units * dim), dtype)
    if needs[0] or needs[1]:
        np.matmul(grad_out, transforms.reshape(units * dim, dim).T,
                  out=buffer)
        per_unit = buffer.reshape(rows, units, dim)
        if needs[0]:
            # A strided ``out=`` view would push matmul off its fast
            # batched path; the fresh (n, 1, d) result is reshaped instead.
            grad_emb = np.matmul(gates[:, None, :],
                                 per_unit).reshape(embeddings.shape)
        if needs[1]:
            grad_gates = arena.empty(gates.shape, dtype)
            np.einsum("nmi,ni->nm", per_unit, embeddings, out=grad_gates)
    if needs[2]:
        # Unit-stride (M, n) and (d, n) copies keep the broadcast
        # multiply on contiguous rows; both are small next to the buffer.
        operand = buffer.reshape(units, dim, rows)
        np.multiply(np.ascontiguousarray(gates.T)[:, None, :],
                    np.ascontiguousarray(embeddings.T)[None, :, :],
                    out=operand)
        grad_transforms = arena.empty(transforms.shape, dtype)
        np.matmul(operand.reshape(units * dim, rows), grad_out,
                  out=grad_transforms.reshape(units * dim, dim))
    arena.release(buffer)
    return grad_emb, grad_gates, grad_transforms


def _memory_gates(embeddings, keys, bias, negative_slope) -> np.ndarray:
    raw = embeddings @ keys
    raw += bias
    return leaky_select(raw, negative_slope)


def _memory_gates_backward(grad_out, embeddings, keys, gates,
                           negative_slope, needs):
    # ``gates > 0`` exactly where the pre-activation is, for any slope >= 0.
    # ``leaky_grad`` measured no faster here within a training epoch
    # (DGNN on ``large``), so this select keeps ``np.where``.
    grad_raw = np.where(gates > 0, grad_out,
                        grad_out * grad_out.dtype.type(negative_slope))
    return (grad_raw @ keys.T if needs[0] else None,
            embeddings.T @ grad_raw if needs[1] else None,
            grad_raw.sum(axis=0) if needs[2] else None)


def _layer_norm(x, scale, shift, eps, keep, negative_slope):
    # The same arithmetic, in the same order, as mean -> sub -> mul ->
    # mean -> add -> sqrt -> div -> mul -> add -> leaky_relu, so the
    # forward equals the composed chain bitwise.
    if keep is not None:
        x = x * keep
    normed = x - x.mean(axis=-1, keepdims=True)
    std = (normed * normed).mean(axis=-1, keepdims=True)
    std += eps
    np.sqrt(std, out=std)
    normed /= std
    out = normed * scale
    out += shift
    if negative_slope is not None:
        out = leaky_select(out, negative_slope)
    return out, normed, std


def _layer_norm_backward(grad_out, out, normed, std, scale, keep,
                         negative_slope, needs):
    grad = grad_out
    if negative_slope is not None:
        grad = leaky_grad(grad_out, out > 0, negative_slope)
    rows = tuple(range(grad.ndim - 1))
    grad_scale = (grad * normed).sum(axis=rows) if needs[1] else None
    grad_shift = grad.sum(axis=rows) if needs[2] else None
    grad_x = None
    if needs[0]:
        # d/dx of (x - mean) / std, with g = grad * scale:
        # (g - mean(g) - normed * mean(g * normed)) / std.
        grad_normed = grad * scale
        projection = (grad_normed * normed).mean(axis=-1, keepdims=True)
        grad_x = grad_normed - grad_normed.mean(axis=-1, keepdims=True)
        grad_x -= normed * projection
        grad_x /= std
        if keep is not None:
            grad_x *= keep
    return grad_x, grad_scale, grad_shift


#: Kernel name -> implementation; looked up on every call (see module
#: docstring).  Keys are the counter names each public function records.
_KERNELS = {
    "spmm": _spmm,
    "gathered_rowwise_dot": _gathered_rowwise_dot,
    "gather_rows": _gather_rows,
    "scatter_add_rows": _one_hot_sum,
    "segment_sum": _one_hot_sum,
    "memory_mixture": _memory_mixture,
    "memory_mixture_backward": _memory_mixture_backward,
    "memory_gates": _memory_gates,
    "memory_gates_backward": _memory_gates_backward,
    "layer_norm": _layer_norm,
    "layer_norm_backward": _layer_norm_backward,
}


# -- public, instrumented entry points -----------------------------------
def _run(name: str, *args, **cost):
    """Run kernel ``name`` of ``_KERNELS`` on ``args``, timed, and record
    the call with its ``cost`` (``nnz``, ``flops``, ``bytes_moved``)."""
    start = time.perf_counter()
    result = _KERNELS[name](*args)
    counters().record_kernel(name, time.perf_counter() - start, **cost)
    return result


def spmm(matrix: sp.csr_matrix, dense: np.ndarray) -> np.ndarray:
    """``matrix @ dense`` for a CSR matrix and an ``(n, d)`` array.

    When an arena step scope is active, the result buffer is checked
    out of the pool.
    """
    width = dense.shape[1] if dense.ndim > 1 else 1
    item = dense.dtype.itemsize
    index_bytes = matrix.indices.dtype.itemsize + matrix.data.dtype.itemsize
    return _run(
        "spmm", matrix, dense,
        nnz=matrix.nnz,
        flops=2.0 * matrix.nnz * width,
        # one dense-row read per nonzero, CSR structure once, the output
        # tile zeroed + accumulated once
        bytes_moved=(matrix.nnz * (width * item + index_bytes)
                     + 2.0 * matrix.shape[0] * width * item))


def gathered_rowwise_dot(a: np.ndarray, a_indices: np.ndarray,
                         b: np.ndarray, b_indices: np.ndarray) -> np.ndarray:
    """Gather + row-wise dot: ``sum(a[a_indices] * b[b_indices], axis=1)``.

    The BPR scoring kernel: gathers both ``(batch, d)`` row sets, then
    reduces each aligned pair with one einsum.
    """
    out_item = np.result_type(a.dtype, b.dtype).itemsize
    return _run(
        "gathered_rowwise_dot", a, a_indices, b, b_indices,
        flops=2.0 * len(a_indices) * a.shape[1],
        bytes_moved=(2.0 * len(a_indices) * a.shape[1] * a.dtype.itemsize
                     + len(a_indices) * out_item))


def gather_rows(table: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Row gather ``table[indices]`` — the embedding-lookup kernel.

    The forward half of minibatch seed gathering: sampled paths pull the
    subgraph's rows out of the global embedding tables through this
    kernel so the engine counters see lookup traffic alongside spmm
    traffic.
    """
    width = int(np.prod(table.shape[1:])) if table.ndim > 1 else 1
    return _run(
        "gather_rows", table, indices,
        flops=float(indices.size) * width,
        bytes_moved=2.0 * indices.size * width * table.dtype.itemsize)


def scatter_add_rows(grad: np.ndarray, indices: np.ndarray,
                     num_rows: int) -> np.ndarray:
    """Scatter-add rows into a zeroed ``(num_rows, ...)`` array.

    The backward half of :func:`gather_rows`: duplicated indices
    accumulate, which routes subgraph gradients back to the global
    embedding tables.  Runs as a one-hot sparse product, bitwise equal
    to ``np.add.at``; an index outside ``[0, num_rows)`` raises
    ``IndexError``.
    """
    width = int(np.prod(grad.shape[indices.ndim:])) if grad.ndim else 1
    return _run(
        "scatter_add_rows", grad, indices, num_rows,
        flops=float(indices.size) * width,
        # each gradient row read once, its target row read + written,
        # plus the zeroing pass over the output table
        bytes_moved=(3.0 * indices.size * width * grad.dtype.itemsize
                     + float(num_rows) * width * grad.dtype.itemsize))


def segment_sum(values: np.ndarray, segment_ids: np.ndarray,
                num_segments: int) -> np.ndarray:
    """Sum rows of ``values`` sharing a segment id.

    The same one-hot sparse product as :func:`scatter_add_rows`.
    """
    width = int(np.prod(values.shape[1:])) if values.ndim > 1 else 1
    return _run("segment_sum", values, segment_ids, num_segments,
                flops=float(values.shape[0]) * width)


def memory_mixture(embeddings: np.ndarray, gates: np.ndarray,
                   transforms: np.ndarray) -> np.ndarray:
    """Fused gated mixture-of-transforms (DGNN Eq. 3 forward).

    ``embeddings`` is ``(n, d)``, ``gates`` is ``(n, M)`` and
    ``transforms`` is ``(M, d, d)``; the result is
    ``out[n] = Σ_m gates[n, m] · (embeddings[n] @ transforms[m])``.
    The per-unit products live in one ``(n, M·d)`` temporary that is
    freed before the call returns.
    """
    units, dim = transforms.shape[0], transforms.shape[1]
    return _run("memory_mixture", embeddings, gates, transforms,
                flops=2.0 * embeddings.shape[0] * units * dim * dim)


def memory_mixture_backward(
        grad_out: np.ndarray, embeddings: np.ndarray, gates: np.ndarray,
        transforms: np.ndarray,
        needs: Tuple[bool, bool, bool] = (True, True, True),
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]:
    """Hand-written backward of :func:`memory_mixture`.

    Returns ``(grad_embeddings, grad_gates, grad_transforms)``; entries
    whose ``needs`` flag is ``False`` are skipped and returned as
    ``None``.
    """
    units, dim = transforms.shape[0], transforms.shape[1]
    return _run("memory_mixture_backward", grad_out, embeddings, gates,
                transforms, needs,
                flops=2.0 * sum(needs) * embeddings.shape[0] * units
                * dim * dim)


def memory_gates(embeddings: np.ndarray, keys: np.ndarray, bias: np.ndarray,
                 negative_slope: float) -> np.ndarray:
    """Memory gates ``η = LeakyReLU(embeddings @ keys + bias)`` (Eq. 3).

    ``embeddings`` is ``(n, d)``, ``keys`` is ``(d, M)`` and ``bias`` is
    ``(M,)``; the result is ``(n, M)``.
    """
    return _run("memory_gates", embeddings, keys, bias, negative_slope,
                flops=2.0 * embeddings.shape[0] * keys.shape[0]
                * keys.shape[1])


def memory_gates_backward(
        grad_out: np.ndarray, embeddings: np.ndarray, keys: np.ndarray,
        gates: np.ndarray, negative_slope: float,
        needs: Tuple[bool, bool, bool] = (True, True, True),
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]:
    """Hand-written backward of :func:`memory_gates`.

    ``gates`` is the forward result (its sign is the LeakyReLU mask, so
    ``negative_slope`` must be ``>= 0``).  Returns ``(grad_embeddings,
    grad_keys, grad_bias)``; entries whose ``needs`` flag is ``False``
    are returned as ``None``.  Every returned array is freshly allocated.
    """
    return _run("memory_gates_backward", grad_out, embeddings, keys, gates,
                negative_slope, needs,
                flops=2.0 * sum(needs[:2]) * embeddings.shape[0]
                * keys.shape[0] * keys.shape[1])


def layer_norm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray,
               eps: float, keep: Optional[np.ndarray] = None,
               negative_slope: Optional[float] = None,
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LayerNorm over the last axis, with optional dropout and LeakyReLU.

    Computes ``LeakyReLU(normed * scale + shift)`` with ``normed =
    (x' - mean(x')) / sqrt(var(x') + eps)`` and ``x' = x * keep`` — DGNN
    Eq. 7's dropout → LayerNorm → LeakyReLU in one pass.  ``keep`` (an
    inverted-dropout mask) and ``negative_slope`` are each skipped when
    ``None``.  Returns ``(out, normed, std)``; the backward reads the
    last two.
    """
    return _run("layer_norm", x, scale, shift, eps, keep, negative_slope,
                flops=8.0 * x.size)


def layer_norm_backward(
        grad_out: np.ndarray, out: np.ndarray, normed: np.ndarray,
        std: np.ndarray, scale: np.ndarray, keep: Optional[np.ndarray],
        negative_slope: Optional[float],
        needs: Tuple[bool, bool, bool] = (True, True, True),
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]:
    """Hand-written backward of :func:`layer_norm`.

    ``out``, ``normed`` and ``std`` are the forward results (``out``'s
    sign is the LeakyReLU mask, so ``negative_slope`` must be ``>= 0``).
    Returns ``(grad_x, grad_scale, grad_shift)``; entries whose ``needs``
    flag is ``False`` are returned as ``None``.  Every returned array is
    freshly allocated.
    """
    return _run("layer_norm_backward", grad_out, out, normed, std, scale,
                keep, negative_slope, needs,
                flops=10.0 * grad_out.size)

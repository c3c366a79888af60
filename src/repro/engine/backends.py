"""Pluggable kernel backends for all sparse propagation math.

Every neighbourhood aggregation in the repository bottoms out in four
kernel families — sparse-matrix × dense-matrix products (``spmm``),
gathered row-wise dot products (the SDDMM-style kernel behind BPR
scoring), segment reductions over explicit edge lists, and the fused
memory-mixture transform behind DGNN's Eq. 3
(``out[n] = Σ_m gates[n, m] · (embeddings[n] @ transforms[m])``).  This
module owns those kernels behind a :class:`KernelBackend` interface so
there is exactly one place to optimize every model's hot path:

* ``"naive"`` — transparent Python-loop reference implementations; the
  correctness oracle the parity test suite checks the others against.
* ``"fast"``  — vectorized CSR kernels (scipy's compiled spmm, fused
  einsum gather+dot, ``np.add.at`` scatter reductions, the memory
  mixture as ``|M|`` BLAS GEMMs with ``(n, d)`` temporaries only).

The active backend is selected with :func:`set_backend`, the
:func:`use_backend` context manager, or the ``REPRO_ENGINE_BACKEND``
environment variable at import time; :mod:`repro.autograd.ops` routes
``spmm`` / ``segment_sum`` / ``gathered_rowwise_dot`` /
``memory_mixture`` through it.  Each dispatch records call counts,
nonzeros, dense-FLOP and bytes-moved estimates in
:mod:`repro.engine.instrument`.  Kernels compute in the dtype of their
inputs; the engine-wide precision policy lives in
:mod:`repro.engine.precision`.

Orthogonally to backend choice, :mod:`repro.engine.locality` supplies a
cache-blocked spmm (plus chunked gather and coalescing scatter) that the
``fast`` backend switches to when an spmm block budget is active
(``REPRO_ENGINE_SPMM_BLOCK`` / ``TrainConfig.spmm_block``); the blocked
spmm is bitwise identical to the flat kernel.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Dict, Iterator, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.engine import arena, locality
from repro.engine.instrument import counters

try:  # pragma: no cover - import guard for exotic scipy builds
    from scipy.sparse import _sparsetools as _csr_tools
except ImportError:  # pragma: no cover
    _csr_tools = None


def _out_buffer(shape, dtype, out: Optional[np.ndarray],
                zero: bool) -> np.ndarray:
    """Resolve an ``out=`` argument: caller buffer, arena, or fresh."""
    if out is None:
        return arena.zeros(shape, dtype) if zero else arena.empty(shape, dtype)
    if zero:
        out[...] = 0
    return out


class KernelBackend:
    """Interface + instrumentation shell for the sparse kernel set.

    Subclasses implement the ``_``-prefixed kernels on plain numpy
    arrays; the public methods time each call and feed the global
    counters.  Kernels preserve the floating dtype of their inputs
    (``float64`` by default, ``float32`` under the opt-in precision
    policy of :mod:`repro.engine.precision`).
    """

    name = "abstract"

    # -- public, instrumented entry points -----------------------------
    def spmm(self, matrix: sp.csr_matrix, dense: np.ndarray,
             out: Optional[np.ndarray] = None) -> np.ndarray:
        """``matrix @ dense`` for a CSR matrix and an ``(n, d)`` array.

        ``out``, when given, receives the product in place (it is fully
        overwritten).  When omitted and an arena step scope is active,
        the result buffer is checked out of the pool.
        """
        start = time.perf_counter()
        out = self._spmm(matrix, dense, out=out)
        width = dense.shape[1] if dense.ndim > 1 else 1
        item = dense.dtype.itemsize
        index_bytes = matrix.indices.dtype.itemsize + matrix.data.dtype.itemsize
        counters().record_kernel(
            "spmm", time.perf_counter() - start,
            nnz=matrix.nnz,
            flops=2.0 * matrix.nnz * width,
            # one dense-row read per nonzero, CSR structure once, the
            # output tile zeroed + accumulated once
            bytes_moved=(matrix.nnz * (width * item + index_bytes)
                         + 2.0 * matrix.shape[0] * width * item))
        return out

    def gathered_rowwise_dot(self, a: np.ndarray, a_indices: np.ndarray,
                             b: np.ndarray,
                             b_indices: np.ndarray) -> np.ndarray:
        """Fused gather + row-wise dot: ``sum(a[ai] * b[bi], axis=1)``.

        The BPR scoring kernel: computes per-pair scores without
        materializing the gathered ``(batch, d)`` copies.
        """
        start = time.perf_counter()
        out = self._gathered_rowwise_dot(a, a_indices, b, b_indices)
        counters().record_kernel(
            "gathered_rowwise_dot", time.perf_counter() - start,
            flops=2.0 * len(a_indices) * a.shape[1],
            bytes_moved=(2.0 * len(a_indices) * a.shape[1] * a.dtype.itemsize
                         + len(a_indices) * out.dtype.itemsize))
        return out

    def gather_rows(self, table: np.ndarray, indices: np.ndarray,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
        """Row gather ``table[indices]`` — the embedding-lookup kernel.

        The forward half of minibatch seed gathering: sampled paths pull
        the subgraph's rows out of the global embedding tables through
        this kernel so the engine counters see lookup traffic alongside
        spmm traffic.
        """
        start = time.perf_counter()
        out = self._gather_rows(table, indices, out=out)
        width = int(np.prod(table.shape[1:])) if table.ndim > 1 else 1
        counters().record_kernel(
            "gather_rows", time.perf_counter() - start,
            flops=float(indices.size) * width,
            bytes_moved=2.0 * indices.size * width * table.dtype.itemsize)
        return out

    def scatter_add_rows(self, grad: np.ndarray, indices: np.ndarray,
                         num_rows: int,
                         out: Optional[np.ndarray] = None) -> np.ndarray:
        """Scatter-add rows into a zeroed ``(num_rows, ...)`` array.

        The backward half of :meth:`gather_rows`: duplicated indices
        accumulate, which routes subgraph gradients back to the global
        embedding tables.  ``out``, when given, is zeroed then
        accumulated into.
        """
        start = time.perf_counter()
        out = self._scatter_add_rows(grad, indices, num_rows, out=out)
        width = int(np.prod(grad.shape[indices.ndim:])) if grad.ndim else 1
        counters().record_kernel(
            "scatter_add_rows", time.perf_counter() - start,
            flops=float(indices.size) * width,
            # each gradient row read once, its target row read + written,
            # plus the zeroing pass over the output table
            bytes_moved=(3.0 * indices.size * width * grad.dtype.itemsize
                         + float(num_rows) * width * grad.dtype.itemsize))
        return out

    def segment_sum(self, values: np.ndarray, segment_ids: np.ndarray,
                    num_segments: int) -> np.ndarray:
        """Sum rows of ``values`` sharing a segment id."""
        start = time.perf_counter()
        out = self._segment_sum(values, segment_ids, num_segments)
        width = int(np.prod(values.shape[1:])) if values.ndim > 1 else 1
        counters().record_kernel("segment_sum", time.perf_counter() - start,
                                 flops=float(values.shape[0]) * width)
        return out

    def segment_mean(self, values: np.ndarray, segment_ids: np.ndarray,
                     num_segments: int) -> np.ndarray:
        """Mean of rows of ``values`` sharing a segment id (empty → 0)."""
        start = time.perf_counter()
        sums = self._segment_sum(values, segment_ids, num_segments)
        sizes = np.bincount(segment_ids,
                            minlength=num_segments).astype(values.dtype)
        scale = np.divide(1.0, sizes, out=np.zeros_like(sizes),
                          where=sizes > 0)
        out = sums * scale.reshape((num_segments,) + (1,) * (sums.ndim - 1))
        width = int(np.prod(values.shape[1:])) if values.ndim > 1 else 1
        counters().record_kernel("segment_mean", time.perf_counter() - start,
                                 flops=float(values.shape[0]) * width)
        return out

    def memory_mixture(self, embeddings: np.ndarray, gates: np.ndarray,
                       transforms: np.ndarray,
                       out: Optional[np.ndarray] = None) -> np.ndarray:
        """Fused gated mixture-of-transforms (DGNN Eq. 3 forward).

        ``embeddings`` is ``(n, d)``, ``gates`` is ``(n, M)`` and
        ``transforms`` is ``(M, d, d)``; the result is
        ``out[n] = Σ_m gates[n, m] · (embeddings[n] @ transforms[m])``,
        computed without materializing ``(n, M, d)`` per-unit
        temporaries.
        """
        start = time.perf_counter()
        out = self._memory_mixture(embeddings, gates, transforms, out=out)
        units, dim = transforms.shape[0], transforms.shape[1]
        counters().record_kernel(
            "memory_mixture", time.perf_counter() - start,
            flops=2.0 * embeddings.shape[0] * units * dim * dim)
        return out

    def memory_mixture_backward(
            self, grad_out: np.ndarray, embeddings: np.ndarray,
            gates: np.ndarray, transforms: np.ndarray,
            needs: Tuple[bool, bool, bool] = (True, True, True),
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]:
        """Hand-written backward of :meth:`memory_mixture`.

        Returns ``(grad_embeddings, grad_gates, grad_transforms)``;
        entries whose ``needs`` flag is ``False`` are skipped and
        returned as ``None``.
        """
        start = time.perf_counter()
        grads = self._memory_mixture_backward(grad_out, embeddings, gates,
                                              transforms, needs)
        units, dim = transforms.shape[0], transforms.shape[1]
        counters().record_kernel(
            "memory_mixture_backward", time.perf_counter() - start,
            flops=2.0 * sum(needs) * embeddings.shape[0] * units * dim * dim)
        return grads

    # -- kernels to implement ------------------------------------------
    def _spmm(self, matrix: sp.csr_matrix, dense: np.ndarray,
              out=None) -> np.ndarray:
        raise NotImplementedError

    def _gathered_rowwise_dot(self, a, a_indices, b, b_indices) -> np.ndarray:
        raise NotImplementedError

    def _gather_rows(self, table, indices, out=None) -> np.ndarray:
        raise NotImplementedError

    def _scatter_add_rows(self, grad, indices, num_rows,
                          out=None) -> np.ndarray:
        raise NotImplementedError

    def _segment_sum(self, values, segment_ids, num_segments) -> np.ndarray:
        raise NotImplementedError

    def _memory_mixture(self, embeddings, gates, transforms,
                        out=None) -> np.ndarray:
        raise NotImplementedError

    def _memory_mixture_backward(self, grad_out, embeddings, gates,
                                 transforms, needs):
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class NaiveBackend(KernelBackend):
    """Loop-based reference kernels — slow, obviously correct."""

    name = "naive"

    def _spmm(self, matrix: sp.csr_matrix, dense: np.ndarray,
              out=None) -> np.ndarray:
        indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
        out = _out_buffer((matrix.shape[0],) + dense.shape[1:],
                          np.result_type(matrix.dtype, dense.dtype),
                          out, zero=True)
        for row in range(matrix.shape[0]):
            start, stop = indptr[row], indptr[row + 1]
            for position in range(start, stop):
                out[row] += data[position] * dense[indices[position]]
        return out

    def _gathered_rowwise_dot(self, a, a_indices, b, b_indices) -> np.ndarray:
        out = np.zeros(len(a_indices), dtype=np.result_type(a.dtype, b.dtype))
        for position in range(len(a_indices)):
            out[position] = np.dot(a[a_indices[position]],
                                   b[b_indices[position]])
        return out

    def _gather_rows(self, table, indices, out=None) -> np.ndarray:
        flat = indices.reshape(-1)
        out = _out_buffer(indices.shape + table.shape[1:], table.dtype,
                          out, zero=False)
        flat_out = out.reshape((len(flat),) + table.shape[1:])
        for position in range(len(flat)):
            flat_out[position] = table[flat[position]]
        return out

    def _scatter_add_rows(self, grad, indices, num_rows,
                          out=None) -> np.ndarray:
        flat = indices.reshape(-1)
        rows = grad.reshape((len(flat),) + grad.shape[indices.ndim:])
        out = _out_buffer((num_rows,) + rows.shape[1:], grad.dtype,
                          out, zero=True)
        for position in range(len(flat)):
            out[flat[position]] += rows[position]
        return out

    def _segment_sum(self, values, segment_ids, num_segments) -> np.ndarray:
        out = np.zeros((num_segments,) + values.shape[1:], dtype=values.dtype)
        for position in range(values.shape[0]):
            out[segment_ids[position]] += values[position]
        return out

    def _memory_mixture(self, embeddings, gates, transforms,
                        out=None) -> np.ndarray:
        num_nodes = embeddings.shape[0]
        num_units = transforms.shape[0]
        out = _out_buffer(embeddings.shape, embeddings.dtype, out, zero=True)
        for node in range(num_nodes):
            mixed = np.zeros_like(transforms[0])
            for unit in range(num_units):
                mixed += gates[node, unit] * transforms[unit]
            out[node] = embeddings[node] @ mixed
        return out

    def _memory_mixture_backward(self, grad_out, embeddings, gates,
                                 transforms, needs):
        num_nodes = embeddings.shape[0]
        num_units = transforms.shape[0]
        grad_emb = np.zeros_like(embeddings) if needs[0] else None
        grad_gates = np.zeros_like(gates) if needs[1] else None
        grad_transforms = np.zeros_like(transforms) if needs[2] else None
        for node in range(num_nodes):
            if needs[0]:
                mixed = np.zeros_like(transforms[0])
                for unit in range(num_units):
                    mixed += gates[node, unit] * transforms[unit]
                grad_emb[node] = mixed @ grad_out[node]
            for unit in range(num_units):
                if needs[1]:
                    grad_gates[node, unit] = (
                        embeddings[node] @ transforms[unit] @ grad_out[node])
                if needs[2]:
                    grad_transforms[unit] += gates[node, unit] * np.outer(
                        embeddings[node], grad_out[node])
        return grad_emb, grad_gates, grad_transforms


class FastBackend(KernelBackend):
    """Vectorized CSR kernels (scipy spmm, einsum, scatter-add)."""

    name = "fast"

    def _spmm(self, matrix: sp.csr_matrix, dense: np.ndarray,
              out=None) -> np.ndarray:
        dtype = np.result_type(matrix.dtype, dense.dtype)
        out_shape = (matrix.shape[0],) + dense.shape[1:]
        block_bytes = locality.get_spmm_block()
        if (out is None and block_bytes is None
                and not arena.get_arena().pools(out_shape, dtype)):
            return matrix @ dense
        out = _out_buffer(out_shape, dtype, out, zero=False)
        if (block_bytes is not None
                and locality.can_block_spmm(matrix, dense, out)):
            # Row-block CSC streaming: the output tile stays
            # cache-resident while the dense operand is read in
            # ascending column order.  Per-element accumulation order
            # matches csr_matvecs on sorted indices, so the result is
            # bitwise identical to the flat path below.
            return locality.blocked_spmm(matrix, dense, out,
                                         block_bytes=block_bytes)
        if (_csr_tools is not None and dense.ndim == 2
                and matrix.dtype == dense.dtype == out.dtype
                and matrix.indices.dtype == matrix.indptr.dtype
                and dense.flags.c_contiguous and out.flags.c_contiguous):
            # scipy's own __matmul__ bottoms out in csr_matvecs on a
            # zeroed result, so writing through it is bitwise identical
            # to `matrix @ dense` — minus the fresh allocation.
            out[...] = 0
            _csr_tools.csr_matvecs(
                matrix.shape[0], matrix.shape[1], dense.shape[1],
                matrix.indptr, matrix.indices, matrix.data,
                dense.ravel(), out.ravel())
        else:
            out[...] = matrix @ dense
        return out

    def _gathered_rowwise_dot(self, a, a_indices, b, b_indices) -> np.ndarray:
        return np.einsum("nd,nd->n", a[a_indices], b[b_indices])

    def _gather_rows(self, table, indices, out=None) -> np.ndarray:
        out_shape = indices.shape + table.shape[1:]
        block_bytes = locality.get_spmm_block()
        if (out is None and block_bytes is None
                and not arena.get_arena().pools(out_shape, table.dtype)):
            return table[indices]
        out = _out_buffer(out_shape, table.dtype, out, zero=False)
        if block_bytes is not None and table.ndim > 1:
            return locality.gather_rows_blocked(table, indices, out,
                                                block_bytes=block_bytes)
        np.take(table, indices, axis=0, out=out)
        return out

    def _scatter_add_rows(self, grad, indices, num_rows,
                          out=None) -> np.ndarray:
        out = _out_buffer((num_rows,) + grad.shape[indices.ndim:],
                          grad.dtype, out, zero=True)
        if (locality.get_spmm_block() is not None
                and locality.scatter_add_rows_clustered(grad, indices, out)):
            return out
        np.add.at(out, indices, grad)
        return out

    def _segment_sum(self, values, segment_ids, num_segments) -> np.ndarray:
        out = arena.zeros((num_segments,) + values.shape[1:], values.dtype)
        np.add.at(out, segment_ids, values)
        return out

    def _memory_mixture(self, embeddings, gates, transforms,
                        out=None) -> np.ndarray:
        # |M| BLAS GEMMs with (n, d) temporaries only.  On this op shape
        # (small d, M ~ 8) the loop-of-GEMMs beats a single einsum by an
        # order of magnitude because einsum cannot route it through BLAS.
        dtype = np.result_type(embeddings.dtype, gates.dtype,
                               transforms.dtype)
        out = _out_buffer(embeddings.shape, dtype, out, zero=False)
        tmp = arena.empty(embeddings.shape, dtype)
        np.matmul(embeddings, transforms[0], out=tmp)
        np.multiply(tmp, gates[:, 0:1], out=out)
        for unit in range(1, transforms.shape[0]):
            np.matmul(embeddings, transforms[unit], out=tmp)
            tmp *= gates[:, unit:unit + 1]
            out += tmp
        arena.release(tmp)
        return out

    def _memory_mixture_backward(self, grad_out, embeddings, gates,
                                 transforms, needs):
        dtype = np.result_type(grad_out.dtype, embeddings.dtype,
                               gates.dtype, transforms.dtype)
        grad_emb = (arena.zeros(embeddings.shape, dtype)
                    if needs[0] else None)
        grad_gates = arena.zeros(gates.shape, dtype) if needs[1] else None
        grad_transforms = (arena.zeros(transforms.shape, dtype)
                           if needs[2] else None)
        g_wt = (arena.empty(grad_out.shape, dtype)
                if needs[0] or needs[1] else None)
        tmp = arena.empty(grad_out.shape, dtype) if needs[0] else None
        scaled = arena.empty(embeddings.shape, dtype) if needs[2] else None
        for unit in range(transforms.shape[0]):
            if needs[0] or needs[1]:
                np.matmul(grad_out, transforms[unit].T, out=g_wt)
            if needs[0]:
                np.multiply(g_wt, gates[:, unit:unit + 1], out=tmp)
                grad_emb += tmp
            if needs[1]:
                np.einsum("ni,ni->n", embeddings, g_wt,
                          out=grad_gates[:, unit])
            if needs[2]:
                np.multiply(embeddings, gates[:, unit:unit + 1], out=scaled)
                np.matmul(scaled.T, grad_out, out=grad_transforms[unit])
        for buf in (g_wt, tmp, scaled):
            if buf is not None:
                arena.release(buf)
        return grad_emb, grad_gates, grad_transforms


_REGISTRY: Dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Add a backend instance to the registry (keyed by ``backend.name``)."""
    _REGISTRY[backend.name] = backend
    return backend


register_backend(NaiveBackend())
register_backend(FastBackend())


def available_backends() -> Dict[str, KernelBackend]:
    """Copy of the backend registry."""
    return dict(_REGISTRY)


def _resolve(backend: Union[str, KernelBackend]) -> KernelBackend:
    if isinstance(backend, KernelBackend):
        return backend
    if backend not in _REGISTRY:
        raise KeyError(f"unknown engine backend {backend!r}; "
                       f"known: {sorted(_REGISTRY)}")
    return _REGISTRY[backend]


_ACTIVE: KernelBackend = _resolve(os.environ.get("REPRO_ENGINE_BACKEND", "fast"))


def get_backend() -> KernelBackend:
    """The currently active kernel backend."""
    return _ACTIVE


def set_backend(backend: Union[str, KernelBackend]) -> KernelBackend:
    """Select the active backend by name or instance; returns it."""
    global _ACTIVE
    _ACTIVE = _resolve(backend)
    return _ACTIVE


@contextlib.contextmanager
def use_backend(backend: Union[str, KernelBackend]) -> Iterator[KernelBackend]:
    """Temporarily switch the active backend inside a ``with`` block."""
    previous = get_backend()
    active = set_backend(backend)
    try:
        yield active
    finally:
        set_backend(previous)

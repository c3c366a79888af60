"""Kernel-boundary dtype-leak detection.

The precision policy (:mod:`repro.engine.precision`) makes float32 the
benchmarked production configuration, but numpy promotes silently: one
stray ``np.float64`` literal or an untyped ``astype`` upstream and every
kernel downstream quietly doubles its memory traffic.  This module
catches that at the only choke point every model shares — the
:class:`~repro.engine.backends.KernelBackend` dispatch:

* :class:`DtypeCheckingBackend` wraps any backend and verifies, on every
  kernel call, that each floating-point array entering or leaving the
  kernel carries the active engine dtype.  A mismatch raises
  :class:`DtypeLeakError` naming the kernel, the argument and the
  offending dtype — pointing straight at the upstream promotion site.
* :func:`detect_leaks` installs the checking wrapper around the active
  backend for a ``with`` block; the tier-1 leak test drives one training
  step per model under float32 inside it.

Integer arrays (indices, segment ids) are exempt here — their policy is
enforced structurally by :func:`repro.engine.precision.get_index_dtype`
and the adjacency canonicalizers.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional, Union

import numpy as np
import scipy.sparse as sp

from repro.engine.backends import KernelBackend, get_backend, use_backend
from repro.engine.precision import get_dtype


class DtypeLeakError(TypeError):
    """A kernel saw a floating array that is not the engine dtype."""


def _check(kernel: str, role: str, array) -> None:
    if array is None:
        return
    if sp.issparse(array):
        _check(kernel, role + ".data", array.data)
        return
    dtype = np.asarray(array).dtype
    if dtype.kind != "f":
        return
    expected = get_dtype()
    if dtype != expected:
        raise DtypeLeakError(
            f"kernel {kernel!r}: {role} carries {dtype.name}, but the "
            f"engine dtype is {expected.name} — a silent upcast leaked "
            f"into the hot path upstream of this call")


class DtypeCheckingBackend(KernelBackend):
    """Proxy backend asserting the engine dtype at every kernel boundary.

    Wraps ``inner`` (default: the backend active at construction) and
    delegates each ``_``-prefixed kernel after checking the floating
    inputs, then checks the outputs.  Instrumentation still runs once,
    in the inherited public methods.
    """

    def __init__(self, inner: Optional[KernelBackend] = None):
        self.inner = inner if inner is not None else get_backend()
        self.name = f"dtypecheck({self.inner.name})"

    def _spmm(self, matrix, dense, out=None):
        _check("spmm", "matrix", matrix)
        _check("spmm", "dense", dense)
        result = self.inner._spmm(matrix, dense, out=out)
        _check("spmm", "result", result)
        return result

    def _gathered_rowwise_dot(self, a, a_indices, b, b_indices):
        _check("gathered_rowwise_dot", "a", a)
        _check("gathered_rowwise_dot", "b", b)
        result = self.inner._gathered_rowwise_dot(a, a_indices, b, b_indices)
        _check("gathered_rowwise_dot", "result", result)
        return result

    def _gather_rows(self, table, indices, out=None):
        _check("gather_rows", "table", table)
        result = self.inner._gather_rows(table, indices, out=out)
        _check("gather_rows", "result", result)
        return result

    def _scatter_add_rows(self, grad, indices, num_rows, out=None):
        _check("scatter_add_rows", "grad", grad)
        result = self.inner._scatter_add_rows(grad, indices, num_rows,
                                              out=out)
        _check("scatter_add_rows", "result", result)
        return result

    def _segment_sum(self, values, segment_ids, num_segments):
        _check("segment_sum", "values", values)
        result = self.inner._segment_sum(values, segment_ids, num_segments)
        _check("segment_sum", "result", result)
        return result

    def _memory_mixture(self, embeddings, gates, transforms, out=None):
        _check("memory_mixture", "embeddings", embeddings)
        _check("memory_mixture", "gates", gates)
        _check("memory_mixture", "transforms", transforms)
        result = self.inner._memory_mixture(embeddings, gates, transforms,
                                            out=out)
        _check("memory_mixture", "result", result)
        return result

    def _memory_mixture_backward(self, grad_out, embeddings, gates,
                                 transforms, needs):
        _check("memory_mixture_backward", "grad_out", grad_out)
        _check("memory_mixture_backward", "embeddings", embeddings)
        _check("memory_mixture_backward", "gates", gates)
        _check("memory_mixture_backward", "transforms", transforms)
        grads = self.inner._memory_mixture_backward(
            grad_out, embeddings, gates, transforms, needs)
        for role, grad in zip(("grad_embeddings", "grad_gates",
                               "grad_transforms"), grads):
            _check("memory_mixture_backward", role, grad)
        return grads


@contextlib.contextmanager
def detect_leaks(
        inner: Optional[Union[str, KernelBackend]] = None,
) -> Iterator[DtypeCheckingBackend]:
    """Run a ``with`` block with dtype checking on every kernel call.

    ``inner`` selects the backend to wrap (name or instance); default is
    the currently active one.  Any float array crossing a kernel
    boundary in the wrong precision raises :class:`DtypeLeakError`.
    """
    if isinstance(inner, str):
        from repro.engine.backends import _resolve

        inner = _resolve(inner)
    checker = DtypeCheckingBackend(inner)
    with use_backend(checker):
        yield checker

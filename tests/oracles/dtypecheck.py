"""Kernel-boundary dtype-leak detection.

The precision policy (:mod:`repro.engine.precision`) makes float32 the
benchmarked production configuration, but numpy promotes silently: one
stray ``np.float64`` literal or an untyped ``astype`` upstream and every
kernel downstream quietly doubles its memory traffic.  The kernel table
every model shares is the choke point to catch that: :func:`detect_leaks`
wraps each engine kernel so that every floating array (dense, or the data
of a sparse matrix) entering or leaving it must carry the active engine
dtype.  A mismatch raises :class:`DtypeLeakError` naming the kernel, the
argument and the offending dtype.

Composed ops between kernels never cross that boundary, so
:func:`detect_leaks` also wraps :meth:`Tensor._accumulate`, the one place
every backward closure hands its gradient over: a float64 gradient there
is an upcast that the accumulation would silently cast back down.

Integer arrays (indices, segment ids) are exempt here — their policy is
enforced structurally by :func:`repro.engine.precision.get_index_dtype`
and the adjacency canonicalizers.
"""

import contextlib
import inspect
from typing import Iterator

import numpy as np
import scipy.sparse as sp

from repro.autograd.tensor import Tensor
from repro.engine import backends
from repro.engine.precision import get_dtype
from tests.oracles import use_kernels


class DtypeLeakError(TypeError):
    """A kernel saw a floating array that is not the engine dtype."""


def _check(kernel: str, role: str, value) -> None:
    if sp.issparse(value):
        value, role = value.data, role + ".data"
    if not isinstance(value, np.ndarray) or value.dtype.kind != "f":
        return
    expected = get_dtype()
    if value.dtype != expected:
        raise DtypeLeakError(
            f"kernel {kernel!r}: {role} carries {value.dtype.name}, but the "
            f"engine dtype is {expected.name} — a silent upcast leaked "
            f"into the hot path upstream of this call")


def _checking(name: str, kernel):
    params = list(inspect.signature(kernel).parameters)

    def checked(*args, **kwargs):
        for role, value in [*zip(params, args), *kwargs.items()]:
            _check(name, role, value)
        result = kernel(*args, **kwargs)
        for value in result if isinstance(result, tuple) else (result,):
            _check(name, "result", value)
        return result

    return checked


@contextlib.contextmanager
def detect_leaks() -> Iterator[None]:
    """Check the engine dtype at every kernel call and every dense
    gradient accumulation inside a ``with`` block."""
    accumulate = Tensor._accumulate

    def checked_accumulate(self, grad, *args, **kwargs):
        _check("Tensor._accumulate", f"grad of {self!r}", grad)
        accumulate(self, grad, *args, **kwargs)

    Tensor._accumulate = checked_accumulate
    try:
        with use_kernels({name: _checking(name, kernel)
                          for name, kernel in backends._KERNELS.items()}):
            yield
    finally:
        Tensor._accumulate = accumulate

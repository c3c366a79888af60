"""Engine-wide floating-point precision policy.

Everything numeric in the repository — tensors, parameters, normalized
adjacencies, optimizer state — historically hard-coded ``float64``.
That is the right default for a reproduction (gradcheck tolerances stay
tight, parity suites compare at 1e-12), but it doubles the memory
bandwidth of every kernel on the hot path.  This module makes the dtype
a single explicit policy instead of a scattered constant:

* ``float64`` remains the default;
* ``float32`` is opt-in via :func:`set_dtype`, the :func:`use_dtype`
  context manager, or the ``REPRO_ENGINE_DTYPE`` environment variable
  read at import time;
* :func:`tolerances` derives parity/gradcheck tolerances from the
  active dtype, so test suites and benchmarks compare at the precision
  the engine actually computes in.

The policy is consulted at *creation* time: tensors, parameters and
cached adjacencies built while a dtype is active carry that dtype.
Switching mid-run does not retroactively convert live arrays — build
models inside :func:`use_dtype`.  A graph's normalized views are the
exception: the graph keeps one per dtype it is asked for, so views of
the two precisions never collide whichever dtype built the graph.

Alongside the floating policy lives the *index* policy: the integer
dtype used for CSR ``indices``/``indptr`` arrays, subgraph local-id
maps, row-sparse gradient row lists and optimizer row counters.
``int32`` is the default — it halves index memory on every cached
adjacency and sampled subgraph, and no supported preset comes close to
``2**31`` nodes — with ``int64`` available via :func:`set_index_dtype`
or ``REPRO_ENGINE_INDEX_DTYPE`` as the conservative oracle.  Use
:func:`index_dtype_for` rather than :func:`get_index_dtype` when a
domain size is known: it transparently falls back to ``int64`` for
domains too large for ``int32``, so the policy can never overflow.
"""

from __future__ import annotations

import contextlib
import os
from typing import Dict, Iterator, NamedTuple, Union

import numpy as np

_DTYPES: Dict[str, np.dtype] = {
    "float32": np.dtype(np.float32),
    "float64": np.dtype(np.float64),
}

DTypeLike = Union[str, type, np.dtype]


def _resolve(dtype: DTypeLike) -> np.dtype:
    resolved = np.dtype(dtype)
    if resolved.name not in _DTYPES:
        raise ValueError(f"unsupported engine dtype {dtype!r}; "
                         f"known: {sorted(_DTYPES)}")
    return resolved


_ACTIVE: np.dtype = _resolve(os.environ.get("REPRO_ENGINE_DTYPE", "float64"))


def get_dtype() -> np.dtype:
    """The active engine dtype (``float64`` unless opted down)."""
    return _ACTIVE


def set_dtype(dtype: DTypeLike) -> np.dtype:
    """Select the active engine dtype by name or numpy dtype; returns it."""
    global _ACTIVE
    _ACTIVE = _resolve(dtype)
    return _ACTIVE


@contextlib.contextmanager
def use_dtype(dtype: DTypeLike) -> Iterator[np.dtype]:
    """Temporarily switch the engine dtype inside a ``with`` block."""
    previous = get_dtype()
    active = set_dtype(dtype)
    try:
        yield active
    finally:
        set_dtype(previous)


_INDEX_DTYPES: Dict[str, np.dtype] = {
    "int32": np.dtype(np.int32),
    "int64": np.dtype(np.int64),
}

#: Smallest domain size that no longer fits int32 indices.
INT32_LIMIT: int = 2 ** 31


def _resolve_index(dtype: DTypeLike) -> np.dtype:
    resolved = np.dtype(dtype)
    if resolved.name not in _INDEX_DTYPES:
        raise ValueError(f"unsupported engine index dtype {dtype!r}; "
                         f"known: {sorted(_INDEX_DTYPES)}")
    return resolved


_ACTIVE_INDEX: np.dtype = _resolve_index(
    os.environ.get("REPRO_ENGINE_INDEX_DTYPE", "int32"))


def get_index_dtype() -> np.dtype:
    """The active index dtype (``int32`` unless opted up to ``int64``)."""
    return _ACTIVE_INDEX


def set_index_dtype(dtype: DTypeLike) -> np.dtype:
    """Select the active index dtype by name or numpy dtype; returns it."""
    global _ACTIVE_INDEX
    _ACTIVE_INDEX = _resolve_index(dtype)
    return _ACTIVE_INDEX


@contextlib.contextmanager
def use_index_dtype(dtype: DTypeLike) -> Iterator[np.dtype]:
    """Temporarily switch the index dtype inside a ``with`` block."""
    previous = get_index_dtype()
    active = set_index_dtype(dtype)
    try:
        yield active
    finally:
        set_index_dtype(previous)


def index_dtype_for(domain: int) -> np.dtype:
    """Index dtype for a domain of ``domain`` addressable values.

    Returns the active index dtype unless ``domain`` does not fit in
    ``int32``, in which case ``int64`` is forced regardless of policy —
    the overflow guard that makes ``int32`` a safe default.
    """
    if int(domain) >= INT32_LIMIT:
        return _INDEX_DTYPES["int64"]
    return _ACTIVE_INDEX


def as_index_array(values, domain: int) -> np.ndarray:
    """``np.asarray`` under the index policy for a known domain size.

    No copy is made when ``values`` already carries the policy dtype.
    """
    return np.asarray(values, dtype=index_dtype_for(domain))


class Tolerances(NamedTuple):
    """Comparison tolerances appropriate for one floating dtype."""

    atol: float
    rtol: float
    grad_atol: float
    grad_rtol: float


_TOLERANCES: Dict[str, Tolerances] = {
    # float64: kernels agree to near machine precision; gradcheck uses
    # the repository's historical central-difference tolerances.
    "float64": Tolerances(atol=1e-10, rtol=1e-8, grad_atol=1e-4, grad_rtol=1e-4),
    # float32: ~7 significant digits; accumulated reductions lose a few.
    "float32": Tolerances(atol=1e-4, rtol=1e-3, grad_atol=1e-2, grad_rtol=1e-2),
}


def tolerances(dtype: DTypeLike = None) -> Tolerances:
    """Parity/gradcheck tolerances for ``dtype`` (active dtype if ``None``)."""
    resolved = get_dtype() if dtype is None else _resolve(dtype)
    return _TOLERANCES[resolved.name]

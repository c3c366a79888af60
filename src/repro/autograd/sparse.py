"""Row-sparse gradients for embedding tables.

Minibatch training touches only the rows of each embedding table that a
batch's sampled subgraph covers, yet the seed backward densified every
``gather_rows`` gradient to the full ``(N, d)`` table and the optimizer
then updated all ``N`` rows — the step cost stayed O(graph) after the
sampled path made sampling and propagation O(batch).

:class:`RowSparseGrad` is the carrier that keeps the gradient sparse end
to end: a ``(rows, values)`` pair with duplicate rows *coalesced* (rows
strictly increasing, one value row each), produced by the backward of
:func:`repro.autograd.ops.gather_rows` when row-sparse mode is on, stored
directly on ``Parameter.grad`` by :meth:`Tensor._accumulate`, and
consumed natively by the lazy optimizers in :mod:`repro.nn.optim`.

Coalescing and densification route through the engine's
``scatter_add_rows`` kernel and preserve the dense path's per-row
accumulation order, so a coalesced-then-densified gradient is bitwise
identical to the gradient the dense scatter would have produced — the
property the lazy optimizers' bitwise parity tests rest on.

Row-sparse production is opt-in (:func:`set_sparse_grads` /
:func:`use_sparse_grads`) and only ever applies to *leaf* tensors:
non-leaf tensors feed further backward closures that expect dense
arrays, while a leaf's gradient is only read by the optimizer.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Tuple

import numpy as np

from repro.engine import backends
from repro.engine.precision import index_dtype_for

_SPARSE_GRADS = False


def sparse_grads_enabled() -> bool:
    """Whether ``gather_rows`` backward emits row-sparse leaf gradients."""
    return _SPARSE_GRADS


def set_sparse_grads(enabled: bool) -> bool:
    """Globally enable/disable row-sparse leaf gradients; returns the flag."""
    global _SPARSE_GRADS
    _SPARSE_GRADS = bool(enabled)
    return _SPARSE_GRADS


@contextlib.contextmanager
def use_sparse_grads(enabled: bool = True) -> Iterator[bool]:
    """Temporarily switch row-sparse gradient production inside a block."""
    previous = _SPARSE_GRADS
    set_sparse_grads(enabled)
    try:
        yield _SPARSE_GRADS
    finally:
        set_sparse_grads(previous)


def _coalesce(rows: np.ndarray, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sort rows and sum duplicate rows' values.

    The duplicate reduction runs through the engine's
    ``scatter_add_rows`` kernel, which accumulates in input order — the
    same per-row addition sequence the dense scatter performs, keeping
    the coalesced form bitwise-compatible with the dense gradient.
    """
    if rows.size == 0:
        return rows, values
    unique, inverse = np.unique(rows, return_inverse=True)
    if unique.size == rows.size:  # no duplicates — just sort
        return unique, values[np.argsort(rows, kind="stable")]
    return unique, backends.scatter_add_rows(values, inverse, unique.size)


class RowSparseGrad:
    """A row-sparse gradient for a 2-D (or higher) parameter table.

    Parameters
    ----------
    rows:
        Integer row indices into the table's leading axis; any shape
        (flattened), duplicates allowed (coalesced on construction).
    values:
        Gradient rows, shaped ``rows.shape + table.shape[1:]``.
    num_rows:
        The table's leading dimension ``N``.
    """

    __slots__ = ("rows", "values", "num_rows")

    def __init__(self, rows, values, num_rows: int):
        self.num_rows = int(num_rows)
        # Row indices follow the engine index policy (int32 unless the
        # table is too large) — the carrier is O(batch) rows, so this
        # halves its index footprint at every step.
        rows = np.asarray(rows, dtype=index_dtype_for(self.num_rows))
        values = np.asarray(values)
        trailing = values.shape[rows.ndim:]
        rows = rows.reshape(-1)
        values = values.reshape((rows.size,) + trailing)
        if rows.size and (rows.min() < 0 or rows.max() >= self.num_rows):
            raise IndexError(
                f"row indices out of range for a table of {self.num_rows} rows")
        self.rows, self.values = _coalesce(rows, values)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        """The dense shape this gradient densifies to."""
        return (self.num_rows,) + self.values.shape[1:]

    @property
    def dtype(self):
        return self.values.dtype

    @property
    def nnz_rows(self) -> int:
        """Number of distinct touched rows."""
        return int(self.rows.size)

    @property
    def density(self) -> float:
        """Touched-row fraction ``nnz_rows / num_rows``."""
        return self.nnz_rows / self.num_rows if self.num_rows else 0.0

    def __repr__(self) -> str:
        return (f"RowSparseGrad(rows={self.nnz_rows}/{self.num_rows}, "
                f"dim={self.values.shape[1:]})")

    # ------------------------------------------------------------------
    # Conversion and accumulation
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialize the full dense gradient array."""
        out = np.zeros(self.shape, dtype=self.values.dtype)
        out[self.rows] = self.values
        return out

    def add_into_dense(self, dense: np.ndarray) -> np.ndarray:
        """Add this gradient into an existing dense array, in place."""
        if dense.shape != self.shape:
            raise ValueError(f"dense shape {dense.shape} does not match "
                             f"sparse grad shape {self.shape}")
        dense[self.rows] += self.values  # rows are unique after coalescing
        return dense

    def merge(self, other: "RowSparseGrad") -> "RowSparseGrad":
        """Sum with another row-sparse gradient of the same table."""
        if not isinstance(other, RowSparseGrad):
            raise TypeError("merge expects another RowSparseGrad")
        if other.shape != self.shape:
            raise ValueError(f"cannot merge sparse grads of shapes "
                             f"{self.shape} and {other.shape}")
        return RowSparseGrad(
            np.concatenate([self.rows, other.rows]),
            np.concatenate([self.values, other.values]),
            self.num_rows)

    # ------------------------------------------------------------------
    # The two operations gradient clipping needs
    # ------------------------------------------------------------------
    def sq_sum(self) -> float:
        """Sum of squared entries (equals the dense gradient's)."""
        return float((self.values ** 2).sum())

    def scale_(self, scale: float) -> "RowSparseGrad":
        """Multiply all values in place (gradient clipping)."""
        self.values *= scale
        return self

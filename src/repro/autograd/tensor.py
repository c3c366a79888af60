"""The :class:`Tensor` type and the reverse-mode backward pass.

A :class:`Tensor` wraps a ``numpy.ndarray`` and, when gradients are
enabled, records the operation that produced it.  Calling
:meth:`Tensor.backward` on a scalar (or with an explicit output gradient)
runs a topologically ordered sweep over the recorded graph and accumulates
gradients into the ``grad`` attribute of every tensor that participates
and has ``requires_grad=True``.

Each recorded node keeps its parents and a ``backward(out)`` function
that the sweep calls with the node itself (:meth:`Tensor._make`).  No
backward function holds its own output, so a graph has no reference
cycles and is freed by refcount once its output (typically the loss)
is dropped.

The engine intentionally supports a small, well-tested op set (see
:mod:`repro.autograd.ops`) rather than full numpy coverage: every op the
DGNN models need, and nothing speculative.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Optional, Tuple

import numpy as np

from repro.engine import arena
from repro.engine.precision import get_dtype


def _grad_copy(grad, dtype) -> np.ndarray:
    """An owned copy of ``grad`` in ``dtype``, pooled inside arena scopes."""
    source = np.asarray(grad)
    buf = arena.empty(source.shape, dtype)
    np.copyto(buf, source)
    return buf

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording.

    Used for evaluation / inference passes where gradients are not needed;
    inside the block all created tensors are leaves with
    ``requires_grad=False``.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _as_array(data) -> np.ndarray:
    """Coerce ``data`` to the engine's active floating dtype.

    The dtype is governed by :mod:`repro.engine.precision` — ``float64``
    by default, ``float32`` when opted in via ``set_dtype`` /
    ``REPRO_ENGINE_DTYPE``.
    """
    dtype = get_dtype()
    if isinstance(data, np.ndarray):
        if data.dtype != dtype:
            return data.astype(dtype)
        return data
    return np.asarray(data, dtype=dtype)


class Tensor:
    """A numpy array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Array-like payload; coerced to the active engine dtype
        (:func:`repro.engine.precision.get_dtype`, ``float64`` default).
    requires_grad:
        If ``True``, gradients are accumulated into :attr:`grad` during
        :meth:`backward`.
    name:
        Optional label used in error messages and debugging dumps.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False, name: Optional[str] = None):
        self.data: np.ndarray = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Optional[Callable[["Tensor"], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        from repro.autograd.ops import transpose

        return transpose(self)

    def __len__(self) -> int:
        return self.data.shape[0]

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        if self.data.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Return a new leaf tensor sharing this tensor's data."""
        return Tensor(self.data)

    def copy(self) -> "Tensor":
        """Return a leaf tensor with a copied payload."""
        return Tensor(self.data.copy())

    # ------------------------------------------------------------------
    # Graph construction helper (used by ops)
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Iterable["Tensor"],
              backward: Callable[["Tensor"], None]) -> "Tensor":
        """Create a non-leaf tensor.

        ``backward`` is called as ``backward(out)`` with the output node
        during :meth:`backward`; it reads ``out.grad`` (and, if it needs
        it, ``out.data``) and accumulates into each parent via
        :meth:`_accumulate`.  It is handed its output rather than
        closing over it, so the output owns the function, the function
        holds only the parents, and the graph has no reference cycles:
        it is freed by refcount as soon as the last reference to the
        output (typically the loss) is dropped, not when the cyclic
        garbage collector next runs.
        """
        parents = tuple(parents)
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data)
        if requires:
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad, owned: bool = False) -> None:
        """Add ``grad`` into this tensor's gradient buffer.

        ``grad`` may be a dense array or a
        :class:`repro.autograd.sparse.RowSparseGrad` (only ever produced
        for leaf tensors).  Mixing rules: sparse+sparse merges without
        densifying; any dense contribution densifies the buffer.

        ``owned=True`` declares that the caller allocated ``grad`` for
        this call and keeps no other reference to it, so the first
        dense contribution adopts it as the buffer instead of copying
        it (when its dtype and shape already match).  The caller must
        say so: an op that hands one array to several inputs (``add``
        passes ``out.grad`` to both parents) must not, because the
        adopted buffer is later accumulated into in place.
        """
        if not self.requires_grad:
            return
        from repro.autograd.sparse import RowSparseGrad

        if isinstance(grad, RowSparseGrad):
            if self.grad is None:
                self.grad = grad
            elif isinstance(self.grad, RowSparseGrad):
                self.grad = self.grad.merge(grad)
            else:
                grad.add_into_dense(self.grad)
            return
        if self.grad is None or isinstance(self.grad, RowSparseGrad):
            if not (owned and isinstance(grad, np.ndarray)
                    and grad.dtype == self.data.dtype
                    and grad.shape == self.data.shape):
                grad = _grad_copy(grad, self.data.dtype)
            self.grad = (grad if self.grad is None
                         else self.grad.add_into_dense(grad))
        else:
            self.grad += grad

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Gradients accumulate into every leaf that requires grad (the
        model's ``Parameter``s).  A non-leaf node's ``grad`` is freed
        (set to ``None``) as soon as its backward has pushed it into the
        parents, so intermediate gradients live only while they are
        being consumed — PyTorch's default.  The graph itself stays
        intact, so ``backward`` may run on it again.

        Parameters
        ----------
        grad:
            Gradient of the final objective w.r.t. this tensor.  Defaults
            to ``1.0``, which requires this tensor to be a scalar.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = _as_array(grad)
        if grad.shape != self.data.shape:
            raise ValueError(
                f"output grad shape {grad.shape} does not match tensor shape {self.data.shape}"
            )

        order = self._topological_order()
        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node)
                node.grad = None

    def _topological_order(self):
        """Return nodes reachable from ``self`` in topological order."""
        order = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))
        return order

    # ------------------------------------------------------------------
    # Operator overloads — implementations live in ops.py.
    # ------------------------------------------------------------------
    def __add__(self, other):
        from repro.autograd.ops import add

        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        from repro.autograd.ops import sub

        return sub(self, other)

    def __rsub__(self, other):
        from repro.autograd.ops import sub

        return sub(other, self)

    def __mul__(self, other):
        from repro.autograd.ops import mul

        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        from repro.autograd.ops import div

        return div(self, other)

    def __rtruediv__(self, other):
        from repro.autograd.ops import div

        return div(other, self)

    def __neg__(self):
        from repro.autograd.ops import neg

        return neg(self)

    def __pow__(self, exponent):
        from repro.autograd.ops import power

        return power(self, exponent)

    def __matmul__(self, other):
        from repro.autograd.ops import matmul

        return matmul(self, other)

    def __getitem__(self, index):
        from repro.autograd.ops import getitem

        return getitem(self, index)

    # Convenience method forms -----------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        from repro.autograd.ops import sum as _sum

        return _sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        from repro.autograd.ops import mean

        return mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        from repro.autograd.ops import reshape

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes=None):
        from repro.autograd.ops import transpose

        return transpose(self, axes)

    def exp(self):
        from repro.autograd.ops import exp

        return exp(self)

    def log(self):
        from repro.autograd.ops import log

        return log(self)

    def sqrt(self):
        from repro.autograd.ops import sqrt

        return sqrt(self)

    def sigmoid(self):
        from repro.autograd.ops import sigmoid

        return sigmoid(self)

    def tanh(self):
        from repro.autograd.ops import tanh

        return tanh(self)

    def relu(self):
        from repro.autograd.ops import relu

        return relu(self)

    def leaky_relu(self, negative_slope: float = 0.2):
        from repro.autograd.ops import leaky_relu

        return leaky_relu(self, negative_slope)


def as_tensor(value) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (constants get no grad)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)

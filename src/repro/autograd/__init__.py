"""A compact reverse-mode automatic differentiation engine on numpy.

This package is the substrate that replaces PyTorch for the DGNN
reproduction.  It provides a :class:`Tensor` type that records a dynamic
computation graph, a library of differentiable operations (dense, sparse
and indexing ops) in :mod:`repro.autograd.ops`, and numerical gradient
checking utilities in :mod:`repro.autograd.gradcheck`.

Example
-------
>>> import numpy as np
>>> from repro.autograd import Tensor
>>> x = Tensor(np.ones((2, 3)), requires_grad=True)
>>> y = (x * 2.0).sum()
>>> y.backward()
>>> x.grad
array([[2., 2., 2.],
       [2., 2., 2.]])
"""

from repro.autograd.tensor import Tensor, no_grad, is_grad_enabled
from repro.autograd.sparse import (
    RowSparseGrad,
    set_sparse_grads,
    sparse_grads_enabled,
    use_sparse_grads,
)
from repro.autograd import ops
from repro.autograd.ops import (
    add,
    cat,
    exp,
    gather_rows,
    leaky_relu,
    log,
    log_sigmoid,
    matmul,
    mean,
    mul,
    relu,
    sigmoid,
    softmax,
    softplus,
    spmm,
    sqrt,
    stack,
    sum as sum_,
    tanh,
)
from repro.autograd.gradcheck import gradcheck, numerical_gradient

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "RowSparseGrad",
    "set_sparse_grads",
    "sparse_grads_enabled",
    "use_sparse_grads",
    "ops",
    "add",
    "mul",
    "matmul",
    "spmm",
    "gather_rows",
    "cat",
    "stack",
    "exp",
    "log",
    "sqrt",
    "mean",
    "sum_",
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "softmax",
    "softplus",
    "log_sigmoid",
    "gradcheck",
    "numerical_gradient",
]

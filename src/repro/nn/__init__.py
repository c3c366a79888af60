"""Neural-network toolkit on top of :mod:`repro.autograd`.

Provides the module system (:class:`Module`, :class:`Parameter`), common
layers (:class:`Linear`, :class:`Embedding`, :class:`LayerNorm`,
:class:`Dropout`), weight initializers, and the :class:`Adam` optimizer.
"""

from repro.nn.module import Module, ModuleDict, ModuleList, Parameter
from repro.nn.layers import Linear, Embedding, LayerNorm, Dropout, Sequential
from repro.nn import init
from repro.nn.optim import Adam, clip_grad_norm

__all__ = [
    "Module",
    "Parameter",
    "ModuleDict",
    "ModuleList",
    "Linear",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "Sequential",
    "init",
    "Adam",
    "clip_grad_norm",
]

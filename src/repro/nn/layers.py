"""Common neural-network layers used across the recommenders."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor
from repro.nn import init
from repro.nn.module import Module, Parameter


class Linear(Module):
    """Affine projection ``x @ W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output dimensionality.
    bias:
        Whether to add a learned bias.
    rng:
        Generator for Xavier initialization; a default seeded generator is
        used if omitted (deterministic but shared, so prefer passing one).
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        flat = x if x.ndim <= 2 else x.reshape((-1, self.in_features))
        out = ops.matmul(flat, self.weight)
        if self.bias is not None:
            out = ops.add(out, self.bias)
        if x.ndim > 2:
            out = out.reshape(x.shape[:-1] + (self.out_features,))
        return out


class Embedding(Module):
    """A learned lookup table of shape ``(num_embeddings, dim)``."""

    def __init__(self, num_embeddings: int, dim: int,
                 rng: Optional[np.random.Generator] = None, std: float = 0.1):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(init.normal((num_embeddings, dim), rng, std=std))

    def forward(self, indices) -> Tensor:
        return ops.gather_rows(self.weight, indices)

    def all(self) -> Tensor:
        """Return the full table as a tensor (for full-graph propagation)."""
        return self.weight


class LayerNorm(Module):
    """Layer normalization over the last dimension (Ba et al., 2016).

    Matches Eq. 7 of the paper: normalize, then apply learned scale
    ``omega_1`` and shift ``omega_2``.  Runs as the one-node
    :func:`repro.autograd.ops.layer_norm`.
    """

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.scale = Parameter(init.ones((dim,)))
        self.shift = Parameter(init.zeros((dim,)))

    def forward(self, x: Tensor) -> Tensor:
        return ops.layer_norm(x, self.scale, self.shift, self.eps)


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, rate: float, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.rate = float(rate)
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        return ops.dropout(x, self.rate, self._rng, training=self.training)

    def mask(self, shape) -> Optional[np.ndarray]:
        """The keep mask :meth:`forward` would apply, or ``None`` when it
        would be the identity (eval mode or rate 0).

        Draws from the same generator as :meth:`forward`, so a caller
        that fuses the mask into its own op consumes the stream exactly
        as the unfused dropout would.
        """
        if not self.training or self.rate <= 0.0:
            return None
        return ops.dropout_mask(shape, self.rate, self._rng)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, modules: Sequence[Module]):
        super().__init__()
        self._seq = list(modules)
        for index, module in enumerate(self._seq):
            self._modules[str(index)] = module

    def forward(self, x: Tensor) -> Tensor:
        for module in self._seq:
            x = module(x)
        return x

    def __len__(self) -> int:
        return len(self._seq)

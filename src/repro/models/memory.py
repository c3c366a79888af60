"""Memory-augmented relation-heterogeneity encoder (Eq. 3 of the paper).

A :class:`MemoryBank` owns, for one node/edge type, ``|M|`` memory units:
transformation matrices ``W¹_m ∈ R^{d×d}`` plus key vectors
``W²_m ∈ R^d`` and biases ``b_m`` used to compute per-node gates

.. math::  η(H[t], m) = σ(H[t]·W²_m + b_m), \\qquad σ = \\text{LeakyReLU}(0.2)

The encoded message is the gated mixture ``(Σ_m η_m W¹_m) H[s]``.  Two
usage patterns appear in the paper's aggregation equations and both are
provided:

* **target-gated** (Eq. 3 / social term of Eq. 4): the *target* node's
  gates select the transform applied to aggregated *source* embeddings;
* **source-gated** (interaction term of Eq. 4, Eq. 6): gates are computed
  on the *source* nodes, mean-aggregated to the target, and the mixture
  transforms the target's own embedding.

Both factor the per-edge transform out of the neighbour sum (the gates
are per-node, not per-edge), which is what makes DGNN cheaper than
HGT-style per-edge attention — the property behind Table IV.

The gates and the mixture each run as one engine op with a hand-written
backward (``memory_gates`` and ``memory_mixture``: one graph node each,
keeping no ``(n, |M|, d)`` activations for the backward).  The mixture
computes all ``|M|`` units in one stacked GEMM, forward and backward,
and the gates' LeakyReLU selects without a branch.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.autograd import ops
from repro.autograd.tensor import Tensor
from repro.engine import backends
from repro.nn import init
from repro.nn.module import Module, Parameter


class MemoryBank(Module):
    """One edge-type's set of disentangled memory units.

    Parameters
    ----------
    dim:
        Embedding dimensionality ``d``.
    num_units:
        Number of memory units ``|M|`` (the paper uses 8).
    rng:
        Generator for weight initialization.
    negative_slope:
        LeakyReLU slope for the gate activation (paper: 0.2).
    """

    def __init__(self, dim: int, num_units: int, rng: np.random.Generator,
                 negative_slope: float = 0.2):
        super().__init__()
        self.dim = int(dim)
        self.num_units = int(num_units)
        self.negative_slope = float(negative_slope)
        # W¹: (M, d, d) unit transforms; W²: (d, M) gate keys; b: (M,) biases.
        # The unit transforms are scaled by 1/|M| and the gate biases start
        # at 1 so the initial mixture (Σ_m η_m W¹_m) ≈ an average of Xavier
        # transforms: gates open at ~1 instead of ~0, which keeps early
        # messages at a healthy scale under the Eq. 7 LayerNorm (without
        # this, training starts from normalized noise and converges to a
        # visibly worse optimum).
        self.transforms = Parameter(
            init.xavier_uniform((self.num_units, self.dim, self.dim), rng)
            / self.num_units)
        self.keys = Parameter(init.xavier_uniform((self.dim, self.num_units), rng))
        self.bias = Parameter(init.ones((self.num_units,)))

    # ------------------------------------------------------------------
    def gates(self, embeddings: Tensor) -> Tensor:
        """Per-node memory gates ``η`` — shape ``(n, |M|)`` (Eq. 3, line 2).

        One ``memory_gates`` engine op (one graph node, hand-written
        backward).
        """
        return ops.memory_gates(embeddings, self.keys, self.bias,
                                self.negative_slope)

    def mixture_transform(self, embeddings: Tensor, gates: Tensor) -> Tensor:
        """Apply the gated mixture ``(Σ_m gates_m W¹_m)`` to ``embeddings``.

        ``embeddings`` is ``(n, d)`` and ``gates`` is ``(n, |M|)``; the
        result is ``(n, d)``, computed by the fused ``memory_mixture``
        engine kernel as one autograd node.
        """
        return ops.memory_mixture(embeddings, gates, self.transforms)

    # ------------------------------------------------------------------
    def encode_target_gated(self, target_embeddings: Tensor,
                            aggregated_sources: Tensor) -> Tensor:
        """Eq. 3: ``φ(H[t], ·)`` — target gates transform aggregated sources."""
        return self.mixture_transform(aggregated_sources,
                                      self.gates(target_embeddings))

    def encode_source_gated(self, target_embeddings: Tensor,
                            source_embeddings: Tensor,
                            adjacency: sp.spmatrix) -> Tensor:
        """Interaction term of Eq. 4 / Eq. 6: aggregated source gates
        transform the target's own embedding.

        ``adjacency`` maps sources to targets (``(n_targets, n_sources)``,
        already normalized); gates are computed per source node and
        aggregated through it.
        """
        aggregated_gates = ops.spmm(adjacency, self.gates(source_embeddings))
        return self.mixture_transform(target_embeddings, aggregated_gates)

    def encode_self(self, embeddings: Tensor) -> Tensor:
        """Self-propagation with the memory encoder (Eq. 7's ``φ(H[v])``)."""
        return self.mixture_transform(embeddings, self.gates(embeddings))

    def gate_values(self, embeddings: np.ndarray) -> np.ndarray:
        """Numpy gates for trained embeddings (Fig. 10 visualization)."""
        return backends.memory_gates(embeddings, self.keys.data,
                                     self.bias.data, self.negative_slope)

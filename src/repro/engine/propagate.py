"""Shared propagation core: the layer-stack pattern and the BPR kernel.

Every graph recommender in the repository follows the same skeleton —
gather the embedding tables, propagate ``L`` layers, combine the per
layer outputs (concatenation, mean, or last), optionally apply a final
normalization — and every one trains with the same pairwise BPR
objective (Eq. 11).  The seed code hand-rolled that skeleton per model
and copy-pasted the BPR math between the full-graph and sampled losses.
:class:`LayerStack` and :func:`bpr_terms` are the single implementations
both now share.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor

_COMBINES = ("concat", "mean", "last")

Slots = Union[Tensor, Tuple[Tensor, ...]]


class LayerStack:
    """Run the gather → propagate-L-layers → combine → norm pattern.

    Parameters
    ----------
    num_layers:
        Propagation depth ``L``.
    combine:
        How per-layer outputs, the layer-0 input included, are merged:
        ``"concat"`` along the feature axis (NGCF / DGNN style),
        ``"mean"`` (LightGCN style), or ``"last"`` (keep only the final
        layer, e.g. DiffNet's residual diffusion).
    final_norm:
        Optional callable (typically a registered
        :class:`~repro.nn.layers.LayerNorm`) applied to each combined
        output.

    The stack itself holds no parameters — models keep owning their
    layers and norms; the stack only owns the control flow, so one place
    implements the pattern for every model.
    """

    def __init__(self, num_layers: int, combine: str = "concat",
                 final_norm: Optional[Callable[[Tensor], Tensor]] = None):
        if num_layers < 0:
            raise ValueError("num_layers must be >= 0")
        if combine not in _COMBINES:
            raise ValueError(f"combine must be one of {_COMBINES}")
        self.num_layers = int(num_layers)
        self.combine = combine
        self.final_norm = final_norm

    # ------------------------------------------------------------------
    def merge(self, collected: Sequence[Tensor]) -> Tensor:
        """Combine one node set's per-layer outputs, then normalize."""
        if self.combine == "last":
            merged = collected[-1]
        elif self.combine == "concat":
            merged = ops.cat(list(collected), axis=1)
        else:  # "mean"
            total = collected[0]
            for tensor in collected[1:]:
                total = ops.add(total, tensor)
            merged = ops.mul(total, Tensor(np.array(1.0 / len(collected))))
        if self.final_norm is not None:
            merged = self.final_norm(merged)
        return merged

    def run(self, initial: Slots,
            step: Callable[..., Slots]) -> Slots:
        """Propagate ``initial`` through ``L`` applications of ``step``.

        ``initial`` is one tensor or a tuple of tensors (one per node
        set); ``step(layer_index, *current)`` must return the same
        arity.  Returns the combined output(s) with matching arity.
        """
        single = isinstance(initial, Tensor)
        current: Tuple[Tensor, ...] = (initial,) if single else tuple(initial)
        histories = [[slot] for slot in current]
        for layer_index in range(self.num_layers):
            result = step(layer_index, *current)
            current = (result,) if isinstance(result, Tensor) else tuple(result)
            if len(current) != len(histories):
                raise ValueError("step changed the number of node sets")
            for history, slot in zip(histories, current):
                history.append(slot)
        outputs = tuple(self.merge(history) for history in histories)
        return outputs[0] if single else outputs


def check_ids(ids, size: int, what: str) -> np.ndarray:
    """``ids`` as an int64 array; ``ValueError`` if any is outside ``[0, size)``.

    A negative id would otherwise index a table from its end and score
    the wrong row without a word.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= size):
        bad = ids[(ids < 0) | (ids >= size)][:8]
        raise ValueError(f"{what} ids out of range [0, {size}): "
                         f"{bad.tolist()}")
    return ids


def bpr_terms(user_emb: Tensor, item_emb: Tensor, users: np.ndarray,
              positives: np.ndarray, negatives: np.ndarray,
              l2: float = 1e-4) -> Tensor:
    """Pairwise BPR loss (Eq. 11) over final embeddings — the one copy.

    Scores and the batch-embedding L2 regularizer are computed with the
    fused gather+rowwise-dot kernel, so no per-batch gathered embedding
    copies enter the autograd graph.  Shared by
    :meth:`repro.models.base.Recommender.bpr_loss` (full graph),
    :meth:`repro.models.base.Recommender.bpr_loss_on` (sampled subgraph)
    and :meth:`repro.models.dgnn.DGNN.bpr_loss` (pruned last layer).
    Ids are rows of ``user_emb`` / ``item_emb``; one outside the table
    raises ``ValueError``.
    """
    users = check_ids(users, user_emb.shape[0], "user")
    positives = check_ids(positives, item_emb.shape[0], "item")
    negatives = check_ids(negatives, item_emb.shape[0], "item")
    pos_scores = ops.gathered_rowwise_dot(user_emb, item_emb, users, positives)
    neg_scores = ops.gathered_rowwise_dot(user_emb, item_emb, users, negatives)
    loss = ops.neg(ops.mean(ops.log_sigmoid(ops.sub(pos_scores, neg_scores))))
    if l2 > 0:
        reg = ops.mean(ops.add(
            ops.add(
                ops.gathered_rowwise_dot(user_emb, user_emb, users, users),
                ops.gathered_rowwise_dot(item_emb, item_emb, positives,
                                         positives)),
            ops.gathered_rowwise_dot(item_emb, item_emb, negatives,
                                     negatives)))
        loss = ops.add(loss, ops.mul(Tensor(np.array(float(l2))), reg))
    return loss

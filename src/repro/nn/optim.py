"""Adam (Section V-A4), dense and row-sparse ("lazy") paths.

The paper optimizes with Adam; Eq. 11's λ is the ``l2`` term of the BPR
loss (:func:`repro.engine.propagate.bpr_terms`), not an optimizer-side
decay.

Adam natively consumes the row-sparse gradients
(:class:`repro.autograd.sparse.RowSparseGrad`) that minibatch training
produces for embedding tables, updating **only the touched rows** so the
step cost is O(batch) instead of O(graph): TF LazyAdam semantics
extended with *exact* per-row bias correction — each row carries its
own step counter, so a row touched for the n-th time is corrected with
``1 - beta**n`` regardless of the global step.

Optimizer state (moments) is allocated with ``np.zeros_like(param.data)``,
so it follows each parameter's dtype — under the float32 precision
policy (:mod:`repro.engine.precision`) the whole optimizer state halves
along with the parameters.  All state is exposed via
:meth:`Adam.state_dict` as a flat ``{name: ndarray}`` mapping for
checkpointing.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.autograd.sparse import RowSparseGrad
from repro.engine.precision import get_index_dtype
from repro.nn.module import Parameter


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients in-place so their global L2 norm is at most ``max_norm``.

    Row-sparse gradients participate without densifying: their squared
    sum equals the dense gradient's (untouched rows are zero), and
    clipping scales only the stored values.  Returns the pre-clip norm.
    ``max_norm`` must be positive.
    """
    if not max_norm > 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    params = [p for p in parameters if p.grad is not None]
    total_sq = 0.0
    for p in params:
        if isinstance(p.grad, RowSparseGrad):
            total_sq += p.grad.sq_sum()
        else:
            total_sq += float((p.grad ** 2).sum())
    total = float(np.sqrt(total_sq))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for param in params:
            if isinstance(param.grad, RowSparseGrad):
                param.grad.scale_(scale)
            else:
                param.grad *= scale
    return total


class Adam:
    """Adam (Kingma & Ba, 2015); lazy row-sparse updates.

    Dense gradients take the classic update with bias correction folded
    into the scalar step size, so no ``m_hat``/``v_hat`` temporaries are
    allocated::

        p -= (lr * sqrt(1-b2^t) / (1-b1^t)) * m / (sqrt(v) + eps*sqrt(1-b2^t))

    which is algebraically identical to ``lr * m_hat / (sqrt(v_hat) + eps)``.

    Row-sparse gradients update only touched rows.  Each row keeps its
    own step counter for **exact** bias correction (a row touched for
    the n-th time is corrected with ``1 - beta**n``), matching TF
    LazyAdam semantics.  A coalesced ``RowSparseGrad`` densifies bitwise
    identically to the dense scatter, so densifying each one before
    :meth:`step` reproduces the dense trajectory bit for bit.

    Each :meth:`step` tallies the rows it updates, so callers (the
    trainer's :class:`TrainingHistory`) can observe what fraction of
    parameter rows each step actually touched.
    """

    def __init__(self, parameters: Iterable[Parameter], lr: float = 1e-2,
                 betas=(0.9, 0.999), eps: float = 1e-8):
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.lr = float(lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.last_touched_rows: Optional[int] = None
        self.last_total_rows: Optional[int] = None
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        # Per-row update counts for bias correction, allocated on a
        # parameter's first sparse gradient (dense-only training never
        # pays for them).
        self._row_steps: List[Optional[np.ndarray]] = [None] * len(self.parameters)

    def zero_grad(self) -> None:
        """Clear all parameter gradients (dense or row-sparse)."""
        for param in self.parameters:
            param.grad = None

    def _record_touched(self) -> None:
        """Tally rows the pending step updates (call before consuming grads)."""
        touched = total = 0
        for param in self.parameters:
            if param.grad is None:
                continue
            rows = param.data.shape[0] if param.data.ndim else 1
            total += rows
            if isinstance(param.grad, RowSparseGrad):
                touched += param.grad.nnz_rows
            else:
                touched += rows
        self.last_touched_rows = touched
        self.last_total_rows = total

    def touched_fraction(self) -> float:
        """Fraction of rows the last step updated (1.0 before any step)."""
        if not self.last_total_rows:
            return 1.0
        return self.last_touched_rows / self.last_total_rows

    def step(self) -> None:
        """Apply one Adam update to all parameters with gradients."""
        self._record_touched()
        self._step_count += 1
        for i, (param, m, v) in enumerate(zip(self.parameters, self._m, self._v)):
            grad = param.grad
            if grad is None:
                continue
            if isinstance(grad, RowSparseGrad):
                self._lazy_step(i, param, m, v, grad)
            else:
                self._dense_step(i, param, m, v, grad)

    def _dense_step(self, i: int, param: Parameter, m: np.ndarray,
                    v: np.ndarray, grad: np.ndarray) -> None:
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        sqrt_bias2 = np.sqrt(bias2)
        scale = self.lr * sqrt_bias2 / bias1
        denom = np.sqrt(v)
        denom += self.eps * sqrt_bias2
        np.divide(m, denom, out=denom)
        denom *= scale
        param.data -= denom
        # A dense step advanced every row once: keep lazy counters exact
        # so mixed dense/sparse schedules stay correctly bias-corrected.
        if self._row_steps[i] is not None:
            self._row_steps[i] += 1

    def _lazy_step(self, i: int, param: Parameter, m: np.ndarray,
                   v: np.ndarray, grad: RowSparseGrad) -> None:
        rows, g = grad.rows, grad.values
        if self._row_steps[i] is None:
            # Rows all start at the global pre-step count so a lazy
            # optimizer taking over after dense steps stays corrected.
            self._row_steps[i] = np.full(param.data.shape[0],
                                         self._step_count - 1,
                                         dtype=get_index_dtype())
        row_steps = self._row_steps[i]
        row_steps[rows] += 1
        n = row_steps[rows].reshape((-1,) + (1,) * (g.ndim - 1))
        m_rows = self.beta1 * m[rows] + (1.0 - self.beta1) * g
        v_rows = self.beta2 * v[rows] + (1.0 - self.beta2) * g * g
        m[rows] = m_rows
        v[rows] = v_rows
        bias1 = 1.0 - self.beta1 ** n
        bias2 = 1.0 - self.beta2 ** n
        sqrt_bias2 = np.sqrt(bias2)
        scale = self.lr * sqrt_bias2 / bias1
        param.data[rows] -= scale * m_rows / (np.sqrt(v_rows)
                                              + self.eps * sqrt_bias2)

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat ``{name: ndarray}`` snapshot of all optimizer state."""
        state: Dict[str, np.ndarray] = {
            "step_count": np.asarray(self._step_count, dtype=np.int64)}
        for i in range(len(self.parameters)):
            state[f"m.{i}"] = self._m[i].copy()
            state[f"v.{i}"] = self._v[i].copy()
            if self._row_steps[i] is not None:
                state[f"row_steps.{i}"] = self._row_steps[i].copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        self._step_count = int(state["step_count"])
        for i in range(len(self.parameters)):
            np.copyto(self._m[i], state[f"m.{i}"])
            np.copyto(self._v[i], state[f"v.{i}"])
            key = f"row_steps.{i}"
            self._row_steps[i] = (
                np.asarray(state[key], dtype=get_index_dtype()).copy()
                if key in state else None)

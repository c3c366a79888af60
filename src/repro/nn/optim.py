"""Optimizers: SGD and Adam, dense and row-sparse ("lazy") paths.

The paper optimizes with Adam (Section V-A4); SGD is provided for the
algorithm box (Alg. 1) and for tests that need predictable dynamics.

Both optimizers natively consume the row-sparse gradients
(:class:`repro.autograd.sparse.RowSparseGrad`) that minibatch training
produces for embedding tables, updating **only the touched rows** so the
step cost is O(batch) instead of O(graph):

* **Lazy SGD** — touched rows get the standard update; with weight decay
  and no momentum, skipped decay is caught up *exactly* via the
  multiplicative factor ``(1 - lr*wd)**skipped`` before the current
  step.  With momentum, the velocity of a re-touched row is decayed by
  ``momentum**elapsed`` for the steps it sat out (the standard lazy
  approximation: the skipped ``-lr*v`` position updates are dropped).
* **Lazy Adam** — TF LazyAdam semantics extended with *exact* per-row
  bias correction: each row carries its own step counter, so a row
  touched for the n-th time is corrected with ``1 - beta**n`` regardless
  of the global step.  Weight decay is caught up to first order by
  scaling the decay term with the number of optimizer steps elapsed
  since the row was last touched.
* ``sparse_mode="dense_correct"`` — Adam densifies each sparse gradient
  and runs the exact dense kernel.  Because a coalesced
  ``RowSparseGrad`` densifies bitwise-identically to the dense scatter,
  this mode reproduces the dense-Adam trajectory bit for bit; it exists
  as the correctness oracle for the lazy path.

Optimizer state (momentum / moments) is allocated with
``np.zeros_like(param.data)``, so it follows each parameter's dtype —
under the float32 precision policy (:mod:`repro.engine.precision`) the
whole optimizer state halves along with the parameters.  All state is
exposed via :meth:`Optimizer.state_dict` as a flat ``{name: ndarray}``
mapping for checkpointing.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.autograd.sparse import RowSparseGrad
from repro.engine.precision import get_index_dtype
from repro.nn.module import Parameter

_SPARSE_MODES = ("lazy", "dense_correct")


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients in-place so their global L2 norm is at most ``max_norm``.

    Row-sparse gradients participate without densifying: their squared
    sum equals the dense gradient's (untouched rows are zero), and
    clipping scales only the stored values.  Returns the pre-clip norm.
    """
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


class Optimizer:
    """Base optimizer holding a flat parameter list.

    Subclasses call :meth:`_record_touched` once per :meth:`step` so
    callers (the trainer's :class:`TrainingHistory`) can observe what
    fraction of parameter rows each step actually updated.
    """

    def __init__(self, parameters: Iterable[Parameter], lr: float):
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.lr = float(lr)
        self.last_touched_rows: Optional[int] = None
        self.last_total_rows: Optional[int] = None

    def zero_grad(self) -> None:
        """Clear all parameter gradients (dense or row-sparse)."""
        for param in self.parameters:
            param.grad = None

    def step(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Touched-row accounting
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat ``{name: ndarray}`` snapshot of all optimizer state."""
        return {}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        if state:
            raise KeyError(f"unexpected optimizer state keys: {sorted(state)}")


class SGD(Optimizer):
    """SGD with momentum and L2 decay; lazy row-sparse updates.

    A row-sparse gradient updates only its touched rows.  With weight
    decay and no momentum the update is *exact*: an untouched row under
    the dense schedule contracts by ``(1 - lr*wd)`` per step, so on
    re-touch the row first catches up multiplicatively for the steps it
    sat out.  With momentum, the velocity of a re-touched row is decayed
    by ``momentum**elapsed`` (the position updates the dense schedule
    would have applied from stale velocity are dropped — the standard
    lazy-momentum approximation).
    """

    def __init__(self, parameters: Iterable[Parameter], lr: float,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._step_count = 0
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]
        # Per-parameter step index of each row's last update; allocated
        # on first sparse touch (dense-only training never pays for it).
        self._row_last: List[Optional[np.ndarray]] = [None] * len(self.parameters)

    def step(self) -> None:
        """Apply one SGD update to all parameters with gradients."""
        self._record_touched()
        self._step_count += 1
        for i, (param, velocity) in enumerate(zip(self.parameters, self._velocity)):
            if param.grad is None:
                continue
            if isinstance(param.grad, RowSparseGrad):
                self._sparse_step(i, param, velocity, param.grad)
            else:
                self._dense_step(i, param, velocity, param.grad)

    def _dense_step(self, i: int, param: Parameter,
                    velocity: np.ndarray, grad: np.ndarray) -> None:
        if self._row_last[i] is not None:
            # A dense grad touches every row; keep lazy bookkeeping honest.
            self._catch_up(i, param, velocity, slice(None))
        if self.weight_decay:
            grad = grad + self.weight_decay * param.data
        if self.momentum:
            velocity *= self.momentum
            velocity += grad
            grad = velocity
        param.data -= self.lr * grad
        if self._row_last[i] is not None:
            self._row_last[i][:] = self._step_count

    def _sparse_step(self, i: int, param: Parameter,
                     velocity: np.ndarray, grad: RowSparseGrad) -> None:
        rows, values = grad.rows, grad.values
        self._catch_up(i, param, velocity, rows)
        g = values
        if self.weight_decay:
            g = g + self.weight_decay * param.data[rows]
        if self.momentum:
            velocity[rows] = self.momentum * velocity[rows] + g
            g = velocity[rows]
        param.data[rows] -= self.lr * g
        if self._row_last[i] is None and (self.weight_decay or self.momentum):
            self._row_last[i] = np.zeros(param.data.shape[0],
                                         dtype=get_index_dtype())
        if self._row_last[i] is not None:
            self._row_last[i][rows] = self._step_count

    def _catch_up(self, i: int, param: Parameter,
                  velocity: np.ndarray, rows) -> None:
        """Apply the decay the selected rows missed while untouched."""
        row_last = self._row_last[i]
        if row_last is None:
            return
        skipped = (self._step_count - 1) - row_last[rows]
        if not np.any(skipped > 0):
            return
        trailing = (1,) * (param.data.ndim - 1)
        skipped = skipped.reshape((-1,) + trailing)
        if self.weight_decay and not self.momentum:
            param.data[rows] *= (1.0 - self.lr * self.weight_decay) ** skipped
        if self.momentum:
            velocity[rows] *= self.momentum ** skipped

    def state_dict(self) -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {
            "step_count": np.asarray(self._step_count, dtype=np.int64)}
        for i, velocity in enumerate(self._velocity):
            state[f"velocity.{i}"] = velocity.copy()
            if self._row_last[i] is not None:
                state[f"row_last.{i}"] = self._row_last[i].copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        self._step_count = int(state["step_count"])
        for i in range(len(self.parameters)):
            np.copyto(self._velocity[i], state[f"velocity.{i}"])
            key = f"row_last.{i}"
            self._row_last[i] = (
                np.asarray(state[key], dtype=get_index_dtype()).copy()
                if key in state else None)


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with L2 decay; lazy row-sparse updates.

    Dense gradients take the classic update with bias correction folded
    into the scalar step size, so no ``m_hat``/``v_hat`` temporaries are
    allocated::

        p -= (lr * sqrt(1-b2^t) / (1-b1^t)) * m / (sqrt(v) + eps*sqrt(1-b2^t))

    which is algebraically identical to ``lr * m_hat / (sqrt(v_hat) + eps)``.

    Row-sparse gradients follow ``sparse_mode``:

    * ``"lazy"`` (default) — update only touched rows.  Each row keeps
      its own step counter for **exact** bias correction (a row touched
      for the n-th time is corrected with ``1 - beta**n``), matching TF
      LazyAdam semantics.  Weight decay is caught up to first order: the
      decay term is scaled by the optimizer steps elapsed since the row
      was last touched.
    * ``"dense_correct"`` — densify and run the dense kernel; bitwise
      identical to dense Adam (the lazy path's correctness oracle).
    """

    def __init__(self, parameters: Iterable[Parameter], lr: float = 1e-2,
                 betas=(0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0, sparse_mode: str = "lazy"):
        super().__init__(parameters, lr)
        if sparse_mode not in _SPARSE_MODES:
            raise ValueError(f"sparse_mode must be one of {_SPARSE_MODES}, "
                             f"got {sparse_mode!r}")
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.sparse_mode = sparse_mode
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        # Lazily allocated per-row counters (lazy mode only): per-row
        # update counts for bias correction and the step index of the
        # last touch for weight-decay catch-up.
        self._row_steps: List[Optional[np.ndarray]] = [None] * len(self.parameters)
        self._row_last: List[Optional[np.ndarray]] = [None] * len(self.parameters)

    def step(self) -> None:
        """Apply one Adam update to all parameters with gradients."""
        self._record_touched()
        self._step_count += 1
        for i, (param, m, v) in enumerate(zip(self.parameters, self._m, self._v)):
            grad = param.grad
            if grad is None:
                continue
            if isinstance(grad, RowSparseGrad):
                if self.sparse_mode == "dense_correct":
                    self._dense_step(i, param, m, v, grad.to_dense())
                else:
                    self._lazy_step(i, param, m, v, grad)
            else:
                self._dense_step(i, param, m, v, grad)

    def _dense_step(self, i: int, param: Parameter, m: np.ndarray,
                    v: np.ndarray, grad: np.ndarray) -> None:
        if self.weight_decay:
            grad = grad + self.weight_decay * param.data
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
            self._row_last[i][:] = self._step_count

    def _lazy_step(self, i: int, param: Parameter, m: np.ndarray,
                   v: np.ndarray, grad: RowSparseGrad) -> None:
        rows, g = grad.rows, grad.values
        if self._row_steps[i] is None:
            num_rows = param.data.shape[0]
            # Rows all start at the global pre-step count so a lazy
            # optimizer taking over after dense steps stays corrected.
            self._row_steps[i] = np.full(num_rows, self._step_count - 1,
                                         dtype=get_index_dtype())
            self._row_last[i] = np.full(num_rows, self._step_count - 1,
                                        dtype=get_index_dtype())
        row_steps, row_last = self._row_steps[i], self._row_last[i]
        trailing = (1,) * (g.ndim - 1)
        if self.weight_decay:
            # First-order catch-up: fold the decay the row missed while
            # untouched into this step's decay term.
            elapsed = (self._step_count - row_last[rows]).reshape((-1,) + trailing)
            g = g + (self.weight_decay * elapsed) * param.data[rows]
        row_steps[rows] += 1
        row_last[rows] = self._step_count
        n = row_steps[rows].reshape((-1,) + trailing)
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
        state: Dict[str, np.ndarray] = {
            "step_count": np.asarray(self._step_count, dtype=np.int64)}
        for i in range(len(self.parameters)):
            state[f"m.{i}"] = self._m[i].copy()
            state[f"v.{i}"] = self._v[i].copy()
            if self._row_steps[i] is not None:
                state[f"row_steps.{i}"] = self._row_steps[i].copy()
                state[f"row_last.{i}"] = self._row_last[i].copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        self._step_count = int(state["step_count"])
        for i in range(len(self.parameters)):
            np.copyto(self._m[i], state[f"m.{i}"])
            np.copyto(self._v[i], state[f"v.{i}"])
            steps_key, last_key = f"row_steps.{i}", f"row_last.{i}"
            if steps_key in state:
                self._row_steps[i] = np.asarray(
                    state[steps_key], dtype=get_index_dtype()).copy()
                self._row_last[i] = np.asarray(
                    state[last_key], dtype=get_index_dtype()).copy()
            else:
                self._row_steps[i] = None
                self._row_last[i] = None

"""Training configuration.

Defaults mirror the paper's hyperparameter settings (Section V-A4):
Adam with learning rate 0.01, embedding dimension 16, batch size in the
[512, 4096] range, L2 coefficient 1e-4, 8 memory units, 2 graph layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple


@dataclass
class TrainConfig:
    """Hyperparameters for :class:`repro.train.Trainer`."""

    epochs: int = 30
    batch_size: int = 1024
    learning_rate: float = 0.01
    l2: float = 1e-4
    weight_decay: float = 0.0  # Eq. 11's λ||Θ||², applied through Adam
    optimizer: str = "adam"  # "adam" (Section V-A4) or "sgd" (Alg. 1 box)
    momentum: float = 0.0  # SGD momentum (ignored by Adam)
    batches_per_epoch: Optional[int] = None  # None -> cover the training set once
    propagation: str = "full"  # "full" (Alg. 1) or "minibatch" (sampled)
    hops: Optional[int] = None  # minibatch closure depth; None -> model's exact depth
    fanout: Optional[int] = 20  # per-node neighbour cap; None -> keep all
    prefetch: Optional[bool] = None  # None -> REPRO_PREFETCH env (default on)
    sparse_grads: Optional[bool] = None  # None -> on for minibatch, off for full
    sparse_adam_mode: str = "lazy"  # "lazy" (O(batch) steps) or "dense_correct"
    arena: Optional[bool] = None  # None -> REPRO_ENGINE_ARENA env (default on)
    workers: int = 0  # 0 = single-process Trainer; > 0 forks a ParallelTrainer
    spmm_block: Optional[int] = None  # None -> engine setting; 0 off, 1 auto, else bytes
    eval_every: int = 1
    eval_ks: Tuple[int, ...] = (5, 10, 20)
    early_stopping_metric: str = "hr@10"
    patience: Optional[int] = 10
    clip_norm: Optional[float] = 5.0
    seed: int = 0
    verbose: bool = False

    def __post_init__(self):
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.eval_every <= 0:
            raise ValueError("eval_every must be positive")
        if self.batches_per_epoch is not None and self.batches_per_epoch <= 0:
            raise ValueError("batches_per_epoch must be positive "
                             "(or None to cover the training set once)")
        if self.propagation not in ("full", "minibatch"):
            raise ValueError("propagation must be 'full' or 'minibatch'")
        if self.hops is not None and self.hops < 0:
            raise ValueError("hops must be >= 0")
        if self.fanout is not None and self.fanout <= 0:
            raise ValueError("fanout must be positive (or None to keep all)")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError("optimizer must be 'adam' or 'sgd'")
        if self.sparse_adam_mode not in ("lazy", "dense_correct"):
            raise ValueError(
                "sparse_adam_mode must be 'lazy' or 'dense_correct'")
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = single-process)")
        if self.spmm_block is not None and self.spmm_block < 0:
            raise ValueError("spmm_block must be >= 0 (0 = flat kernels)")

    def resolved_sparse_grads(self) -> bool:
        """Whether this run produces row-sparse embedding gradients.

        Defaults to on exactly when the sampled propagation path is
        selected — that is where embedding lookups touch O(batch) rows
        and the lazy optimizers pay off.  Full-graph propagation updates
        every row anyway, so sparse carriers would only add overhead.
        """
        if self.sparse_grads is not None:
            return bool(self.sparse_grads)
        return self.propagation == "minibatch"

    def resolved_arena(self) -> bool:
        """Whether training steps run inside a buffer-arena scope.

        On by default: pooled buffers are fully overwritten before use,
        so pooled and allocate-fresh runs are bitwise identical.
        ``arena=False`` (or ``REPRO_ENGINE_ARENA=0``) keeps the
        allocate-fresh path as the parity oracle.
        """
        if self.arena is not None:
            return bool(self.arena)
        from repro.engine.arena import arena_enabled
        return arena_enabled()

    def resolved_spmm_block(self):
        """Blocked-spmm byte budget for this run (``None`` = flat kernels).

        An explicit ``spmm_block`` goes through
        :func:`repro.engine.locality.parse_block_setting` (``0`` off,
        ``1`` the auto per-call budget, else bytes); otherwise the
        engine-wide setting (``REPRO_ENGINE_SPMM_BLOCK`` /
        :func:`~repro.engine.locality.set_spmm_block`) applies.
        """
        from repro.engine import locality
        if self.spmm_block is not None:
            return locality.parse_block_setting(self.spmm_block)
        return locality.get_spmm_block()


@dataclass
class PaperHyperparameters:
    """The model-side settings of Section V-A4, for reference and sweeps."""

    embed_dim: int = 16
    num_layers: int = 2
    num_memory_units: int = 8
    embed_dim_grid: Tuple[int, ...] = (4, 8, 16, 32)
    layer_grid: Tuple[int, ...] = (0, 1, 2, 3)
    memory_grid: Tuple[int, ...] = (2, 4, 8, 16)
    l2_grid: Tuple[float, ...] = field(default=(1e-3, 1e-4, 1e-5))

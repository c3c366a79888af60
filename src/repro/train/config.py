"""Training configuration.

Defaults mirror the paper's hyperparameter settings (Section V-A4):
Adam with learning rate 0.01, embedding dimension 16, batch size in the
[512, 4096] range, L2 coefficient 1e-4, 8 memory units, 2 graph layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass
class TrainConfig:
    """Hyperparameters for :class:`repro.train.Trainer`."""

    epochs: int = 30
    batch_size: int = 1024
    learning_rate: float = 0.01
    l2: float = 1e-4  # Eq. 11's λ, on the batch's final embeddings
    batches_per_epoch: Optional[int] = None  # None -> cover the training set once
    propagation: str = "full"  # "full" (Alg. 1) or "minibatch" (sampled)
    hops: Optional[int] = None  # minibatch closure depth; None -> model's exact depth
    fanout: Optional[int] = 20  # per-node neighbour cap; None -> keep all
    prefetch: Optional[bool] = None  # None -> REPRO_PREFETCH env (default on)
    sparse_grads: Optional[bool] = None  # None -> on for minibatch, off for full
    arena: Optional[bool] = None  # None -> REPRO_ENGINE_ARENA env (default off)
    workers: int = 0  # only 0 is valid: training runs in one process
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
        if self.l2 < 0:
            raise ValueError("l2 must be >= 0")
        if self.patience is not None and self.patience < 1:
            raise ValueError("patience must be >= 1 "
                             "(or None to disable early stopping)")
        if self.workers != 0:
            raise ValueError(
                f"workers must be 0, got {self.workers}: multi-process "
                f"training was removed; Trainer runs in one process")
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ValueError("clip_norm must be positive "
                             "(or None to disable clipping)")
        valid_metrics = {f"{name}@{k}" for k in self.eval_ks
                         for name in ("hr", "ndcg")}
        if self.early_stopping_metric not in valid_metrics:
            raise ValueError(
                f"early_stopping_metric {self.early_stopping_metric!r} is "
                f"not one of {sorted(valid_metrics)}: it must be hr@k or "
                f"ndcg@k with k in eval_ks")
        if self.spmm_block is not None and self.spmm_block < 0:
            raise ValueError("spmm_block must be >= 0 (0 = flat kernels)")

    def resolved_sparse_grads(self) -> bool:
        """Whether this run produces row-sparse embedding gradients.

        Defaults to on exactly when the sampled propagation path is
        selected — that is where embedding lookups touch O(batch) rows
        and lazy Adam pays off.  Full-graph propagation updates
        every row anyway, so sparse carriers would only add overhead.
        """
        if self.sparse_grads is not None:
            return bool(self.sparse_grads)
        return self.propagation == "minibatch"

    def resolved_arena(self) -> bool:
        """Whether training steps run inside a buffer-arena scope.

        Off by default: each step's autograd graph is freed by refcount
        when its loss is dropped, so plain allocation already returns
        the step's buffers, and a pool would only pin them longer and
        keep its free lists resident.  ``arena=True`` (or
        ``REPRO_ENGINE_ARENA=1``) opts in; pooled buffers are fully
        overwritten before use, so pooled and allocate-fresh runs are
        bitwise identical.
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
    """Section V-A4's settings and search grids: the one copy.

    The Fig. 7 sweeps (:mod:`repro.experiments.hyperparams`), the
    tuning grid (:func:`repro.train.search.paper_tuning_grid`) and the
    ``|M|`` scaling measurement (:mod:`repro.experiments.complexity`)
    all read their grids from here.
    """

    embed_dim: int = 16
    num_layers: int = 2
    num_memory_units: int = 8
    embed_dim_grid: Tuple[int, ...] = (4, 8, 16, 32)
    layer_grid: Tuple[int, ...] = (0, 1, 2, 3)
    memory_grid: Tuple[int, ...] = (2, 4, 8, 16)
    l2_grid: Tuple[float, ...] = (1e-3, 1e-4, 1e-5)
    batch_size_grid: Tuple[int, ...] = (512, 1024, 2048, 4096)

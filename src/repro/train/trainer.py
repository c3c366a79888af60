"""The BPR training loop (Alg. 1 of the paper).

Per epoch: sample BPR triple batches, propagate, backpropagate the
pairwise loss (Eq. 11), and step Adam.  Propagation runs in one of two
modes selected by ``TrainConfig.propagation``:

* ``"full"`` — the paper's Alg. 1: full heterogeneous propagation per
  batch.  Exact, but every step costs the whole graph.
* ``"minibatch"`` — neighbourhood-sampled subgraph propagation: each
  batch's L-hop closure is expanded (optionally fan-out-capped) and the
  model's layer stack runs on a
  :class:`~repro.graph.sampling.SubgraphView`.  With
  ``TrainConfig.prefetch`` on, a background worker builds the next
  batch's subgraph while the current step computes.

Evaluation uses the shared 1-positive + 100-negative protocol.  The
trainer records per-epoch losses, metric trajectories, wall-clock
timings, and the split between time spent *sampling* batches and time
spent *computing* on them — the raw material for Table IV and Fig. 8.

Determinism: a run is a pure function of ``(TrainConfig, seed, model
init)`` — the BPR sampler stream, per-``(epoch, batch)`` fan-out seeds
and dropout draws are all derived from ``TrainConfig.seed``, so equal
configs reproduce bitwise.  Prefetch cannot change results (the planner
stream is identical either way), and the multi-process
:class:`~repro.train.parallel.ParallelTrainer` holds a 1-worker run
bitwise-identical to this class.  Environment-resolved knobs
(``REPRO_PREFETCH``, ``REPRO_ENGINE_ARENA``, ``REPRO_ENGINE_SPMM_BLOCK``)
are documented field-by-field in ``docs/operations.md``; node reordering
is chosen once, when the split is built
(``ExperimentContext.build(reorder=...)`` / ``REPRO_REORDER``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import contextlib

from repro.autograd.sparse import use_sparse_grads
from repro.data.sampling import BprSampler, EvalCandidates, build_eval_candidates
from repro.data.split import Split
from repro.engine import arena
from repro.engine import instrument
from repro.engine import locality
from repro.eval.protocol import evaluate_model
from repro.models.base import Recommender
from repro.nn.optim import SGD, Adam, clip_grad_norm
from repro.train.config import TrainConfig
from repro.train.early_stopping import EarlyStopping
from repro.train.pipeline import (
    MinibatchPlanner,
    PrefetchPipeline,
    prefetch_enabled,
)


@dataclass
class TrainingHistory:
    """Everything a training run produced."""

    losses: List[float] = field(default_factory=list)
    eval_epochs: List[int] = field(default_factory=list)
    metrics: List[Dict[str, float]] = field(default_factory=list)
    train_seconds: List[float] = field(default_factory=list)
    sample_seconds: List[float] = field(default_factory=list)
    compute_seconds: List[float] = field(default_factory=list)
    eval_seconds: List[float] = field(default_factory=list)
    kernel_counters: List[Dict[str, float]] = field(default_factory=list)
    touched_row_fractions: List[float] = field(default_factory=list)
    best_epoch: int = -1
    best_metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def epochs_run(self) -> int:
        return len(self.losses)

    def metric_curve(self, name: str) -> List[float]:
        """Trajectory of one metric over the evaluated epochs (Fig. 8)."""
        return [m[name] for m in self.metrics]

    def mean_train_seconds(self) -> float:
        """Average training wall-clock per epoch (Table IV)."""
        return sum(self.train_seconds) / max(len(self.train_seconds), 1)

    def mean_eval_seconds(self) -> float:
        """Average evaluation wall-clock per pass (Table IV)."""
        return sum(self.eval_seconds) / max(len(self.eval_seconds), 1)

    def mean_sample_seconds(self) -> float:
        """Average per-epoch time spent sampling/building batches.

        Under prefetch this is worker-thread time: it can exceed the
        epoch's wall-clock gap over compute, which is exactly the
        overlap the pipeline buys (``train_seconds <
        sample_seconds + compute_seconds``).
        """
        return sum(self.sample_seconds) / max(len(self.sample_seconds), 1)

    def mean_compute_seconds(self) -> float:
        """Average per-epoch time spent in forward/backward/step."""
        return sum(self.compute_seconds) / max(len(self.compute_seconds), 1)

    def mean_touched_row_fraction(self) -> float:
        """Average fraction of parameter rows each optimizer step updated.

        1.0 under dense training; ``O(batch/graph)`` under the row-sparse
        minibatch path — the direct measure of what lazy updates save.
        """
        if not self.touched_row_fractions:
            return 1.0
        return sum(self.touched_row_fractions) / len(self.touched_row_fractions)

    def total_kernel_counters(self) -> Dict[str, float]:
        """Sum of the per-epoch kernel counter deltas over the whole run."""
        totals: Dict[str, float] = {}
        for epoch_counters in self.kernel_counters:
            for key, value in epoch_counters.items():
                totals[key] = totals.get(key, 0.0) + value
        return totals


class Trainer:
    """Trains a :class:`Recommender` on a leave-one-out split.

    Parameters
    ----------
    model:
        Any recommender following the shared interface.
    split:
        Leave-one-out split; the model's graph must have been built from
        ``split.train_pairs``.
    config:
        Hyperparameters; see :class:`TrainConfig`.
    candidates:
        Pre-built evaluation candidates.  Pass the same object to every
        model in a comparison so they rank identical negatives.
    """

    def __init__(self, model: Recommender, split: Split,
                 config: Optional[TrainConfig] = None,
                 candidates: Optional[EvalCandidates] = None):
        self.model = model
        self.split = split
        self.config = config or TrainConfig()
        self.candidates = candidates if candidates is not None else build_eval_candidates(
            split, seed=self.config.seed)
        self.sampler = BprSampler(split, batch_size=self.config.batch_size,
                                  seed=self.config.seed)
        if self.config.optimizer == "sgd":
            self.optimizer = SGD(model.parameters(),
                                 lr=self.config.learning_rate,
                                 momentum=self.config.momentum,
                                 weight_decay=self.config.weight_decay)
        else:
            self.optimizer = Adam(model.parameters(),
                                  lr=self.config.learning_rate,
                                  weight_decay=self.config.weight_decay,
                                  sparse_mode=self.config.sparse_adam_mode)
        self._sparse_grads = self.config.resolved_sparse_grads()
        self._arena = self.config.resolved_arena()
        self._epoch_touched: List[float] = []
        self._planner: Optional[MinibatchPlanner] = None
        if self.config.propagation == "minibatch":
            if not model.supports_minibatch():
                raise ValueError(
                    f"model {model.name!r} does not implement the sampled "
                    f"propagation path required by propagation='minibatch'")
            hops = (self.config.hops if self.config.hops is not None
                    else model.minibatch_hops())
            self._planner = MinibatchPlanner(
                model.graph, self.sampler, hops=hops,
                fanout=self.config.fanout, base_seed=self.config.seed)

    # ------------------------------------------------------------------
    # One epoch, both propagation modes
    # ------------------------------------------------------------------
    def _apply_gradients(self, loss) -> None:
        loss.backward()
        if self.config.clip_norm is not None:
            clip_grad_norm(self.model.parameters(), self.config.clip_norm)
        self.optimizer.step()
        self._epoch_touched.append(self.optimizer.touched_fraction())

    def _step_scope(self):
        """Arena scope for one optimizer step (no-op when disabled).

        The scope covers forward, backward, clipping and the parameter
        update; by scope exit every gradient has been consumed and the
        loss value read, so the step's buffers recycle safely.
        """
        if self._arena:
            return arena.step_scope()
        return contextlib.nullcontext()

    def _full_epoch(self, batches: int) -> Tuple[float, float, float]:
        """Alg. 1: full-graph propagation per batch."""
        epoch_loss = sample_seconds = compute_seconds = 0.0
        for _ in range(batches):
            start = time.perf_counter()
            users, positives, negatives = self.sampler.sample()
            sample_seconds += time.perf_counter() - start
            start = time.perf_counter()
            with self._step_scope():
                self.optimizer.zero_grad()
                loss = self.model.bpr_loss(users, positives, negatives,
                                           l2=self.config.l2)
                self._apply_gradients(loss)
                epoch_loss += loss.item()
                del loss
            compute_seconds += time.perf_counter() - start
        return epoch_loss, sample_seconds, compute_seconds

    def _minibatch_epoch(self, epoch: int,
                         batches: int) -> Tuple[float, float, float]:
        """Sampled propagation, optionally with prefetch overlap.

        ``sample_seconds`` counts time spent building batches wherever it
        ran (inline or on the prefetch worker), so under prefetch the
        epoch wall-clock is less than ``sample + compute`` — the overlap
        the pipeline buys.
        """
        steps = self._planner.plan(batches, epoch)
        pipeline = None
        if prefetch_enabled(self.config.prefetch):
            pipeline = PrefetchPipeline(steps)
            steps = pipeline
        epoch_loss = sample_seconds = compute_seconds = 0.0
        try:
            for step in steps:
                sample_seconds += step.sample_seconds
                start = time.perf_counter()
                with self._step_scope():
                    self.optimizer.zero_grad()
                    loss = self.model.bpr_loss_on(
                        step.subgraph, step.users, step.positives,
                        step.negatives, l2=self.config.l2)
                    self._apply_gradients(loss)
                    epoch_loss += loss.item()
                    del loss
                compute_seconds += time.perf_counter() - start
        finally:
            if pipeline is not None:
                pipeline.close()
        return epoch_loss, sample_seconds, compute_seconds

    def fit(self) -> TrainingHistory:
        """Run the training loop and return the recorded history.

        Early stopping (if configured) restores the best snapshot before
        returning, so the model is left at its best evaluated state.
        """
        config = self.config
        history = TrainingHistory()
        stopper = EarlyStopping(metric=config.early_stopping_metric,
                                patience=config.patience)
        batches = config.batches_per_epoch or self.sampler.batches_for_full_epoch()
        block_scope = locality.use_spmm_block(config.resolved_spmm_block())

        with block_scope:
            return self._fit_loop(config, history, stopper, batches)

    def _fit_loop(self, config, history, stopper, batches) -> TrainingHistory:
        for epoch in range(config.epochs):
            start = time.perf_counter()
            self.model.train()
            counters_before = instrument.snapshot()
            self._epoch_touched = []
            with use_sparse_grads(self._sparse_grads):
                if self._planner is not None:
                    epoch_loss, sample_seconds, compute_seconds = (
                        self._minibatch_epoch(epoch, batches))
                else:
                    epoch_loss, sample_seconds, compute_seconds = (
                        self._full_epoch(batches))
            self.model.invalidate_cache()
            history.losses.append(epoch_loss / batches)
            history.train_seconds.append(time.perf_counter() - start)
            history.sample_seconds.append(sample_seconds)
            history.compute_seconds.append(compute_seconds)
            history.touched_row_fractions.append(
                sum(self._epoch_touched) / max(len(self._epoch_touched), 1))
            history.kernel_counters.append(
                instrument.delta(counters_before, instrument.snapshot()))

            if (epoch + 1) % config.eval_every == 0 or epoch == config.epochs - 1:
                start = time.perf_counter()
                metrics = evaluate_model(self.model, self.candidates, ks=config.eval_ks)
                history.eval_seconds.append(time.perf_counter() - start)
                history.eval_epochs.append(epoch)
                history.metrics.append(metrics)
                if config.verbose:
                    summary = ", ".join(f"{k}={v:.4f}" for k, v in metrics.items())
                    print(f"[{self.model.name}] epoch {epoch + 1}: "
                          f"loss={history.losses[-1]:.4f}, {summary}")
                if stopper.update(metrics, self.model, epoch):
                    break

        stopper.restore_best(self.model)
        history.best_epoch = stopper.best_epoch
        if stopper.best_state is not None:
            best_index = history.eval_epochs.index(stopper.best_epoch)
            history.best_metrics = dict(history.metrics[best_index])
        return history

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
stream is identical either way).  Environment-resolved knobs
(``REPRO_PREFETCH``, ``REPRO_ENGINE_ARENA``, ``REPRO_ENGINE_SPMM_BLOCK``)
are documented field-by-field in ``docs/operations.md``.

Training runs in one process: one optimizer step per BPR batch, as in
Alg. 1, through one step body for both propagation modes.  A
non-finite loss or gradient norm skips that step and ends training
with the reason in ``TrainingHistory.stop_reason``.
:func:`train_and_publish` chains a :class:`Trainer` run into
the serving layer by publishing the trained model as an
:class:`~repro.serve.snapshot.EmbeddingSnapshot`.
"""

from __future__ import annotations

import contextlib
import math
import resource
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.autograd.sparse import use_sparse_grads
from repro.data.sampling import BprSampler, EvalCandidates, build_eval_candidates
from repro.data.split import Split
from repro.engine import arena
from repro.engine import instrument
from repro.engine import locality
from repro.eval.protocol import evaluate_model
from repro.models.base import Recommender
from repro.nn.optim import Adam, clip_grad_norm
from repro.train.config import TrainConfig
from repro.train.early_stopping import EarlyStopping
from repro.train.pipeline import (
    MinibatchPlanner,
    MinibatchStep,
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
    #: Per-epoch ``getrusage`` deltas of the whole process: minor page
    #: faults and system CPU seconds.  Together they show allocator
    #: churn (fresh pages faulted in and zeroed by the kernel), which
    #: neither wall time nor the kernel counters separate out.
    minor_page_faults: List[int] = field(default_factory=list)
    system_seconds: List[float] = field(default_factory=list)
    touched_row_fractions: List[float] = field(default_factory=list)
    best_epoch: int = -1
    best_metrics: Dict[str, float] = field(default_factory=dict)
    #: Why training stopped early on a failure (a non-finite loss or
    #: gradient norm, with its epoch and batch); ``None`` otherwise.
    stop_reason: Optional[str] = None

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
        self.optimizer = Adam(model.parameters(), lr=self.config.learning_rate)
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
    # One loop over steps, both propagation modes
    # ------------------------------------------------------------------
    def _step_scope(self):
        """Arena scope for one optimizer step (a no-op by default).

        Only opened when the run opts into pooling
        (``TrainConfig.resolved_arena``).  The scope covers forward,
        backward, clipping and the parameter update; by scope exit every
        gradient has been consumed (or dropped) and the loss value read,
        so the step's buffers recycle safely.  Without a scope the
        step's graph and buffers are freed by refcount at ``del loss``.
        """
        if self._arena:
            return arena.step_scope()
        return contextlib.nullcontext()

    def _steps(self, epoch: int, batches: int) -> Iterator[MinibatchStep]:
        """The epoch's batches; ``subgraph`` is ``None`` for ``"full"``."""
        if self._planner is not None:
            yield from self._planner.plan(batches, epoch)
            return
        for _ in range(batches):
            start = time.perf_counter()
            users, positives, negatives = self.sampler.sample()
            yield MinibatchStep(users, positives, negatives, None,
                                time.perf_counter() - start)

    def _train_epoch(self, epoch: int, batches: int
                     ) -> Tuple[float, float, float, Optional[str]]:
        """One optimizer step per batch; returns loss, sample and compute time.

        ``sample_seconds`` counts time spent building batches wherever it
        ran (inline or on the prefetch worker), so under prefetch the
        epoch wall-clock is less than ``sample + compute`` — the overlap
        the pipeline buys.  A batch whose loss or pre-clip gradient norm
        is non-finite is not stepped: its gradients are dropped and the
        epoch ends early, returning the reason as the fourth element.
        """
        config = self.config
        steps = self._steps(epoch, batches)
        pipeline = None
        if self._planner is not None and prefetch_enabled(config.prefetch):
            pipeline = steps = PrefetchPipeline(steps)
        epoch_loss = sample_seconds = compute_seconds = 0.0
        self._epoch_touched = []
        try:
            for batch, step in enumerate(steps):
                sample_seconds += step.sample_seconds
                start = time.perf_counter()
                with self._step_scope():
                    self.optimizer.zero_grad()
                    if step.subgraph is None:
                        loss = self.model.bpr_loss(
                            step.users, step.positives, step.negatives,
                            l2=config.l2)
                    else:
                        loss = self.model.bpr_loss_on(
                            step.subgraph, step.users, step.positives,
                            step.negatives, l2=config.l2)
                    loss.backward()
                    norm = 0.0
                    if config.clip_norm is not None:
                        norm = clip_grad_norm(self.model.parameters(),
                                              config.clip_norm)
                    value = loss.item()
                    del loss
                    if not (math.isfinite(value) and math.isfinite(norm)):
                        self.optimizer.zero_grad()
                        what = (f"loss {value}" if not math.isfinite(value)
                                else f"gradient norm {norm}")
                        return (epoch_loss, sample_seconds, compute_seconds,
                                f"non-finite {what} at epoch {epoch}, "
                                f"batch {batch}")
                    self.optimizer.step()
                    self._epoch_touched.append(
                        self.optimizer.touched_fraction())
                epoch_loss += value
                compute_seconds += time.perf_counter() - start
        finally:
            if pipeline is not None:
                pipeline.close()
        return epoch_loss, sample_seconds, compute_seconds, None

    def fit(self) -> TrainingHistory:
        """Run the training loop and return the recorded history.

        Training ends after ``config.epochs``, when early stopping's
        patience runs out, or at the first non-finite loss or gradient
        norm (recorded in ``TrainingHistory.stop_reason``; the
        interrupted epoch is not recorded).  Either way the best
        evaluated snapshot is restored before returning.
        """
        config = self.config
        history = TrainingHistory()
        stopper = EarlyStopping(metric=config.early_stopping_metric,
                                patience=config.patience)
        batches = config.batches_per_epoch or self.sampler.batches_for_full_epoch()
        with locality.use_spmm_block(config.resolved_spmm_block()):
            for epoch in range(config.epochs):
                start = time.perf_counter()
                self.model.train()
                counters_before = instrument.snapshot()
                usage_before = resource.getrusage(resource.RUSAGE_SELF)
                with use_sparse_grads(self._sparse_grads):
                    (epoch_loss, sample_seconds, compute_seconds,
                     history.stop_reason) = self._train_epoch(epoch, batches)
                self.model.invalidate_cache()
                if history.stop_reason is not None:
                    break
                history.losses.append(epoch_loss / batches)
                history.train_seconds.append(time.perf_counter() - start)
                history.sample_seconds.append(sample_seconds)
                history.compute_seconds.append(compute_seconds)
                history.touched_row_fractions.append(
                    sum(self._epoch_touched) / max(len(self._epoch_touched), 1))
                history.kernel_counters.append(
                    instrument.delta(counters_before, instrument.snapshot()))
                usage = resource.getrusage(resource.RUSAGE_SELF)
                history.minor_page_faults.append(
                    usage.ru_minflt - usage_before.ru_minflt)
                history.system_seconds.append(
                    usage.ru_stime - usage_before.ru_stime)

                if (epoch + 1) % config.eval_every == 0 or epoch == config.epochs - 1:
                    start = time.perf_counter()
                    metrics = evaluate_model(self.model, self.candidates,
                                             ks=config.eval_ks)
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


def train_and_publish(model: Recommender, split: Split,
                      config: Optional[TrainConfig] = None,
                      candidates: Optional[EvalCandidates] = None,
                      store=None) -> Tuple[TrainingHistory, Optional[int]]:
    """Train with :class:`Trainer` and publish a serving snapshot.

    The end-to-end production path: after ``fit()`` returns (with the
    best epoch restored), the trained model is frozen into an
    :class:`~repro.serve.snapshot.EmbeddingSnapshot` and — when a
    :class:`~repro.serve.snapshot.SnapshotStore` (or a path for one) is
    given — published atomically for the serving layer to pick up via
    ``load_latest()``/``refresh()``.  Returns ``(history, version)``
    where ``version`` is ``None`` if no store was given or if training
    stopped on a non-finite value (``history.stop_reason``): a diverged
    model is never published.
    """
    from repro.serve.snapshot import EmbeddingSnapshot, SnapshotStore

    history = Trainer(model, split, config, candidates).fit()
    if store is None or history.stop_reason is not None:
        return history, None
    if not isinstance(store, SnapshotStore):
        store = SnapshotStore(store)
    snapshot = EmbeddingSnapshot.from_model(model, split)
    version = store.publish(snapshot)
    return history, version

"""Multi-process shared-memory training: N workers, one set of tables.

The single-process :class:`~repro.train.trainer.Trainer` already makes
each step O(batch) — sampled subgraphs, row-sparse gradients, lazy
optimizers — but runs every step on one core.  This module adds the last
single-machine scaling lever: the embedding tables (and, under hogwild,
the lazy-Adam/SGD state) move into ``multiprocessing.shared_memory``
segments via :class:`SharedParamStore`, and :class:`ParallelTrainer`
forks N persistent workers that train disjoint batch shards from
:meth:`~repro.train.pipeline.MinibatchPlanner.plan_shard` against the
one shared copy.  Workers are forked once per ``fit()`` (fork start
method, POSIX only) so they inherit the model, graph, planner and
sampler without any serialization; only command tokens, losses and —
in sync mode — coalesced gradients cross process boundaries.

Two update modes (``TrainConfig.parallel_mode``):

* ``"hogwild"`` — every worker owns a full optimizer and applies
  lock-free row-sparse updates directly to the shared tables.  Races
  are bounded by the row-sparse structure: a batch touches ~1% of rows
  (PR 4's measurement), so concurrent writes rarely collide and the
  classic Hogwild! convergence argument applies.  Fastest, but only
  reproducible at ``workers=1``.
* ``"sync"`` — workers compute gradients only; a parent-side reducer
  collects each round's ``W`` coalesced :class:`RowSparseGrad` payloads
  over a queue, merges them in batch-index order, and applies a single
  optimizer step per round.  Merge order is a pure function of the
  batch indices, so a sync run is bitwise-reproducible at any fixed
  worker count.

Determinism guarantees
----------------------
The batch plan is a pure function of ``(TrainConfig, epoch)``: every
shard replays the full BPR triple stream (so batch *content* never
depends on the worker count) and subgraph fan-out uses the planner's
per-(epoch, batch) seeds.  Consequently a 1-worker run — in either
mode — is **bitwise-identical** to the single-process ``Trainer``
(asserted in tier-1), and sync mode at fixed ``W`` is bitwise-
reproducible run to run.  Hogwild at ``W >= 2`` is deliberately racy.

Knobs: ``TrainConfig.workers`` / ``REPRO_WORKERS`` (0 = single-process),
``TrainConfig.parallel_mode`` / ``REPRO_PARALLEL_MODE``; the worker
step inherits everything else the in-process trainer honors —
``REPRO_PREFETCH``/``prefetch``, ``REPRO_ENGINE_ARENA``/``arena``,
``sparse_grads``, ``clip_norm``, and the engine dtype/index policies.
:func:`fit_model` dispatches between the two trainers from the config,
and :func:`train_and_publish` closes the loop with the serving layer by
publishing the trained model as an
:class:`~repro.serve.snapshot.EmbeddingSnapshot`.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import time
import traceback
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.autograd.sparse import RowSparseGrad, use_sparse_grads
from repro.data.sampling import BprSampler, EvalCandidates, build_eval_candidates
from repro.data.split import Split
from repro.engine import arena, instrument
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
from repro.train.trainer import Trainer, TrainingHistory


class SharedParamStore:
    """Moves parameter/optimizer arrays into shared-memory segments.

    :meth:`adopt_parameters` copies each :class:`Parameter`'s array into
    a fresh ``multiprocessing.shared_memory`` segment **once** and
    rebinds ``param.data`` to the shm-backed view — after that single
    move there is exactly one copy of each table, no matter how many
    workers fork; children inherit the mappings and read/write the same
    pages.  :meth:`adopt_optimizer` does the same for an optimizer's
    per-parameter state lists (moments, velocities, lazy row counters),
    forcing their lazy allocation first so nothing is left to allocate
    privately after the fork.

    Teardown matters: a shm view into a closed segment is a crash, so
    :meth:`restore` copies every adopted array back into ordinary
    private memory, rebinds the owners, and only then closes and
    unlinks the segments.  Use it as a context manager to make that
    unconditional.
    """

    def __init__(self):
        self._segments: List[shared_memory.SharedMemory] = []
        # (container, key, shm_view) triples; container is an object
        # with attribute access (Parameter) or a list with index access.
        self._slots: List[Tuple[object, object]] = []
        self._released = False

    # -- adoption ------------------------------------------------------
    def share_array(self, array: np.ndarray) -> np.ndarray:
        """Return a shm-backed view initialized with ``array``'s contents."""
        shm = shared_memory.SharedMemory(create=True,
                                         size=max(int(array.nbytes), 1))
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
        view[...] = array
        self._segments.append(shm)
        return view

    def adopt_parameters(self, parameters) -> None:
        """Rebind every parameter's ``data`` to a shared segment."""
        for param in parameters:
            param.data = self.share_array(param.data)
            self._slots.append((param, None))

    def adopt_optimizer(self, optimizer) -> None:
        """Move an optimizer's state arrays into shared segments.

        Materializes lazily allocated per-row counters first — after the
        workers fork, a worker-side allocation would be process-private
        and silently break the shared-state contract.
        """
        optimizer.materialize_lazy_state()
        for array_list in optimizer.state_array_lists():
            for i, array in enumerate(array_list):
                if array is None:
                    continue
                array_list[i] = self.share_array(array)
                self._slots.append((array_list, i))

    # -- teardown ------------------------------------------------------
    def restore(self) -> None:
        """Copy adopted arrays back to private memory and free the shm.

        Idempotent.  After this the model/optimizer are ordinary
        single-process objects again (checkpointing, serving-snapshot
        publication and further training all safe), and ``/dev/shm`` is
        released.
        """
        if self._released:
            return
        for container, key in self._slots:
            if key is None:
                container.data = np.array(container.data)
            else:
                container[key] = np.array(container[key])
        self._slots = []
        for segment in self._segments:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments = []
        self._released = True

    @property
    def num_segments(self) -> int:
        """How many shm segments are currently alive (tests)."""
        return len(self._segments)

    def __enter__(self) -> "SharedParamStore":
        return self

    def __exit__(self, exc_type, exc_value, tb) -> None:
        self.restore()


def _grad_payload(parameters) -> List[Optional[tuple]]:
    """Serialize per-parameter gradients for the sync-mode queue.

    Coalesced row-sparse gradients travel as ``("sparse", rows, values,
    num_rows)`` and are rebuilt with ``coalesced=True`` — pickling numpy
    arrays is bytes-exact, so the parent sees bitwise the gradient the
    worker computed.  Dense gradients travel whole.
    """
    payload: List[Optional[tuple]] = []
    for param in parameters:
        grad = param.grad
        if grad is None:
            payload.append(None)
        elif isinstance(grad, RowSparseGrad):
            payload.append(("sparse", grad.rows, grad.values, grad.num_rows))
        else:
            payload.append(("dense", np.asarray(grad)))
    return payload


def _grad_from_entry(entry: tuple):
    if entry[0] == "sparse":
        return RowSparseGrad(entry[1], entry[2], entry[3], coalesced=True)
    return entry[1]


def _merge_grad_entries(entries: List[tuple]):
    """Merge one parameter's gradients from a round, in batch order.

    A single entry reconstructs exactly (no re-coalescing work), so a
    1-worker round applies the untouched worker gradient — part of the
    parity oracle.  Multiple sparse entries concatenate and re-coalesce
    through the backend's ``scatter_add_rows``; accumulation order is
    the deterministic batch-index order of ``entries``.
    """
    if len(entries) == 1:
        return _grad_from_entry(entries[0])
    if all(entry[0] == "sparse" for entry in entries):
        rows = np.concatenate([entry[1] for entry in entries])
        values = np.concatenate([entry[2] for entry in entries])
        return RowSparseGrad(rows, values, entries[0][3])
    total = None
    for entry in entries:
        grad = _grad_from_entry(entry)
        if isinstance(grad, RowSparseGrad):
            grad = grad.to_dense()
        total = grad if total is None else total + grad
    return total


class ParallelTrainer:
    """Data-parallel trainer over shared-memory embedding tables.

    Drop-in alternative to :class:`~repro.train.trainer.Trainer` for
    ``propagation="minibatch"`` configs with ``workers >= 1``; see the
    module docstring for the execution model and determinism contract.
    The parent process owns evaluation, early stopping and the training
    history; workers only train.
    """

    def __init__(self, model: Recommender, split: Split,
                 config: Optional[TrainConfig] = None,
                 candidates: Optional[EvalCandidates] = None):
        self.model = model
        self.split = split
        self.config = config or TrainConfig(propagation="minibatch", workers=1)
        if self.config.propagation != "minibatch":
            raise ValueError(
                "ParallelTrainer requires propagation='minibatch': full-graph "
                "steps touch every row, which defeats both sharding and "
                "row-sparse hogwild writes")
        self.workers = max(1, self.config.resolved_workers())
        self.mode = self.config.resolved_parallel_mode()
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "ParallelTrainer needs the 'fork' start method (POSIX); "
                "use the single-process Trainer on this platform")
        if not model.supports_minibatch():
            raise ValueError(
                f"model {model.name!r} does not implement the sampled "
                f"propagation path required by ParallelTrainer")
        self.candidates = (candidates if candidates is not None
                           else build_eval_candidates(split,
                                                      seed=self.config.seed))
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
        hops = (self.config.hops if self.config.hops is not None
                else model.minibatch_hops())
        self._planner = MinibatchPlanner(
            model.graph, self.sampler, hops=hops,
            fanout=self.config.fanout, base_seed=self.config.seed)
        self._ctx = multiprocessing.get_context("fork")
        self._processes: List = []
        self._cmd_queues: List = []
        self._result_queue = None

    # ------------------------------------------------------------------
    # Shared helpers (parent and worker)
    # ------------------------------------------------------------------
    def _step_scope(self):
        if self._arena:
            return arena.step_scope()
        return contextlib.nullcontext()

    def worker_pids(self) -> List[int]:
        """PIDs of live worker processes (empty outside ``fit``)."""
        return [p.pid for p in self._processes if p.pid is not None]

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _worker_main(self, worker_id: int) -> None:
        cmd_queue = self._cmd_queues[worker_id]
        state = {"epoch": None, "steps": None, "pipeline": None,
                 "counters_before": instrument.snapshot()}

        def _close_pipeline():
            if state["pipeline"] is not None:
                state["pipeline"].close()
            state["pipeline"] = state["steps"] = None

        def _open_epoch(epoch: int, batches: int):
            _close_pipeline()
            self.model.train()
            steps = self._planner.plan_shard(batches, epoch,
                                             worker_id, self.workers)
            if prefetch_enabled(self.config.prefetch):
                state["pipeline"] = PrefetchPipeline(
                    steps, name=f"repro-prefetch-w{worker_id}")
                steps = state["pipeline"]
            state["steps"] = iter(steps)
            state["epoch"] = epoch
            state["counters_before"] = instrument.snapshot()

        try:
            while True:
                message = cmd_queue.get()
                kind = message[0]
                if kind == "stop":
                    break
                if kind == "epoch":  # hogwild: run the whole shard
                    _, epoch, batches = message
                    _open_epoch(epoch, batches)
                    report = self._worker_hogwild_epoch(state["steps"])
                    _close_pipeline()
                    self.model.invalidate_cache()
                    self._result_queue.put(("epoch_done", worker_id, report))
                elif kind == "batch":  # sync: compute one batch's gradient
                    _, epoch, batches, batch_index = message
                    if state["epoch"] != epoch:
                        _open_epoch(epoch, batches)
                    reply = self._worker_sync_batch(state["steps"],
                                                    batch_index)
                    self._result_queue.put(("grads", worker_id) + reply)
                elif kind == "flush":  # sync: epoch boundary bookkeeping
                    _close_pipeline()
                    state["epoch"] = None
                    self.model.invalidate_cache()
                    counters = instrument.delta(state["counters_before"],
                                                instrument.snapshot())
                    self._result_queue.put(("flushed", worker_id, counters))
        except BaseException:  # noqa: BLE001 — relayed to the parent
            self._result_queue.put(
                ("error", worker_id, traceback.format_exc()))
        finally:
            _close_pipeline()

    def _worker_hogwild_epoch(self, steps) -> Dict[str, object]:
        """One epoch of this worker's shard, stepping its own optimizer.

        Mirrors ``Trainer._minibatch_epoch`` exactly — same op sequence
        per step, same arena/sparse-grads scoping — which is what makes
        the 1-worker run bitwise-identical to the single-process loop.
        """
        counters_before = instrument.snapshot()
        epoch_loss = sample_seconds = compute_seconds = 0.0
        touched: List[float] = []
        batches_done = 0
        with use_sparse_grads(self._sparse_grads):
            for _, step in steps:
                sample_seconds += step.sample_seconds
                start = time.perf_counter()
                with self._step_scope():
                    self.optimizer.zero_grad()
                    loss = self.model.bpr_loss_on(
                        step.subgraph, step.users, step.positives,
                        step.negatives, l2=self.config.l2)
                    loss.backward()
                    if self.config.clip_norm is not None:
                        clip_grad_norm(self.model.parameters(),
                                       self.config.clip_norm)
                    self.optimizer.step()
                    touched.append(self.optimizer.touched_fraction())
                    epoch_loss += loss.item()
                    del loss
                compute_seconds += time.perf_counter() - start
                batches_done += 1
        return {
            "loss": epoch_loss,
            "batches": batches_done,
            "sample_seconds": sample_seconds,
            "compute_seconds": compute_seconds,
            "touched": touched,
            "counters": instrument.delta(counters_before,
                                         instrument.snapshot()),
            "step_count": self.optimizer._step_count,
        }

    def _worker_sync_batch(self, steps, batch_index: int) -> tuple:
        """Forward/backward one batch; ship the coalesced gradients."""
        index, step = next(steps)
        if index != batch_index:  # pragma: no cover - protocol invariant
            raise RuntimeError(f"worker shard out of sync: expected batch "
                               f"{batch_index}, planned {index}")
        start = time.perf_counter()
        with use_sparse_grads(self._sparse_grads), self._step_scope():
            for param in self.model.parameters():
                param.grad = None
            loss = self.model.bpr_loss_on(
                step.subgraph, step.users, step.positives, step.negatives,
                l2=self.config.l2)
            loss.backward()
            payload = _grad_payload(self.model.parameters())
            loss_value = loss.item()
            del loss
            for param in self.model.parameters():
                param.grad = None
        compute_seconds = time.perf_counter() - start
        return (batch_index, loss_value, payload,
                step.sample_seconds, compute_seconds)

    # ------------------------------------------------------------------
    # Parent side
    # ------------------------------------------------------------------
    def _spawn(self) -> None:
        self._cmd_queues = [self._ctx.SimpleQueue()
                            for _ in range(self.workers)]
        self._result_queue = self._ctx.SimpleQueue()
        self._processes = []
        for worker_id in range(self.workers):
            process = self._ctx.Process(
                target=self._worker_main, args=(worker_id,),
                name=f"repro-train-w{worker_id}", daemon=True)
            process.start()
            self._processes.append(process)

    def _shutdown(self) -> None:
        for queue in self._cmd_queues:
            try:
                queue.put(("stop",))
            except (OSError, ValueError):  # pragma: no cover - broken pipe
                pass
        for process in self._processes:
            process.join(timeout=30.0)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=10.0)
        self._processes = []
        self._cmd_queues = []
        self._result_queue = None

    def _collect(self, expected_kind: str):
        message = self._result_queue.get()
        if message[0] == "error":
            raise RuntimeError(
                f"parallel trainer worker {message[1]} failed:\n{message[2]}")
        if message[0] != expected_kind:  # pragma: no cover - protocol bug
            raise RuntimeError(f"unexpected worker message {message[0]!r} "
                               f"(wanted {expected_kind!r})")
        return message

    def _hogwild_epoch(self, epoch: int, batches: int) -> Dict[str, object]:
        for queue in self._cmd_queues:
            queue.put(("epoch", epoch, batches))
        reports = [None] * self.workers
        for _ in range(self.workers):
            message = self._collect("epoch_done")
            reports[message[1]] = message[2]
        loss = sum(r["loss"] for r in reports)
        touched = [f for r in reports for f in r["touched"]]
        counters: Dict[str, float] = {}
        for report in reports:
            for key, value in report["counters"].items():
                counters[key] = counters.get(key, 0.0) + value
        # Hogwild steps happen worker-side; the shared arrays carry the
        # real state but each process keeps its own Python step counter.
        # Adopt the largest worker clock so parent-side checkpoints stay
        # coherent (exact at W=1, the convention at W>=2).
        self.optimizer._step_count = max(
            self.optimizer._step_count,
            max(r["step_count"] for r in reports))
        return {
            "loss": loss,
            "sample_seconds": sum(r["sample_seconds"] for r in reports),
            "compute_seconds": sum(r["compute_seconds"] for r in reports),
            "touched": touched,
            "counters": counters,
        }

    def _sync_epoch(self, epoch: int, batches: int) -> Dict[str, object]:
        parameters = self.model.parameters()
        epoch_loss = sample_seconds = compute_seconds = 0.0
        touched: List[float] = []
        with use_sparse_grads(self._sparse_grads):
            for round_start in range(0, batches, self.workers):
                round_batches = list(range(round_start,
                                           min(round_start + self.workers,
                                               batches)))
                for batch_index in round_batches:
                    self._cmd_queues[batch_index % self.workers].put(
                        ("batch", epoch, batches, batch_index))
                by_batch: Dict[int, tuple] = {}
                for _ in round_batches:
                    message = self._collect("grads")
                    (_, _, batch_index, loss_value, payload,
                     sample_s, compute_s) = message
                    by_batch[batch_index] = (loss_value, payload)
                    sample_seconds += sample_s
                    compute_seconds += compute_s
                start = time.perf_counter()
                with self._step_scope():
                    self.optimizer.zero_grad()
                    for i, param in enumerate(parameters):
                        entries = [by_batch[b][1][i] for b in round_batches
                                   if by_batch[b][1][i] is not None]
                        if entries:
                            param.grad = _merge_grad_entries(entries)
                    if self.config.clip_norm is not None:
                        clip_grad_norm(parameters, self.config.clip_norm)
                    self.optimizer.step()
                    touched.append(self.optimizer.touched_fraction())
                    self.optimizer.zero_grad()
                compute_seconds += time.perf_counter() - start
                epoch_loss += sum(by_batch[b][0] for b in round_batches)
        counters: Dict[str, float] = {}
        for queue in self._cmd_queues:
            queue.put(("flush",))
        for _ in range(self.workers):
            message = self._collect("flushed")
            for key, value in message[2].items():
                counters[key] = counters.get(key, 0.0) + value
        return {
            "loss": epoch_loss,
            "sample_seconds": sample_seconds,
            "compute_seconds": compute_seconds,
            "touched": touched,
            "counters": counters,
        }

    def fit(self) -> TrainingHistory:
        """Run the parallel training loop and return the history.

        The parent adopts the tables into shared memory, forks the
        workers, then per epoch dispatches work, aggregates reports,
        evaluates, and applies early stopping exactly as the
        single-process trainer does.  Teardown (worker shutdown, shm
        restore) is unconditional.
        """
        config = self.config
        history = TrainingHistory()
        stopper = EarlyStopping(metric=config.early_stopping_metric,
                                patience=config.patience)
        batches = (config.batches_per_epoch
                   or self.sampler.batches_for_full_epoch())
        store = SharedParamStore()
        store.adopt_parameters(self.model.parameters())
        if self.mode == "hogwild":
            store.adopt_optimizer(self.optimizer)
        try:
            self._spawn()
            for epoch in range(config.epochs):
                start = time.perf_counter()
                self.model.train()
                counters_before = instrument.snapshot()
                if self.mode == "hogwild":
                    report = self._hogwild_epoch(epoch, batches)
                else:
                    report = self._sync_epoch(epoch, batches)
                self.model.invalidate_cache()
                parent_counters = instrument.delta(counters_before,
                                                   instrument.snapshot())
                for key, value in report["counters"].items():
                    parent_counters[key] = parent_counters.get(key, 0.0) + value
                history.losses.append(report["loss"] / batches)
                history.train_seconds.append(time.perf_counter() - start)
                history.sample_seconds.append(report["sample_seconds"])
                history.compute_seconds.append(report["compute_seconds"])
                touched = report["touched"]
                history.touched_row_fractions.append(
                    sum(touched) / max(len(touched), 1))
                history.kernel_counters.append(parent_counters)

                if ((epoch + 1) % config.eval_every == 0
                        or epoch == config.epochs - 1):
                    start = time.perf_counter()
                    metrics = evaluate_model(self.model, self.candidates,
                                             ks=config.eval_ks)
                    history.eval_seconds.append(time.perf_counter() - start)
                    history.eval_epochs.append(epoch)
                    history.metrics.append(metrics)
                    if config.verbose:
                        summary = ", ".join(f"{k}={v:.4f}"
                                            for k, v in metrics.items())
                        print(f"[{self.model.name}] epoch {epoch + 1} "
                              f"({self.workers}w/{self.mode}): "
                              f"loss={history.losses[-1]:.4f}, {summary}")
                    if stopper.update(metrics, self.model, epoch):
                        break
        finally:
            self._shutdown()
            store.restore()
        stopper.restore_best(self.model)
        history.best_epoch = stopper.best_epoch
        if stopper.best_state is not None:
            best_index = history.eval_epochs.index(stopper.best_epoch)
            history.best_metrics = dict(history.metrics[best_index])
        return history


def fit_model(model: Recommender, split: Split,
              config: Optional[TrainConfig] = None,
              candidates: Optional[EvalCandidates] = None) -> TrainingHistory:
    """Train with the trainer the config selects and return the history.

    ``config.resolved_workers() == 0`` (the default) uses the in-process
    :class:`~repro.train.trainer.Trainer`; any positive worker count
    uses :class:`ParallelTrainer` over shared-memory tables.
    """
    config = config or TrainConfig()
    if config.resolved_workers() > 0:
        return ParallelTrainer(model, split, config, candidates).fit()
    return Trainer(model, split, config, candidates).fit()


def train_and_publish(model: Recommender, split: Split,
                      config: Optional[TrainConfig] = None,
                      candidates: Optional[EvalCandidates] = None,
                      store=None) -> Tuple[TrainingHistory, Optional[int]]:
    """Train (parallel or not, per config) and publish a serving snapshot.

    The end-to-end production path: after :func:`fit_model` returns, the
    trained model is frozen into an
    :class:`~repro.serve.snapshot.EmbeddingSnapshot` and — when a
    :class:`~repro.serve.snapshot.SnapshotStore` (or a path for one) is
    given — published atomically for the serving layer to pick up via
    ``load_latest()``/``refresh()``.  Returns ``(history, version)``
    where ``version`` is ``None`` if no store was given.
    """
    from repro.serve.snapshot import EmbeddingSnapshot, SnapshotStore

    history = fit_model(model, split, config, candidates)
    if store is None:
        return history, None
    if not isinstance(store, SnapshotStore):
        store = SnapshotStore(store)
    snapshot = EmbeddingSnapshot.from_model(model, split)
    version = store.publish(snapshot)
    return history, version

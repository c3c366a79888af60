"""Multi-process shared-memory training: N workers, one set of tables.

The single-process :class:`~repro.train.trainer.Trainer` already makes
each step O(batch) — sampled subgraphs, row-sparse gradients, lazy
optimizers — but runs every step on one core.  This module spreads the
forward/backward work of each step over processes: the embedding tables
move into ``multiprocessing.shared_memory`` segments via
:class:`SharedParamStore`, and :class:`ParallelTrainer` forks N
persistent workers that compute gradients for disjoint batch shards
from :meth:`~repro.train.pipeline.MinibatchPlanner.plan_shard` against
the one shared copy.  Workers are forked once per ``fit()`` (fork start
method, POSIX only) so they inherit the model, graph, planner and
sampler without any serialization; only command tokens, losses and
coalesced gradients cross process boundaries.

Workers compute gradients only.  A parent-side reducer collects each
round's ``W`` coalesced :class:`RowSparseGrad` payloads over a pipe,
merges them in batch-index order, and applies a single optimizer step
per round, so the optimizer state never leaves the parent.  Merge order
is a pure function of the batch indices.

Determinism guarantees
----------------------
The batch plan is a pure function of ``(TrainConfig, epoch)``: every
shard replays the full BPR triple stream (so batch *content* never
depends on the worker count) and subgraph fan-out uses the planner's
per-(epoch, batch) seeds.  Consequently a 1-worker run is
**bitwise-identical** to the single-process ``Trainer`` (asserted in
tier-1), and a run at fixed ``W`` is bitwise-reproducible run to run.

A worker that dies (a signal, ``os._exit``) makes :meth:`ParallelTrainer.fit`
raise ``RuntimeError`` naming the worker and its exit code instead of
waiting forever; the shared segments are released either way.

Knobs: ``TrainConfig.workers`` (0 = single-process); the worker step
inherits everything else the in-process trainer honors —
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
import time
import traceback
from multiprocessing import connection, shared_memory
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
    """Moves parameter arrays into shared-memory segments.

    :meth:`adopt_parameters` copies each :class:`Parameter`'s array into
    a fresh ``multiprocessing.shared_memory`` segment **once** and
    rebinds ``param.data`` to the shm-backed view — after that single
    move there is exactly one copy of each table, no matter how many
    workers fork; children inherit the mappings and read the same pages.

    Teardown matters: a shm view into a closed segment is a crash, so
    :meth:`restore` copies every adopted array back into ordinary
    private memory, rebinds the parameters, and only then closes and
    unlinks the segments.  Use it as a context manager to make that
    unconditional.
    """

    def __init__(self):
        self._segments: List[shared_memory.SharedMemory] = []
        self._params: List = []
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
            self._params.append(param)

    # -- teardown ------------------------------------------------------
    def restore(self) -> None:
        """Copy adopted parameters back to private memory and free the shm.

        Idempotent.  After this the model is an ordinary single-process
        object again (checkpointing, serving-snapshot publication and
        further training all safe), and ``/dev/shm`` is released.
        """
        if self._released:
            return
        for param in self._params:
            param.data = np.array(param.data)
        self._params = []
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
    """Serialize per-parameter gradients for the result pipe.

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
    The parent process owns the optimizer, evaluation, early stopping
    and the training history; workers only compute gradients.
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
                "steps touch every row, which defeats sharding")
        self.workers = max(1, self.config.workers)
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
        self._result_reader = self._result_writer = self._result_lock = None

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
                if kind == "batch":  # compute one batch's gradient
                    _, epoch, batches, batch_index = message
                    if state["epoch"] != epoch:
                        _open_epoch(epoch, batches)
                    reply = self._worker_sync_batch(state["steps"],
                                                    batch_index)
                    self._send(("grads", worker_id) + reply)
                elif kind == "flush":  # epoch boundary bookkeeping
                    _close_pipeline()
                    state["epoch"] = None
                    self.model.invalidate_cache()
                    counters = instrument.delta(state["counters_before"],
                                                instrument.snapshot())
                    self._send(("flushed", worker_id, counters))
        except BaseException:  # noqa: BLE001 — relayed to the parent
            self._send(("error", worker_id, traceback.format_exc()))
        finally:
            _close_pipeline()

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

    def _send(self, message: tuple) -> None:
        """Put one message on the shared result pipe."""
        with self._result_lock:
            self._result_writer.send(message)

    # ------------------------------------------------------------------
    # Parent side
    # ------------------------------------------------------------------
    def _spawn(self) -> None:
        self._cmd_queues = [self._ctx.SimpleQueue()
                            for _ in range(self.workers)]
        # One pipe for every worker's replies, written under a lock; the
        # parent waits on its read end and the worker sentinels together.
        self._result_reader, self._result_writer = self._ctx.Pipe(
            duplex=False)
        self._result_lock = self._ctx.Lock()
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
        if self._result_reader is not None:
            self._result_reader.close()
            self._result_writer.close()
        self._result_reader = self._result_writer = self._result_lock = None

    def _collect(self, expected_kind: str):
        """Next worker message; raises if a worker failed or died.

        Waits on the result pipe and every worker's sentinel at once.  A
        pending message is always read first, so a worker that relays
        its traceback and exits is reported with that traceback; a
        worker that exits without a word (a signal, ``os._exit``) is
        reported by id and exit code instead of blocking forever.
        """
        reader = self._result_reader
        sentinels = [process.sentinel for process in self._processes]
        ready = connection.wait([reader] + sentinels)
        if reader not in ready:
            for worker_id, process in enumerate(self._processes):
                if process.sentinel in ready:
                    process.join(timeout=5.0)
                    raise RuntimeError(
                        f"parallel trainer worker {worker_id} exited with "
                        f"code {process.exitcode} before replying")
        message = reader.recv()
        if message[0] == "error":
            raise RuntimeError(
                f"parallel trainer worker {message[1]} failed:\n{message[2]}")
        if message[0] != expected_kind:  # pragma: no cover - protocol bug
            raise RuntimeError(f"unexpected worker message {message[0]!r} "
                               f"(wanted {expected_kind!r})")
        return message

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
        try:
            self._spawn()
            for epoch in range(config.epochs):
                start = time.perf_counter()
                self.model.train()
                counters_before = instrument.snapshot()
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
                              f"({self.workers}w): "
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

    ``config.workers == 0`` (the default) uses the in-process
    :class:`~repro.train.trainer.Trainer`; any positive worker count
    uses :class:`ParallelTrainer` over shared-memory tables.
    """
    config = config or TrainConfig()
    if config.workers > 0:
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

"""Minibatch planning and prefetch overlap for sampled training.

Two pieces sit between the :class:`~repro.data.sampling.BprSampler` and
the training step:

* :class:`MinibatchPlanner` — a *sequential* producer that draws each
  BPR triple batch and builds its
  :class:`~repro.graph.sampling.SubgraphView`.  Being the only consumer
  of the sampler's rng and deriving each batch's fan-out seed from
  ``(base_seed, epoch, batch_index)``, the planner emits an identical
  stream of (batch, subgraph) steps no matter who iterates it — which is
  exactly why prefetch on/off cannot change training results.
* :class:`PrefetchPipeline` — a bounded, double-buffered background
  producer: one worker thread runs the planner and parks finished steps
  in a small queue while the main thread computes on the previous step.
  Sampling and gradient compute overlap; the queue bound keeps at most
  ``depth`` subgraphs alive.  Shutdown is cooperative (stop event +
  queue drain) and exceptions raised by the producer re-raise in the
  consumer.

The :class:`~repro.train.trainer.Trainer` turns prefetch on per
``TrainConfig.prefetch`` or, when that is left ``None``, the
``REPRO_PREFETCH`` environment variable (default: on).
"""

from __future__ import annotations

import os
import queue
import threading
import time
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.graph.sampling import sample_subgraph_view

_DONE = object()

_FALSY = {"0", "false", "off", "no"}


def prefetch_enabled(setting: Optional[bool]) -> bool:
    """Resolve the prefetch toggle: explicit setting, else ``REPRO_PREFETCH``."""
    if setting is not None:
        return bool(setting)
    env = os.environ.get("REPRO_PREFETCH")
    if env is None:
        return True
    return env.strip().lower() not in _FALSY


@dataclass
class MinibatchStep:
    """One planned training step: the triples, their subgraph, build cost."""

    users: np.ndarray
    positives: np.ndarray
    negatives: np.ndarray
    subgraph: object  # SubgraphView; None for a full-propagation batch
    sample_seconds: float


class MinibatchPlanner:
    """Sequential producer of sampled training steps.

    Parameters
    ----------
    graph:
        The full :class:`~repro.graph.hetero.CollaborativeHeteroGraph`.
    sampler:
        The BPR triple sampler (its rng advances once per planned batch,
        in plan order).
    hops / fanout:
        Neighbourhood expansion depth and per-node cap for each batch's
        :class:`~repro.graph.sampling.SubgraphView`.
    base_seed:
        Fan-out sampling seed root; each batch uses a seed derived from
        ``(base_seed, epoch, batch_index)`` so the plan is a pure
        function of the configuration, never of consumer timing.
    """

    def __init__(self, graph, sampler, hops: int,
                 fanout: Optional[int], base_seed: int = 0):
        self.graph = graph
        self.sampler = sampler
        self.hops = int(hops)
        self.fanout = fanout
        self.base_seed = int(base_seed)

    def batch_seed(self, epoch: int, batch_index: int) -> int:
        """Deterministic fan-out seed for one planned batch."""
        return (self.base_seed + 1_000_003 * (epoch + 1)
                + batch_index) % (2**31)

    def plan(self, num_batches: int, epoch: int) -> Iterator[MinibatchStep]:
        """Yield the epoch's steps in order, timing each build.

        Triple batches are drawn from the sampler in plan order and
        fan-out seeds come from :meth:`batch_seed`, so the steps never
        depend on who consumes them or when.
        """
        for batch_index in range(num_batches):
            start = time.perf_counter()
            users, positives, negatives = self.sampler.sample()
            subgraph = sample_subgraph_view(
                self.graph, users, np.concatenate([positives, negatives]),
                hops=self.hops, fanout=self.fanout,
                seed=self.batch_seed(epoch, batch_index))
            yield MinibatchStep(users, positives, negatives, subgraph,
                                time.perf_counter() - start)


class _WorkerFailure:
    """Envelope carrying a producer-side exception to the consumer."""

    def __init__(self, error: BaseException):
        self.error = error


class PrefetchPipeline:
    """Bounded double-buffered background producer over an iterator.

    Iterate it like the wrapped iterator; call :meth:`close` (or use it
    as a context manager) to guarantee the worker thread is joined even
    when the consumer stops early or raises.  A producer-side exception
    is re-raised on the consumer side at the next ``__next__``.
    """

    def __init__(self, iterator: Iterator, depth: int = 2,
                 name: str = "repro-prefetch"):
        self._queue: queue.Queue = queue.Queue(maxsize=max(1, int(depth)))
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._produce, args=(iterator,), name=name, daemon=True)
        self._thread.start()

    # -- producer side -------------------------------------------------
    def _offer(self, item) -> bool:
        """Blocking put that aborts promptly once the consumer closes."""
        while not self._stop.is_set():
            try:
                self._queue.put(item, timeout=0.05)
                return True
            except queue.Full:
                continue
        return False

    def _produce(self, iterator: Iterator) -> None:
        try:
            for item in iterator:
                if not self._offer(item):
                    return
        except BaseException as error:  # noqa: BLE001 — relayed, not dropped
            self._offer(_WorkerFailure(error))
        else:
            self._offer(_DONE)

    # -- consumer side -------------------------------------------------
    def __iter__(self) -> "PrefetchPipeline":
        return self

    def __next__(self):
        if self._stop.is_set():
            raise StopIteration
        item = self._queue.get()
        if item is _DONE:
            self.close()
            raise StopIteration
        if isinstance(item, _WorkerFailure):
            self.close()
            raise item.error
        return item

    def close(self) -> None:
        """Stop the producer and join its thread (idempotent)."""
        self._stop.set()
        while True:  # unblock a producer parked on a full queue
            try:
                self._queue.get_nowait()
            except queue.Empty:
                break
        self._thread.join(timeout=10.0)

    @property
    def worker_alive(self) -> bool:
        """Whether the producer thread is still running (tests)."""
        return self._thread.is_alive()

    def __enter__(self) -> "PrefetchPipeline":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

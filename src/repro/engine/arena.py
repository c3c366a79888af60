"""Buffer-reuse arena for autograd temporaries (opt-in).

Steady-state training repeats the same kernel shapes every step: layer
activations, gathered batch rows, scatter targets, gradient buffers.
This module provides a small pool of reusable numpy buffers keyed by
``(shape, dtype)`` that a training loop can recycle from step to step
instead of going back to the allocator.

Pooling is off by default (``REPRO_ENGINE_ARENA`` unset): a step's
autograd graph is freed by refcount the moment its loss is dropped, so
the allocator already gets every buffer back at the end of the step,
while a pool pins each checkout until the scope exits and then keeps
its free lists resident.  ``TrainConfig(arena=True)`` or
``REPRO_ENGINE_ARENA=1`` switches it on.

* :func:`step_scope` marks one optimizer step.  Buffers checked out
  inside the scope (via :func:`empty` / :func:`zeros`) are recycled to
  the free lists when the scope exits — by then the step's gradients
  have been consumed by ``optimizer.step()`` and the loss scalar has
  been read, so nothing reachable still reads them.
* Outside any scope, :func:`empty` / :func:`zeros` degrade to plain
  ``np.empty`` / ``np.zeros`` — library users who never open a scope
  see stock allocation behaviour.
* :func:`release` hands a buffer back *within* a step for immediate
  reuse (kernel-internal temporaries).

Every pooled buffer is fully overwritten before it is read (``zeros``
clears; ``empty`` callers write every element), so pooled runs are
bitwise identical to the default allocate-fresh path.

The pool is capped (``REPRO_ENGINE_ARENA_MB``, default 1024) so
variable minibatch subgraph shapes cannot grow it without bound; when
the cap is exceeded at scope exit the least-recently-used shapes are
dropped back to the allocator.

Buffers below ``REPRO_ENGINE_ARENA_MIN_KB`` (default 64) bypass the
pool even inside a scope: at tiny shapes the allocator is already
~free and the per-checkout bookkeeping would dominate.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Dict, Iterator, List, Tuple

import numpy as np

_KeyT = Tuple[Tuple[int, ...], str]


def _env_flag(name: str, default: bool) -> bool:
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in ("0", "false", "off", "no", "")


def _env_cap_bytes() -> int:
    raw = os.environ.get("REPRO_ENGINE_ARENA_MB")
    megabytes = int(raw) if raw else 1024
    return max(0, megabytes) * 1024 * 1024


def _env_min_bytes() -> int:
    raw = os.environ.get("REPRO_ENGINE_ARENA_MIN_KB")
    kilobytes = int(raw) if raw else 64
    return max(0, kilobytes) * 1024


class BufferArena:
    """A ``(shape, dtype)``-keyed pool of reusable numpy buffers."""

    def __init__(self, cap_bytes: int = None, min_bytes: int = None):
        self._free: Dict[_KeyT, List[np.ndarray]] = {}
        self._lru: Dict[_KeyT, int] = {}
        self._out: Dict[int, np.ndarray] = {}
        self._depth = 0
        self._clock = 0
        self._free_bytes = 0
        self._lock = threading.Lock()
        self.cap_bytes = _env_cap_bytes() if cap_bytes is None else cap_bytes
        self.min_bytes = _env_min_bytes() if min_bytes is None else min_bytes
        self.hits = 0
        self.misses = 0

    # -- scope lifecycle ----------------------------------------------
    def active(self) -> bool:
        """Whether a step scope is currently open (pooling engaged)."""
        return self._depth > 0

    def pools(self, shape, dtype) -> bool:
        """Whether a checkout of ``(shape, dtype)`` would be pooled.

        False outside a scope or below the small-buffer threshold —
        kernels use this to keep their allocation-free fast paths when
        pooling would not engage anyway.
        """
        if self._depth <= 0:
            return False
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        nbytes = np.dtype(dtype).itemsize
        for dim in shape:
            nbytes *= dim
        return nbytes >= self.min_bytes

    @contextlib.contextmanager
    def step_scope(self) -> Iterator["BufferArena"]:
        """One optimizer step: recycle checked-out buffers on clean exit.

        On an exception the step's checkouts are *forgotten* instead of
        recycled: the dying graph (and the traceback's frames) may still
        reference them, so stashing them in the free lists would hand
        aliased buffers to the next step.  Forgotten buffers fall back
        to the allocator when their last reference dies.
        """
        with self._lock:
            self._depth += 1
        try:
            yield self
        except BaseException:
            with self._lock:
                self._depth -= 1
                if self._depth == 0:
                    self._out.clear()
            raise
        else:
            with self._lock:
                self._depth -= 1
                if self._depth == 0:
                    self._recycle_locked()

    # -- checkout -----------------------------------------------------
    def empty(self, shape, dtype) -> np.ndarray:
        """An uninitialized buffer; pooled when a scope is active.

        Callers must overwrite every element before reading — the same
        contract as ``np.empty``, and what keeps pooled runs bitwise
        identical to allocate-fresh runs.
        """
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        if not self.pools(shape, dtype):
            return np.empty(shape, dtype=dtype)
        dt = np.dtype(dtype)
        key = (shape, dt.str)
        with self._lock:
            stack = self._free.get(key)
            if stack:
                buf = stack.pop()
                self._free_bytes -= buf.nbytes
                self.hits += 1
            else:
                buf = np.empty(shape, dtype=dt)
                self.misses += 1
            self._out[id(buf)] = buf
        return buf

    def zeros(self, shape, dtype) -> np.ndarray:
        """A zero-filled buffer; pooled when a scope is active."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        if not self.pools(shape, dtype):
            # np.zeros is calloc-backed: untouched pages stay virtual,
            # which matters for large mostly-sparse gradient targets.
            return np.zeros(shape, dtype=dtype)
        buf = self.empty(shape, dtype)
        buf[...] = 0
        return buf

    def release(self, buf: np.ndarray) -> None:
        """Return ``buf`` to the pool early for reuse within the step.

        A no-op for arrays the arena does not own, so kernels can call
        it unconditionally on buffers that may have come from
        ``np.empty`` outside a scope.
        """
        with self._lock:
            owned = self._out.pop(id(buf), None)
            if owned is None:
                return
            self._stash_locked(owned)

    # -- internals ----------------------------------------------------
    def _stash_locked(self, buf: np.ndarray) -> None:
        key = (buf.shape, buf.dtype.str)
        self._free.setdefault(key, []).append(buf)
        self._free_bytes += buf.nbytes
        self._clock += 1
        self._lru[key] = self._clock

    def _recycle_locked(self) -> None:
        for buf in self._out.values():
            self._stash_locked(buf)
        self._out.clear()
        if self._free_bytes > self.cap_bytes:
            for key in sorted(self._lru, key=self._lru.get):
                stack = self._free.pop(key, [])
                self._free_bytes -= sum(b.nbytes for b in stack)
                del self._lru[key]
                if self._free_bytes <= self.cap_bytes:
                    break

    def clear(self) -> None:
        """Drop every pooled buffer (checked-out buffers are unaffected)."""
        with self._lock:
            self._free.clear()
            self._lru.clear()
            self._free_bytes = 0

    def stats(self) -> Dict[str, int]:
        """Pool counters: checkout hits/misses and pooled bytes."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "free_bytes": self._free_bytes,
                    "checked_out": len(self._out)}

    def __repr__(self) -> str:
        s = self.stats()
        return (f"BufferArena(hits={s['hits']}, misses={s['misses']}, "
                f"free_bytes={s['free_bytes']})")


_ARENA = BufferArena()

_ENABLED: bool = _env_flag("REPRO_ENGINE_ARENA", False)


def get_arena() -> BufferArena:
    """The process-wide arena instance."""
    return _ARENA


def arena_enabled() -> bool:
    """Whether training loops should open step scopes by default."""
    return _ENABLED


def set_arena_enabled(enabled: bool) -> bool:
    """Flip the default (off) switch for training-loop step scopes."""
    global _ENABLED
    _ENABLED = bool(enabled)
    return _ENABLED


@contextlib.contextmanager
def use_arena(enabled: bool) -> Iterator[bool]:
    """Temporarily flip the arena default inside a ``with`` block."""
    previous = arena_enabled()
    set_arena_enabled(enabled)
    try:
        yield enabled
    finally:
        set_arena_enabled(previous)


def step_scope():
    """Shorthand for ``get_arena().step_scope()``."""
    return _ARENA.step_scope()


def empty(shape, dtype) -> np.ndarray:
    """Checkout shorthand; plain ``np.empty`` outside a step scope."""
    return _ARENA.empty(shape, dtype)


def zeros(shape, dtype) -> np.ndarray:
    """Checkout shorthand; plain ``np.zeros`` outside a step scope."""
    return _ARENA.zeros(shape, dtype)


def release(buf: np.ndarray) -> None:
    """Return a buffer early; safe on arrays the arena does not own."""
    _ARENA.release(buf)

"""Kernel-level counters for the propagation engine.

Every sparse kernel in :mod:`repro.engine.backends`, every normalized
view a :class:`~repro.graph.hetero.CollaborativeHeteroGraph` builds and
every lookup of :mod:`repro.engine.adjcache`'s transpose memo reports
here: call counts, nonzeros processed, per-kernel dense-FLOP and
bytes-moved estimates and wall-clock seconds.  The counters are
process-global and monotonic; consumers take :func:`snapshot` deltas
around the region they care about (the
:class:`~repro.train.trainer.Trainer` does this per epoch,
:mod:`repro.experiments.efficiency` per model run), which is how
Table-IV-style numbers come from real kernel counters instead of
outer-loop timing.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Dict, Iterator


@dataclass
class KernelCounters:
    """Monotonic, process-global accumulation of engine activity."""

    calls: Dict[str, int] = field(default_factory=dict)
    seconds: Dict[str, float] = field(default_factory=dict)
    flops: Dict[str, float] = field(default_factory=dict)
    bytes_moved: Dict[str, float] = field(default_factory=dict)
    spmm_nnz: int = 0
    dense_flops: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    normalizations: int = 0

    # ------------------------------------------------------------------
    def record_kernel(self, name: str, seconds: float, nnz: int = 0,
                      flops: float = 0.0, bytes_moved: float = 0.0) -> None:
        """Account one engine kernel invocation.

        ``flops`` is a dense-equivalent FLOP estimate and ``bytes_moved``
        a best-effort memory-traffic model (operands read + results
        written once, ignoring cache reuse).
        """
        self.calls[name] = self.calls.get(name, 0) + 1
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        if nnz:
            self.spmm_nnz += int(nnz)
        if flops:
            self.dense_flops += float(flops)
            self.flops[name] = self.flops.get(name, 0.0) + float(flops)
        if bytes_moved:
            self.bytes_moved[name] = (self.bytes_moved.get(name, 0.0)
                                      + float(bytes_moved))

    def record_cache(self, hit: bool) -> None:
        """Account one lookup of the spmm-backward transpose memo."""
        if hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1

    def record_normalization(self) -> None:
        """Account one normalized graph view actually built."""
        self.normalizations += 1

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Flat copy of the current totals (JSON-friendly)."""
        flat: Dict[str, float] = {
            "spmm_nnz": float(self.spmm_nnz),
            "dense_flops": float(self.dense_flops),
            "cache_hits": float(self.cache_hits),
            "cache_misses": float(self.cache_misses),
            "normalizations": float(self.normalizations),
        }
        for name, count in self.calls.items():
            flat[f"calls.{name}"] = float(count)
        for name, secs in self.seconds.items():
            flat[f"seconds.{name}"] = float(secs)
        for name, ops in self.flops.items():
            flat[f"flops.{name}"] = float(ops)
        for name, moved in self.bytes_moved.items():
            flat[f"bytes.{name}"] = float(moved)
        return flat

    def reset(self) -> None:
        """Zero every counter (tests and per-run bookkeeping)."""
        self.calls.clear()
        self.seconds.clear()
        self.flops.clear()
        self.bytes_moved.clear()
        self.spmm_nnz = 0
        self.dense_flops = 0.0
        self.cache_hits = 0
        self.cache_misses = 0
        self.normalizations = 0


_COUNTERS = KernelCounters()


def counters() -> KernelCounters:
    """The process-global counter object."""
    return _COUNTERS


def reset_counters() -> None:
    """Zero the global counters."""
    _COUNTERS.reset()


def snapshot() -> Dict[str, float]:
    """Flat copy of the global totals."""
    return _COUNTERS.snapshot()


def delta(before: Dict[str, float],
          after: Dict[str, float]) -> Dict[str, float]:
    """Per-key difference ``after - before`` over the union of keys."""
    keys = set(before) | set(after)
    return {key: after.get(key, 0.0) - before.get(key, 0.0) for key in keys}


@contextlib.contextmanager
def track() -> Iterator[Dict[str, float]]:
    """Context manager yielding the counter delta of the enclosed block.

    The yielded dict is filled in when the block exits::

        with track() as used:
            model.propagate()
        print(used["calls.spmm"])
    """
    before = snapshot()
    used: Dict[str, float] = {}
    try:
        yield used
    finally:
        used.update(delta(before, snapshot()))

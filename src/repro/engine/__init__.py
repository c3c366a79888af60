"""The propagation engine: one substrate under every model's hot path.

Five layers (bottom to top):

* :mod:`repro.engine.precision` — the engine-wide dtype policy
  (``float64`` default, opt-in ``float32`` via :func:`set_dtype` /
  ``REPRO_ENGINE_DTYPE``) and dtype-derived comparison tolerances;
* :mod:`repro.engine.backends` — the one instrumented set of sparse
  kernels (vectorized CSR spmm, gathers, scatters, the fused Eq. 3
  memory mixture) every model calls;
* :mod:`repro.engine.adjcache` — the CSR transpose spmm's backward
  multiplies by, memoized per matrix (normalized adjacencies are views
  each :class:`~repro.graph.hetero.CollaborativeHeteroGraph` owns);
* :mod:`repro.engine.propagate` — the shared :class:`LayerStack`
  pattern and the single :func:`bpr_terms` BPR implementation;
* :mod:`repro.engine.instrument` — per-kernel counters (calls, nnz,
  FLOPs, seconds, cache hits) feeding ``Trainer`` history and the
  efficiency experiments.

``propagate`` is exposed lazily because it sits above
:mod:`repro.autograd.ops`, which itself calls the kernels defined
here.
"""

from repro.engine import arena, instrument, locality
from repro.engine.locality import (
    clear_block_cache,
    get_spmm_block,
    set_spmm_block,
    use_spmm_block,
)
from repro.engine.adjcache import cached_transpose
from repro.engine.precision import (
    Tolerances,
    as_index_array,
    get_dtype,
    get_index_dtype,
    index_dtype_for,
    set_dtype,
    set_index_dtype,
    tolerances,
    use_dtype,
    use_index_dtype,
)

__all__ = [
    "LayerStack",
    "Tolerances",
    "arena",
    "as_index_array",
    "bpr_terms",
    "cached_transpose",
    "clear_block_cache",
    "get_dtype",
    "get_index_dtype",
    "get_spmm_block",
    "index_dtype_for",
    "instrument",
    "locality",
    "set_dtype",
    "set_index_dtype",
    "set_spmm_block",
    "tolerances",
    "use_dtype",
    "use_index_dtype",
    "use_spmm_block",
]


def __getattr__(name):
    # Lazy to keep the import graph acyclic (propagate -> autograd.ops ->
    # engine.backends).
    if name in ("LayerStack", "bpr_terms", "propagate"):
        import importlib

        _propagate = importlib.import_module("repro.engine.propagate")
        if name == "propagate":
            return _propagate
        return getattr(_propagate, name)
    raise AttributeError(f"module 'repro.engine' has no attribute {name!r}")

"""The memoized CSR transpose that spmm's backward pass multiplies by.

Building a transpose costs ``O(nnz)``; the seed rebuilt it on every
spmm call.  :func:`cached_transpose` computes it once per matrix and
holds it until the matrix itself is garbage collected.  The memo is
keyed by matrix identity, because per-batch row slices and subgraph
slices pass through it as well as a graph's long-lived views; a
``weakref`` callback drops an entry when its matrix dies, before the id
can be reused, so the short-lived slices do not accumulate.

Every lookup is counted as a cache hit or miss in
:mod:`repro.engine.instrument`.  Normalized adjacencies are not built
here: each :class:`~repro.graph.hetero.CollaborativeHeteroGraph` owns
its views.
"""

from __future__ import annotations

import weakref
from typing import Dict, Tuple

import scipy.sparse as sp

from repro.engine.instrument import counters

_transposes: Dict[int, Tuple[weakref.ref, sp.csr_matrix]] = {}


def cached_transpose(matrix: sp.spmatrix) -> sp.csr_matrix:
    """CSR transpose of ``matrix``, computed once per matrix.

    The result keeps the canonical index dtype and sorted indices.  It
    is not counted as a normalization.
    """
    key = id(matrix)
    entry = _transposes.get(key)
    if entry is not None:
        counters().record_cache(True)
        return entry[1]
    counters().record_cache(False)
    from repro.graph.adjacency import canonical_indices
    result = canonical_indices(matrix.T.tocsr())
    _transposes[key] = (weakref.ref(
        matrix, lambda _ref, key=key: _transposes.pop(key, None)), result)
    return result

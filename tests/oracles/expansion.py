"""The per-node-loop neighbourhood expansion, the parity oracle for
:func:`repro.graph.sampling.expand_neighborhood`.

The production expansion gathers every node's neighbours in one ragged
CSR pass and caps fan-out with one argsort.  This oracle walks the nodes
one by one in Python.  Both run the same hop rule
(``repro.graph.sampling._expand``), so with ``fanout=None`` they must
return identical closures; with a cap both draw valid uniform samples
but consume randomness in different orders.
"""

from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.engine.precision import index_dtype_for
from repro.graph.hetero import CollaborativeHeteroGraph
from repro.graph.sampling import _expand


def _neighbors_loop(matrix: sp.csr_matrix, nodes: np.ndarray,
                    fanout: Optional[int],
                    rng: np.random.Generator) -> np.ndarray:
    """Union of (possibly subsampled) neighbour sets, one node at a time."""
    collected = []
    indptr, indices = matrix.indptr, matrix.indices
    for node in nodes:
        row = indices[indptr[node]:indptr[node + 1]]
        if fanout is not None and len(row) > fanout:
            row = rng.choice(row, size=fanout, replace=False)
        collected.append(row)
    if not collected:
        return np.zeros(0, dtype=np.int64)
    return np.unique(np.concatenate(collected)).astype(
        index_dtype_for(matrix.shape[1]))


def expand_neighborhood_loop(graph: CollaborativeHeteroGraph,
                             seed_users: np.ndarray, seed_items: np.ndarray,
                             hops: int = 2, fanout: Optional[int] = None,
                             seed: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """The per-node-loop reference expansion."""
    return _expand(graph, seed_users, seed_items, hops, fanout, seed,
                   _neighbors_loop)

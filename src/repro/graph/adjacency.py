"""Sparse adjacency normalization helpers shared by all GNN models.

These are the *builders*; models should not call them per batch.
:class:`~repro.graph.hetero.CollaborativeHeteroGraph` invokes them once
per view and engine dtype and hands out its cached CSR result afterwards.

Canonicalization follows the engine precision policy
(:mod:`repro.engine.precision`): matrices are coerced to CSR with sorted
indices in the *active* engine dtype — float64 unless the run opted down
to float32.  ``as_csr64`` / ``assert_csr64`` keep their historical names
(the canonical dtype was hard-coded float64 before the policy existed)
but now mean "canonical CSR in the engine dtype".

Index arrays are canonicalized too: ``indices`` and ``indptr`` are
coerced to the engine *index* dtype for the matrix's column count
(:func:`repro.engine.precision.index_dtype_for` — ``int32`` unless the
graph is too large), so a scipy matrix assembled with mixed int32/int64
index arrays can never reach the kernels inconsistently.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.engine.precision import get_dtype, index_dtype_for


def _canonical_index_dtype(matrix: sp.spmatrix) -> np.dtype:
    # Indices address columns; indptr addresses positions in data (nnz).
    # One shared dtype keeps scipy's compiled kernels on a single
    # signature, so size the policy for the larger of the two domains.
    return index_dtype_for(max(matrix.shape[1], matrix.nnz))


def as_csr64(matrix: sp.spmatrix) -> sp.csr_matrix:
    """Coerce to canonical format: CSR, engine dtypes, sorted indices."""
    return canonical_indices(sp.csr_matrix(matrix, dtype=get_dtype()))


def canonical_indices(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """A CSR ``matrix`` with sorted indices in the canonical index dtype.

    The values keep their dtype; a matrix that already is canonical is
    returned as is (with its indices sorted in place).
    """
    index_dtype = _canonical_index_dtype(matrix)
    if matrix.indices.dtype != index_dtype or matrix.indptr.dtype != index_dtype:
        # Assign the arrays directly: scipy's (data, indices, indptr)
        # constructor re-runs its own index-dtype selection and downcasts
        # int64 arrays back to int32 whenever the values fit, silently
        # undoing an int64 policy.  Rewrap first so the upcast never
        # mutates a caller-owned matrix object.
        matrix = sp.csr_matrix(
            (matrix.data, matrix.indices, matrix.indptr),
            shape=matrix.shape, copy=False)
        matrix.indices = matrix.indices.astype(index_dtype, copy=False)
        matrix.indptr = matrix.indptr.astype(index_dtype, copy=False)
    matrix.sort_indices()
    return matrix


def assert_csr64(matrix: sp.spmatrix, name: str = "matrix") -> sp.csr_matrix:
    """Raise unless ``matrix`` already is canonical CSR in the engine dtypes."""
    if not sp.issparse(matrix) or matrix.format != "csr":
        raise TypeError(f"{name} must be a CSR matrix, got "
                        f"{getattr(matrix, 'format', type(matrix).__name__)!r}")
    if matrix.dtype != get_dtype():
        raise TypeError(f"{name} must be {get_dtype().name}, got {matrix.dtype}")
    index_dtype = _canonical_index_dtype(matrix)
    if matrix.indices.dtype != index_dtype or matrix.indptr.dtype != index_dtype:
        raise TypeError(
            f"{name} must carry {index_dtype.name} indices/indptr, got "
            f"{matrix.indices.dtype.name}/{matrix.indptr.dtype.name}")
    return matrix


def row_normalize(matrix: sp.spmatrix) -> sp.csr_matrix:
    """Divide each row by its sum (rows summing to zero stay zero).

    This is the ``1/|N(t)|`` mean-aggregation normalization the paper uses
    in Eqs. 4–6.
    """
    matrix = sp.csr_matrix(matrix, dtype=get_dtype())
    row_sums = np.asarray(matrix.sum(axis=1)).reshape(-1)
    inverse = np.zeros_like(row_sums)
    nonzero = row_sums > 0
    inverse[nonzero] = 1.0 / row_sums[nonzero]
    return as_csr64(sp.diags(inverse) @ matrix)


def symmetric_normalize(matrix: sp.spmatrix) -> sp.csr_matrix:
    """Apply ``D^{-1/2} A D^{-1/2}`` (the GCN / LightGCN normalization)."""
    matrix = sp.csr_matrix(matrix, dtype=get_dtype())
    degrees = np.asarray(matrix.sum(axis=1)).reshape(-1)
    inv_sqrt = np.zeros_like(degrees)
    nonzero = degrees > 0
    inv_sqrt[nonzero] = degrees[nonzero] ** -0.5
    scale = sp.diags(inv_sqrt)
    return as_csr64(scale @ matrix @ scale)


def add_self_loops(matrix: sp.spmatrix, weight: float = 1.0) -> sp.csr_matrix:
    """Return ``A + weight * I`` for a square sparse matrix."""
    matrix = sp.csr_matrix(matrix, dtype=get_dtype())
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError("self loops require a square matrix")
    return (matrix + weight * sp.eye(matrix.shape[0], format="csr")).tocsr()


def bipartite_norm_adjacency(interaction: sp.spmatrix) -> sp.csr_matrix:
    """Build the symmetric-normalized joint user–item adjacency.

    Given the ``(I, J)`` interaction matrix ``R``, returns the
    ``(I+J, I+J)`` matrix ``D^{-1/2} [[0, R], [R^T, 0]] D^{-1/2}`` used by
    NGCF / GCCF / LightGCN-style collaborative filtering.
    """
    interaction = sp.csr_matrix(interaction, dtype=get_dtype())
    num_users, num_items = interaction.shape
    upper = sp.hstack([sp.csr_matrix((num_users, num_users)), interaction])
    lower = sp.hstack([interaction.T, sp.csr_matrix((num_items, num_items))])
    joint = sp.vstack([upper, lower]).tocsr()
    return symmetric_normalize(joint)

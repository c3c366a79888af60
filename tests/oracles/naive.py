"""Python-loop reference kernels — slow, obviously correct.

Each function has the signature of the matching engine kernel in
:mod:`repro.engine.backends`; :data:`KERNELS` maps the kernel names to
them for :func:`tests.oracles.use_kernels`.
"""

import numpy as np


def _zeroed(shape, dtype, out):
    if out is None:
        return np.zeros(shape, dtype=dtype)
    out[...] = 0
    return out


def spmm(matrix, dense, out=None):
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    out = _zeroed((matrix.shape[0],) + dense.shape[1:],
                  np.result_type(matrix.dtype, dense.dtype), out)
    for row in range(matrix.shape[0]):
        for position in range(indptr[row], indptr[row + 1]):
            out[row] += data[position] * dense[indices[position]]
    return out


def gathered_rowwise_dot(a, a_indices, b, b_indices):
    out = np.zeros(len(a_indices), dtype=np.result_type(a.dtype, b.dtype))
    for position in range(len(a_indices)):
        out[position] = np.dot(a[a_indices[position]], b[b_indices[position]])
    return out


def gather_rows(table, indices, out=None):
    flat = indices.reshape(-1)
    if out is None:
        out = np.empty(indices.shape + table.shape[1:], dtype=table.dtype)
    flat_out = out.reshape((len(flat),) + table.shape[1:])
    for position in range(len(flat)):
        flat_out[position] = table[flat[position]]
    return out


def scatter_add_rows(grad, indices, num_rows, out=None):
    flat = indices.reshape(-1)
    rows = grad.reshape((len(flat),) + grad.shape[indices.ndim:])
    out = _zeroed((num_rows,) + rows.shape[1:], grad.dtype, out)
    for position in range(len(flat)):
        out[flat[position]] += rows[position]
    return out


def segment_sum(values, segment_ids, num_segments):
    out = np.zeros((num_segments,) + values.shape[1:], dtype=values.dtype)
    for position in range(values.shape[0]):
        out[segment_ids[position]] += values[position]
    return out


def memory_mixture(embeddings, gates, transforms, out=None):
    out = _zeroed(embeddings.shape, embeddings.dtype, out)
    for node in range(embeddings.shape[0]):
        mixed = np.zeros_like(transforms[0])
        for unit in range(transforms.shape[0]):
            mixed += gates[node, unit] * transforms[unit]
        out[node] = embeddings[node] @ mixed
    return out


def memory_mixture_backward(grad_out, embeddings, gates, transforms, needs):
    grad_emb = np.zeros_like(embeddings) if needs[0] else None
    grad_gates = np.zeros_like(gates) if needs[1] else None
    grad_transforms = np.zeros_like(transforms) if needs[2] else None
    for node in range(embeddings.shape[0]):
        if needs[0]:
            mixed = np.zeros_like(transforms[0])
            for unit in range(transforms.shape[0]):
                mixed += gates[node, unit] * transforms[unit]
            grad_emb[node] = mixed @ grad_out[node]
        for unit in range(transforms.shape[0]):
            if needs[1]:
                grad_gates[node, unit] = (
                    embeddings[node] @ transforms[unit] @ grad_out[node])
            if needs[2]:
                grad_transforms[unit] += gates[node, unit] * np.outer(
                    embeddings[node], grad_out[node])
    return grad_emb, grad_gates, grad_transforms


KERNELS = {
    "spmm": spmm,
    "gathered_rowwise_dot": gathered_rowwise_dot,
    "gather_rows": gather_rows,
    "scatter_add_rows": scatter_add_rows,
    "segment_sum": segment_sum,
    "memory_mixture": memory_mixture,
    "memory_mixture_backward": memory_mixture_backward,
}

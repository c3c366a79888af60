"""Python-loop reference kernels — slow, obviously correct.

Each function has the signature of the matching engine kernel in
:mod:`repro.engine.backends`; :data:`KERNELS` maps the kernel names to
them for :func:`tests.oracles.use_kernels`.
"""

import numpy as np


def spmm(matrix, dense):
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    out = np.zeros((matrix.shape[0],) + dense.shape[1:],
                   dtype=np.result_type(matrix.dtype, dense.dtype))
    for row in range(matrix.shape[0]):
        for position in range(indptr[row], indptr[row + 1]):
            out[row] += data[position] * dense[indices[position]]
    return out


def gathered_rowwise_dot(a, a_indices, b, b_indices):
    out = np.zeros(len(a_indices), dtype=np.result_type(a.dtype, b.dtype))
    for position in range(len(a_indices)):
        out[position] = np.dot(a[a_indices[position]], b[b_indices[position]])
    return out


def gather_rows(table, indices):
    flat = indices.reshape(-1)
    out = np.empty(indices.shape + table.shape[1:], dtype=table.dtype)
    flat_out = out.reshape((len(flat),) + table.shape[1:])
    for position in range(len(flat)):
        flat_out[position] = table[flat[position]]
    return out


def scatter_add_rows(grad, indices, num_rows):
    flat = indices.reshape(-1)
    rows = grad.reshape((len(flat),) + grad.shape[indices.ndim:])
    out = np.zeros((num_rows,) + rows.shape[1:], dtype=grad.dtype)
    for position in range(len(flat)):
        out[flat[position]] += rows[position]
    return out


def segment_sum(values, segment_ids, num_segments):
    out = np.zeros((num_segments,) + values.shape[1:], dtype=values.dtype)
    for position in range(values.shape[0]):
        out[segment_ids[position]] += values[position]
    return out


def memory_mixture(embeddings, gates, transforms):
    out = np.zeros(embeddings.shape, dtype=embeddings.dtype)
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


def _leaky(value, slope):
    return value if value > 0 else slope * value


def memory_gates(embeddings, keys, bias, negative_slope):
    out = np.zeros((embeddings.shape[0], keys.shape[1]),
                   dtype=embeddings.dtype)
    for node in range(embeddings.shape[0]):
        for unit in range(keys.shape[1]):
            raw = embeddings[node] @ keys[:, unit] + bias[unit]
            out[node, unit] = _leaky(raw, negative_slope)
    return out


def memory_gates_backward(grad_out, embeddings, keys, gates, negative_slope,
                          needs):
    grad_emb = np.zeros_like(embeddings) if needs[0] else None
    grad_keys = np.zeros_like(keys) if needs[1] else None
    grad_bias = np.zeros_like(keys[0]) if needs[2] else None
    for node in range(embeddings.shape[0]):
        for unit in range(keys.shape[1]):
            slope = 1.0 if gates[node, unit] > 0 else negative_slope
            grad_raw = grad_out[node, unit] * slope
            if needs[0]:
                grad_emb[node] += grad_raw * keys[:, unit]
            if needs[1]:
                grad_keys[:, unit] += grad_raw * embeddings[node]
            if needs[2]:
                grad_bias[unit] += grad_raw
    return grad_emb, grad_keys, grad_bias


def layer_norm(x, scale, shift, eps, keep, negative_slope):
    out = np.zeros_like(x)
    normed = np.zeros_like(x)
    std = np.zeros(x.shape[:-1] + (1,), dtype=x.dtype)
    for row in np.ndindex(*x.shape[:-1]):
        values = x[row] * keep[row] if keep is not None else x[row]
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / len(values)
        std[row] = np.sqrt(variance + eps)
        normed[row] = (values - mean) / std[row]
        for col in range(x.shape[-1]):
            value = normed[row][col] * scale[col] + shift[col]
            out[row][col] = (value if negative_slope is None
                             else _leaky(value, negative_slope))
    return out, normed, std


def layer_norm_backward(grad_out, out, normed, std, scale, keep,
                        negative_slope, needs):
    # Per row, the full Jacobian of (v - mean) / std with respect to v.
    dim = normed.shape[-1]
    grad_x = np.zeros_like(normed) if needs[0] else None
    grad_scale = np.zeros_like(scale) if needs[1] else None
    grad_shift = np.zeros_like(scale) if needs[2] else None
    for row in np.ndindex(*normed.shape[:-1]):
        grad = grad_out[row].copy()
        if negative_slope is not None:
            grad[out[row] <= 0] *= negative_slope
        if needs[1]:
            grad_scale += grad * normed[row]
        if needs[2]:
            grad_shift += grad
        if needs[0]:
            jacobian = ((np.eye(dim) - 1.0 / dim)
                        - np.outer(normed[row], normed[row]) / dim) / std[row]
            grad_x[row] = jacobian.T @ (grad * scale)
            if keep is not None:
                grad_x[row] *= keep[row]
    return grad_x, grad_scale, grad_shift


KERNELS = {
    "spmm": spmm,
    "gathered_rowwise_dot": gathered_rowwise_dot,
    "gather_rows": gather_rows,
    "scatter_add_rows": scatter_add_rows,
    "segment_sum": segment_sum,
    "memory_mixture": memory_mixture,
    "memory_mixture_backward": memory_mixture_backward,
    "memory_gates": memory_gates,
    "memory_gates_backward": memory_gates_backward,
    "layer_norm": layer_norm,
    "layer_norm_backward": layer_norm_backward,
}

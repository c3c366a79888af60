"""A compact t-SNE implementation (van der Maaten & Hinton, 2008).

Used for the Fig. 9 embedding visualization.  Implements the standard
algorithm: per-point perplexity calibration via binary search over the
Gaussian bandwidth, symmetrized affinities, Student-t low-dimensional
kernel, gradient descent with velocity (inertia 0.5, then 0.8) and
early exaggeration.  numpy only; suitable for the few hundred points
the case study projects.
"""

from __future__ import annotations

import numpy as np


def _pairwise_squared_distances(points: np.ndarray) -> np.ndarray:
    norms = (points ** 2).sum(axis=1)
    distances = norms[:, None] + norms[None, :] - 2.0 * points @ points.T
    np.fill_diagonal(distances, 0.0)
    return np.maximum(distances, 0.0)


def _calibrate_affinities(distances: np.ndarray, perplexity: float,
                          tolerance: float = 1e-5, max_steps: int = 50) -> np.ndarray:
    """Binary-search each point's Gaussian bandwidth to the target entropy."""
    count = distances.shape[0]
    target_entropy = np.log(perplexity)
    affinities = np.zeros((count, count))
    for index in range(count):
        low, high = -np.inf, np.inf
        beta = 1.0
        row = distances[index].copy()
        row[index] = np.inf
        for _ in range(max_steps):
            kernel = np.exp(-row * beta)
            kernel[index] = 0.0
            total = kernel.sum()
            if total <= 0:
                kernel = np.ones(count)
                kernel[index] = 0.0
                total = kernel.sum()
            probabilities = kernel / total
            positive = probabilities[probabilities > 0]
            entropy = -(positive * np.log(positive)).sum()
            error = entropy - target_entropy
            if abs(error) < tolerance:
                break
            if error > 0:  # entropy too high -> sharpen
                low = beta
                beta = beta * 2.0 if high == np.inf else (beta + high) / 2.0
            else:
                high = beta
                beta = beta / 2.0 if low == -np.inf else (beta + low) / 2.0
        affinities[index] = probabilities
    return affinities


def tsne(points: np.ndarray, num_dims: int = 2, perplexity: float = 20.0,
         num_iterations: int = 400, learning_rate: float = 100.0,
         seed: int = 0) -> np.ndarray:
    """Project ``points`` to ``num_dims`` with t-SNE.

    Parameters
    ----------
    points:
        ``(n, d)`` array of embeddings.
    perplexity:
        Target neighbourhood size (clipped to ``(n - 1) / 3``).
    num_iterations:
        Gradient-descent steps (first quarter uses early exaggeration).
    """
    points = np.asarray(points, dtype=np.float64)
    count = points.shape[0]
    if count < 4:
        raise ValueError("t-SNE needs at least 4 points")
    perplexity = min(perplexity, (count - 1) / 3.0)
    rng = np.random.default_rng(seed)

    distances = _pairwise_squared_distances(points)
    conditional = _calibrate_affinities(distances, perplexity)
    joint = (conditional + conditional.T) / (2.0 * count)
    joint = np.maximum(joint, 1e-12)

    embedding = rng.normal(0.0, 1e-4, size=(count, num_dims))
    velocity = np.zeros_like(embedding)
    exaggeration_steps = num_iterations // 4

    for step in range(num_iterations):
        target = joint * 4.0 if step < exaggeration_steps else joint
        low_distances = _pairwise_squared_distances(embedding)
        kernel = 1.0 / (1.0 + low_distances)
        np.fill_diagonal(kernel, 0.0)
        low_joint = np.maximum(kernel / kernel.sum(), 1e-12)
        coefficient = (target - low_joint) * kernel
        gradient = 4.0 * ((np.diag(coefficient.sum(axis=1)) - coefficient) @ embedding)
        inertia = 0.5 if step < exaggeration_steps else 0.8
        velocity = inertia * velocity - learning_rate * gradient
        embedding = embedding + velocity
        embedding -= embedding.mean(axis=0)
    return embedding

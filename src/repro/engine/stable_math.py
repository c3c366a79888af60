"""Shared numerically-stable sigmoid/softplus primitives.

The ``sigmoid`` forward and the ``softplus`` forward and backward in
:mod:`repro.autograd.ops` all need an overflow-safe logistic.  The
formulations live here once so every op evaluates bit-for-bit the same
expressions.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stable_sigmoid", "stable_softplus"]


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid without overflow for large ``|x|``.

    For ``x >= 0`` uses ``1 / (1 + e^-x)``; for ``x < 0`` the equivalent
    ``e^x / (1 + e^x)`` — both expressed through ``exp(-|x|)`` so the
    exponential never overflows.
    """
    x = np.asarray(x)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def stable_softplus(x: np.ndarray) -> np.ndarray:
    """``log(1 + exp(x))`` via ``max(x, 0) + log1p(exp(-|x|))``."""
    x = np.asarray(x)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

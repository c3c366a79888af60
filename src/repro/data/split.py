"""Train/test splitting.

The paper evaluates top-N recommendation with one held-out positive per
test user ranked against 100 sampled negatives (Section V-A3).  With no
timestamps in the data, the held-out positive is sampled uniformly from
each eligible user's history (leave-one-out).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.data.dataset import InteractionDataset


@dataclass
class Split:
    """A leave-one-out split of an :class:`InteractionDataset`.

    Attributes
    ----------
    train_pairs:
        ``(n, 2)`` training ``(user, item)`` pairs.
    test_users, test_items:
        Parallel arrays: held-out positive item per test user.
    """

    dataset: InteractionDataset
    train_pairs: np.ndarray
    test_users: np.ndarray
    test_items: np.ndarray

    @property
    def num_test_users(self) -> int:
        return len(self.test_users)

    def train_matrix(self):
        """Training-only interaction CSR matrix (no test leakage)."""
        return self.dataset.interaction_matrix(self.train_pairs)

    def __repr__(self) -> str:
        return (f"Split(dataset={self.dataset.name!r}, train={len(self.train_pairs)}, "
                f"test_users={self.num_test_users})")


def leave_one_out(dataset: InteractionDataset, seed: int = 0,
                  min_history: int = 2,
                  max_test_users: Optional[int] = None) -> Split:
    """Hold out one random positive per user with enough history.

    Parameters
    ----------
    dataset:
        Source dataset.
    seed:
        Seed for the held-out-item choice (and test-user subsampling).
    min_history:
        Users with fewer interactions than this keep all of them in
        training and are excluded from the test set.
    max_test_users:
        Optional cap on the number of test users (uniform subsample),
        used to bound evaluation cost in sweeps.
    """
    rng = np.random.default_rng(seed)
    # Group pairs by user, keeping each user's stored order; one broadcast
    # draw picks every eligible user's held-out position, consuming the
    # same stream as one scalar draw per user in user order.
    pairs = np.asarray(dataset.interactions, dtype=np.int64)
    pairs = pairs[np.argsort(pairs[:, 0], kind="stable")]
    counts = np.bincount(pairs[:, 0], minlength=dataset.num_users)
    starts = np.cumsum(counts) - counts
    test_users = np.flatnonzero(counts >= min_history).astype(np.int64)
    held_rows = starts[test_users] + rng.integers(0, counts[test_users])
    test_items = pairs[held_rows, 1]

    if max_test_users is not None and len(test_users) > max_test_users:
        chosen = rng.choice(len(test_users), size=max_test_users, replace=False)
        chosen.sort()
        test_users = test_users[chosen]
        test_items = test_items[chosen]

    # Every eligible user's held-out row leaves training, sampled or not.
    mask = np.ones(len(pairs), dtype=bool)
    mask[held_rows] = False
    return Split(dataset=dataset, train_pairs=pairs[mask],
                 test_users=test_users, test_items=test_items)

"""Early stopping on a monitored ranking metric."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np


class EarlyStopping:
    """Stop training when a metric has not risen for ``patience`` evals.

    The monitored metric is a ranking metric (HR@N / NDCG@N), so higher
    is better.
    Keeps the best parameter snapshot so the trainer can restore the best
    model at the end (the standard protocol for Table II-style numbers).
    """

    def __init__(self, metric: str = "hr@10", patience: Optional[int] = 10):
        self.metric = metric
        self.patience = patience
        self.best_value: float = -np.inf
        self.best_state: Optional[Dict[str, np.ndarray]] = None
        self.best_epoch: int = -1
        self._since_best = 0

    def update(self, metrics: Dict[str, float], model, epoch: int) -> bool:
        """Record an evaluation; return ``True`` when training should stop."""
        value = metrics[self.metric]
        if value > self.best_value:
            self.best_value = value
            self.best_state = model.state_dict()
            self.best_epoch = epoch
            self._since_best = 0
            return False
        self._since_best += 1
        return self.patience is not None and self._since_best >= self.patience

    def restore_best(self, model) -> None:
        """Load the best snapshot back into ``model`` (no-op if none)."""
        if self.best_state is not None:
            model.load_state_dict(self.best_state)
            model.invalidate_cache()

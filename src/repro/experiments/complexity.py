"""Empirical validation of the paper's complexity analysis (Section IV-D).

The paper derives DGNN's training cost as ``O(|M| · |E| · d²)``.  These
experiments measure actual wall-clock as one factor varies with the
others held fixed, then fit a line through the measurements; near-linear
scaling (high R², positive slope) confirms the analysis holds for this
implementation.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.data.synthetic import SyntheticConfig, generate_dataset
from repro.experiments.common import ExperimentContext
from repro.models.dgnn import DGNN
from repro.train.config import PaperHyperparameters


@dataclass
class ScalingResults:
    """Wall-clock per training step as one complexity factor varies."""

    factor: str
    values: List[float] = field(default_factory=list)
    seconds: List[float] = field(default_factory=list)

    def linear_fit(self) -> Dict[str, float]:
        """Least-squares line through (value, seconds); returns slope & R²."""
        x = np.asarray(self.values, dtype=np.float64)
        y = np.asarray(self.seconds, dtype=np.float64)
        slope, intercept = np.polyfit(x, y, 1)
        predicted = slope * x + intercept
        residual = ((y - predicted) ** 2).sum()
        total = ((y - y.mean()) ** 2).sum()
        r_squared = 1.0 - residual / total if total > 0 else 1.0
        return {"slope": float(slope), "intercept": float(intercept),
                "r_squared": float(r_squared)}

    def render(self) -> str:
        fit = self.linear_fit()
        lines = [f"complexity scaling in {self.factor} "
                 f"(R²={fit['r_squared']:.3f}, slope={fit['slope']:.2e} s/unit)"]
        header = f"{self.factor:>12}{'s/step':>12}"
        lines.append(header)
        lines.append("-" * len(header))
        for value, seconds in zip(self.values, self.seconds):
            lines.append(f"{value:>12g}{seconds:>12.4f}")
        return "\n".join(lines)


def _time_steps(runs: Sequence[Tuple[DGNN, ExperimentContext]], steps: int,
                batch_size: int, seed: int) -> List[float]:
    """Median seconds per BPR step (forward + backward) of each run.

    The runs are timed round-robin, one step of each in turn, so a slow
    spell of a shared host lands on every grid point alike instead of
    deciding the comparison between two of them; the median drops the
    single slow steps that remain.
    """
    from repro.data.sampling import BprSampler

    samplers = [BprSampler(context.split, batch_size=batch_size, seed=seed)
                for _, context in runs]
    # warmup step excluded from timing (allocations, cache effects)
    for (model, _), sampler in zip(runs, samplers):
        users, positives, negatives = sampler.sample()
        model.bpr_loss(users, positives, negatives).backward()
        model.zero_grad()
    seconds: List[List[float]] = [[] for _ in runs]
    # As in ``timeit``: the cyclic collector stays off while timing, so a
    # full collection over the host process's objects (large under a test
    # runner) is not billed to one step.  A step's graph is freed by
    # refcount, so nothing accumulates.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(steps):
            for (model, _), sampler, record in zip(runs, samplers, seconds):
                users, positives, negatives = sampler.sample()
                start = time.perf_counter()
                loss = model.bpr_loss(users, positives, negatives)
                loss.backward()
                model.zero_grad()
                record.append(time.perf_counter() - start)
    finally:
        if gc_was_enabled:
            gc.enable()
    return [float(np.median(record)) for record in seconds]


def measure_memory_scaling(
        context: ExperimentContext,
        memory_grid: Sequence[int] = PaperHyperparameters.memory_grid,
        steps: int = 3, embed_dim: int = 16, batch_size: int = 1024,
        seed: int = 0) -> ScalingResults:
    """Seconds per training step as ``|M|`` grows on a fixed graph."""
    runs = [(DGNN(context.graph, embed_dim=embed_dim,
                  num_memory_units=num_units, seed=seed), context)
            for num_units in memory_grid]
    return ScalingResults(
        factor="memory_units",
        values=[float(num_units) for num_units in memory_grid],
        seconds=_time_steps(runs, steps, batch_size, seed))


def measure_edge_scaling(user_grid: Sequence[int] = (100, 200, 400, 800),
                         steps: int = 3, embed_dim: int = 16,
                         batch_size: int = 1024,
                         seed: int = 0) -> ScalingResults:
    """Seconds per training step as the graph (hence ``|E|``) grows.

    Users, items and edges all scale together (items = 4 × users, mean
    degrees fixed), so the x-axis records the resulting total edge count.
    """
    runs = []
    for num_users in user_grid:
        config = SyntheticConfig(
            num_users=num_users, num_items=4 * num_users, num_relations=12,
            num_communities=8, mean_interactions=12.0, mean_social_degree=8.0,
            seed=seed, name=f"scaling-{num_users}")
        dataset = generate_dataset(config)
        context = ExperimentContext.build(dataset=dataset, seed=seed,
                                          num_negatives=50)
        runs.append((DGNN(context.graph, embed_dim=embed_dim, seed=seed),
                     context))
    return ScalingResults(
        factor="edges",
        values=[float(sum(context.graph.num_edges.values()))
                for _, context in runs],
        seconds=_time_steps(runs, steps, batch_size, seed))

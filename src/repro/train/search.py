"""Grid search over model and training hyperparameters.

Implements the paper's tuning protocol (Section V-A4: embedding dim from
[4..32], λ from {1e-3, 1e-4, 1e-5}, batch size in [512, 4096]) as a
reusable utility: Cartesian grids over model kwargs and training config
fields, each cell trained and scored on the shared candidates, results
ranked by a chosen metric.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.train.config import PaperHyperparameters

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (train <-> experiments)
    from repro.experiments.common import ExperimentContext


@dataclass
class SearchResult:
    """One grid cell's outcome."""

    model_kwargs: Dict[str, object]
    config_kwargs: Dict[str, object]
    metrics: Dict[str, float]

    def describe(self) -> str:
        pieces = [f"{k}={v}" for k, v in {**self.model_kwargs,
                                          **self.config_kwargs}.items()]
        return ", ".join(pieces) if pieces else "(defaults)"


@dataclass
class GridSearchReport:
    """All grid cells, sorted by the target metric (best first)."""

    model_name: str
    metric: str
    results: List[SearchResult] = field(default_factory=list)

    @property
    def best(self) -> SearchResult:
        return self.results[0]

    def render(self, top: int = 10) -> str:
        lines = [f"grid search: {self.model_name} ranked by {self.metric}"]
        for result in self.results[:top]:
            lines.append(f"  {result.metrics[self.metric]:.4f}  "
                         f"{result.describe()}")
        return "\n".join(lines)


def _expand(grid: Optional[Dict[str, Sequence]]) -> Iterable[Dict[str, object]]:
    if not grid:
        yield {}
        return
    keys = sorted(grid)
    for combo in itertools.product(*(grid[k] for k in keys)):
        yield dict(zip(keys, combo))


def grid_search(model_name: str, context: "ExperimentContext",
                model_grid: Optional[Dict[str, Sequence]] = None,
                config_grid: Optional[Dict[str, Sequence]] = None,
                metric: str = "hr@10",
                base_config_kwargs: Optional[Dict[str, object]] = None,
                seed: int = 0) -> GridSearchReport:
    """Exhaustively evaluate the Cartesian product of both grids.

    Parameters
    ----------
    model_grid:
        Model constructor kwargs to sweep (e.g. ``{"embed_dim": [8, 16]}``).
    config_grid:
        :class:`TrainConfig` fields to sweep (e.g. ``{"l2": [1e-3, 1e-4]}``).
    metric:
        Ranking key; higher is better.
    """
    from repro.experiments.common import default_train_config, run_model

    report = GridSearchReport(model_name=model_name, metric=metric)
    base_config_kwargs = base_config_kwargs or {}
    for model_kwargs in _expand(model_grid):
        for config_kwargs in _expand(config_grid):
            config = default_train_config(seed=seed, **base_config_kwargs,
                                          **config_kwargs)
            run = run_model(model_name, context, config, seed=seed,
                            **model_kwargs)
            report.results.append(SearchResult(
                model_kwargs=dict(model_kwargs),
                config_kwargs=dict(config_kwargs),
                metrics=dict(run.metrics)))
    report.results.sort(key=lambda r: r.metrics[metric], reverse=True)
    return report


def paper_tuning_grid() -> Tuple[Dict[str, Sequence], Dict[str, Sequence]]:
    """The paper's Section V-A4 search space as ``(model_grid, config_grid)``."""
    return (
        {"embed_dim": PaperHyperparameters.embed_dim_grid},
        {"l2": PaperHyperparameters.l2_grid,
         "batch_size": PaperHyperparameters.batch_size_grid},
    )

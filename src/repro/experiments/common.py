"""Shared experiment machinery.

:class:`ExperimentContext` bundles everything a model run needs for one
dataset — the dataset, leave-one-out split, evaluation candidates and the
collaborative heterogeneous graph — so that every model in a comparison
sees identical data.  :func:`run_model` trains one model and returns its
result record; table renderers turn result grids into the plain-text
layouts of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data import (
    InteractionDataset,
    PRESETS,
    build_eval_candidates,
    leave_one_out,
)
from repro.data.sampling import EvalCandidates
from repro.data.split import Split
from repro.graph.hetero import CollaborativeHeteroGraph
from repro.models import create_model
from repro.train import TrainConfig, Trainer, TrainingHistory


@dataclass
class ExperimentContext:
    """One dataset's fixed experimental setting."""

    dataset: InteractionDataset
    split: Split
    candidates: EvalCandidates
    graph: CollaborativeHeteroGraph

    @classmethod
    def build(cls, dataset_name: str = "ciao-small", seed: int = 0,
              num_negatives: int = 100,
              dataset: Optional[InteractionDataset] = None,
              use_social: bool = True,
              use_item_relations: bool = True) -> "ExperimentContext":
        """Create the context for a preset name (or an explicit dataset)."""
        if dataset is None:
            if dataset_name not in PRESETS:
                raise KeyError(f"unknown preset {dataset_name!r}; "
                               f"known: {sorted(PRESETS)}")
            dataset = PRESETS[dataset_name](seed=seed)
        split = leave_one_out(dataset, seed=seed)
        candidates = build_eval_candidates(split, num_negatives=num_negatives,
                                           seed=seed)
        graph = CollaborativeHeteroGraph(dataset, split.train_pairs,
                                         use_social=use_social,
                                         use_item_relations=use_item_relations)
        return cls(dataset=dataset, split=split, candidates=candidates,
                   graph=graph)

    def variant_graph(self, use_social: bool = True,
                      use_item_relations: bool = True) -> CollaborativeHeteroGraph:
        """Same data, different relation sets (the Fig. 5 ablations)."""
        return CollaborativeHeteroGraph(self.dataset, self.split.train_pairs,
                                        use_social=use_social,
                                        use_item_relations=use_item_relations)


@dataclass
class ModelRunResult:
    """Outcome of training one model in one context."""

    model_name: str
    dataset_name: str
    metrics: Dict[str, float]
    history: TrainingHistory
    num_parameters: int
    model: object = field(repr=False, default=None)


def default_train_config(**overrides) -> TrainConfig:
    """The repository's standard training configuration for comparisons."""
    config = dict(epochs=60, batch_size=1024, learning_rate=0.01, l2=1e-4,
                  batches_per_epoch=None, eval_every=2, patience=8, seed=0)
    config.update(overrides)
    return TrainConfig(**config)


def run_model(name: str, context: ExperimentContext,
              train_config: Optional[TrainConfig] = None,
              embed_dim: int = 16, seed: int = 0,
              keep_model: bool = False,
              graph: Optional[CollaborativeHeteroGraph] = None,
              **model_kwargs) -> ModelRunResult:
    """Train one registry model inside ``context`` and evaluate it."""
    from repro.eval import evaluate_model

    config = train_config or default_train_config()
    graph = graph if graph is not None else context.graph
    model = create_model(name, graph, embed_dim=embed_dim, seed=seed,
                         **model_kwargs)
    if name == "most-popular":
        metrics = evaluate_model(model, context.candidates)
        history = TrainingHistory(metrics=[metrics], eval_epochs=[0],
                                  best_metrics=dict(metrics))
    else:
        trainer = Trainer(model, context.split, config, context.candidates)
        history = trainer.fit()
        metrics = history.best_metrics or evaluate_model(model, context.candidates)
    return ModelRunResult(
        model_name=name,
        dataset_name=context.dataset.name,
        metrics=metrics,
        history=history,
        num_parameters=model.num_parameters(),
        model=model if keep_model else None,
    )


# ----------------------------------------------------------------------
# Rendering helpers
# ----------------------------------------------------------------------
def improvement_pct(best: float, other: float) -> float:
    """Relative improvement of ``best`` over ``other`` in percent."""
    if other <= 0:
        return float("inf")
    return 100.0 * (best - other) / other


def render_metric_table(rows: Sequence[str], columns: Sequence[str],
                        values: Dict[str, Dict[str, float]],
                        fmt: str = "{:.4f}", title: str = "") -> str:
    """Render a rows × columns grid of metric values as plain text."""
    width = max(10, max((len(c) for c in columns), default=10) + 2)
    name_width = max(14, max((len(r) for r in rows), default=10) + 2)
    lines = []
    if title:
        lines.append(title)
    header = f"{'':<{name_width}}" + "".join(f"{c:>{width}}" for c in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        cells = []
        for column in columns:
            value = values.get(row, {}).get(column)
            cells.append("-" if value is None else fmt.format(value))
        lines.append(f"{row:<{name_width}}" + "".join(f"{c:>{width}}" for c in cells))
    return "\n".join(lines)


def seeds_mean(values: List[Dict[str, float]]) -> Dict[str, float]:
    """Average metric dicts across seeds."""
    if not values:
        return {}
    keys = values[0].keys()
    return {key: float(np.mean([v[key] for v in values])) for key in keys}

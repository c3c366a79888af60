"""Fig. 7: hyperparameter sensitivity of DGNN.

Sweeps the three knobs the paper studies — hidden dimension ``d``, graph
depth ``L`` and memory units ``|M|`` — and reports, like the paper's
y-axis, the *performance degradation ratio* relative to the best setting
in each sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments.common import (
    ExperimentContext,
    default_train_config,
    run_model,
)
from repro.train.config import PaperHyperparameters, TrainConfig

PAPER_GRIDS = {
    "embed_dim": PaperHyperparameters.embed_dim_grid,
    "num_layers": PaperHyperparameters.layer_grid,
    "num_memory_units": PaperHyperparameters.memory_grid,
}


@dataclass
class SweepResults:
    """One hyperparameter sweep: value → metrics."""

    dataset_name: str
    parameter: str
    metrics: Dict[int, Dict[str, float]] = field(default_factory=dict)

    def best_value(self, metric: str = "hr@10") -> int:
        return max(self.metrics, key=lambda v: self.metrics[v].get(metric, 0.0))

    def degradation(self, metric: str = "hr@10") -> Dict[int, float]:
        """Fig. 7's y-axis: relative drop from the sweep's best setting."""
        best = self.metrics[self.best_value(metric)][metric]
        if best <= 0:
            return {value: 0.0 for value in self.metrics}
        return {value: (best - m[metric]) / best
                for value, m in self.metrics.items()}

    def render(self, metric: str = "hr@10") -> str:
        degradation = self.degradation(metric)
        lines = [f"Fig. 7 sweep of {self.parameter} on {self.dataset_name} ({metric})"]
        header = f"{'value':>8}{metric:>12}{'degradation':>14}"
        lines.append(header)
        lines.append("-" * len(header))
        for value in sorted(self.metrics):
            lines.append(f"{value:>8}{self.metrics[value][metric]:>12.4f}"
                         f"{degradation[value]:>13.2%}")
        return "\n".join(lines)


def run_hyperparameter_sweep(
        context: ExperimentContext,
        parameter: str,
        values: Optional[Sequence[int]] = None,
        train_config: Optional[TrainConfig] = None,
        base_embed_dim: int = 16,
        seed: int = 0) -> SweepResults:
    """Sweep one DGNN hyperparameter, holding the others at paper defaults."""
    if parameter not in PAPER_GRIDS:
        raise KeyError(f"unknown sweep parameter {parameter!r}; "
                       f"known: {sorted(PAPER_GRIDS)}")
    values = tuple(values if values is not None else PAPER_GRIDS[parameter])
    results = SweepResults(dataset_name=context.dataset.name, parameter=parameter)
    for value in values:
        kwargs = {"embed_dim": base_embed_dim}
        if parameter == "embed_dim":
            kwargs["embed_dim"] = value
        else:
            kwargs[parameter] = value
        run = run_model("dgnn", context,
                        train_config or default_train_config(seed=seed),
                        seed=seed, **kwargs)
        results.metrics[value] = run.metrics
    return results


def run_all_sweeps(context: ExperimentContext,
                   train_config: Optional[TrainConfig] = None,
                   grids: Optional[Dict[str, Sequence[int]]] = None,
                   seed: int = 0) -> List[SweepResults]:
    """All three Fig. 7 sweeps."""
    grids = grids or PAPER_GRIDS
    return [run_hyperparameter_sweep(context, parameter, values,
                                     train_config=train_config, seed=seed)
            for parameter, values in grids.items()]

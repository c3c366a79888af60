"""Experiment runners — one per table/figure of the paper.

==========  =========================================================
Artifact    Runner
==========  =========================================================
Table I     :func:`repro.data.render_statistics_table`
Table II    :func:`repro.experiments.overall.run_overall_comparison`
Table III   same results, :meth:`OverallResults.render_table3`
Table IV    :func:`repro.experiments.efficiency.run_efficiency_comparison`
Fig. 4      :func:`repro.experiments.ablation.run_module_ablation`
Fig. 5      :func:`repro.experiments.ablation.run_relation_ablation`
Fig. 6      :func:`repro.experiments.sparsity.run_sparsity_experiment`
Fig. 7      :func:`repro.experiments.hyperparams.run_all_sweeps`
Fig. 8      :func:`repro.experiments.efficiency.run_convergence_comparison`
Fig. 9      :func:`repro.experiments.embedding_viz.run_embedding_visualization`
Fig. 10     :func:`repro.experiments.memory_viz.run_memory_attention_study`
==========  =========================================================
"""

from repro.experiments.common import (
    ExperimentContext,
    ModelRunResult,
    default_train_config,
    run_model,
)
from repro.experiments.overall import OverallResults, run_overall_comparison
from repro.experiments.ablation import (
    AblationResults,
    run_module_ablation,
    run_relation_ablation,
    render_relation_ablation_by_n,
)
from repro.experiments.sparsity import SparsityResults, run_sparsity_experiment
from repro.experiments.hyperparams import (
    SweepResults,
    run_hyperparameter_sweep,
    run_all_sweeps,
)
from repro.experiments.efficiency import (
    EfficiencyResults,
    ConvergenceResults,
    run_efficiency_comparison,
    run_convergence_comparison,
)
from repro.experiments.embedding_viz import (
    EmbeddingVizResults,
    run_embedding_visualization,
)
from repro.experiments.memory_viz import MemoryVizResults, run_memory_attention_study
from repro.experiments.report import ReportBuilder

__all__ = [
    "ExperimentContext",
    "ModelRunResult",
    "default_train_config",
    "run_model",
    "OverallResults",
    "run_overall_comparison",
    "AblationResults",
    "run_module_ablation",
    "run_relation_ablation",
    "render_relation_ablation_by_n",
    "SparsityResults",
    "run_sparsity_experiment",
    "SweepResults",
    "run_hyperparameter_sweep",
    "run_all_sweeps",
    "EfficiencyResults",
    "ConvergenceResults",
    "run_efficiency_comparison",
    "run_convergence_comparison",
    "EmbeddingVizResults",
    "run_embedding_visualization",
    "MemoryVizResults",
    "run_memory_attention_study",
    "ReportBuilder",
]

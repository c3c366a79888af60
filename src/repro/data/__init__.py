"""Datasets for social recommendation with item relations.

Provides the :class:`InteractionDataset` container (interactions ``Y``,
social ties ``S``, item relations ``T`` — the paper's three inputs),
synthetic benchmark generators mirroring the Ciao / Epinions / Yelp
profiles of Table I, leave-one-out splitting, BPR triple sampling, the
1-positive + 100-negative evaluation candidate builder, and dataset
statistics reporting.
"""

from repro.data.dataset import InteractionDataset
from repro.data.synthetic import (
    SyntheticConfig,
    generate_dataset,
    generate_dataset_chunked,
    ciao_small,
    epinions_small,
    yelp_small,
    medium,
    large,
    tiny,
    xlarge,
    PRESETS,
)
from repro.data.split import Split, leave_one_out
from repro.data.sampling import BprSampler, build_eval_candidates, EvalCandidates
from repro.data.stats import dataset_statistics, render_statistics_table
from repro.data.loaders import save_dataset, load_dataset
from repro.data.converters import convert_rating_dump, write_rating_dump

__all__ = [
    "InteractionDataset",
    "SyntheticConfig",
    "generate_dataset",
    "generate_dataset_chunked",
    "ciao_small",
    "epinions_small",
    "yelp_small",
    "medium",
    "large",
    "tiny",
    "xlarge",
    "PRESETS",
    "Split",
    "leave_one_out",
    "BprSampler",
    "EvalCandidates",
    "build_eval_candidates",
    "dataset_statistics",
    "render_statistics_table",
    "save_dataset",
    "load_dataset",
    "convert_rating_dump",
    "write_rating_dump",
]

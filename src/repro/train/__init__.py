"""Training: BPR loop (Alg. 1 / Eq. 11), configuration, early stopping."""

from repro.train.config import TrainConfig
from repro.train.trainer import Trainer, TrainingHistory, train_and_publish
from repro.train.early_stopping import EarlyStopping
from repro.train.pipeline import (
    MinibatchPlanner,
    MinibatchStep,
    PrefetchPipeline,
    prefetch_enabled,
)
from repro.train.checkpoint import (
    save_checkpoint,
    load_checkpoint,
    restore_model,
    restore_optimizer,
)
from repro.train.search import grid_search, GridSearchReport, SearchResult, paper_tuning_grid
from repro.train.pretrain import PretrainConfig, pretrain_embeddings, apply_pretrained

__all__ = [
    "TrainConfig",
    "Trainer",
    "TrainingHistory",
    "EarlyStopping",
    "train_and_publish",
    "MinibatchPlanner",
    "MinibatchStep",
    "PrefetchPipeline",
    "prefetch_enabled",
    "save_checkpoint",
    "load_checkpoint",
    "restore_model",
    "restore_optimizer",
    "grid_search",
    "GridSearchReport",
    "SearchResult",
    "paper_tuning_grid",
    "PretrainConfig",
    "pretrain_embeddings",
    "apply_pretrained",
]

"""Model checkpointing: save/load parameter snapshots as ``.npz`` archives.

A checkpoint stores the model's ``state_dict`` plus a small metadata
header (model name, embed dim, epoch, metrics), enough to resume training
or to reload a trained model for inference on the same graph.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

PathLike = Union[str, os.PathLike]

_META_KEY = "__checkpoint_meta__"
_OPTIM_PREFIX = "__optim__/"
#: Prefix of node-permutation arrays in older checkpoints; loads refuse them.
_PERM_PREFIX = "__perm__/"


def save_checkpoint(model, path: PathLike, epoch: int = -1,
                    metrics: Optional[Dict[str, float]] = None,
                    extra: Optional[Dict[str, object]] = None,
                    optimizer=None) -> None:
    """Write ``model``'s parameters and metadata to ``path`` (.npz).

    When ``optimizer`` is given, its :meth:`~repro.nn.optim.Adam.
    state_dict` (moments and per-row lazy-update counters) is stored
    under a namespaced prefix so training can resume exactly —
    including lazy Adam's per-row bias correction.
    """
    payload = {name: values for name, values in model.state_dict().items()}
    if optimizer is not None:
        for name, values in optimizer.state_dict().items():
            payload[_OPTIM_PREFIX + name] = values
    meta = {
        "model_name": getattr(model, "name", type(model).__name__),
        "embed_dim": getattr(model, "embed_dim", None),
        "epoch": int(epoch),
        "metrics": metrics or {},
        "extra": extra or {},
        "has_optimizer": optimizer is not None,
    }
    payload[_META_KEY] = np.asarray(json.dumps(meta))
    np.savez_compressed(Path(path), **payload)


def load_checkpoint(path: PathLike) -> Tuple[Dict[str, np.ndarray], Dict]:
    """Read a checkpoint; returns ``(state_dict, metadata)``.

    Optimizer entries (if saved) are split out of the model state and
    returned under ``metadata["optimizer_state"]``.  Raises
    ``ValueError`` for an archive holding node-permutation arrays: its
    parameter rows are in a relabeled id order this program no longer
    knows how to map back.
    """
    with np.load(Path(path), allow_pickle=False) as archive:
        meta = json.loads(str(archive[_META_KEY]))
        state = {}
        optim_state = {}
        for name in archive.files:
            if name == _META_KEY:
                continue
            if name.startswith(_OPTIM_PREFIX):
                optim_state[name[len(_OPTIM_PREFIX):]] = archive[name]
            elif name.startswith(_PERM_PREFIX):
                raise ValueError(
                    f"checkpoint {path} came from a reordered split "
                    f"({name!r}); node reordering is no longer supported")
            else:
                state[name] = archive[name]
    meta["optimizer_state"] = optim_state
    return state, meta


def restore_optimizer(optimizer, path: PathLike) -> Dict:
    """Load a checkpoint's optimizer state into ``optimizer``.

    Returns the checkpoint metadata.  Raises ``ValueError`` when the
    checkpoint was saved without an optimizer.
    """
    _, meta = load_checkpoint(path)
    if not meta.get("has_optimizer"):
        raise ValueError(f"checkpoint {path} holds no optimizer state")
    optimizer.load_state_dict(meta["optimizer_state"])
    return meta


def restore_model(model, path: PathLike, strict_name: bool = True) -> Dict:
    """Load a checkpoint's parameters into ``model``; returns the metadata.

    ``strict_name`` guards against loading a checkpoint from a different
    model class.
    """
    state, meta = load_checkpoint(path)
    if strict_name and meta["model_name"] != getattr(model, "name", None):
        raise ValueError(
            f"checkpoint is for {meta['model_name']!r}, model is "
            f"{getattr(model, 'name', None)!r}; pass strict_name=False to force")
    model.load_state_dict(state)
    if hasattr(model, "invalidate_cache"):
        model.invalidate_cache()
    return meta

"""Versioned, memory-mapped embedding snapshots.

A snapshot is the frozen output of one training run, holding exactly
what the request path needs and nothing else:

* the final user/item embedding matrices (the model's
  ``final_embeddings()``, stored in their native dtype — ``float32``
  under the production precision policy);
* the train-interaction CSR (``indptr``/``indices`` only, in the
  engine index dtype) used to mask already-seen items per user;
* the social CSR, which drives the cold-user dispatch (users with
  social edges but no train interactions).

Arrays are persisted as raw little-endian binaries and opened with
``np.memmap(mode="r")``, so N serving workers on one host share a
single physical copy through the page cache.  ``meta.json`` records
shape, dtype and a SHA-256 checksum per array; :meth:`SnapshotStore.load`
verifies the checksums before handing the snapshot out (opt out with
``validate=False`` when startup latency matters more than corruption
detection).

Publication is atomic: a snapshot is materialized under a temporary
directory inside the store root and renamed to its final ``v<NNNNNN>``
name in one ``os.rename``.  The newest complete version directory *is*
the latest version — there is no separate pointer to fall out of step
with it — so a reader of ``load_latest()`` never observes a
half-written snapshot, and a crashed publisher leaves at worst an
orphaned temp directory.
Embedding tables with a NaN or infinity are refused before staging.

Determinism: persistence is bytes-exact — a published-and-reloaded
snapshot compares ``np.array_equal`` to the arrays it was built from
(``repro.train.train_and_publish`` is the training-side handoff: one
in-process ``Trainer`` run, then a publish).  There are no environment
knobs here; the arrays inherit whatever ``REPRO_ENGINE_DTYPE`` /
``REPRO_ENGINE_INDEX_DTYPE`` produced them (see ``docs/operations.md``).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.data.split import Split
from repro.engine.precision import index_dtype_for
from repro.engine.propagate import check_ids

FORMAT_VERSION = 1

#: Array members persisted per snapshot, in a fixed order.
ARRAY_NAMES = ("user_emb", "item_emb", "train_indptr", "train_indices",
               "social_indptr", "social_indices")


class SnapshotIntegrityError(RuntimeError):
    """A snapshot failed checksum, metadata or finite-value validation."""


def _sha256_file(path: Path, chunk_bytes: int = 1 << 22) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(chunk_bytes)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class EmbeddingSnapshot:
    """Frozen user/item embeddings plus the serving-side graph masks.

    Attributes are plain ``np.ndarray`` when built in memory and
    read-only ``np.memmap`` views when loaded from a store — the
    serving code treats both identically.
    """

    user_emb: np.ndarray
    item_emb: np.ndarray
    train_indptr: np.ndarray
    train_indices: np.ndarray
    social_indptr: np.ndarray
    social_indices: np.ndarray
    version: Optional[str] = None
    meta: Dict[str, object] = field(default_factory=dict)

    # -- shape / lookup helpers ----------------------------------------
    @property
    def num_users(self) -> int:
        return int(self.user_emb.shape[0])

    @property
    def num_items(self) -> int:
        return int(self.item_emb.shape[0])

    @property
    def embed_dim(self) -> int:
        return int(self.user_emb.shape[1])

    def social_row(self, user: int) -> np.ndarray:
        """Friend ids of one user (sorted, possibly empty).

        Raises ``ValueError`` for a user id outside ``[0, num_users)``.
        """
        user = int(check_ids(user, self.num_users, "user"))
        return self.social_indices[self.social_indptr[user]:
                                   self.social_indptr[user + 1]]

    def cold_user_mask(self, users: np.ndarray) -> np.ndarray:
        """True for users with social edges but no train interactions.

        Raises ``ValueError`` for a user id outside ``[0, num_users)``.
        """
        users = check_ids(users, self.num_users, "user")
        no_train = (self.train_indptr[users + 1]
                    == self.train_indptr[users])
        has_social = (self.social_indptr[users + 1]
                      > self.social_indptr[users])
        return no_train & has_social

    # -- construction ---------------------------------------------------
    @classmethod
    def from_model(cls, model, split: Optional[Split] = None,
                   **meta) -> "EmbeddingSnapshot":
        """Snapshot a trained model (and the split's train mask).

        ``split`` supplies the train-interaction CSR; when omitted the
        model graph's interaction matrix is used (correct whenever the
        graph was built from the training pairs, the repository norm).
        Embeddings are stored exactly as ``final_embeddings()`` returns
        them — no cast — so serving from the snapshot is bitwise
        identical to serving from the live model.
        """
        user_emb, item_emb = model.final_embeddings()
        graph = model.graph
        if split is not None:
            train = split.train_matrix().tocsr()
        else:
            train = graph.interaction.tocsr()
        social = graph.social.tocsr()
        train.sort_indices()
        social.sort_indices()
        index_dtype = index_dtype_for(
            max(graph.num_users, graph.num_items, train.nnz, social.nnz))
        payload = {
            "tau": bool(getattr(model, "use_tau", False)),
            "model": getattr(model, "name", type(model).__name__),
        }
        payload.update(meta)
        return cls(
            user_emb=np.ascontiguousarray(user_emb),
            item_emb=np.ascontiguousarray(item_emb),
            train_indptr=train.indptr.astype(index_dtype, copy=False),
            train_indices=train.indices.astype(index_dtype, copy=False),
            social_indptr=social.indptr.astype(index_dtype, copy=False),
            social_indices=social.indices.astype(index_dtype, copy=False),
            meta=payload,
        )

    # -- (de)serialization ---------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in ARRAY_NAMES}

    def write_to(self, directory: Path) -> None:
        """Persist every array plus ``meta.json`` under ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest: Dict[str, Dict[str, object]] = {}
        for name, array in self.arrays().items():
            array = np.ascontiguousarray(array)
            path = directory / f"{name}.bin"
            with open(path, "wb") as handle:
                handle.write(array.tobytes())
            manifest[name] = {
                "shape": list(array.shape),
                "dtype": array.dtype.str,
                "sha256": _sha256_file(path),
            }
        meta = {
            "format_version": FORMAT_VERSION,
            "arrays": manifest,
            "extra": self.meta,
        }
        (directory / "meta.json").write_text(json.dumps(meta, indent=2))

    @classmethod
    def read_from(cls, directory: Path, mmap: bool = True,
                  validate: bool = True) -> "EmbeddingSnapshot":
        """Open a persisted snapshot (memory-mapped by default)."""
        directory = Path(directory)
        meta_path = directory / "meta.json"
        if not meta_path.exists():
            raise SnapshotIntegrityError(f"no meta.json in {directory}")
        meta = json.loads(meta_path.read_text())
        if meta.get("format_version") != FORMAT_VERSION:
            raise SnapshotIntegrityError(
                f"unsupported snapshot format {meta.get('format_version')!r} "
                f"in {directory} (expected {FORMAT_VERSION})")
        manifest = meta.get("arrays", {})
        loaded: Dict[str, np.ndarray] = {}
        for name in ARRAY_NAMES:
            spec = manifest.get(name)
            if spec is None:
                raise SnapshotIntegrityError(
                    f"snapshot {directory} is missing array {name!r}")
            path = directory / f"{name}.bin"
            shape = tuple(int(s) for s in spec["shape"])
            dtype = np.dtype(spec["dtype"])
            expected_bytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
            if not path.exists() or path.stat().st_size != expected_bytes:
                raise SnapshotIntegrityError(
                    f"snapshot array {name!r} in {directory} has "
                    f"{path.stat().st_size if path.exists() else 'no'} bytes, "
                    f"expected {expected_bytes}")
            if validate and _sha256_file(path) != spec["sha256"]:
                raise SnapshotIntegrityError(
                    f"checksum mismatch for array {name!r} in {directory}")
            if mmap:
                loaded[name] = np.memmap(path, dtype=dtype, mode="r",
                                         shape=shape)
            else:
                array = np.fromfile(path, dtype=dtype).reshape(shape)
                loaded[name] = array
        return cls(version=directory.name, meta=meta.get("extra", {}),
                   **loaded)

    def __repr__(self) -> str:
        return (f"EmbeddingSnapshot(version={self.version!r}, "
                f"users={self.num_users}, items={self.num_items}, "
                f"d={self.embed_dim}, dtype={self.user_emb.dtype.name})")


class SnapshotStore:
    """A directory of versioned snapshots; the newest one is the latest.

    Layout::

        root/
          v000001/  user_emb.bin item_emb.bin ... meta.json
          v000002/  ...

    ``publish`` materializes the snapshot under a temp name and renames
    it to the next free version number in one atomic step, so concurrent
    readers always see a complete snapshot and concurrent publishers get
    distinct versions.  ``load_latest`` opens the newest version;
    ``load`` opens any retained one (instant rollback).
    """

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- versions -------------------------------------------------------
    def versions(self) -> List[str]:
        """Published version names, oldest first."""
        found = []
        for path in self.root.iterdir():
            if (path.is_dir() and path.name.startswith("v")
                    and (path / "meta.json").exists()):
                found.append(path.name)
        return sorted(found)

    def latest_version(self) -> Optional[str]:
        """The newest published version (None for an empty store)."""
        versions = self.versions()
        return versions[-1] if versions else None

    # -- lifecycle ------------------------------------------------------
    def publish(self, snapshot: EmbeddingSnapshot) -> str:
        """Persist ``snapshot`` as the next version.

        Returns the assigned version name (also set on the snapshot).
        Raises :class:`SnapshotIntegrityError` before writing anything if
        either embedding table holds a NaN or infinity, so a diverged
        model never reaches the request path.
        """
        for name in ("user_emb", "item_emb"):
            if not np.isfinite(getattr(snapshot, name)).all():
                raise SnapshotIntegrityError(
                    f"refusing to publish: {name} has non-finite values")
        staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=self.root))
        try:
            snapshot.write_to(staging)
            name = self._rename_to_next_version(staging)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        snapshot.version = name
        return name

    def _rename_to_next_version(self, staging: Path) -> str:
        """Rename ``staging`` to the first free version name after the
        newest, and return that name.

        A concurrent publisher can take a name between the existence
        check and ``os.rename``; the rename then fails onto its
        non-empty directory, and the next name is tried.
        """
        versions = self.versions()
        number = (int(versions[-1][1:]) + 1) if versions else 1
        while True:
            name = f"v{number:06d}"
            final = self.root / name
            if not final.exists():
                try:
                    os.rename(staging, final)
                    return name
                except OSError:
                    if not final.exists():
                        raise
            number += 1

    def load(self, version: str, mmap: bool = True,
             validate: bool = True) -> EmbeddingSnapshot:
        """Open one retained version (checksum-validated by default)."""
        return EmbeddingSnapshot.read_from(self.root / version, mmap=mmap,
                                           validate=validate)

    def load_latest(self, mmap: bool = True,
                    validate: bool = True) -> EmbeddingSnapshot:
        """Open the newest published version."""
        name = self.latest_version()
        if name is None:
            raise FileNotFoundError(f"no snapshots published under {self.root}")
        return self.load(name, mmap=mmap, validate=validate)

    def prune(self, keep: int = 3) -> List[str]:
        """Delete all but the ``keep`` newest versions; returns deleted.

        The newest version is never deleted, even with ``keep=0``.
        Raises ``ValueError`` for ``keep`` below 0 (a negative slice
        bound would delete from the old end).
        """
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        deletable = self.versions()[:-max(keep, 1)]
        for name in deletable:
            shutil.rmtree(self.root / name, ignore_errors=True)
        return deletable

    def __repr__(self) -> str:
        return (f"SnapshotStore(root={str(self.root)!r}, "
                f"versions={self.versions()}, latest={self.latest_version()!r})")

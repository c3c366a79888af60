"""Node reordering: cache-friendly id layouts behind an explicit permutation.

Every hot kernel in the system — spmm over the heterogeneous adjacencies,
embedding-row gathers, serving score blocks — streams memory in node-id
order, and the raw dataset's ids arrive in whatever order the dump
happened to use.  Relabeling nodes so that graph neighbours sit at nearby
ids turns the kernels' scattered reads into banded ones, which is what
the cache-blocked spmm in :mod:`repro.engine.locality` exploits.

The contract is an explicit :class:`NodePermutation` object rather than
an in-place relabel: *internal* ids (model tables, graph matrices,
splits) live in the permuted space, and every external boundary — eval
metrics, :func:`repro.eval.full_ranking.full_ranking_topk`, serving
snapshots, checkpoints — maps back through the permutation so callers
only ever see original ids.  Ranking metrics and top-k id *sets* are
invariant under any relabeling (property-tested in
``tests/test_graph_reorder.py``); what changes is purely the memory
layout.

Strategies
----------
``"identity"``
    No-op layout; the oracle every other strategy is benchmarked against.
``"rcm"``
    Reverse Cuthill–McKee over the user–item bipartite graph with the
    symmetrized social block folded into the user–user corner,
    ``[[S, Y], [Yᵀ, 0]]``.  Produces banded interaction *and* social
    matrices where community structure exists; costs a few milliseconds
    even at the ``large`` preset.

Use :func:`build_permutation` to construct one, then
:meth:`NodePermutation.permute_split` / :meth:`~NodePermutation.
permute_dataset` to relabel the data a graph is built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from repro.data.dataset import InteractionDataset
from repro.data.split import Split

#: Node-reordering strategies accepted by :func:`build_permutation`.
REORDER_STRATEGIES = ("identity", "rcm")


def _check_permutation(perm: np.ndarray, size: int, name: str) -> np.ndarray:
    perm = np.asarray(perm, dtype=np.int64)
    if perm.shape != (size,):
        raise ValueError(f"{name} must have shape ({size},), got {perm.shape}")
    seen = np.zeros(size, dtype=bool)
    valid = (perm >= 0) & (perm < size)
    if not valid.all():
        raise ValueError(f"{name} holds out-of-range ids")
    seen[perm] = True
    if not seen.all():
        raise ValueError(f"{name} is not a permutation (duplicate targets)")
    return perm


def _invert(perm: np.ndarray) -> np.ndarray:
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(len(perm), dtype=perm.dtype)
    return inverse


@dataclass(frozen=True)
class NodePermutation:
    """An explicit relabeling of user and item ids.

    ``user_perm[old_id] = internal_id`` and likewise for items; the
    inverse arrays are derived once at construction.  Relation nodes are
    never permuted — there are at most a few dozen of them and their
    adjacency rows are already dense.

    All mapping helpers are pure and vectorized; ``map_*`` go from
    original ids to internal ids, ``original_*`` go back.
    """

    user_perm: np.ndarray
    item_perm: np.ndarray
    strategy: str = "custom"
    user_inverse: np.ndarray = field(init=False, repr=False)
    item_inverse: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        user_perm = _check_permutation(self.user_perm, len(self.user_perm),
                                       "user_perm")
        item_perm = _check_permutation(self.item_perm, len(self.item_perm),
                                       "item_perm")
        object.__setattr__(self, "user_perm", user_perm)
        object.__setattr__(self, "item_perm", item_perm)
        object.__setattr__(self, "user_inverse", _invert(user_perm))
        object.__setattr__(self, "item_inverse", _invert(item_perm))

    # -- basic facts ----------------------------------------------------
    @property
    def num_users(self) -> int:
        return len(self.user_perm)

    @property
    def num_items(self) -> int:
        return len(self.item_perm)

    @property
    def is_identity(self) -> bool:
        return (np.array_equal(self.user_perm, np.arange(self.num_users))
                and np.array_equal(self.item_perm, np.arange(self.num_items)))

    # -- id mapping -----------------------------------------------------
    def map_users(self, user_ids: np.ndarray) -> np.ndarray:
        """Original user ids → internal (permuted) user ids."""
        return self.user_perm[np.asarray(user_ids, dtype=np.int64)]

    def map_items(self, item_ids: np.ndarray) -> np.ndarray:
        """Original item ids → internal (permuted) item ids."""
        return self.item_perm[np.asarray(item_ids, dtype=np.int64)]

    def original_users(self, internal_ids: np.ndarray) -> np.ndarray:
        """Internal user ids → original user ids."""
        return self.user_inverse[np.asarray(internal_ids, dtype=np.int64)]

    def original_items(self, internal_ids: np.ndarray) -> np.ndarray:
        """Internal item ids → original item ids."""
        return self.item_inverse[np.asarray(internal_ids, dtype=np.int64)]

    # -- row-table layout -----------------------------------------------
    def permute_user_rows(self, table: np.ndarray) -> np.ndarray:
        """Reindex a per-user row table from original to internal order."""
        return np.ascontiguousarray(table[self.user_inverse])

    def permute_item_rows(self, table: np.ndarray) -> np.ndarray:
        """Reindex a per-item row table from original to internal order."""
        return np.ascontiguousarray(table[self.item_inverse])

    def restore_user_rows(self, table: np.ndarray) -> np.ndarray:
        """Reindex a per-user row table from internal back to original order."""
        return np.ascontiguousarray(table[self.user_perm])

    def restore_item_rows(self, table: np.ndarray) -> np.ndarray:
        """Reindex a per-item row table from internal back to original order."""
        return np.ascontiguousarray(table[self.item_perm])

    # -- data relabeling ------------------------------------------------
    def permute_dataset(self, dataset: InteractionDataset) -> InteractionDataset:
        """Relabel every edge list of ``dataset`` into internal ids.

        Per-user/per-item metadata arrays planted by the synthetic
        generator (``communities``, ``tastes``, ``categories``) are
        reindexed so downstream consumers stay consistent.
        """
        interactions = dataset.interactions.copy()
        interactions[:, 0] = self.user_perm[interactions[:, 0]]
        interactions[:, 1] = self.item_perm[interactions[:, 1]]
        social = dataset.social_edges.copy()
        social[:, 0] = self.user_perm[social[:, 0]]
        social[:, 1] = self.user_perm[social[:, 1]]
        item_relations = dataset.item_relations.copy()
        item_relations[:, 0] = self.item_perm[item_relations[:, 0]]
        metadata = dict(dataset.metadata or {})
        for key, size, reindex in (
                ("communities", self.num_users, self.user_inverse),
                ("tastes", self.num_users, self.user_inverse),
                ("categories", self.num_items, self.item_inverse)):
            value = metadata.get(key)
            if isinstance(value, np.ndarray) and len(value) == size:
                metadata[key] = value[reindex]
        return InteractionDataset(
            num_users=dataset.num_users,
            num_items=dataset.num_items,
            num_relations=dataset.num_relations,
            interactions=interactions,
            social_edges=social,
            item_relations=item_relations,
            name=dataset.name,
            metadata=metadata,
        )

    def permute_split(self, split: Split) -> Split:
        """Relabel a split (train pairs + held-out test arrays) in place-free form.

        The held-out interactions are exactly the same user/item pairs,
        just under internal ids — so every protocol run on the permuted
        split scores the same underlying predictions.
        """
        train_pairs = split.train_pairs.copy()
        train_pairs[:, 0] = self.user_perm[train_pairs[:, 0]]
        train_pairs[:, 1] = self.item_perm[train_pairs[:, 1]]
        return Split(dataset=self.permute_dataset(split.dataset),
                     train_pairs=train_pairs,
                     test_users=self.user_perm[split.test_users],
                     test_items=self.item_perm[split.test_items])

    # -- persistence ----------------------------------------------------
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The two defining arrays (for checkpoints and snapshots)."""
        return {"user_perm": self.user_perm, "item_perm": self.item_perm}

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray],
                    strategy: str = "restored") -> "NodePermutation":
        return cls(user_perm=np.asarray(arrays["user_perm"], dtype=np.int64),
                   item_perm=np.asarray(arrays["item_perm"], dtype=np.int64),
                   strategy=strategy)

    @classmethod
    def identity(cls, num_users: int, num_items: int) -> "NodePermutation":
        return cls(user_perm=np.arange(num_users, dtype=np.int64),
                   item_perm=np.arange(num_items, dtype=np.int64),
                   strategy="identity")

    def __repr__(self) -> str:
        return (f"NodePermutation(strategy={self.strategy!r}, "
                f"users={self.num_users}, items={self.num_items})")


# ----------------------------------------------------------------------
# Strategy implementations
# ----------------------------------------------------------------------
def _interaction_csr(dataset: InteractionDataset,
                     train_pairs: Optional[np.ndarray]) -> sp.csr_matrix:
    pairs = dataset.interactions if train_pairs is None else train_pairs
    data = np.ones(len(pairs), dtype=np.float64)
    matrix = sp.coo_matrix(
        (data, (pairs[:, 0], pairs[:, 1])),
        shape=(dataset.num_users, dataset.num_items)).tocsr()
    matrix.sum_duplicates()
    return matrix


def _social_csr(dataset: InteractionDataset) -> Optional[sp.csr_matrix]:
    """Symmetrized user–user social adjacency, or None when edgeless."""
    edges = dataset.social_edges
    if edges is None or len(edges) == 0:
        return None
    data = np.ones(len(edges), dtype=np.float64)
    social = sp.coo_matrix(
        (data, (edges[:, 0], edges[:, 1])),
        shape=(dataset.num_users, dataset.num_users)).tocsr()
    social.sum_duplicates()
    return social + social.T


def _rcm_orders(matrix: sp.csr_matrix,
                social: Optional[sp.csr_matrix] = None
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Reverse Cuthill–McKee user/item orderings (old→new).

    The ordering graph is the user–item bipartite adjacency with the
    user–user social block (when present) in its top-left corner:
    ``[[S, Y], [Yᵀ, 0]]``.  Including ``S`` matters — the social
    propagation joint streams the same user tables the interaction
    joints do, and omitting it leaves that matrix unbanded under the
    resulting layout.
    """
    num_users, num_items = matrix.shape
    user_block = social if social is not None and social.nnz else None
    bipartite = sp.bmat([[user_block, matrix], [matrix.T, None]],
                        format="csr")
    ordering = np.asarray(
        reverse_cuthill_mckee(bipartite, symmetric_mode=True), dtype=np.int64)
    users_in_order = ordering[ordering < num_users]
    items_in_order = ordering[ordering >= num_users] - num_users
    return _invert(users_in_order), _invert(items_in_order)


def build_permutation(dataset: InteractionDataset, strategy: str = "rcm",
                      train_pairs: Optional[np.ndarray] = None) -> NodePermutation:
    """Build a :class:`NodePermutation` for ``dataset`` under ``strategy``.

    ``train_pairs``, when given, restricts the interaction structure the
    ordering is computed from to the training edges (the standard choice:
    the layout should serve the matrices the kernels actually stream).
    """
    if strategy not in REORDER_STRATEGIES:
        raise ValueError(f"unknown reorder strategy {strategy!r}; "
                         f"known: {REORDER_STRATEGIES}")
    if strategy == "identity":
        return NodePermutation.identity(dataset.num_users, dataset.num_items)
    matrix = _interaction_csr(dataset, train_pairs)
    user_perm, item_perm = _rcm_orders(matrix, _social_csr(dataset))
    return NodePermutation(user_perm=user_perm, item_perm=item_perm,
                           strategy=strategy)


def reorder_split(split: Split, strategy: str = "rcm"
                  ) -> Tuple[Split, NodePermutation]:
    """Relabel ``split`` under ``strategy``; returns ``(split, permutation)``.

    The load-time entry point: build the split in original ids, reorder
    it here, then construct the :class:`~repro.graph.hetero.
    CollaborativeHeteroGraph` (and model tables) from the returned split.
    The ordering is computed from the *training* interactions only.
    """
    permutation = build_permutation(split.dataset, strategy,
                                    train_pairs=split.train_pairs)
    if permutation.is_identity:
        return split, permutation
    return permutation.permute_split(split), permutation

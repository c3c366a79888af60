"""The collaborative heterogeneous graph ``G`` of Eq. 1.

:class:`CollaborativeHeteroGraph` unifies the three relation sets —
user–item interactions ``Y``, user–user social ties ``S`` and
item–relation links ``T`` — into one object that hands models exactly the
sparse views they need:

* *joint-normalized* adjacencies implementing the paper's mean
  aggregation, where a user's normalizer is ``1/(|N^S_u| + |N^Y_u|)``
  (Eq. 4) and an item's is ``1/(|N^Y_v| + |N^T_v|)`` (Eq. 5);
* plain row- or symmetric-normalized per-relation adjacencies for the
  baselines;
* explicit edge lists for attention-based models;
* meta-path adjacencies (U-I-U, I-U-I, I-R-I, U-U) for HAN / HERec.

Ablation variants (``-S``, ``-T``, ``-ST`` in Fig. 5) are expressed by
constructing the graph with ``use_social=False`` / ``use_item_relations=
False``; every view then degrades consistently.

Each normalized view is built on first use from the stored relation
matrices and kept on the graph, once per engine dtype it is asked for.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Callable, Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.data.dataset import InteractionDataset
from repro.engine.instrument import counters
from repro.engine.precision import get_dtype, index_dtype_for
from repro.graph.adjacency import (
    add_self_loops,
    as_csr64,
    assert_csr64,
    bipartite_norm_adjacency,
    row_normalize,
    symmetric_normalize,
)


def _per_dtype(build: Callable[["CollaborativeHeteroGraph"], sp.spmatrix]
               ) -> property:
    """A normalized view, built once per graph and active engine dtype.

    The graph keeps each result under ``(view name, dtype)``, so float32
    and float64 views of one graph coexist and neither is served under
    the other's dtype.  Each build counts as one adjacency normalization
    in :mod:`repro.engine.instrument`.
    """
    name = build.__name__

    @wraps(build)
    def view(self: "CollaborativeHeteroGraph") -> sp.csr_matrix:
        dtype = get_dtype()
        key = (name, dtype)
        cached = self._views.get(key)
        if cached is None:
            # The prefetch thread may ask for a view too; build it once.
            # The lock is re-entrant: ``item_context`` builds two views.
            with self._views_lock:
                cached = self._views.get(key)
                if cached is None:
                    counters().record_normalization()
                    cached = as_csr64(sp.csr_matrix(build(self), dtype=dtype))
                    self._views[key] = cached
        return cached

    return property(view)


@dataclass(frozen=True)
class EdgeSet:
    """An explicit directed edge list ``src -> dst`` for one relation type."""

    src: np.ndarray
    dst: np.ndarray
    name: str

    def __len__(self) -> int:
        return len(self.src)


class CollaborativeHeteroGraph:
    """Unified graph over users, items and relation nodes.

    Parameters
    ----------
    dataset:
        The source dataset (provides ``S`` and ``T`` and entity counts).
    train_pairs:
        Training interactions; **must** be the training split to avoid
        test leakage.  Defaults to all interactions (only for exploratory
        use).
    use_social / use_item_relations:
        Ablation switches dropping ``S`` / ``T`` from every view.
    """

    def __init__(self, dataset: InteractionDataset,
                 train_pairs: Optional[np.ndarray] = None,
                 use_social: bool = True,
                 use_item_relations: bool = True):
        self.dataset = dataset
        self.num_users = dataset.num_users
        self.num_items = dataset.num_items
        self.num_relations = max(dataset.num_relations, 1)
        self.use_social = use_social
        self.use_item_relations = use_item_relations

        # All three relation matrices are stored once, in the canonical
        # CSR/float64 format, and asserted — downstream code (kernel
        # kernels, ``Recommender.recommend``'s ``indices`` slicing) is
        # allowed to rely on it.
        pairs = dataset.interactions if train_pairs is None else train_pairs
        self.interaction = as_csr64(dataset.interaction_matrix(pairs))
        if use_social:
            self.social = as_csr64(dataset.social_matrix())
        else:
            self.social = as_csr64(
                sp.csr_matrix((self.num_users, self.num_users)))
        if use_item_relations:
            self.item_relation = as_csr64(sp.csr_matrix(
                dataset.item_relation_matrix(),
                shape=(self.num_items, self.num_relations)))
        else:
            self.item_relation = as_csr64(
                sp.csr_matrix((self.num_items, self.num_relations)))
        for name in ("interaction", "social", "item_relation"):
            assert_csr64(getattr(self, name), name)
        self._views: Dict[Tuple[str, np.dtype], sp.csr_matrix] = {}
        self._views_lock = threading.RLock()

    # ------------------------------------------------------------------
    # Degrees and joint normalizers (Eqs. 4-6)
    # ------------------------------------------------------------------
    # Degree counts are summed in float64, where they are exact whatever
    # dtype the graph was built under.
    @cached_property
    def user_degree_social(self) -> np.ndarray:
        return np.asarray(self.social.sum(axis=1, dtype=np.float64)).reshape(-1)

    @cached_property
    def user_degree_interaction(self) -> np.ndarray:
        return np.asarray(
            self.interaction.sum(axis=1, dtype=np.float64)).reshape(-1)

    @cached_property
    def item_degree_interaction(self) -> np.ndarray:
        return np.asarray(
            self.interaction.sum(axis=0, dtype=np.float64)).reshape(-1)

    @cached_property
    def item_degree_relation(self) -> np.ndarray:
        return np.asarray(
            self.item_relation.sum(axis=1, dtype=np.float64)).reshape(-1)

    @cached_property
    def relation_degree(self) -> np.ndarray:
        return np.asarray(
            self.item_relation.sum(axis=0, dtype=np.float64)).reshape(-1)

    @staticmethod
    def _joint_scale(*degree_vectors: np.ndarray) -> sp.dia_matrix:
        """``diag(1 / sum of degrees)`` in the active engine dtype.

        The reciprocal is taken in float64 and cast: a correctly rounded
        float64 ``1/d`` rounds to float32's own ``1/d``, so the scale is
        the same at either dtype, whichever dtype built the graph.
        """
        total = np.sum(degree_vectors, axis=0)
        inverse = np.zeros_like(total)
        nonzero = total > 0
        inverse[nonzero] = 1.0 / total[nonzero]
        return sp.diags(inverse.astype(get_dtype()))

    @_per_dtype
    def user_social_joint(self) -> sp.spmatrix:
        """``S`` scaled by ``1/(|N^S_u| + |N^Y_u|)`` per target user (Eq. 4)."""
        return self._joint_scale(self.user_degree_social,
                                 self.user_degree_interaction) @ self.social

    @_per_dtype
    def user_item_joint(self) -> sp.spmatrix:
        """``Y`` scaled by the same joint user normalizer (Eq. 4)."""
        return self._joint_scale(self.user_degree_social,
                                 self.user_degree_interaction) @ self.interaction

    @_per_dtype
    def item_user_joint(self) -> sp.spmatrix:
        """``Y^T`` scaled by ``1/(|N^Y_v| + |N^T_v|)`` per target item (Eq. 5)."""
        return (self._joint_scale(self.item_degree_interaction,
                                  self.item_degree_relation)
                @ self.interaction.T.tocsr())

    @_per_dtype
    def item_relation_joint(self) -> sp.spmatrix:
        """``T`` scaled by the same joint item normalizer (Eq. 5)."""
        return (self._joint_scale(self.item_degree_interaction,
                                  self.item_degree_relation)
                @ self.item_relation)

    @_per_dtype
    def relation_item_mean(self) -> sp.spmatrix:
        """``T^T`` scaled by ``1/|N_r|`` per relation node (Eq. 6)."""
        return row_normalize(self.item_relation.T.tocsr())

    # ------------------------------------------------------------------
    # Baseline views
    # ------------------------------------------------------------------
    @_per_dtype
    def user_item_mean(self) -> sp.spmatrix:
        """Row-normalized ``Y`` (plain mean over interacted items)."""
        return row_normalize(self.interaction)

    @_per_dtype
    def item_user_mean(self) -> sp.spmatrix:
        """Row-normalized ``Y^T``."""
        return row_normalize(self.interaction.T.tocsr())

    @_per_dtype
    def social_mean(self) -> sp.spmatrix:
        """Row-normalized ``S`` (mean over friends)."""
        return row_normalize(self.social)

    @_per_dtype
    def social_sym(self) -> sp.spmatrix:
        """Symmetric-normalized ``S``."""
        return symmetric_normalize(self.social)

    @_per_dtype
    def social_self_loop_mean(self) -> sp.spmatrix:
        """Row-normalized ``S + I`` — the τ recalibration operator (Eq. 9)."""
        return row_normalize(add_self_loops(self.social))

    @_per_dtype
    def item_relation_mean(self) -> sp.spmatrix:
        """Row-normalized ``T``."""
        return row_normalize(self.item_relation)

    @_per_dtype
    def item_context(self) -> sp.spmatrix:
        """Item→item context operator through relation nodes (I-R-I).

        ``item_relation_mean @ relation_item_mean``: every item mixes the
        mean embedding of its relation nodes, each the mean over that
        relation's items.  As a graph view it is built once and can be
        row/column-sliced by :class:`~repro.graph.sampling.SubgraphView`.
        """
        return (self.item_relation_mean @ self.relation_item_mean).tocsr()

    @_per_dtype
    def bipartite_norm(self) -> sp.spmatrix:
        """Symmetric-normalized joint user–item adjacency for CF baselines."""
        return bipartite_norm_adjacency(self.interaction)

    # ------------------------------------------------------------------
    # Meta-paths (HAN / HERec)
    # ------------------------------------------------------------------
    def metapath(self, name: str, binarize: bool = True) -> sp.csr_matrix:
        """Composite adjacency for a named meta-path.

        Supported names: ``"uu"`` (social), ``"uiu"`` (co-interaction),
        ``"iui"`` (co-consumption), ``"iri"`` (shared relation node).
        Diagonals are removed; ``binarize`` clips multiplicities to 1.
        """
        if name == "uu":
            matrix = self.social.copy()
        elif name == "uiu":
            matrix = (self.interaction @ self.interaction.T).tocsr()
        elif name == "iui":
            matrix = (self.interaction.T @ self.interaction).tocsr()
        elif name == "iri":
            matrix = (self.item_relation @ self.item_relation.T).tocsr()
        else:
            raise KeyError(f"unknown meta-path {name!r}")
        matrix = matrix.tolil()
        matrix.setdiag(0)
        matrix = matrix.tocsr()
        matrix.eliminate_zeros()
        if binarize and matrix.nnz:
            matrix.data[:] = 1.0
        return matrix

    # ------------------------------------------------------------------
    # Edge lists (attention-based models)
    # ------------------------------------------------------------------
    def edges(self, kind: str) -> EdgeSet:
        """Directed edge list for a relation type.

        ``kind`` is one of ``"social"`` (both directions), ``"ui"``
        (item→user message edges: src=item, dst=user), ``"iu"``
        (user→item), ``"ir"`` (relation→item), ``"ri"`` (item→relation).
        """
        if kind == "social":
            coo = self.social.tocoo()
            dtype = index_dtype_for(self.num_users)
            return EdgeSet(src=coo.col.astype(dtype),
                           dst=coo.row.astype(dtype), name=kind)
        if kind in ("ui", "iu"):
            coo = self.interaction.tocoo()
            users = coo.row.astype(index_dtype_for(self.num_users))
            items = coo.col.astype(index_dtype_for(self.num_items))
            if kind == "ui":
                return EdgeSet(src=items, dst=users, name=kind)
            return EdgeSet(src=users, dst=items, name=kind)
        if kind in ("ir", "ri"):
            coo = self.item_relation.tocoo()
            items = coo.row.astype(index_dtype_for(self.num_items))
            relations = coo.col.astype(index_dtype_for(self.num_relations))
            if kind == "ir":
                return EdgeSet(src=relations, dst=items, name=kind)
            return EdgeSet(src=items, dst=relations, name=kind)
        raise KeyError(f"unknown edge kind {kind!r}")

    @cached_property
    def num_edges(self) -> Dict[str, int]:
        """Edge counts per relation type (social counted directed)."""
        return {
            "interaction": int(self.interaction.nnz),
            "social": int(self.social.nnz),
            "item_relation": int(self.item_relation.nnz),
        }

    def social_neighbors(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR-style ``(indptr, indices)`` arrays of each user's friends."""
        csr = self.social.tocsr()
        return (csr.indptr.copy(),
                csr.indices.astype(index_dtype_for(self.num_users)))

    def __repr__(self) -> str:
        return (f"CollaborativeHeteroGraph(users={self.num_users}, items={self.num_items}, "
                f"relations={self.num_relations}, edges={self.num_edges})")

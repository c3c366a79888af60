"""Neighbourhood sampling and subgraph views for minibatch training.

Full-graph propagation per BPR batch (Alg. 1) is exact but scales with
the whole graph.  For datasets the size of the paper's Epinions/Yelp a
practical trainer propagates only over the batch's L-hop neighbourhood.
This module provides the two pieces of that pipeline:

* :func:`expand_neighborhood` — grow a seed set of users/items through
  the social, interaction and item-relation edges for ``hops`` rounds,
  optionally capping the per-node fan-out (uniform neighbour sampling).
  It is fully vectorized (ragged CSR gathers + composite-key fan-out
  subsampling); the test suite checks it against a per-node loop.
* :class:`SubgraphView` — a lightweight view of the induced subgraph
  that *slices the parent graph's cached normalized adjacencies* row- and
  column-wise in one ragged CSR pass.  No ``InteractionDataset`` or
  ``CollaborativeHeteroGraph`` is rebuilt per batch, message weights keep
  their full-graph normalizers (so the uncapped closure reproduces
  full-graph propagation exactly), and only the adjacencies a model's
  layer stack actually touches are materialized, lazily.

One hop adds, per relation type: social neighbours of current users,
items of current users, users of current items, and relation-co-members
of current items (item → relation node → item, in one round — relation
nodes themselves are few and are always all kept).  The co-membership
round is what makes the uncapped closure exact for models whose relation
nodes aggregate over *all* their items (DGNN Eq. 6, NGCF's I-R-I context
channel).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.engine.adjcache import cached_transpose
from repro.engine.precision import as_index_array, index_dtype_for
from repro.engine.propagate import check_ids
from repro.engine.ragged import gather_ragged_rows
from repro.graph.hetero import CollaborativeHeteroGraph

_EMPTY = np.zeros(0, dtype=np.int64)


# ----------------------------------------------------------------------
# Neighbour gathering
# ----------------------------------------------------------------------
def _ragged_gather(indptr: np.ndarray, nodes: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions of every CSR entry owned by ``nodes``, plus row layout.

    Thin wrapper over the shared :func:`gather_ragged_rows` helper
    (also used by the full-ranking and serving train-item masks),
    keeping this module's historical tuple return shape.
    """
    gathered = gather_ragged_rows(indptr, nodes)
    return gathered.positions, gathered.counts, gathered.offsets


def _sorted_unique(values: np.ndarray, domain: int) -> np.ndarray:
    """Sorted unique ids via a bitmask over the (small) id domain.

    O(domain + len(values)) instead of ``np.unique``'s sort — node id
    domains are graph-sized, far smaller than the gathered edge lists.
    """
    mask = np.zeros(domain, dtype=bool)
    mask[values] = True
    return np.flatnonzero(mask).astype(index_dtype_for(domain))


def _neighbors_fast(matrix: sp.csr_matrix, nodes: np.ndarray,
                    fanout: Optional[int],
                    rng: np.random.Generator) -> np.ndarray:
    """Union of (possibly subsampled) neighbour sets — no Python loop.

    All rows are gathered with one ragged CSR gather; fan-out capping
    draws uniform random sort keys per edge and keeps each node's first
    ``fanout`` edges in key order — uniform sampling without replacement
    for every node simultaneously.
    """
    if len(nodes) == 0:
        return _EMPTY
    positions, counts, offsets = _ragged_gather(matrix.indptr, nodes)
    if positions.size == 0:
        return _EMPTY
    if fanout is None or int(counts.max()) <= fanout:
        return _sorted_unique(matrix.indices[positions], matrix.shape[1])
    total = positions.size
    # Composite sort key: the integer owner id majors, the random key in
    # [0, 1) minors — one float argsort instead of a two-key lexsort.
    owners = np.repeat(np.arange(len(nodes), dtype=np.float64), counts)
    order = np.argsort(owners + rng.random(total))
    # After the per-owner shuffle the group sizes are unchanged, so the
    # rank of slot j within its owner is j - offsets[owner].
    ranks = np.arange(total) - np.repeat(offsets, counts)
    kept = positions[order[ranks < fanout]]
    return _sorted_unique(matrix.indices[kept], matrix.shape[1])


_NeighborFn = Callable[[sp.csr_matrix, np.ndarray, Optional[int],
                        np.random.Generator], np.ndarray]


def _expand(graph: CollaborativeHeteroGraph, seed_users: np.ndarray,
            seed_items: np.ndarray, hops: int, fanout: Optional[int],
            seed: int, neighbors: _NeighborFn
            ) -> Tuple[np.ndarray, np.ndarray]:
    """The hop rule, parameterized by the neighbour gatherer so the
    test suite can run it on its per-node loop oracle."""
    rng = np.random.default_rng(seed)
    users = np.unique(as_index_array(
        check_ids(seed_users, graph.num_users, "seed user"), graph.num_users))
    items = np.unique(as_index_array(
        check_ids(seed_items, graph.num_items, "seed item"), graph.num_items))
    # Matrices are canonically CSR already; transposes are memoized so
    # repeated batch sampling does not rebuild them.
    interaction = graph.interaction
    interaction_t = cached_transpose(interaction)
    social = graph.social
    item_relation = graph.item_relation
    relation_item = cached_transpose(item_relation)
    user_mask = np.zeros(graph.num_users, dtype=bool)
    item_mask = np.zeros(graph.num_items, dtype=bool)
    for _ in range(hops):
        social_users = neighbors(social, users, fanout, rng)
        item_users = neighbors(interaction_t, items, fanout, rng)
        relations = neighbors(item_relation, items, fanout, rng)
        user_items = neighbors(interaction, users, fanout, rng)
        relation_items = neighbors(relation_item, relations, fanout, rng)
        # Mask-based unions: O(num nodes) and already sorted on read-out.
        user_mask[users] = True
        user_mask[social_users] = True
        user_mask[item_users] = True
        item_mask[items] = True
        item_mask[user_items] = True
        item_mask[relation_items] = True
        users = np.flatnonzero(user_mask).astype(
            index_dtype_for(graph.num_users))
        items = np.flatnonzero(item_mask).astype(
            index_dtype_for(graph.num_items))
    return users, items


def expand_neighborhood(graph: CollaborativeHeteroGraph,
                        seed_users: np.ndarray, seed_items: np.ndarray,
                        hops: int = 2, fanout: Optional[int] = None,
                        seed: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """L-hop user/item closure of the seeds through ``S``, ``Y`` and ``T``.

    Each hop adds: social neighbours of current users, items of current
    users, users of current items, and relation-co-members of current
    items (I → R → I in one round; relation nodes are few and are always
    all kept, so they need no explicit tracking).  ``fanout`` caps the
    neighbours drawn per node per relation — uniform neighbour sampling.

    Fully vectorized (ragged CSR gathers plus one argsort for fan-out
    capping).  A seed id outside the graph raises ``ValueError``.
    """
    return _expand(graph, seed_users, seed_items, hops, fanout, seed,
                   _neighbors_fast)


# ----------------------------------------------------------------------
# Local id maps
# ----------------------------------------------------------------------
def _local_lookup(ids: np.ndarray, size: int) -> np.ndarray:
    """Dense global→local id table (``-1`` marks absent globals).

    The table is O(global domain) per view, so it follows the engine
    index policy — int32 halves the per-batch lookup footprint.
    """
    dtype = index_dtype_for(size)
    lut = np.full(size, -1, dtype=dtype)
    lut[ids] = np.arange(len(ids), dtype=dtype)
    return lut


def _local_rows(lut: np.ndarray, global_ids: np.ndarray,
                kind: str) -> np.ndarray:
    """Map global ids to local rows; ``KeyError`` for any id not in the view.

    Ids outside ``[0, len(lut))`` are not in the view either; they are
    checked before the lookup, which would read a negative id from the
    table's end.
    """
    ids = as_index_array(global_ids, len(lut))
    outside = (ids < 0) | (ids >= len(lut))
    local = lut[np.where(outside, 0, ids)]
    missing = outside | (local < 0)
    if missing.any():
        raise KeyError(f"{kind} ids not present in the subgraph view: "
                       f"{np.unique(ids[missing])[:8].tolist()}")
    return local


# ----------------------------------------------------------------------
# Lightweight subgraph views (the fast minibatch path)
# ----------------------------------------------------------------------
def _induced_csr(matrix: sp.csr_matrix, rows: Optional[np.ndarray],
                 col_lut: np.ndarray, num_cols: int) -> sp.csr_matrix:
    """Slice ``matrix[rows][:, cols]`` in one ragged CSR pass.

    ``rows=None`` keeps every row (used for relation-node rows, which
    are never subsampled).  ``col_lut`` maps global column ids to local
    ones with ``-1`` for columns outside the induced set.  Because the
    induced id arrays are sorted, the local mapping preserves each row's
    column order, so the result has sorted indices and per-row summation
    order identical to the parent's — the property the exactness parity
    tests rely on.
    """
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    if rows is None:
        num_rows = matrix.shape[0]
        counts = np.diff(indptr)
        gathered_cols = indices
        gathered_data = data
    else:
        num_rows = len(rows)
        positions, counts, _ = _ragged_gather(indptr, rows)
        gathered_cols = indices[positions]
        gathered_data = data[positions]
    local_cols = col_lut[gathered_cols]
    keep = local_cols >= 0
    owners = np.repeat(np.arange(num_rows), counts)
    kept_counts = np.bincount(owners[keep], minlength=num_rows)
    kept_cols = local_cols[keep]
    index_dtype = index_dtype_for(max(num_cols, int(kept_cols.size)))
    new_indptr = np.concatenate(([0], np.cumsum(kept_counts))).astype(
        index_dtype)
    return sp.csr_matrix(
        (gathered_data[keep], kept_cols.astype(index_dtype, copy=False),
         new_indptr),
        shape=(num_rows, num_cols))


# Normalized views a SubgraphView can serve, with their row/column node
# spaces.  Each is sliced from the *parent's* cached view of the same
# name, lazily, on first attribute access.
_VIEW_SPECS: Dict[str, Tuple[Optional[str], str]] = {
    # DGNN (Eqs. 4-6, 9)
    "user_social_joint": ("user", "user"),
    "user_item_joint": ("user", "item"),
    "item_user_joint": ("item", "user"),
    "item_relation_joint": ("item", "relation"),
    "relation_item_mean": (None, "item"),  # all relation rows kept
    "social_self_loop_mean": ("user", "user"),
    # Baselines
    "user_item_mean": ("user", "item"),
    "item_user_mean": ("item", "user"),
    "social_mean": ("user", "user"),
    "social_sym": ("user", "user"),
    "item_relation_mean": ("item", "relation"),
    "bipartite_norm": ("joint", "joint"),
    "item_context": ("item", "item"),
}


class SubgraphView:
    """Induced normalized adjacencies sliced straight from the parent.

    The minibatch path: a view gathers rows of the parent's
    already-normalized, already-cached matrices and remaps columns
    through a dense lookup — one ragged CSR pass per adjacency, built
    lazily only for the adjacencies the active model's layer stack
    touches.

    Because entries keep their full-graph normalization weights, running
    a model's layer stack on the view over the *uncapped* L-hop closure
    reproduces full-graph propagation on the batch rows exactly (the
    parity tests assert this); a capped fan-out trades that exactness
    for per-batch cost, GraphSAGE-style.

    The view deliberately quacks like the adjacency surface of
    :class:`~repro.graph.hetero.CollaborativeHeteroGraph`: models address
    it through the same attribute names and ``num_*`` counts.
    """

    def __init__(self, parent: CollaborativeHeteroGraph,
                 user_ids: np.ndarray, item_ids: np.ndarray):
        self._views: Dict[str, sp.csr_matrix] = {}
        self.parent = parent
        self.user_ids = np.unique(as_index_array(user_ids, parent.num_users))
        self.item_ids = np.unique(as_index_array(item_ids, parent.num_items))
        if self.user_ids.size == 0 or self.item_ids.size == 0:
            raise ValueError("subgraph view needs at least one user and item")
        if self.user_ids[0] < 0 or self.user_ids[-1] >= parent.num_users:
            raise ValueError("user ids outside the parent graph")
        if self.item_ids[0] < 0 or self.item_ids[-1] >= parent.num_items:
            raise ValueError("item ids outside the parent graph")
        self.num_users = len(self.user_ids)
        self.num_items = len(self.item_ids)
        self.num_relations = parent.num_relations
        self._user_lut = _local_lookup(self.user_ids, parent.num_users)
        self._item_lut = _local_lookup(self.item_ids, parent.num_items)

    # -- id maps -------------------------------------------------------
    def local_users(self, global_users: np.ndarray) -> np.ndarray:
        """Map global user ids to local rows (raises if absent)."""
        return _local_rows(self._user_lut, global_users, "user")

    def local_items(self, global_items: np.ndarray) -> np.ndarray:
        """Map global item ids to local rows (raises if absent)."""
        return _local_rows(self._item_lut, global_items, "item")

    # -- lazy sliced views ---------------------------------------------
    def _row_ids(self, space: Optional[str]) -> Optional[np.ndarray]:
        if space is None:
            return None
        if space == "user":
            return self.user_ids
        if space == "item":
            return self.item_ids
        return np.concatenate(
            [self.user_ids, self.parent.num_users + self.item_ids])

    def _col_lut(self, space: str) -> Tuple[np.ndarray, int]:
        if space == "user":
            return self._user_lut, self.num_users
        if space == "item":
            return self._item_lut, self.num_items
        if space == "relation":
            return (np.arange(self.num_relations,
                              dtype=index_dtype_for(self.num_relations)),
                    self.num_relations)
        joint = np.concatenate(
            [self._user_lut,
             np.where(self._item_lut >= 0, self._item_lut + self.num_users,
                      -1)])
        return joint, self.num_users + self.num_items

    def __getattr__(self, name: str) -> sp.csr_matrix:
        spec = _VIEW_SPECS.get(name)
        if spec is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        cached = self._views.get(name)
        if cached is None:
            row_space, col_space = spec
            col_lut, num_cols = self._col_lut(col_space)
            cached = _induced_csr(getattr(self.parent, name),
                                  self._row_ids(row_space), col_lut, num_cols)
            self._views[name] = cached
        return cached

    def materialized_views(self) -> Tuple[str, ...]:
        """Names of the adjacencies built so far (introspection/tests)."""
        return tuple(sorted(self._views))

    def __repr__(self) -> str:
        return (f"SubgraphView(users={self.num_users}, items={self.num_items},"
                f" relations={self.num_relations},"
                f" views={list(self.materialized_views())})")


def sample_subgraph_view(graph: CollaborativeHeteroGraph,
                         seed_users: np.ndarray, seed_items: np.ndarray,
                         hops: int = 2, fanout: Optional[int] = None,
                         seed: int = 0) -> SubgraphView:
    """Expand the seeds and wrap the closure in a view — one call."""
    user_ids, item_ids = expand_neighborhood(
        graph, seed_users, seed_items, hops=hops, fanout=fanout, seed=seed)
    return SubgraphView(graph, user_ids, item_ids)

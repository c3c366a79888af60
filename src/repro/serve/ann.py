"""Approximate nearest-neighbour retrieval over the item embeddings.

Exact serving scores every item per user — an ``(b, num_items)`` GEMM.
Past ~10k items the matmul dominates request latency, so this module
provides the classic sublinear alternative in pure numpy, an **IVF**
(inverted file) index: k-means partitions the items into
``num_cells ≈ sqrt(n)`` Voronoi cells; a query scores only the items
inside its ``nprobe`` nearest cells.  Recall tracks how well the
embedding geometry clusters — trained social-recommendation embeddings
cluster by community, which is exactly what IVF exploits.

The serving-side structure is :class:`CoarseIndex`: items grouped by
cell into one C-contiguous embedding matrix (so a probe scores a
*contiguous slice* — full BLAS efficiency, no gather per query) plus a
CSR-style ``indptr``.  Cells partition the items, so candidates from
distinct probed cells never collide and need no dedup.

Determinism: the builder is a pure function of the embeddings and its
``seed`` (k-means init comes from a local ``default_rng``), so
rebuilding an index on the same snapshot yields identical cells and
identical served results.  The tuning knobs — ``num_cells`` and
``nprobe`` (recall rises with ``nprobe``, cost with candidate volume
≈ ``nprobe/num_cells``) — are exposed through ``RecommendService``.
``perfbench`` measures IVF's users/s and recall@20 against exact
serving at its default knobs (see ``perfbench/README.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.engine import backends
from repro.engine.precision import index_dtype_for
from repro.eval.metrics import top_k_indices


@dataclass
class CoarseIndex:
    """Items partitioned into cells, served as contiguous slices.

    ``grouped_ids[indptr[c]:indptr[c+1]]`` are the original item ids of
    cell ``c`` and ``grouped_emb[indptr[c]:indptr[c+1]]`` their
    embeddings, stored C-contiguous in cell order; ``centroids[c]`` is
    the k-means centroid of cell ``c``.
    """

    kind: str
    grouped_ids: np.ndarray
    grouped_emb: np.ndarray
    indptr: np.ndarray
    centroids: Optional[np.ndarray] = None

    @property
    def num_cells(self) -> int:
        return int(len(self.indptr) - 1)

    @property
    def num_items(self) -> int:
        return int(self.grouped_ids.size)

    def cell_sizes(self) -> np.ndarray:
        return np.diff(self.indptr)

    def probe(self, queries: np.ndarray, nprobe: int) -> np.ndarray:
        """Cell ids to search per query, ``(len(queries), nprobe)``.

        IVF ranks cells by centroid inner product (the same similarity
        the scorer uses).
        """
        queries = np.asarray(queries)
        if queries.ndim == 1:
            queries = queries[None, :]
        nprobe = min(int(nprobe), self.num_cells)
        if self.kind == "ivf":
            affinity = queries @ self.centroids.T
            return top_k_indices(affinity, nprobe)
        raise ValueError(f"unknown index kind {self.kind!r}")


def _group_by_cell(item_emb: np.ndarray,
                   assign: np.ndarray,
                   num_cells: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort items by cell; return (grouped_ids, grouped_emb, indptr)."""
    order = np.argsort(assign, kind="stable")
    grouped_ids = order.astype(index_dtype_for(item_emb.shape[0]))
    grouped_emb = np.ascontiguousarray(item_emb[order])
    counts = np.bincount(assign, minlength=num_cells)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return grouped_ids, grouped_emb, indptr


def _kmeans(item_emb: np.ndarray, num_cells: int, iters: int,
            rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """Lloyd's k-means (Euclidean) with empty-cell reseeding.

    Runs in the embeddings' own dtype.  Distance uses the expanded
    ``|x|^2 - 2 x·c + |c|^2`` form so each iteration is one GEMM; the
    per-cell sums are one engine ``segment_sum`` (bitwise equal to an
    ``np.add.at`` scatter).
    """
    n = item_emb.shape[0]
    centroids = item_emb[rng.choice(n, size=num_cells, replace=False)].copy()
    assign = np.zeros(n, dtype=np.int64)
    for _ in range(iters):
        # |x|^2 is constant per item — argmin doesn't need it.
        dist = (-2.0 * (item_emb @ centroids.T)
                + (centroids * centroids).sum(axis=1)[None, :])
        assign = dist.argmin(axis=1)
        counts = np.bincount(assign, minlength=num_cells)
        sums = backends.segment_sum(item_emb, assign, num_cells)
        occupied = counts > 0
        centroids[occupied] = (sums[occupied]
                               / counts[occupied, None].astype(item_emb.dtype))
        empty = np.flatnonzero(~occupied)
        if empty.size:
            # Reseed empty cells from the items farthest from their
            # centroid, splitting the most spread-out cells.
            spread = dist[np.arange(n), assign]
            centroids[empty] = item_emb[np.argsort(-spread)[:empty.size]]
    return centroids, assign


def build_ivf_index(item_emb: np.ndarray, num_cells: Optional[int] = None,
                    iters: int = 10, seed: int = 0) -> CoarseIndex:
    """K-means inverted-file index over the item embeddings.

    ``num_cells`` defaults to ``≈ sqrt(num_items)`` — the standard IVF
    balance point where probing ``nprobe`` cells scores
    ``≈ nprobe * sqrt(n)`` candidates.
    """
    item_emb = np.ascontiguousarray(item_emb)
    n = item_emb.shape[0]
    if num_cells is None:
        num_cells = max(1, int(round(np.sqrt(n))))
    num_cells = min(int(num_cells), n)
    rng = np.random.default_rng(seed)
    centroids, assign = _kmeans(item_emb, num_cells, iters, rng)
    grouped_ids, grouped_emb, indptr = _group_by_cell(item_emb, assign,
                                                      num_cells)
    return CoarseIndex(kind="ivf", grouped_ids=grouped_ids,
                       grouped_emb=grouped_emb, indptr=indptr,
                       centroids=centroids)


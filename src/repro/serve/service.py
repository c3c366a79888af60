"""Batched recommendation serving over an :class:`EmbeddingSnapshot`.

:class:`RecommendService` is the request-path counterpart of
:func:`repro.eval.full_ranking.full_ranking_topk`, wired for online use —

* ``retrieval="exact"`` answers warm users with
  :func:`repro.eval.full_ranking.exact_topk`, the scorer evaluation
  uses, so the two agree bitwise by construction;
* ``retrieval="ivf"`` swaps the full ``(b, num_items)`` GEMM for
  per-cell GEMMs over the probed cells of a
  :class:`repro.serve.ann.CoarseIndex` — sublinear in the catalogue
  size, with an :func:`~repro.eval.full_ranking.exact_topk` fallback for
  any user whose probed cells yield fewer than ``k`` unmasked
  candidates.  Requests are coalesced into
  :data:`~repro.eval.full_ranking.BLOCK_USERS`-user blocks, as exact
  scoring is;
* users with social edges but no train interactions are auto-detected
  from the snapshot CSRs and embedded by :func:`cold_user_embedding`, a
  social-mean approximation read from the snapshot alone (the exact
  cold start, :mod:`repro.models.coldstart`, needs the live model);
* :meth:`RecommendService.swap` atomically replaces the snapshot (and
  rebuilds the index) under a lock while in-flight requests keep
  serving the version they started with.  Every answer, cold ones
  included, reads one snapshot and nothing else.

In ``"exact"`` mode the results are *bitwise identical* to
``full_ranking_topk`` on the live model: one scorer, the snapshot
stores the embeddings uncast, and the mask content is the same CSR.
The ANN modes are deterministic given the index's build seed but trade
that exactness for sublinear cost (recall@20 against exact is gated by
``perfbench``).  Knobs: ``retrieval`` and the index parameters
forwarded to :mod:`repro.serve.ann`.  The request path allocates with
plain numpy, so no engine environment variable changes it.
"""

from __future__ import annotations

import threading
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.eval import full_ranking
from repro.eval.metrics import top_k_indices
from repro.serve.ann import CoarseIndex, build_ivf_index
from repro.serve.snapshot import EmbeddingSnapshot

RETRIEVAL_MODES = ("exact", "ivf")


def cold_user_embedding(snapshot: EmbeddingSnapshot,
                        friend_ids: Sequence[int]) -> np.ndarray:
    """Snapshot-only cold-user vector: the friends' final-embedding mean.

    :func:`repro.models.coldstart.embed_cold_user` re-runs the trained
    propagation operators and is exact, but needs the live model; this
    approximation needs nothing but the snapshot.  When the snapshot was
    taken from a τ-recalibrated model the friends' final embeddings
    already include their own τ (which doubles their pre-τ state), so
    the mean is scaled by 1.5 to approximate ``state + τ/2`` — a
    zeroth-order stand-in for the real recalibration.
    """
    friend_ids = np.asarray(list(friend_ids), dtype=np.int64)
    if friend_ids.size == 0:
        raise ValueError("cold-start user needs at least one social tie")
    if friend_ids.min() < 0 or friend_ids.max() >= snapshot.num_users:
        raise ValueError("friend id out of range")
    vector = np.asarray(snapshot.user_emb[friend_ids]).mean(axis=0)
    if snapshot.meta.get("tau"):
        vector = vector * np.asarray(1.5, dtype=vector.dtype)
    return vector.astype(snapshot.user_emb.dtype, copy=False)


def topk_recall(approx: np.ndarray, exact: np.ndarray) -> float:
    """Mean fraction of each exact top-k recovered by the approx top-k."""
    approx = np.asarray(approx, dtype=np.int64)
    exact = np.asarray(exact, dtype=np.int64)
    if approx.shape != exact.shape:
        raise ValueError(f"shape mismatch: {approx.shape} vs {exact.shape}")
    if exact.size == 0:
        return 1.0
    # Offset each row into a disjoint key range so one global
    # searchsorted answers every row's membership test.
    span = int(max(approx.max(), exact.max())) + 1
    offsets = np.arange(exact.shape[0], dtype=np.int64)[:, None] * span
    exact_keys = np.sort(exact + offsets, axis=1).ravel()
    approx_keys = (approx + offsets).ravel()
    pos = np.clip(np.searchsorted(exact_keys, approx_keys), 0,
                  exact_keys.size - 1)
    hits = (exact_keys[pos] == approx_keys) & (approx.ravel() >= 0)
    return float(hits.sum() / exact.size)


def _cold_topk(snapshot: EmbeddingSnapshot,
               friend_lists: Sequence[Sequence[int]], k: int) -> np.ndarray:
    """Top-``k`` per friend list: :func:`cold_user_embedding`, exact-scored
    against ``snapshot``'s items with no train mask.

    Always exact — an ANN index probed with an out-of-distribution
    social-mean vector is the worst case for recall, and cold users are
    rare enough that the full GEMM is cheap.
    """
    vectors = np.stack([cold_user_embedding(snapshot, friends)
                        for friends in friend_lists])
    return top_k_indices(vectors @ np.asarray(snapshot.item_emb).T, k)


class _ServingState(NamedTuple):
    """Everything one request reads, swapped as a unit."""

    snapshot: EmbeddingSnapshot
    index: Optional[CoarseIndex]
    train_keys: np.ndarray          # sorted user*num_items+item pair keys


class RecommendService:
    """Batched top-k recommendations from a published snapshot.

    Parameters
    ----------
    snapshot:
        The :class:`EmbeddingSnapshot` to serve (typically
        ``store.load_latest()``).
    retrieval:
        ``"exact"`` (score every item) or ``"ivf"``.
    nprobe:
        Cells probed per user in ``"ivf"`` mode.  Must be positive.
    num_cells:
        Index-build knob forwarded to :func:`build_ivf_index`
        (``None`` → ``≈ sqrt(n)``).
    seed:
        Index-build seed forwarded to :func:`build_ivf_index`.

    Each user's train items are excluded from their results, and users
    with social ties but no train interactions are embedded by
    :func:`cold_user_embedding`.
    """

    def __init__(self, snapshot: EmbeddingSnapshot, retrieval: str = "exact",
                 nprobe: int = 8, num_cells: Optional[int] = None,
                 seed: int = 0):
        if retrieval not in RETRIEVAL_MODES:
            raise ValueError(f"retrieval must be one of {RETRIEVAL_MODES}, "
                             f"got {retrieval!r}")
        if nprobe <= 0:
            raise ValueError(f"nprobe must be positive, got {nprobe}")
        self.retrieval = retrieval
        self.nprobe = int(nprobe)
        self.num_cells = num_cells
        self.seed = int(seed)
        self._lock = threading.Lock()
        self.stats: Dict[str, int] = {"requests": 0, "users": 0,
                                      "cold_users": 0, "fallback_rows": 0,
                                      "swaps": 0}
        self._state = self._build_state(snapshot)

    # -- lifecycle -----------------------------------------------------
    @property
    def snapshot(self) -> EmbeddingSnapshot:
        return self._state.snapshot

    @property
    def index(self) -> Optional[CoarseIndex]:
        return self._state.index

    def _build_state(self, snapshot: EmbeddingSnapshot) -> _ServingState:
        item_emb = np.asarray(snapshot.item_emb)
        if self.retrieval == "ivf":
            index = build_ivf_index(item_emb, num_cells=self.num_cells,
                                    seed=self.seed)
        else:
            index = None
        # Global (user, item) pair keys of the train CSR.  Rows ascend
        # and indices are sorted within each row, so the keys come out
        # globally sorted — searchsorted membership, no extra sort.
        counts = np.diff(snapshot.train_indptr).astype(np.int64)
        owners = np.repeat(np.arange(snapshot.num_users, dtype=np.int64),
                           counts)
        train_keys = (owners * snapshot.num_items
                      + snapshot.train_indices.astype(np.int64))
        return _ServingState(snapshot=snapshot, index=index,
                             train_keys=train_keys)

    def swap(self, snapshot: EmbeddingSnapshot) -> None:
        """Atomically switch to ``snapshot`` (rebuilds the ANN index).

        In-flight ``recommend`` calls finish on the state they captured
        at entry; calls that start after ``swap`` returns see only the
        new snapshot.
        """
        state = self._build_state(snapshot)
        with self._lock:
            self._state = state
            self.stats["swaps"] += 1

    def refresh(self, store) -> bool:
        """Swap to ``store.load_latest()`` if it is a newer version."""
        latest = store.latest_version()
        if latest is None or latest == self._state.snapshot.version:
            return False
        self.swap(store.load(latest))
        return True

    # -- request path --------------------------------------------------
    def recommend(self, user_ids: Sequence[int], k: int = 10) -> np.ndarray:
        """Top-``k`` item ids per user, ``(len(user_ids), k)``, best first.

        Warm users are scored through the configured retrieval mode;
        cold users (social ties, no train interactions) are embedded via
        the cold path and exact-scored.  Raises ``ValueError`` for a user
        id outside ``[0, num_users)`` and for ``k`` below 1.
        """
        state = self._state
        snapshot = state.snapshot
        user_ids = np.asarray(user_ids, dtype=np.int64)
        if user_ids.ndim != 1:
            raise ValueError("user_ids must be 1-D")
        cold = snapshot.cold_user_mask(user_ids)
        k = min(int(k), snapshot.num_items)
        if k <= 0:
            raise ValueError("k must be positive")
        results = np.empty((len(user_ids), k), dtype=np.int64)
        warm_pos = np.flatnonzero(~cold)
        cold_pos = np.flatnonzero(cold)

        fallback_rows = 0
        if state.index is None:
            results[warm_pos] = self._recommend_exact(state,
                                                      user_ids[warm_pos], k)
        else:
            step = full_ranking.BLOCK_USERS
            for start in range(0, len(warm_pos), step):
                block_pos = warm_pos[start:start + step]
                block_top, fallback = self._recommend_ann(
                    state, user_ids[block_pos], k)
                results[block_pos] = block_top
                fallback_rows += fallback
        if cold_pos.size:
            results[cold_pos] = _cold_topk(
                snapshot, [snapshot.social_row(user)
                           for user in user_ids[cold_pos]], k)
        # Concurrent callers share ``stats``: one locked update per call.
        with self._lock:
            self.stats["requests"] += 1
            self.stats["users"] += len(user_ids)
            self.stats["cold_users"] += int(cold_pos.size)
            self.stats["fallback_rows"] += fallback_rows
        return results

    def recommend_cold_user(self, friend_ids: Sequence[int],
                            k: int = 10) -> np.ndarray:
        """Top-``k`` for a brand-new user known only through friends.

        The same path as a cold user's answer in :meth:`recommend`: the
        :func:`cold_user_embedding` of ``friend_ids``, exact-scored
        against the served snapshot.
        """
        snapshot = self._state.snapshot
        return _cold_topk(snapshot, [friend_ids],
                          min(int(k), snapshot.num_items))[0]

    # -- scoring paths -------------------------------------------------
    def _recommend_exact(self, state: _ServingState, users: np.ndarray,
                         k: int) -> np.ndarray:
        """Exact top-``k``: ``full_ranking.exact_topk`` over the snapshot."""
        snapshot = state.snapshot
        return full_ranking.exact_topk(
            snapshot.user_emb, snapshot.item_emb, users,
            snapshot.train_indptr, snapshot.train_indices, k)

    def _recommend_ann(self, state: _ServingState, block_users: np.ndarray,
                       k: int) -> Tuple[np.ndarray, int]:
        """ANN top-``k`` for one block, plus its exact-fallback row count."""
        snapshot, index = state.snapshot, state.index
        b = len(block_users)
        user_block = np.ascontiguousarray(snapshot.user_emb[block_users])
        probes = index.probe(user_block, self.nprobe)        # (b, nprobe)
        nprobe = probes.shape[1]
        indptr = index.indptr
        max_len = int(np.diff(indptr)[probes].max())

        cand_scores = np.full((b, nprobe, max_len), -np.inf,
                              dtype=snapshot.user_emb.dtype)
        cand_ids = np.full((b, nprobe, max_len), -1, dtype=np.int64)

        # Group (user, probe-slot) pairs by probed cell so each cell is
        # one contiguous-slice GEMM over every user that probes it.
        pair_rows = np.repeat(np.arange(b), nprobe)
        pair_slots = np.tile(np.arange(nprobe), b)
        cells, inverse = np.unique(probes.ravel(), return_inverse=True)
        order = np.argsort(inverse, kind="stable")
        counts = np.bincount(inverse, minlength=len(cells))
        starts = np.concatenate(([0], np.cumsum(counts)))
        for ci in range(len(cells)):
            members = order[starts[ci]:starts[ci + 1]]
            lo, hi = int(indptr[cells[ci]]), int(indptr[cells[ci] + 1])
            if hi == lo:
                continue
            rows = pair_rows[members]
            seg_scores = user_block[rows] @ index.grouped_emb[lo:hi].T
            cand_scores[rows, pair_slots[members], :hi - lo] = seg_scores
            cand_ids[rows, pair_slots[members], :hi - lo] = \
                index.grouped_ids[lo:hi]

        flat_scores = cand_scores.reshape(b, nprobe * max_len)
        flat_ids = cand_ids.reshape(b, nprobe * max_len)
        if flat_scores.shape[1] < k:
            # Probed cells cannot even hold k candidates (thin cells):
            # the whole block goes exact.
            return self._recommend_exact(state, block_users, k), b
        if state.train_keys.size:
            keys = block_users[:, None] * snapshot.num_items + flat_ids
            pos = np.clip(np.searchsorted(state.train_keys, keys), 0,
                          state.train_keys.size - 1)
            is_train = (state.train_keys[pos] == keys) & (flat_ids >= 0)
            flat_scores[is_train] = -np.inf

        top = top_k_indices(flat_scores, k)
        top_ids = np.take_along_axis(flat_ids, top, axis=-1)
        top_scores = np.take_along_axis(flat_scores, top, axis=-1)

        # A -inf (or id -1) in the selection means the probed cells held
        # fewer than k unmasked candidates — rescore those rows exactly.
        short = ~np.isfinite(top_scores).all(axis=-1)
        if short.any():
            top_ids[short] = self._recommend_exact(state, block_users[short],
                                                   k)
        return top_ids, int(short.sum())

    def __repr__(self) -> str:
        state = self._state
        return (f"RecommendService(retrieval={self.retrieval!r}, "
                f"snapshot={state.snapshot.version!r}, stats={self.stats})")

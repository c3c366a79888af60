"""The id-permutation boundary: relabeling must be externally invisible.

Property under test (the locality pass's correctness contract): for a
*fixed* model state, every external surface — full-ranking metrics,
batched top-k, the serving snapshot and ``RecommendService`` — produces
identical results whether the graph was trained in original id order or
under any node relabeling, because every boundary maps internal ids
back through the :class:`NodePermutation`.

Per-pair scores are dot products of per-node vectors, so they are
independent of row *layout*; under a relabeled split with
correspondingly permuted embedding tables the score of (original user
u, original item i) is bitwise the same float.  Metrics are therefore
bitwise equal and top-k id sets identical — which is what these tests
pin down, strategy by strategy.
"""

import numpy as np
import pytest

from repro.data import PRESETS, leave_one_out
from repro.engine.precision import use_index_dtype
from repro.eval.full_ranking import evaluate_full_ranking, full_ranking_topk
from repro.graph.reorder import (
    REORDER_STRATEGIES,
    NodePermutation,
    build_permutation,
    reorder_split,
)
from repro.serve import EmbeddingSnapshot, RecommendService
from repro.train import TrainConfig
from repro.train.checkpoint import load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def base_split():
    dataset = PRESETS["tiny"](seed=0)
    return leave_one_out(dataset, seed=0)


class _FixedModel:
    """Frozen embedding tables standing in for a trained model."""

    name = "fixed"
    embed_dim = 8

    def __init__(self, user_emb, item_emb, graph=None):
        self._user_emb = user_emb
        self._item_emb = item_emb
        self.graph = graph

    def final_embeddings(self):
        return self._user_emb, self._item_emb

    def state_dict(self):
        return {"user_emb": self._user_emb, "item_emb": self._item_emb}


def _fixed_tables(split, seed=7):
    rng = np.random.default_rng(seed)
    num_users = split.dataset.num_users
    num_items = split.dataset.num_items
    return (rng.standard_normal((num_users, 8)),
            rng.standard_normal((num_items, 8)))


# ----------------------------------------------------------------------
# Permutation object basics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", REORDER_STRATEGIES)
def test_build_permutation_is_a_bijection(base_split, strategy):
    perm = build_permutation(base_split.dataset, strategy,
                             train_pairs=base_split.train_pairs)
    num_users = base_split.dataset.num_users
    num_items = base_split.dataset.num_items
    assert sorted(perm.user_perm.tolist()) == list(range(num_users))
    assert sorted(perm.item_perm.tolist()) == list(range(num_items))
    users = np.arange(num_users)
    items = np.arange(num_items)
    np.testing.assert_array_equal(perm.original_users(perm.map_users(users)),
                                  users)
    np.testing.assert_array_equal(perm.original_items(perm.map_items(items)),
                                  items)


def test_permute_restore_rows_roundtrip(base_split):
    perm = build_permutation(base_split.dataset, "rcm",
                             train_pairs=base_split.train_pairs)
    table = np.random.default_rng(0).standard_normal(
        (base_split.dataset.num_users, 4))
    np.testing.assert_array_equal(
        perm.restore_user_rows(perm.permute_user_rows(table)), table)
    # Row r of the permuted table is original node original_users(r).
    permuted = perm.permute_user_rows(table)
    internal = perm.map_users(np.array([3]))[0]
    np.testing.assert_array_equal(permuted[internal], table[3])


def test_to_from_arrays_roundtrip(base_split):
    perm = build_permutation(base_split.dataset, "rcm",
                             train_pairs=base_split.train_pairs)
    rebuilt = NodePermutation.from_arrays(perm.to_arrays(), strategy="rcm")
    np.testing.assert_array_equal(rebuilt.user_perm, perm.user_perm)
    np.testing.assert_array_equal(rebuilt.item_perm, perm.item_perm)
    assert rebuilt.strategy == "rcm"


def test_reorder_split_preserves_held_out_pairs(base_split):
    split, perm = reorder_split(base_split, "rcm")
    np.testing.assert_array_equal(perm.original_users(split.test_users),
                                  base_split.test_users)
    np.testing.assert_array_equal(perm.original_items(split.test_items),
                                  base_split.test_items)
    # Same training pairs as sets of (original user, original item).
    base_pairs = set(map(tuple, base_split.train_pairs))
    relabeled = np.column_stack([
        perm.original_users(split.train_pairs[:, 0]),
        perm.original_items(split.train_pairs[:, 1])])
    assert set(map(tuple, relabeled)) == base_pairs


def test_unknown_strategy_is_rejected(base_split):
    with pytest.raises((KeyError, ValueError)):
        reorder_split(base_split, "zigzag")


# ----------------------------------------------------------------------
# External boundaries: metrics, top-k, serving
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", ["rcm"])
def test_full_ranking_metrics_invariant_under_relabeling(base_split, strategy):
    user_emb, item_emb = _fixed_tables(base_split)
    reference = evaluate_full_ranking(_FixedModel(user_emb, item_emb),
                                      base_split, ks=(5, 10))
    split, perm = reorder_split(base_split, strategy)
    model = _FixedModel(perm.permute_user_rows(user_emb),
                        perm.permute_item_rows(item_emb))
    relabeled = evaluate_full_ranking(model, split, ks=(5, 10))
    assert relabeled == reference  # bitwise, not approx


@pytest.mark.parametrize("strategy", ["rcm"])
def test_topk_sets_invariant_under_relabeling(base_split, strategy):
    user_emb, item_emb = _fixed_tables(base_split)
    check_users = np.arange(0, base_split.dataset.num_users, 3)
    reference = full_ranking_topk(_FixedModel(user_emb, item_emb),
                                  base_split, users=check_users, top_n=5)
    split, perm = reorder_split(base_split, strategy)
    model = _FixedModel(perm.permute_user_rows(user_emb),
                        perm.permute_item_rows(item_emb))
    # users passed in original ids; items returned in original ids.
    relabeled = full_ranking_topk(model, split, users=check_users, top_n=5,
                                  permutation=perm)
    for row_ref, row_new in zip(reference, relabeled):
        assert set(row_ref) == set(row_new)


@pytest.mark.parametrize("strategy", ["rcm"])
def test_snapshot_and_service_speak_original_ids(base_split, strategy):
    from repro.graph.hetero import CollaborativeHeteroGraph

    user_emb, item_emb = _fixed_tables(base_split)
    ref_graph = CollaborativeHeteroGraph(base_split.dataset,
                                         base_split.train_pairs)
    ref_snap = EmbeddingSnapshot.from_model(
        _FixedModel(user_emb, item_emb, ref_graph), base_split)
    split, perm = reorder_split(base_split, strategy)
    graph = CollaborativeHeteroGraph(split.dataset, split.train_pairs)
    model = _FixedModel(perm.permute_user_rows(user_emb),
                        perm.permute_item_rows(item_emb), graph)
    snap = EmbeddingSnapshot.from_model(model, split, permutation=perm)
    # The snapshot un-permutes every table and matrix at build time.
    np.testing.assert_array_equal(snap.user_emb, ref_snap.user_emb)
    np.testing.assert_array_equal(snap.item_emb, ref_snap.item_emb)
    np.testing.assert_array_equal(snap.train_indptr, ref_snap.train_indptr)
    np.testing.assert_array_equal(snap.train_indices, ref_snap.train_indices)
    np.testing.assert_array_equal(snap.social_indptr, ref_snap.social_indptr)
    np.testing.assert_array_equal(snap.social_indices,
                                  ref_snap.social_indices)
    ref_service = RecommendService(ref_snap, retrieval="exact", seed=0)
    service = RecommendService(snap, retrieval="exact", seed=0)
    users = list(range(0, base_split.dataset.num_users, 5))
    ref_top = ref_service.recommend(users, k=5)
    top = service.recommend(users, k=5)
    for row_ref, row_new in zip(ref_top, top):
        assert set(row_ref) == set(row_new)


# ----------------------------------------------------------------------
# Checkpoint boundary
# ----------------------------------------------------------------------
def test_checkpoint_roundtrips_the_permutation(base_split, tmp_path):
    split, perm = reorder_split(base_split, "rcm")
    user_emb, item_emb = _fixed_tables(base_split)
    model = _FixedModel(perm.permute_user_rows(user_emb),
                        perm.permute_item_rows(item_emb))
    path = tmp_path / "ckpt.npz"
    save_checkpoint(model, path, epoch=3, permutation=perm)
    state, meta = load_checkpoint(path)
    assert meta["has_permutation"] and meta["reorder_strategy"] == "rcm"
    restored = meta["permutation"]
    np.testing.assert_array_equal(restored.user_perm, perm.user_perm)
    np.testing.assert_array_equal(restored.item_perm, perm.item_perm)
    # Rows stay exactly as the model held them (internal order) and map
    # back to original ids through the stored permutation.
    np.testing.assert_array_equal(
        restored.restore_user_rows(state["user_emb"]), user_emb)


def test_checkpoint_without_permutation_reports_none(base_split, tmp_path):
    user_emb, item_emb = _fixed_tables(base_split)
    path = tmp_path / "plain.npz"
    save_checkpoint(_FixedModel(user_emb, item_emb), path)
    _, meta = load_checkpoint(path)
    assert meta["permutation"] is None
    assert meta["has_permutation"] is False


# ----------------------------------------------------------------------
# Experiment-layer wiring
# ----------------------------------------------------------------------
def test_experiment_context_honours_reorder_env(monkeypatch):
    from repro.experiments import ExperimentContext

    monkeypatch.setenv("REPRO_REORDER", "rcm")
    ctx = ExperimentContext.build("tiny")
    assert ctx.permutation is not None
    assert ctx.permutation.strategy == "rcm"
    # An explicit parameter wins over the environment.
    explicit = ExperimentContext.build("tiny", reorder="identity")
    assert explicit.permutation is None
    monkeypatch.setenv("REPRO_REORDER", "zigzag")
    with pytest.raises(ValueError):
        ExperimentContext.build("tiny")


# ----------------------------------------------------------------------
# TrainConfig knobs
# ----------------------------------------------------------------------
def test_train_config_resolves_reorder_and_block():
    config = TrainConfig(epochs=1, spmm_block=1)
    from repro.engine import locality
    assert config.resolved_spmm_block() == locality.AUTO_BLOCK_BYTES
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, spmm_block=-1)


# ----------------------------------------------------------------------
# int32 index-dtype policy boundary
# ----------------------------------------------------------------------
def test_arrays_roundtrip_under_int32_index_policy(base_split):
    """`to_arrays`/`from_arrays` is exact under the int32 index policy.

    The production int32 policy narrows working index arrays, so a
    permutation may come back from a snapshot as int32; the rebuild
    must still produce the canonical int64 arrays bit for bit, and the
    id mappings must keep working while the policy is active.
    """
    with use_index_dtype("int32"):
        perm = build_permutation(base_split.dataset, "rcm",
                                 train_pairs=base_split.train_pairs)
        arrays = {name: values.astype(np.int32)
                  for name, values in perm.to_arrays().items()}
        rebuilt = NodePermutation.from_arrays(arrays, strategy="rcm")
        assert rebuilt.user_perm.dtype == np.int64
        assert rebuilt.item_perm.dtype == np.int64
        np.testing.assert_array_equal(rebuilt.user_perm, perm.user_perm)
        np.testing.assert_array_equal(rebuilt.item_perm, perm.item_perm)
        users = np.arange(base_split.dataset.num_users, dtype=np.int32)
        np.testing.assert_array_equal(
            rebuilt.original_users(rebuilt.map_users(users)), users)


def test_checkpoint_restores_permutation_under_int32_policy(base_split,
                                                            tmp_path):
    """Checkpoint save→load round-trips the permutation at int32 policy.

    Saving under the default int64 policy and restoring under
    ``REPRO_ENGINE_INDEX_DTYPE=int32`` (and the reverse) must hand back
    the identical permutation and map parameter rows to the same
    original ids — the policy governs working-set width, never the
    persisted arrays.
    """
    split, perm = reorder_split(base_split, "rcm")
    user_emb, item_emb = _fixed_tables(base_split)
    model = _FixedModel(perm.permute_user_rows(user_emb),
                        perm.permute_item_rows(item_emb))

    saved_default = tmp_path / "default_policy.npz"
    save_checkpoint(model, saved_default, epoch=3, permutation=perm)
    with use_index_dtype("int32"):
        saved_narrow = tmp_path / "int32_policy.npz"
        save_checkpoint(model, saved_narrow, epoch=3, permutation=perm)
        for path in (saved_default, saved_narrow):
            state, meta = load_checkpoint(path)
            assert meta["has_permutation"]
            assert meta["reorder_strategy"] == "rcm"
            restored = meta["permutation"]
            np.testing.assert_array_equal(restored.user_perm, perm.user_perm)
            np.testing.assert_array_equal(restored.item_perm, perm.item_perm)
            np.testing.assert_array_equal(
                restored.restore_user_rows(state["user_emb"]), user_emb)

    # The narrow-policy checkpoint also restores under the default.
    state, meta = load_checkpoint(saved_narrow)
    np.testing.assert_array_equal(
        meta["permutation"].restore_item_rows(state["item_emb"]), item_emb)

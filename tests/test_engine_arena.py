"""Buffer-reuse arena: pooling mechanics, bypass threshold, cap, parity.

Five layers of coverage:

* checkout mechanics — recycle-across-scopes, zero-clearing of dirty
  recycled buffers, early ``release`` reuse, and no pooling outside a
  step scope;
* small-buffer bypass — checkouts below ``min_bytes`` never touch the
  pool, so tiny workloads keep stock allocation behaviour;
* capacity — the LRU cap bounds pooled bytes at scope exit;
* defaults — pooling is off in a fresh process; ``REPRO_ENGINE_ARENA=1``
  and ``TrainConfig(arena=True)`` switch it on;
* parity — a short DGNN training run with pooling forced on for every
  buffer is bitwise identical to the default allocate-fresh run.
"""

import contextlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.engine import arena as arena_mod
from repro.engine.arena import (
    BufferArena,
    arena_enabled,
    use_arena,
)
from repro.graph import CollaborativeHeteroGraph
from repro.models import create_model
from repro.nn.optim import Adam
from repro.train import TrainConfig, Trainer

# 512 KB in float64 — comfortably above the default 64 KB bypass.
BIG = (256, 256)


class TestPoolingMechanics:
    def test_no_pooling_outside_scope(self):
        pool = BufferArena(min_bytes=0)
        buf = pool.empty(BIG, np.float64)
        assert buf.shape == BIG
        assert pool.stats()["checked_out"] == 0
        pool.release(buf)  # no-op on buffers the arena does not own
        assert pool.stats()["free_bytes"] == 0

    def test_recycle_and_hit_across_scopes(self):
        pool = BufferArena(min_bytes=0)
        with pool.step_scope():
            first = pool.empty(BIG, np.float64)
        with pool.step_scope():
            second = pool.empty(BIG, np.float64)
        assert second is first
        assert pool.hits == 1 and pool.misses == 1

    def test_zeros_clears_recycled_garbage(self):
        pool = BufferArena(min_bytes=0)
        with pool.step_scope():
            buf = pool.zeros(BIG, np.float64)
            buf[...] = 7.0
        with pool.step_scope():
            again = pool.zeros(BIG, np.float64)
            assert again is buf
            assert not again.any()

    def test_release_enables_reuse_within_step(self):
        pool = BufferArena(min_bytes=0)
        with pool.step_scope():
            buf = pool.empty(BIG, np.float64)
            pool.release(buf)
            assert pool.empty(BIG, np.float64) is buf

    def test_shape_and_dtype_key_separately(self):
        pool = BufferArena(min_bytes=0)
        with pool.step_scope():
            a = pool.empty(BIG, np.float64)
            b = pool.empty(BIG, np.float32)
            c = pool.empty((BIG[0], BIG[1] + 1), np.float64)
        assert len({id(a), id(b), id(c)}) == 3
        with pool.step_scope():
            assert pool.empty(BIG, np.float32) is b

    def test_nested_scopes_recycle_at_outermost_exit(self):
        pool = BufferArena(min_bytes=0)
        with pool.step_scope():
            with pool.step_scope():
                buf = pool.empty(BIG, np.float64)
            # Inner exit must not recycle: the outer scope still holds it.
            assert pool.stats()["checked_out"] == 1
            assert buf.shape == BIG
        assert pool.stats()["checked_out"] == 0

    def test_lru_cap_bounds_pooled_bytes(self):
        one_buffer = int(np.prod(BIG)) * 8
        pool = BufferArena(cap_bytes=one_buffer, min_bytes=0)
        with pool.step_scope():
            pool.empty(BIG, np.float64)
            pool.empty((BIG[0] + 1, BIG[1]), np.float64)
        assert pool.stats()["free_bytes"] <= one_buffer

    def test_clear_drops_pooled_buffers(self):
        pool = BufferArena(min_bytes=0)
        with pool.step_scope():
            pool.empty(BIG, np.float64)
        pool.clear()
        assert pool.stats()["free_bytes"] == 0


class TestSmallBufferBypass:
    def test_small_checkouts_bypass_pool(self):
        pool = BufferArena(min_bytes=64 * 1024)
        with pool.step_scope():
            assert not pool.pools((4, 4), np.float64)
            pool.empty((4, 4), np.float64)
            pool.zeros((4, 4), np.float64)
        assert pool.hits == 0 and pool.misses == 0
        assert pool.stats()["free_bytes"] == 0

    def test_large_checkouts_pool(self):
        pool = BufferArena(min_bytes=64 * 1024)
        with pool.step_scope():
            assert pool.pools(BIG, np.float64)

    def test_threshold_counts_bytes_not_elements(self):
        pool = BufferArena(min_bytes=1024)
        with pool.step_scope():
            assert pool.pools((128,), np.float64)      # 1024 B, inclusive
            assert not pool.pools((128,), np.float32)  # 512 B
            assert not pool.pools((64,), np.float64)   # 512 B

    def test_pools_false_outside_scope(self):
        pool = BufferArena(min_bytes=0)
        assert not pool.pools(BIG, np.float64)


class TestToggles:
    def test_use_arena_restores_default(self):
        before = arena_enabled()
        with use_arena(not before):
            assert arena_enabled() is (not before)
        assert arena_enabled() is before

    def test_env_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_ARENA_MB", "2")
        monkeypatch.setenv("REPRO_ENGINE_ARENA_MIN_KB", "8")
        pool = BufferArena()
        assert pool.cap_bytes == 2 * 1024 * 1024
        assert pool.min_bytes == 8 * 1024

    def test_default_is_off_with_env_cleared(self):
        assert _fresh_process_arena(None) == (False, False)

    def test_env_opt_in_enables_pooling(self):
        assert _fresh_process_arena("1") == (True, True)

    def test_env_flag_off_values(self, monkeypatch):
        for raw in ("0", "false", "off", "no", ""):
            monkeypatch.setenv("REPRO_ENGINE_ARENA", raw)
            assert arena_mod._env_flag("REPRO_ENGINE_ARENA", True) is False
        monkeypatch.setenv("REPRO_ENGINE_ARENA", "1")
        assert arena_mod._env_flag("REPRO_ENGINE_ARENA", False) is True


def _fresh_process_arena(env_value):
    """``(arena_enabled(), TrainConfig().resolved_arena())`` in a new
    interpreter whose only arena variable is ``REPRO_ENGINE_ARENA=env_value``
    (unset for ``None``) — the default is read at import time."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_ENGINE_ARENA")}
    if env_value is not None:
        env["REPRO_ENGINE_ARENA"] = env_value
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("from repro.engine.arena import arena_enabled; "
            "from repro.train import TrainConfig; "
            "print(arena_enabled(), TrainConfig().resolved_arena())")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    return tuple(word == "True" for word in result.stdout.split())


def _train_run(dataset, split, steps=3):
    """Fixed-batch DGNN BPR/Adam steps; returns (losses, named params).

    Each step runs inside an arena scope exactly when pooling is on
    (:func:`arena_enabled`), as ``Trainer`` does.
    """
    graph = CollaborativeHeteroGraph(dataset, split.train_pairs)
    model = create_model("dgnn", graph, embed_dim=8, seed=0)
    optimizer = Adam(model.parameters(), lr=0.01)
    rng = np.random.default_rng(5)
    losses = []
    for _ in range(steps):
        users = rng.integers(0, graph.num_users, 16)
        positives = rng.integers(0, graph.num_items, 16)
        negatives = rng.integers(0, graph.num_items, 16)
        with (arena_mod.step_scope() if arena_enabled()
              else contextlib.nullcontext()):
            model.zero_grad()
            loss = model.bpr_loss(users, positives, negatives)
            loss.backward()
            optimizer.step()
        losses.append(float(loss.data))
    return losses, {name: param.data.copy()
                    for name, param in model.named_parameters()}


class TestAllocateFreshParity:
    def test_pooled_training_is_bitwise_identical(self, tiny_dataset,
                                                  tiny_split, monkeypatch):
        """Pooling forced on for *every* buffer changes nothing, bitwise.

        The pooled arm switches pooling on explicitly and swaps in an
        arena with ``min_bytes=0`` so even the tiny-scale buffers of this
        test route through the pool; the oracle arm switches it off
        explicitly, so it never opens a scope — the default production
        configuration — whatever ``REPRO_ENGINE_ARENA`` says.
        """
        eager = BufferArena(min_bytes=0)
        monkeypatch.setattr(arena_mod, "_ARENA", eager)
        with use_arena(True):
            pooled_losses, pooled_params = _train_run(tiny_dataset, tiny_split)
        assert eager.hits > 0  # pooling actually engaged

        fresh = BufferArena(min_bytes=0)
        monkeypatch.setattr(arena_mod, "_ARENA", fresh)
        with use_arena(False):
            fresh_losses, fresh_params = _train_run(tiny_dataset, tiny_split)
        assert fresh.hits == fresh.misses == 0  # nothing went through it

        assert pooled_losses == fresh_losses
        assert pooled_params.keys() == fresh_params.keys()
        for name in pooled_params:
            assert np.array_equal(pooled_params[name], fresh_params[name]), name

    @pytest.mark.parametrize("arena", [True, False])
    def test_trainer_pools_exactly_when_asked(self, tiny_dataset, tiny_split,
                                              tiny_candidates, monkeypatch,
                                              arena):
        """``TrainConfig.arena`` overrides the process default both ways."""
        pool = BufferArena(min_bytes=0)
        monkeypatch.setattr(arena_mod, "_ARENA", pool)
        graph = CollaborativeHeteroGraph(tiny_dataset, tiny_split.train_pairs)
        model = create_model("dgnn", graph, embed_dim=8, seed=0)
        config = TrainConfig(epochs=1, batch_size=256, batches_per_epoch=2,
                             patience=None, arena=arena)
        with use_arena(not arena):
            Trainer(model, tiny_split, config, tiny_candidates).fit()
        assert (pool.hits > 0) is arena


class TestStepScopeExceptionSafety:
    def test_clean_exit_recycles_checkouts(self):
        pool = BufferArena(min_bytes=0)
        with pool.step_scope():
            pool.empty(BIG, np.float64)
        assert pool.stats()["checked_out"] == 0
        assert pool.stats()["free_bytes"] > 0

    def test_exception_forgets_instead_of_recycling(self):
        """A dying step must not donate aliased buffers to the next one.

        The traceback (and the half-built graph it references) may still
        hold the checkouts, so on an exception the scope forgets them —
        the next scope's checkout is a fresh allocation, never an alias
        of a buffer the failed step can still see.
        """
        pool = BufferArena(min_bytes=0)
        with pytest.raises(RuntimeError, match="boom"):
            with pool.step_scope():
                leaked = pool.empty(BIG, np.float64)
                raise RuntimeError("boom")
        stats = pool.stats()
        assert stats["checked_out"] == 0  # not leaked into bookkeeping
        assert stats["free_bytes"] == 0   # and not recycled either
        with pool.step_scope():
            fresh = pool.empty(BIG, np.float64)
            assert fresh is not leaked

    def test_exception_in_nested_scope_unwinds_all_depths(self):
        pool = BufferArena(min_bytes=0)
        with pytest.raises(ValueError):
            with pool.step_scope():
                with pool.step_scope():
                    pool.empty(BIG, np.float64)
                    raise ValueError("inner")
        assert pool.stats()["checked_out"] == 0
        # The pool still works normally afterwards.
        with pool.step_scope():
            first = pool.empty(BIG, np.float64)
        with pool.step_scope():
            assert pool.empty(BIG, np.float64) is first


"""Cache-locality kernels: blocked spmm parity, cache behavior, knobs.

The contract under test: with blocking enabled, the engine's spmm
output is *bitwise* identical to the flat kernel (the CSC column walk
visits each output row's terms in the same sorted-index order CSR
does) and the chunked gather matches ``np.take`` exactly.  The
scatter-add under blocking is covered with the other scatter parity
tests in ``tests/test_engine_backends.py``.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.engine import (
    clear_block_cache,
    get_spmm_block,
    set_spmm_block,
    use_spmm_block,
)
from repro.engine import backends, locality


def _random_csr(rows, cols, nnz, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    r = rng.integers(0, rows, size=nnz)
    c = rng.integers(0, cols, size=nnz)
    data = rng.standard_normal(nnz).astype(dtype)
    matrix = sp.csr_matrix((data, (r, c)), shape=(rows, cols))
    matrix.sort_indices()
    return matrix


@pytest.fixture(autouse=True)
def _clean_block_state():
    previous = get_spmm_block()
    clear_block_cache()
    yield
    set_spmm_block(previous)
    clear_block_cache()


# ----------------------------------------------------------------------
# Knob parsing
# ----------------------------------------------------------------------
def test_parse_block_setting_forms():
    assert locality.parse_block_setting(None) is None
    assert locality.parse_block_setting(0) is None
    assert locality.parse_block_setting("off") is None
    assert locality.parse_block_setting("") is None
    auto = locality.AUTO_BLOCK_BYTES
    assert locality.parse_block_setting("auto") == auto
    assert locality.parse_block_setting("on") == auto
    assert locality.parse_block_setting("1") == auto
    assert locality.parse_block_setting(1) == auto
    assert locality.parse_block_setting("65536") == 65536
    assert locality.parse_block_setting(65536) == 65536
    with pytest.raises(ValueError):
        locality.parse_block_setting(-4)


def test_resolve_block_bytes_scales_with_output():
    floor = locality.DEFAULT_BLOCK_BYTES
    cap = locality.MAX_AUTO_BLOCK_BYTES
    auto = locality.AUTO_BLOCK_BYTES
    # Tiny outputs clamp to the floor, huge ones to the cap, and the
    # middle aims for AUTO_TARGET_BLOCKS tiles.
    assert locality.resolve_block_bytes(auto, 1024) == floor
    assert locality.resolve_block_bytes(auto, 10 ** 12) == cap
    mid = 256 * 1024 * 1024
    assert (locality.resolve_block_bytes(auto, mid)
            == mid // locality.AUTO_TARGET_BLOCKS)
    # Explicit byte counts pass through untouched.
    assert locality.resolve_block_bytes(64 * 1024, mid) == 64 * 1024


def test_use_spmm_block_scopes_and_restores():
    set_spmm_block(None)
    with use_spmm_block("auto") as block:
        assert block == locality.AUTO_BLOCK_BYTES
        assert get_spmm_block() == locality.AUTO_BLOCK_BYTES
        with use_spmm_block(0):
            assert get_spmm_block() is None
        assert get_spmm_block() == locality.AUTO_BLOCK_BYTES
    assert get_spmm_block() is None


def test_train_config_resolves_spmm_block():
    from repro.train import TrainConfig

    config = TrainConfig(epochs=1, spmm_block=1)
    assert config.resolved_spmm_block() == locality.AUTO_BLOCK_BYTES
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, spmm_block=-1)


def test_rows_per_block_bounds():
    # At least 64 rows per tile (the floor wins even for tiny inputs —
    # build_blocks clamps the final boundary to the matrix itself).
    assert locality.rows_per_block(1000, 8 * 1024 * 1024, 2 ** 21) == 64
    assert locality.rows_per_block(50, 8, 2 ** 21) == 64
    assert locality.rows_per_block(10**6, 1024, 2 ** 21) == 2 ** 11


# ----------------------------------------------------------------------
# Blocked spmm parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_blocked_spmm_bitwise_matches_flat(dtype):
    matrix = _random_csr(3000, 2000, locality.MIN_BLOCKED_NNZ + 5000,
                         dtype=dtype)
    dense = np.random.default_rng(1).standard_normal((2000, 32)).astype(dtype)
    expected = matrix @ dense
    out = np.empty((3000, 32), dtype=dtype)
    assert locality.can_block_spmm(matrix, dense, out)
    # A small budget forces many row blocks — the stress case.
    locality.blocked_spmm(matrix, dense, out, block_bytes=64 * 1024)
    np.testing.assert_array_equal(out, expected)


def test_build_blocks_trims_banded_matrix_to_csc():
    # A banded matrix keeps every block's occupied column span narrow,
    # so every piece should stay in trimmed CSC form with indptr
    # covering only that span.
    rows = cols = 4000
    rng = np.random.default_rng(3)
    r = rng.integers(0, rows, size=60000)
    c = np.clip(r + rng.integers(-40, 41, size=60000), 0, cols - 1)
    data = rng.standard_normal(60000)
    matrix = sp.csr_matrix((data, (r, c)), shape=(rows, cols))
    matrix.sort_indices()
    blocks = locality.build_blocks(matrix, 512)
    assert blocks.num_csc_blocks == blocks.num_blocks
    for piece in blocks.pieces:
        assert piece.kind == "csc"
        assert piece.num_cols <= 512 + 2 * 40  # block span + bandwidth
        assert len(piece.indptr) == piece.num_cols + 1


def test_build_blocks_falls_back_to_csr_on_scattered_matrix():
    # Uniformly scattered nonzeros occupy nearly the full column range
    # in every block while carrying few nonzeros — the trim cannot pay,
    # so pieces must fall back to zero-copy CSR views of the parent.
    matrix = _random_csr(8192, 200000, 30000, seed=4)
    blocks = locality.build_blocks(matrix, 1024)
    csr_pieces = [p for p in blocks.pieces if p.kind == "csr"]
    assert csr_pieces, "wide-span blocks should take the CSR fallback"
    for piece in csr_pieces:
        # Zero-copy: the views share the parent's buffers.
        assert piece.indices is matrix.indices
        assert piece.data is matrix.data
    dense = np.random.default_rng(5).standard_normal((200000, 8))
    out = np.empty((8192, 8))
    locality.blocked_spmm(matrix, dense, out, block_bytes=32 * 1024)
    np.testing.assert_array_equal(out, matrix @ dense)


def test_blocked_spmm_via_fast_backend_is_bitwise():
    matrix = _random_csr(2500, 1500, locality.MIN_BLOCKED_NNZ + 1)
    dense = np.random.default_rng(2).standard_normal((1500, 16))
    with use_spmm_block(0):
        flat = backends.spmm(matrix, dense)
    with use_spmm_block(128 * 1024):
        blocked = backends.spmm(matrix, dense)
    np.testing.assert_array_equal(blocked, flat)


def test_small_matrices_skip_the_blocked_path():
    matrix = _random_csr(50, 40, 200)
    dense = np.ones((40, 4))
    out = np.empty((50, 4))
    assert matrix.nnz < locality.MIN_BLOCKED_NNZ
    assert not locality.can_block_spmm(matrix, dense, out)


def test_can_block_spmm_rejects_dtype_mismatch():
    matrix = _random_csr(3000, 2000, locality.MIN_BLOCKED_NNZ + 1)
    dense = np.ones((2000, 4), dtype=np.float32)
    out = np.empty((3000, 4))
    assert not locality.can_block_spmm(matrix, dense, out)


# ----------------------------------------------------------------------
# Block cache
# ----------------------------------------------------------------------
def test_block_cache_hits_on_repeat_and_rebuilds_on_new_matrix():
    cache = locality.block_cache()
    matrix = _random_csr(3000, 2000, locality.MIN_BLOCKED_NNZ + 1)
    dense = np.ones((2000, 8))
    out = np.empty((3000, 8))
    locality.blocked_spmm(matrix, dense, out, block_bytes=256 * 1024)
    assert cache.misses == 1 and cache.hits == 0
    locality.blocked_spmm(matrix, dense, out, block_bytes=256 * 1024)
    assert cache.misses == 1 and cache.hits == 1
    other = _random_csr(3000, 2000, locality.MIN_BLOCKED_NNZ + 1, seed=9)
    locality.blocked_spmm(other, dense, out, block_bytes=256 * 1024)
    assert cache.misses == 2


def test_block_cache_guards_against_id_reuse():
    cache = locality.block_cache()
    matrix = _random_csr(200, 100, 500)
    blocks = cache.get(matrix, 64)
    key = (id(matrix), 64)
    # Simulate id() reuse: a dead weakref under the same key must
    # rebuild rather than serve the stale decomposition.
    cache._entries[key] = (lambda: None, blocks)
    rebuilt = cache.get(matrix, 64)
    assert rebuilt is not blocks


def test_block_cache_evicts_beyond_capacity():
    cache = locality._BlockCache(capacity=2)
    kept = [_random_csr(100, 50, 300, seed=s) for s in range(3)]
    for matrix in kept:
        cache.get(matrix, 64)
    assert len(cache) == 2


# ----------------------------------------------------------------------
# Gather / scatter variants
# ----------------------------------------------------------------------
def test_gather_rows_blocked_matches_take():
    rng = np.random.default_rng(5)
    table = rng.standard_normal((5000, 24))
    indices = rng.integers(0, 5000, size=(700,))
    out = np.empty((700, 24))
    locality.gather_rows_blocked(table, indices, out, block_bytes=16 * 1024)
    np.testing.assert_array_equal(out, table[indices])


def test_gather_rows_blocked_supports_2d_index_batches():
    rng = np.random.default_rng(6)
    table = rng.standard_normal((1000, 8))
    indices = rng.integers(0, 1000, size=(40, 5))
    out = np.empty((40, 5, 8))
    locality.gather_rows_blocked(table, indices, out, block_bytes=4 * 1024)
    np.testing.assert_array_equal(out, table[indices])


def test_env_var_controls_default_block(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE_SPMM_BLOCK", "auto")
    assert locality.parse_block_setting(
        "auto") == locality.AUTO_BLOCK_BYTES
    # The module-level default is read at import; the runtime setter is
    # the live control and accepts the same spellings.
    set_spmm_block("auto")
    assert get_spmm_block() == locality.AUTO_BLOCK_BYTES
    set_spmm_block("off")
    assert get_spmm_block() is None

"""Cache-blocked sparse kernels and the spmm blocking policy.

The engine's flat spmm kernel streams the dense operand ``B`` in whatever
row order the CSR indices dictate: one ~``d × itemsize``-byte gather per
nonzero, scattered across the whole table.  Once the table outgrows the
cache the kernel is bandwidth-bound on those scattered reads.  This
module supplies the blocked alternative:

* the matrix is split into a handful of contiguous **row blocks**
  (``auto`` aims for ~:data:`AUTO_TARGET_BLOCKS` tiles of tens of
  megabytes each — see :func:`resolve_block_bytes`);
* each row block is converted once to CSC, **trimmed to its occupied
  column span**, and cached (keyed by matrix identity, invalidated by
  weakref); the product then walks each block's columns in ascending
  order, so ``B`` is *streamed sequentially* per block instead of
  gathered per nonzero.  Blocks must be large enough that each one
  amortizes its span walk over many nonzeros — an L2-sized tile
  fragments the nonzeros until every piece degenerates to its fallback.

The column trim keeps a block's cost proportional to its nonzeros.  An
untrimmed per-block CSC drags the full ``num_cols + 1`` index pointer
past the core for *every* block — on a wide matrix (an 800k-item
catalog split into ~50 blocks) that empty-column scan alone moves more
bytes than the dense operand.  When a block's occupied columns sit in a
narrow band (a banded matrix), the trimmed pointer shrinks to that band
and the block becomes a pure sequential stream.  Blocks whose span
stays wide relative to their nonzeros (scattered columns) fall back to
a zero-copy CSR view of the parent matrix — identical work to the flat
kernel on that row range, so enabling blocking never makes a matrix
*slower* than flat.

Both piece kinds accumulate every output element in exactly the same
sequence as scipy's flat kernel (CSC column order equals CSR
sorted-index order; the CSR fallback *is* the flat loop on a row
range), so the blocked product is **bitwise identical** to
``matrix @ dense`` regardless of which kinds a matrix mixes (asserted
in ``tests/test_engine_locality.py``).

Policy: blocking is **off by default** and enabled by a byte budget for
the output tile — ``set_spmm_block``/``use_spmm_block``,
``TrainConfig.spmm_block``, or ``REPRO_ENGINE_SPMM_BLOCK`` at import
time (``"auto"`` resolves per call via :func:`resolve_block_bytes`;
``0``/``"off"`` disables).  Matrices below :data:`MIN_BLOCKED_NNZ` nonzeros always take
the flat path — per-batch subgraph slices are too short-lived to
amortize a block build.
"""

from __future__ import annotations

import contextlib
import os
import weakref
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

try:  # pragma: no cover - import guard for exotic scipy builds
    from scipy.sparse import _sparsetools as _tools
except ImportError:  # pragma: no cover
    _tools = None

#: Sentinel stored by ``REPRO_ENGINE_SPMM_BLOCK=auto``: the byte budget
#: is resolved per call from the output size (see
#: :func:`resolve_block_bytes`) instead of being fixed up front.
AUTO_BLOCK_BYTES = -1

#: Smallest auto-resolved tile, and the floor for small outputs.  The
#: floor sits in the tens of megabytes on purpose: a trimmed-CSC piece
#: only beats the flat gather when it amortizes its column span over
#: many nonzeros, and sub-L3-sized slivers never reach that regime (a
#: 14 MiB tile measured ~10% slower than a 32 MiB one on the same
#: matrix).  Matrices too small to fill one such tile degrade into a
#: single piece whose CSR fallback is the flat kernel itself.
DEFAULT_BLOCK_BYTES = 32 * 1024 * 1024

#: Auto mode aims for about this many row blocks per matrix.  Fewer,
#: larger blocks raise the nonzeros each trimmed-CSC piece amortizes its
#: column span over — the probe regime where blocking actually beats the
#: flat kernel is tens of megabytes per tile, not an L2-sized sliver.
AUTO_TARGET_BLOCKS = 8

#: Ceiling for an auto-resolved tile.
MAX_AUTO_BLOCK_BYTES = 64 * 1024 * 1024

#: Matrices with fewer nonzeros than this never take the blocked path.
MIN_BLOCKED_NNZ = 20_000

#: Cached CSC block decompositions kept before the oldest is evicted.
MAX_CACHED_MATRICES = 32

#: A block keeps its trimmed CSC form only while its occupied column
#: span stays within this multiple of its nonzeros (always allowing a
#: small absolute span); wider blocks (scattered columns) fall back to
#: a zero-copy CSR view, where the column-pointer scan the trim avoids
#: would have cost more than the nonzeros.
CSC_SPAN_NNZ_RATIO = 4.0
CSC_SPAN_FLOOR = 4096


def parse_block_setting(value) -> Optional[int]:
    """Normalize a blocking knob value to ``None`` (off) or a byte count.

    Accepts ``None``, integers (``0`` disables), and the string forms
    used by ``REPRO_ENGINE_SPMM_BLOCK``: ``"auto"``/``"on"``/``"1"``
    (size-adaptive budget, :data:`AUTO_BLOCK_BYTES`), ``"off"``/``"0"``/
    ``""`` (disabled), or an explicit byte count.
    """
    if value is None:
        return None
    if isinstance(value, str):
        text = value.strip().lower()
        if text in ("", "0", "off", "false", "no"):
            return None
        if text in ("auto", "on", "true", "yes", "1"):
            return AUTO_BLOCK_BYTES
        value = int(text)
    block = int(value)
    if block == AUTO_BLOCK_BYTES:
        return AUTO_BLOCK_BYTES
    if block < 0:
        raise ValueError(f"spmm block bytes must be >= 0, got {block}")
    if block == 0:
        return None
    if block == 1:  # TrainConfig shorthand mirroring the env "1"
        return AUTO_BLOCK_BYTES
    return block


def resolve_block_bytes(block_bytes: Optional[int],
                        out_nbytes: int) -> int:
    """Turn a stored knob value into a concrete per-call byte budget.

    ``auto`` scales the tile with the output it is carving: about
    :data:`AUTO_TARGET_BLOCKS` blocks per matrix, clamped to
    [:data:`DEFAULT_BLOCK_BYTES`, :data:`MAX_AUTO_BLOCK_BYTES`].
    Explicit byte counts pass through untouched.
    """
    if block_bytes is None or block_bytes == AUTO_BLOCK_BYTES:
        return int(min(MAX_AUTO_BLOCK_BYTES,
                       max(DEFAULT_BLOCK_BYTES,
                           out_nbytes // AUTO_TARGET_BLOCKS)))
    return block_bytes


_BLOCK_BYTES: Optional[int] = parse_block_setting(
    os.environ.get("REPRO_ENGINE_SPMM_BLOCK"))


def get_spmm_block() -> Optional[int]:
    """The active output-tile byte budget (``None`` = blocking off)."""
    return _BLOCK_BYTES


def set_spmm_block(value) -> Optional[int]:
    """Set the blocking budget (see :func:`parse_block_setting`); returns it."""
    global _BLOCK_BYTES
    _BLOCK_BYTES = parse_block_setting(value)
    return _BLOCK_BYTES


@contextlib.contextmanager
def use_spmm_block(value) -> Iterator[Optional[int]]:
    """Temporarily set the blocking budget inside a ``with`` block."""
    previous = get_spmm_block()
    block = set_spmm_block(value)
    try:
        yield block
    finally:
        set_spmm_block(previous)


def rows_per_block(num_rows: int, row_bytes: int,
                   block_bytes: int) -> int:
    """Rows per output tile under a byte budget (at least 64, at most all)."""
    if row_bytes <= 0:
        return num_rows
    return max(64, min(num_rows, block_bytes // max(row_bytes, 1)))


# ----------------------------------------------------------------------
# Cached CSC row-block decomposition
# ----------------------------------------------------------------------
@dataclass
class BlockPiece:
    """One row block's kernel operands (see module docstring).

    ``kind == "csc"``: a column-trimmed CSC piece — ``indptr`` covers
    only the occupied span ``[col_lo, col_lo + num_cols)`` (sliced, not
    rebased: the matvec kernels read absolute ranges into
    ``indices``/``data``), and the dense operand is offset by
    ``col_lo`` rows at multiply time.  ``kind == "csr"``: zero-copy
    views into the parent CSR's arrays for this row range — the flat
    kernel's own loop, block-scoped.
    """

    kind: str  # "csc" | "csr"
    col_lo: int
    num_cols: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


@dataclass
class CscBlocks:
    """One matrix's row-block decomposition (see module docstring)."""

    shape: Tuple[int, int]
    nnz: int
    dtype: np.dtype
    bounds: np.ndarray  # row boundaries, len = num_blocks + 1
    pieces: List[BlockPiece]

    @property
    def num_blocks(self) -> int:
        return len(self.pieces)

    @property
    def num_csc_blocks(self) -> int:
        return sum(1 for piece in self.pieces if piece.kind == "csc")


def _build_piece(matrix: sp.csr_matrix, lo: int, hi: int) -> BlockPiece:
    piece = matrix[lo:hi, :].tocsc()
    piece.sort_indices()
    occupied = np.flatnonzero(np.diff(piece.indptr))
    if len(occupied) == 0:
        return BlockPiece(kind="csc", col_lo=0, num_cols=0,
                          indptr=piece.indptr[:1], indices=piece.indices,
                          data=piece.data)
    col_lo = int(occupied[0])
    span = int(occupied[-1]) + 1 - col_lo
    if span <= max(CSC_SPAN_NNZ_RATIO * piece.nnz, CSC_SPAN_FLOOR):
        return BlockPiece(kind="csc", col_lo=col_lo, num_cols=span,
                          indptr=piece.indptr[col_lo:col_lo + span + 1],
                          indices=piece.indices, data=piece.data)
    # Span too wide for the trim to pay — the scattered layout.  Views
    # into the parent CSR (absolute indptr slice, shared indices/data)
    # reproduce the flat kernel's work on this row range with zero copy.
    return BlockPiece(kind="csr", col_lo=0, num_cols=matrix.shape[1],
                      indptr=matrix.indptr[lo:hi + 1],
                      indices=matrix.indices, data=matrix.data)


def build_blocks(matrix: sp.csr_matrix, block_rows: int) -> CscBlocks:
    """Decompose a CSR matrix into trimmed-CSC / fallback-CSR pieces."""
    num_rows = matrix.shape[0]
    bounds = np.arange(0, num_rows + block_rows, block_rows)
    bounds[-1] = num_rows
    bounds = np.unique(bounds)
    pieces = [_build_piece(matrix, int(lo), int(hi))
              for lo, hi in zip(bounds[:-1], bounds[1:])]
    return CscBlocks(shape=matrix.shape, nnz=int(matrix.nnz),
                     dtype=matrix.dtype, bounds=bounds, pieces=pieces)


def apply_piece(piece: BlockPiece, num_rows: int, width: int,
                flat_dense: np.ndarray, tile: np.ndarray) -> None:
    """Run one block's kernel: ``tile[...] = block_rows @ dense``.

    ``tile`` is fully overwritten.  Accumulation order per output row is
    ascending column index under both kinds — bitwise equal to the flat
    kernel.
    """
    tile[...] = 0
    if piece.num_cols == 0:
        return
    if piece.kind == "csc":
        _tools.csc_matvecs(num_rows, piece.num_cols, width,
                           piece.indptr, piece.indices, piece.data,
                           flat_dense[piece.col_lo * width:], tile.ravel())
    else:
        _tools.csr_matvecs(num_rows, piece.num_cols, width,
                           piece.indptr, piece.indices, piece.data,
                           flat_dense, tile.ravel())


class _BlockCache:
    """CSC decompositions keyed by ``(id(matrix), block_rows)``.

    A weak reference per entry guards against ``id()`` reuse after the
    source matrix is garbage-collected; insertion order doubles as the
    eviction order (the propagation working set is a handful of
    long-lived normalized views, so anything like LRU is overkill).
    """

    def __init__(self, capacity: int = MAX_CACHED_MATRICES):
        self.capacity = capacity
        self._entries: Dict[Tuple[int, int], Tuple[weakref.ref, CscBlocks]] = {}
        self.hits = 0
        self.misses = 0

    def get(self, matrix: sp.csr_matrix, block_rows: int) -> CscBlocks:
        key = (id(matrix), block_rows)
        entry = self._entries.get(key)
        if entry is not None:
            ref, blocks = entry
            if ref() is matrix:
                self.hits += 1
                return blocks
            del self._entries[key]
        self.misses += 1
        blocks = build_blocks(matrix, block_rows)
        while len(self._entries) >= self.capacity:
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = (weakref.ref(matrix), blocks)
        return blocks

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)


_BLOCK_CACHE = _BlockCache()


def block_cache() -> _BlockCache:
    """The process-global CSC block cache."""
    return _BLOCK_CACHE


def clear_block_cache() -> None:
    """Drop every cached decomposition (tests, memory pressure)."""
    _BLOCK_CACHE.clear()


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
def can_block_spmm(matrix, dense: np.ndarray,
                   out: np.ndarray) -> bool:
    """Whether the blocked path applies to this call's operands."""
    return (_tools is not None
            and sp.issparse(matrix) and matrix.format == "csr"
            and matrix.nnz >= MIN_BLOCKED_NNZ
            and dense.ndim == 2
            and matrix.dtype == dense.dtype == out.dtype
            and matrix.indices.dtype == matrix.indptr.dtype
            and dense.flags.c_contiguous and out.flags.c_contiguous)


def blocked_spmm(matrix: sp.csr_matrix, dense: np.ndarray, out: np.ndarray,
                 block_bytes: Optional[int] = None) -> np.ndarray:
    """Row-block CSC spmm: ``out[...] = matrix @ dense``, bitwise.

    The caller must have validated the operands with
    :func:`can_block_spmm`.  ``out`` is fully overwritten.
    """
    if block_bytes is None:
        block_bytes = get_spmm_block()
    block_bytes = resolve_block_bytes(block_bytes, out.nbytes)
    width = dense.shape[1]
    row_bytes = width * out.dtype.itemsize
    block_rows = rows_per_block(matrix.shape[0], row_bytes, block_bytes)
    blocks = _BLOCK_CACHE.get(matrix, block_rows)
    flat_dense = dense.ravel()
    for (lo, hi), piece in zip(
            zip(blocks.bounds[:-1], blocks.bounds[1:]), blocks.pieces):
        tile = out[int(lo):int(hi)]
        apply_piece(piece, int(hi - lo), width, flat_dense, tile)
    return out


def gather_rows_blocked(table: np.ndarray, indices: np.ndarray,
                        out: np.ndarray,
                        block_bytes: Optional[int] = None) -> np.ndarray:
    """Row gather in output-tile-sized chunks (bitwise = ``np.take``).

    Chunking keeps each destination tile cache-resident while its source
    rows are pulled in; sorted ids make each chunk's source window
    compact as well.
    """
    if block_bytes is None:
        block_bytes = get_spmm_block()
    block_bytes = resolve_block_bytes(block_bytes, out.nbytes)
    flat = indices.reshape(-1)
    flat_out = out.reshape((len(flat),) + table.shape[1:])
    row_bytes = int(np.prod(table.shape[1:], dtype=np.int64)) * table.dtype.itemsize
    chunk = rows_per_block(len(flat), row_bytes, block_bytes)
    for start in range(0, len(flat), chunk):
        np.take(table, flat[start:start + chunk], axis=0,
                out=flat_out[start:start + chunk])
    return out

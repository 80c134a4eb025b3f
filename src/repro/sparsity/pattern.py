"""N:M sparsity patterns for weight matrices.

A :class:`SparsePattern` records, for a weight matrix ``W[M, K]``, how
many elements survive in each M-block of each row:

* **layer-wise** (paper IV-A1) — one N:M ratio for the whole layer; per
  the paper's simplification, the first N elements of every block are
  the non-zeros.
* **row-wise** (paper IV-A2, VEGETA-style) — each row draws its own
  ``N_i`` uniformly from ``[0, M/2]`` (the paper constrains useful
  ratios to ``N <= M/2``), seeded for reproducibility.

The pattern stores per-(row, block) non-zero counts, which is all the
storage and compute models need; full boolean masks are generated only
on demand for small matrices (tests, examples).  Patterns are immutable:
the counts are read-only (a caller's writable array is copied), and a
layer-wise pattern is one block row broadcast over every row, so
building, validating and summing it costs O(rows + blocks) rather than
O(rows x blocks).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import SparsityError
from repro.topology.layer import SparsityRatio
from repro.utils.math import ceil_div


@dataclass(frozen=True)
class SparsePattern:
    """Per-row, per-block non-zero counts of a ``rows x cols`` matrix."""

    rows: int
    cols: int
    block_size: int
    nnz_per_block: np.ndarray  # (rows, num_blocks) int32

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise SparsityError(f"bad matrix shape {self.rows}x{self.cols}")
        if self.block_size < 1:
            raise SparsityError(f"block_size must be >= 1, got {self.block_size}")
        if self.nnz_per_block.flags.writeable:
            # Row sums are memoised: keep a private read-only copy so later
            # writes to the caller's array cannot leave them stale.
            counts = self.nnz_per_block.copy()
            counts.flags.writeable = False
            object.__setattr__(self, "nnz_per_block", counts)
        expected = (self.rows, self.num_blocks)
        if self.nnz_per_block.shape != expected:
            raise SparsityError(
                f"nnz_per_block shape {self.nnz_per_block.shape} != {expected}"
            )
        last_block = self.cols - (self.num_blocks - 1) * self.block_size
        counts = self._distinct_rows
        if (
            counts.min() < 0
            or counts.max() > self.block_size
            or counts[:, -1].max() > last_block
        ):
            raise SparsityError("block nnz outside [0, block capacity]")

    @property
    def _distinct_rows(self) -> np.ndarray:
        """The counts with a broadcast (stride-0) row axis collapsed to one row."""
        if self.nnz_per_block.strides[0] == 0:
            return self.nnz_per_block[:1]
        return self.nnz_per_block

    @cached_property
    def _row_nnz(self) -> np.ndarray:
        counts = self._distinct_rows
        return np.broadcast_to(counts.sum(axis=1), (self.rows,))

    @property
    def num_blocks(self) -> int:
        """Blocks per row."""
        return ceil_div(self.cols, self.block_size)

    @property
    def total_nnz(self) -> int:
        """Non-zeros in the whole matrix."""
        return int(self.row_nnz().sum())

    @property
    def density(self) -> float:
        """Fraction of surviving elements."""
        return self.total_nnz / (self.rows * self.cols)

    def row_nnz(self) -> np.ndarray:
        """Non-zeros per row, shape (rows,), read-only and memoised."""
        return self._row_nnz

    def compressed_row_length(self) -> np.ndarray:
        """Elements each row occupies in a block-compressed stream.

        Blocked formats keep whole blocks together, so a row's streamed
        length is its non-zero count (zero blocks vanish entirely).
        """
        return self.row_nnz()

    def to_mask(self) -> np.ndarray:
        """Materialise a boolean mask (first-N-per-block convention)."""
        mask = np.zeros((self.rows, self.cols), dtype=bool)
        for block in range(self.num_blocks):
            start = block * self.block_size
            end = min(start + self.block_size, self.cols)
            counts = self.nnz_per_block[:, block]
            width = end - start
            cols_idx = np.arange(width)
            mask[:, start:end] = cols_idx[None, :] < counts[:, None]
        return mask


def layerwise_pattern(rows: int, cols: int, ratio: SparsityRatio) -> SparsePattern:
    """One N:M ratio applied uniformly (paper's layer-wise sparsity)."""
    block = ratio.m
    num_blocks = ceil_div(cols, block)
    row = np.full(num_blocks, ratio.n, dtype=np.int32)
    # The trailing partial block can hold at most its own width.
    last_width = cols - (num_blocks - 1) * block
    row[-1] = min(ratio.n, last_width)
    nnz = np.broadcast_to(row, (rows, num_blocks))
    return SparsePattern(rows=rows, cols=cols, block_size=block, nnz_per_block=nnz)


def rowwise_pattern(
    rows: int,
    cols: int,
    block_size: int,
    rng: np.random.Generator,
    max_n: int | None = None,
) -> SparsePattern:
    """Random per-row N with ``N <= M/2`` (paper's row-wise sparsity).

    Every block in a given row shares that row's N, matching the paper's
    "each row is assigned a random sparsity ratio".
    """
    if block_size < 2:
        raise SparsityError(f"row-wise sparsity needs block_size >= 2, got {block_size}")
    ceiling = block_size // 2 if max_n is None else max_n
    if not 0 <= ceiling <= block_size:
        raise SparsityError(f"max_n must be in [0, {block_size}], got {ceiling}")
    num_blocks = ceil_div(cols, block_size)
    row_n = rng.integers(low=0, high=ceiling + 1, size=rows).astype(np.int32)
    nnz = np.repeat(row_n[:, None], num_blocks, axis=1)
    last_width = cols - (num_blocks - 1) * block_size
    nnz[:, -1] = np.minimum(nnz[:, -1], last_width)
    nnz.flags.writeable = False
    return SparsePattern(rows=rows, cols=cols, block_size=block_size, nnz_per_block=nnz)

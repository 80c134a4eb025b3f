"""Sparse GEMM execution on the systolic array (paper Section IV-B).

The paper runs all sparsity experiments under the weight-stationary
dataflow: the weight matrix ``W[M, K]`` is compressed N:M along K
(blocked ELLPACK), so each spatial column tile of the array streams only
the compressed weight rows.  Because the array is lockstep, a tile's
effective K extent is the *maximum* compressed row length among its
rows — which is why finer-grained (row-wise) sparsity with low N values
beats coarse block sizes (Figure 8).

Compute cycles for one column tile ``c`` (WS mapping: Sr=K, Sc=M, T=N)::

    cycles(c) = (2R + C + T - 2) * ceil(K_eff(c) / R)

and the layer total sums over ``ceil(M / C)`` tiles.  Dense execution is
the special case ``K_eff = K``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.compute_sim import FoldSpec, TileFetch
from repro.core.dataflow import Dataflow, fold_cycles, map_gemm
from repro.errors import SparsityError
from repro.sparsity.formats import StorageEstimate, dense_storage, storage_for_representation
from repro.sparsity.pattern import SparsePattern, layerwise_pattern, rowwise_pattern
from repro.topology.layer import GemmShape, Layer, SparsityRatio
from repro.utils.math import ceil_div
from repro.utils.rng import make_rng


@dataclass
class SparseLayerResult:
    """Outcome of simulating one layer with sparse weights."""

    layer_name: str
    shape: GemmShape
    block_size: int
    representation: str
    pattern: SparsePattern = field(repr=False)
    dense_compute_cycles: int
    sparse_compute_cycles: int
    dense_storage: StorageEstimate
    compressed_storage: StorageEstimate
    fold_specs: list[FoldSpec] = field(default_factory=list, repr=False)

    @property
    def speedup(self) -> float:
        """Dense cycles over sparse cycles."""
        if self.sparse_compute_cycles == 0:
            return float("inf")
        return self.dense_compute_cycles / self.sparse_compute_cycles

    @property
    def storage_saving(self) -> float:
        """Dense storage over compressed storage."""
        return self.compressed_storage.compression_ratio(self.dense_storage)


class SparseComputeSimulator:
    """Weight-stationary sparse compute model.

    Args:
        array_rows / array_cols: systolic array shape.
        representation: ``csr`` / ``csc`` / ``ellpack_block``.
        word_bits: weight precision (16 for the paper's experiments).
        ifmap_sram_words / ofmap_sram_words: double-buffer working sizes
            used when planning fold fetches (halving applied by caller's
            convention is mirrored here: pass the full SRAM capacity).
    """

    def __init__(
        self,
        array_rows: int,
        array_cols: int,
        representation: str = "ellpack_block",
        word_bits: int = 16,
        ifmap_sram_words: int = 1 << 30,
        ofmap_sram_words: int = 1 << 30,
        seed: int = 7,
    ) -> None:
        if array_rows < 1 or array_cols < 1:
            raise SparsityError(f"bad array {array_rows}x{array_cols}")
        self.rows = array_rows
        self.cols = array_cols
        self.representation = representation
        self.word_bits = word_bits
        self.ifmap_working_words = max(1, ifmap_sram_words // 2)
        self.ofmap_working_words = max(1, ofmap_sram_words // 2)
        self._seed = seed

    @cached_property
    def _rng(self) -> np.random.Generator:
        # Created on the first row-wise draw: layer-wise runs never pay
        # for numpy.random's (lazy) import.
        return make_rng(self._seed)

    # ------------------------------------------------------------------ API

    def pattern_for_layer(
        self,
        layer: Layer,
        rowwise: bool = False,
        block_size: int | None = None,
    ) -> SparsePattern:
        """Build the layer's weight sparsity pattern.

        Layer-wise mode uses the layer's own N:M annotation (defaulting
        to dense); row-wise mode randomises N per row with the given
        block size (``OptimizedMapping`` + ``BlockSize`` knobs).
        """
        shape = layer.to_gemm()
        if rowwise:
            block = block_size or (layer.sparsity.m if layer.sparsity else 4)
            return rowwise_pattern(shape.m, shape.k, block, self._rng)
        ratio = layer.sparsity or SparsityRatio(1, 1)
        return layerwise_pattern(shape.m, shape.k, ratio)

    def simulate_layer(
        self,
        layer: Layer,
        pattern: SparsePattern | None = None,
        rowwise: bool = False,
        block_size: int | None = None,
        with_fold_specs: bool = True,
    ) -> SparseLayerResult:
        """Simulate one layer under WS with compressed weights."""
        shape = layer.to_gemm()
        if pattern is None:
            pattern = self.pattern_for_layer(layer, rowwise=rowwise, block_size=block_size)
        if pattern.rows != shape.m or pattern.cols != shape.k:
            raise SparsityError(
                f"pattern shape {pattern.rows}x{pattern.cols} does not match "
                f"weight matrix {shape.m}x{shape.k}"
            )

        mapping = map_gemm(shape, Dataflow.WEIGHT_STATIONARY)
        per_fold = fold_cycles(self.rows, self.cols, mapping.t)
        dense_cycles = per_fold * ceil_div(shape.k, self.rows) * ceil_div(shape.m, self.cols)

        # A tile's K_eff is its longest compressed row; a tile always
        # occupies >= 1 pass.
        row_lengths = pattern.compressed_row_length()
        tile_max = np.maximum.reduceat(row_lengths, np.arange(0, shape.m, self.cols))
        tile_keff = np.maximum(tile_max, 1)
        sparse_cycles = per_fold * int((-(-tile_keff // self.rows)).sum())

        dense_est = dense_storage(shape.m, shape.k, self.word_bits)
        compressed = storage_for_representation(self.representation, pattern, self.word_bits)

        fold_specs = (
            self._build_fold_specs(
                layer, shape, mapping, tile_keff.tolist(), per_fold, compressed
            )
            if with_fold_specs
            else []
        )
        return SparseLayerResult(
            layer_name=layer.name,
            shape=shape,
            block_size=pattern.block_size,
            representation=self.representation,
            pattern=pattern,
            dense_compute_cycles=dense_cycles,
            sparse_compute_cycles=sparse_cycles,
            dense_storage=dense_est,
            compressed_storage=compressed,
            fold_specs=fold_specs,
        )

    # ------------------------------------------------------------ internals

    def _build_fold_specs(
        self,
        layer: Layer,
        shape: GemmShape,
        mapping,
        tile_keff: list[int],
        per_fold: int,
        compressed: StorageEstimate,
    ) -> list[FoldSpec]:
        """Plan backing-store traffic for the sparse WS schedule.

        Filter traffic is the *compressed* footprint (data + metadata),
        spread across folds; ifmap traffic is unchanged in total (full
        blocks are streamed so the array can select non-zero positions)
        but spread over fewer K-folds.
        """
        raw_ifmap = layer.ifmap_words
        raw_ofmap = layer.ofmap_words
        filter_words_total = ceil_div(compressed.total_bits, self.word_bits)
        total_compressed_cells = sum(
            k * min(self.cols, shape.m - fc * self.cols)
            for fc, k in enumerate(tile_keff)
        )
        specs: list[FoldSpec] = []
        start = 0
        filter_cursor = 0
        accumulate = raw_ofmap <= self.ofmap_working_words
        t = mapping.t

        for fc, k_eff in enumerate(tile_keff):
            cols_used = min(self.cols, shape.m - fc * self.cols)
            frows = ceil_div(k_eff, self.rows)
            for fr in range(frows):
                rows_used = min(self.rows, k_eff - fr * self.rows)
                fetches: list[TileFetch] = []
                # Compressed filter tile, proportional share of the
                # compressed stream (data + metadata).
                cell_share = rows_used * cols_used
                tile_words = (
                    ceil_div(filter_words_total * cell_share, total_compressed_cells)
                    if total_compressed_cells
                    else 0
                )
                fetches.append(TileFetch("filter", filter_cursor, tile_words))
                filter_cursor += tile_words
                # Ifmap slice: the full raw ifmap is streamed once per
                # column tile pass, split over its K-folds.
                slice_words = ceil_div(raw_ifmap, frows)
                fits = slice_words <= self.ifmap_working_words
                if fr == 0 or not fits:
                    fetches.append(
                        TileFetch("ifmap", (fr * slice_words) % max(1, raw_ifmap), slice_words)
                    )
                out_tile = min(cols_used * t, raw_ofmap)
                if not accumulate:
                    fetches.append(TileFetch("ofmap", 0, out_tile, is_write=True))
                    if fr > 0:
                        fetches.append(TileFetch("ofmap", 0, out_tile))
                elif fr == frows - 1:
                    fetches.append(TileFetch("ofmap", 0, out_tile, is_write=True))
                specs.append(
                    FoldSpec(
                        fold_row=fr,
                        fold_col=fc,
                        start_cycle=start,
                        cycles=per_fold,
                        rows_used=rows_used,
                        cols_used=cols_used,
                        fetches=tuple(fetches),
                    )
                )
                start += per_fold
        return specs

"""Cycle-accurate demand-trace generation per dataflow.

For each fold of the mapped GEMM the engine emits three demand matrices
(rows = cycles within the fold, value -1 = no request that cycle):

* ``row_port_demand``  (L x R) — the operand streaming in via the array's
  row ports (X for WS, W for IS and OS).
* ``col_port_demand``  (L x C) — the stationary operand's preload reads
  (WS/IS) or the column-streamed X operand (OS).
* ``out_port_demand``  (L x C) — ofmap writes leaving via the columns.

The fold length is exactly ``2R + C + T - 2`` cycles, matching the
paper's Eq. 1, with phases:

* WS/IS — preload ``R`` cycles; stream with row skew occupying
  ``T + R - 1`` cycles; column drain skew adding ``C - 1``.
* OS — stream with row/column skew; per-column drain of R partials with
  column skew ``C - 1``.

Generating full traces costs O(cycles x ports) memory, so callers use
them for validation, layout analysis and energy action counting on
bounded layers; aggregate statistics come from
:mod:`repro.core.compute_sim` which never materialises traces.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.core.dataflow import Dataflow, GemmMapping, fold_cycles, map_gemm
from repro.core.operand_matrix import FILTER_BASE, OFMAP_BASE, OperandMatrices
from repro.errors import SimulationError
from repro.utils.math import ceil_div

NO_REQUEST = -1


@dataclass(frozen=True)
class FoldTrace:
    """Cycle-accurate demand matrices for one fold."""

    fold_row: int
    fold_col: int
    start_cycle: int
    cycles: int
    rows_used: int
    cols_used: int
    row_port_demand: np.ndarray  # (cycles, R)
    col_port_demand: np.ndarray  # (cycles, C)
    out_port_demand: np.ndarray  # (cycles, C)

    @property
    def ifmap_reads(self) -> int:
        """Number of ifmap SRAM read requests in this fold."""
        return self._count_region(0, FILTER_BASE)

    @property
    def filter_reads(self) -> int:
        """Number of filter SRAM read requests in this fold."""
        return self._count_region(FILTER_BASE, OFMAP_BASE)

    @property
    def ofmap_writes(self) -> int:
        """Number of ofmap SRAM write requests in this fold."""
        return int(np.count_nonzero(self.out_port_demand != NO_REQUEST))

    def _count_region(self, lo: int, hi: int) -> int:
        total = 0
        for matrix in (self.row_port_demand, self.col_port_demand):
            mask = (matrix >= lo) & (matrix < hi)
            total += int(np.count_nonzero(mask))
        return total


class TraceEngine:
    """Generates per-fold demand traces for one layer on one array."""

    def __init__(
        self,
        operands: OperandMatrices,
        dataflow: Dataflow,
        array_rows: int,
        array_cols: int,
    ) -> None:
        if array_rows < 1 or array_cols < 1:
            raise SimulationError(f"bad array {array_rows}x{array_cols}")
        self.operands = operands
        self.dataflow = dataflow
        self.rows = array_rows
        self.cols = array_cols
        self.mapping: GemmMapping = map_gemm(operands.shape, dataflow)

    @property
    def folds_row(self) -> int:
        """Folds along the Sr axis."""
        return ceil_div(self.mapping.sr, self.rows)

    @property
    def folds_col(self) -> int:
        """Folds along the Sc axis."""
        return ceil_div(self.mapping.sc, self.cols)

    @property
    def total_cycles(self) -> int:
        """Total runtime: folds x per-fold cycles (Eq. 1)."""
        return self.folds_row * self.folds_col * fold_cycles(self.rows, self.cols, self.mapping.t)

    def fold_traces(self) -> Iterator[FoldTrace]:
        """Yield the demand trace of every fold, in execution order."""
        length = fold_cycles(self.rows, self.cols, self.mapping.t)
        start = 0
        for fold_r in range(self.folds_row):
            for fold_c in range(self.folds_col):
                yield self._one_fold(fold_r, fold_c, start, length)
                start += length

    def fold_runs(self) -> Iterator[tuple[FoldTrace, int]]:
        """Yield ``(trace, repeats)`` runs of :meth:`fold_traces`, in order.

        A run stands for ``repeats`` consecutive folds whose ifmap
        demand is identical; ``trace`` is the first of them, so only its
        ifmap requests speak for the whole run.  In WS the row ports
        stream ``X[sr0:sr0+rows, :T]``, which depends on the row fold
        alone, so each row fold is one run of ``folds_col`` folds.  OS
        and IS yield every fold alone.
        """
        if self.dataflow is not Dataflow.WEIGHT_STATIONARY:
            for fold in self.fold_traces():
                yield fold, 1
            return
        length = fold_cycles(self.rows, self.cols, self.mapping.t)
        for fold_r in range(self.folds_row):
            start = fold_r * self.folds_col * length
            yield self._one_fold(fold_r, 0, start, length), self.folds_col

    def _one_fold(self, fold_r: int, fold_c: int, start: int, length: int) -> FoldTrace:
        sr0 = fold_r * self.rows
        sc0 = fold_c * self.cols
        rows_used = min(self.rows, self.mapping.sr - sr0)
        cols_used = min(self.cols, self.mapping.sc - sc0)
        t = self.mapping.t

        row_port = np.full((length, self.rows), NO_REQUEST, dtype=np.int64)
        col_port = np.full((length, self.cols), NO_REQUEST, dtype=np.int64)
        out_port = np.full((length, self.cols), NO_REQUEST, dtype=np.int64)

        if self.dataflow is Dataflow.OUTPUT_STATIONARY:
            self._fill_os(row_port, col_port, out_port, sr0, sc0, rows_used, cols_used, t)
        elif self.dataflow is Dataflow.WEIGHT_STATIONARY:
            self._fill_ws(row_port, col_port, out_port, sr0, sc0, rows_used, cols_used, t)
        else:
            self._fill_is(row_port, col_port, out_port, sr0, sc0, rows_used, cols_used, t)

        return FoldTrace(
            fold_row=fold_r,
            fold_col=fold_c,
            start_cycle=start,
            cycles=length,
            rows_used=rows_used,
            cols_used=cols_used,
            row_port_demand=row_port,
            col_port_demand=col_port,
            out_port_demand=out_port,
        )

    # ------------------------------------------------------------- dataflows

    @staticmethod
    def _fill_skewed(port: np.ndarray, data: np.ndarray, start: int) -> None:
        """Write ``data[j]`` into ``port[start + j + arange(L), j]``.

        Every dataflow's streaming/drain phase is the same diagonal skew:
        lane ``j`` carries ``data[j, :]`` starting one cycle after lane
        ``j - 1``.  The skew is a *sheared view* of the port matrix —
        element (j, i) lives at flat offset ``(start + j + i) * C + j``,
        i.e. strides ``(C + 1, C)`` — so one strided block assignment
        replaces the per-lane Python loop.  Distinct (j, i) map to
        distinct offsets (offsets with equal j + i differ by j < C), so
        the view aliases nothing.
        """
        lanes, length = data.shape
        if not lanes or not length:
            return
        row_stride, col_stride = port.strides
        sheared = np.lib.stride_tricks.as_strided(
            port[start:],
            shape=(lanes, length),
            strides=(row_stride + col_stride, row_stride),
        )
        sheared[:, :] = data

    def _fill_ws(
        self,
        row_port: np.ndarray,
        col_port: np.ndarray,
        out_port: np.ndarray,
        sr0: int,
        sc0: int,
        rows_used: int,
        cols_used: int,
        t: int,
    ) -> None:
        """Weight stationary: Sr=K, Sc=M; W^T preloaded, X streamed."""
        filt = self.operands.filter  # (M, K)
        ifmap = self.operands.ifmap  # (K, N)
        ofmap = self.operands.ofmap  # (M, N)
        # Preload: cycle p pushes stationary row p = W[sc0:sc0+cols, sr0+p].
        col_port[:rows_used, :cols_used] = filt[
            sc0 : sc0 + cols_used, sr0 : sr0 + rows_used
        ].T
        # Stream: row r consumes X[sr0 + r, n] at cycle R + n + r.
        self._fill_skewed(row_port, ifmap[sr0 : sr0 + rows_used, :t], self.rows)
        # Drain: column c emits O[sc0 + c, n] at cycle 2R - 1 + c + n.
        self._fill_skewed(out_port, ofmap[sc0 : sc0 + cols_used, :t], 2 * self.rows - 1)

    def _fill_is(
        self,
        row_port: np.ndarray,
        col_port: np.ndarray,
        out_port: np.ndarray,
        sr0: int,
        sc0: int,
        rows_used: int,
        cols_used: int,
        t: int,
    ) -> None:
        """Input stationary: Sr=K, Sc=N; X preloaded, W streamed."""
        filt = self.operands.filter  # (M, K)
        ifmap = self.operands.ifmap  # (K, N)
        ofmap = self.operands.ofmap  # (M, N)
        col_port[:rows_used, :cols_used] = ifmap[
            sr0 : sr0 + rows_used, sc0 : sc0 + cols_used
        ]
        self._fill_skewed(row_port, filt[:t, sr0 : sr0 + rows_used].T, self.rows)
        self._fill_skewed(out_port, ofmap[:t, sc0 : sc0 + cols_used].T, 2 * self.rows - 1)

    def _fill_os(
        self,
        row_port: np.ndarray,
        col_port: np.ndarray,
        out_port: np.ndarray,
        sr0: int,
        sc0: int,
        rows_used: int,
        cols_used: int,
        t: int,
    ) -> None:
        """Output stationary: Sr=M, Sc=N; W and X streamed, O drained."""
        filt = self.operands.filter  # (M, K)
        ifmap = self.operands.ifmap  # (K, N)
        ofmap = self.operands.ofmap  # (M, N)
        # Row r consumes W[sr0 + r, k] at cycle k + r.
        self._fill_skewed(row_port, filt[sr0 : sr0 + rows_used, :t], 0)
        # Column c consumes X[k, sc0 + c] at cycle k + c.
        self._fill_skewed(col_port, ifmap[:t, sc0 : sc0 + cols_used].T, 0)
        # Drain: column c emits rows_used partials starting at T + R - 1 + c.
        self._fill_skewed(
            out_port,
            ofmap[sr0 : sr0 + rows_used, sc0 : sc0 + cols_used].T,
            t + self.rows - 1,
        )

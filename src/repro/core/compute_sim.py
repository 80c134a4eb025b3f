"""Aggregate per-layer compute simulation (no trace materialisation).

:class:`ComputeSimulator` evaluates one layer on one array and returns a
:class:`LayerComputeResult` holding

* the exact Eq.-1 runtime and its fold decomposition,
* mapping efficiency and compute utilisation,
* exact SRAM access counts (derived in closed form from the per-fold
  port activity — identical to summing the demand traces), and
* a columnar :class:`FoldSchedule` describing what each fold needs
  fetched from backing store, which the double-buffer / DRAM models
  consume to compute stalls (it reads as a sequence of
  :class:`FoldSpec` views).

Closed-form SRAM access counts (R_u/C_u = used rows/cols of a fold,
summed over folds; ``frows``/``fcols`` = fold counts along Sr/Sc):

========  ======================  ======================  ====================
Dataflow  ifmap reads             filter reads            ofmap writes
========  ======================  ======================  ====================
WS        K * N * fcols           K * M                   M * N * frows
IS        K * N                   K * M * fcols           M * N * frows
OS        K * N * ceil(M / R)     M * K * ceil(N / C)     M * N
========  ======================  ======================  ====================

(The stationary operand is read exactly once; streams are re-read once
per fold along the other spatial axis; WS/IS emit one partial-sum write
per K-fold.)
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.dataflow import (
    Dataflow,
    GemmMapping,
    compute_utilization,
    fold_cycles,
    map_gemm,
    mapping_efficiency,
)
from repro.errors import SimulationError
from repro.topology.layer import ConvLayer, GemmLayer, GemmShape, Layer
from repro.utils.math import ceil_div


@dataclass(frozen=True)
class TileFetch:
    """A contiguous span of one operand to fetch from backing store."""

    operand: str  # "ifmap" | "filter" | "ofmap"
    start_word: int
    num_words: int
    is_write: bool = False

    def __post_init__(self) -> None:
        if self.operand not in ("ifmap", "filter", "ofmap"):
            raise SimulationError(f"unknown operand {self.operand!r}")
        if self.num_words < 0 or self.start_word < 0:
            raise SimulationError("negative tile fetch span")


@dataclass(frozen=True)
class FoldSpec:
    """One fold's schedule plus its backing-store traffic."""

    fold_row: int
    fold_col: int
    start_cycle: int
    cycles: int
    rows_used: int
    cols_used: int
    fetches: tuple[TileFetch, ...] = ()

    @property
    def fetch_words(self) -> int:
        """Words read from backing store ahead of this fold."""
        return sum(f.num_words for f in self.fetches if not f.is_write)

    @property
    def writeback_words(self) -> int:
        """Words written back to backing store after this fold."""
        return sum(f.num_words for f in self.fetches if f.is_write)


@dataclass(frozen=True, eq=False)
class FetchSlot:
    """One fetch position of a :class:`FoldSchedule`, across every fold.

    The operand and direction are fixed per slot; which folds issue the
    fetch (``present``) and its span vary per fold.  ``num_words`` is 0
    wherever the slot is absent, so column sums are traffic totals.
    """

    operand: str
    is_write: bool
    present: np.ndarray  # (folds,) bool
    start_word: np.ndarray  # (folds,) int64
    num_words: np.ndarray  # (folds,) int64

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FetchSlot):
            return NotImplemented
        return (
            (self.operand, self.is_write) == (other.operand, other.is_write)
            and np.array_equal(self.present, other.present)
            and np.array_equal(self.start_word, other.start_word)
            and np.array_equal(self.num_words, other.num_words)
        )


@dataclass(frozen=True, eq=False)
class FoldSchedule(Sequence[FoldSpec]):
    """A dense layer's fold schedule as columns, one row per fold.

    Folds run row-major over the ``folds_row x folds_col`` grid, each
    taking ``cycles``.  A fold's fetches are the present entries of
    ``slots`` in slot order.  Indexing or iterating yields
    :class:`FoldSpec` views built on demand (iterating builds them all
    once and keeps them), so the schedule drops in wherever a
    ``list[FoldSpec]`` is read; the ideal-bandwidth walk and the traffic
    totals read the columns directly and never build a view.
    """

    folds_row: int
    folds_col: int
    cycles: int
    rows_used: np.ndarray  # (folds_row,) used array rows per fold row
    cols_used: np.ndarray  # (folds_col,) used array cols per fold column
    slots: tuple[FetchSlot, ...]

    def __len__(self) -> int:
        return self.folds_row * self.folds_col

    def __getitem__(self, index: int) -> FoldSpec:  # type: ignore[override]
        folds = len(self)
        if index < 0:
            index += folds
        if not 0 <= index < folds:
            raise IndexError("fold index out of range")
        columns = [
            (slot.operand, slot.is_write, slot.present, slot.start_word, slot.num_words)
            for slot in self.slots
        ]
        return self._view(index, self.rows_used, self.cols_used, columns)

    def __iter__(self) -> Iterator[FoldSpec]:
        return iter(self._views)

    @cached_property
    def _views(self) -> tuple[FoldSpec, ...]:
        """Every fold's view, built on first iteration and kept.

        A cached plan is walked once per DRAM config it meets, so the
        views are built once per schedule, not once per walk.  They are
        never pickled (see :meth:`__getstate__`).
        """
        # Plain-list columns: indexing them is far cheaper than numpy's.
        columns = [
            (
                slot.operand,
                slot.is_write,
                slot.present.tolist(),
                slot.start_word.tolist(),
                slot.num_words.tolist(),
            )
            for slot in self.slots
        ]
        rows_used = self.rows_used.tolist()
        cols_used = self.cols_used.tolist()
        return tuple(
            self._view(index, rows_used, cols_used, columns) for index in range(len(self))
        )

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_views", None)
        return state

    def _view(self, index: int, rows_used, cols_used, columns) -> FoldSpec:
        fold_row, fold_col = divmod(index, self.folds_col)
        fetches = [
            TileFetch(operand, int(starts[index]), int(words[index]), is_write)
            for operand, is_write, present, starts, words in columns
            if present[index]
        ]
        return FoldSpec(
            fold_row,
            fold_col,
            index * self.cycles,
            self.cycles,
            int(rows_used[fold_row]),
            int(cols_used[fold_col]),
            tuple(fetches),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FoldSchedule):
            return NotImplemented
        return (
            (self.folds_row, self.folds_col, self.cycles)
            == (other.folds_row, other.folds_col, other.cycles)
            and np.array_equal(self.rows_used, other.rows_used)
            and np.array_equal(self.cols_used, other.cols_used)
            and self.slots == other.slots
        )

    def read_words(self) -> np.ndarray:
        """Words read from backing store ahead of each fold."""
        return self._words(is_write=False)

    def write_words(self) -> np.ndarray:
        """Words written back to backing store after each fold."""
        return self._words(is_write=True)

    def _words(self, is_write: bool) -> np.ndarray:
        words = np.zeros(len(self), dtype=np.int64)
        for slot in self.slots:
            if slot.is_write == is_write:
                words += slot.num_words
        return words

    def dram_word_totals(self) -> tuple[int, int, int, int]:
        """Total ifmap, filter, ofmap-write and ofmap-readback words."""
        totals = dict.fromkeys(
            [("ifmap", False), ("filter", False), ("ofmap", True), ("ofmap", False)], 0
        )
        for slot in self.slots:
            totals[(slot.operand, slot.is_write)] += int(slot.num_words.sum())
        return tuple(totals.values())  # type: ignore[return-value]


def schedule_cycles(fold_specs: Sequence[FoldSpec]) -> list[int]:
    """Per-fold compute cycles, read without building fold views."""
    if isinstance(fold_specs, FoldSchedule):
        return [fold_specs.cycles] * len(fold_specs)
    return [spec.cycles for spec in fold_specs]


@dataclass
class LayerComputeResult:
    """Everything the rest of the pipeline needs to know about one layer."""

    layer_name: str
    shape: GemmShape
    dataflow: Dataflow
    array_rows: int
    array_cols: int
    mapping: GemmMapping
    compute_cycles: int
    folds_row: int
    folds_col: int
    cycles_per_fold: int
    mapping_efficiency: float
    compute_utilization: float
    ifmap_sram_reads: int
    filter_sram_reads: int
    ofmap_sram_writes: int
    dram_ifmap_words: int
    dram_filter_words: int
    dram_ofmap_write_words: int
    dram_ofmap_readback_words: int
    fold_specs: Sequence[FoldSpec] = field(default_factory=list, repr=False)

    @property
    def total_folds(self) -> int:
        """Number of folds executed."""
        return self.folds_row * self.folds_col

    @property
    def macs(self) -> int:
        """Dense MAC count of the layer."""
        return self.shape.macs

    @property
    def total_sram_accesses(self) -> int:
        """All SRAM reads and writes."""
        return self.ifmap_sram_reads + self.filter_sram_reads + self.ofmap_sram_writes

    @property
    def total_dram_words(self) -> int:
        """All words moved between DRAM and the scratchpads."""
        return (
            self.dram_ifmap_words
            + self.dram_filter_words
            + self.dram_ofmap_write_words
            + self.dram_ofmap_readback_words
        )


class ComputeSimulator:
    """Evaluates layers on a fixed array/dataflow configuration."""

    def __init__(
        self,
        array_rows: int,
        array_cols: int,
        dataflow: Dataflow | str,
        ifmap_sram_words: int = 1 << 30,
        filter_sram_words: int = 1 << 30,
        ofmap_sram_words: int = 1 << 30,
    ) -> None:
        if array_rows < 1 or array_cols < 1:
            raise SimulationError(f"bad array {array_rows}x{array_cols}")
        self.rows = array_rows
        self.cols = array_cols
        self.dataflow = Dataflow.parse(dataflow) if isinstance(dataflow, str) else dataflow
        # Double buffering: half the SRAM holds the working set, half
        # prefetches; the usable working capacity is therefore half.
        self.ifmap_working_words = max(1, ifmap_sram_words // 2)
        self.filter_working_words = max(1, filter_sram_words // 2)
        self.ofmap_working_words = max(1, ofmap_sram_words // 2)

    # ------------------------------------------------------------------ API

    def simulate_layer(self, layer: Layer, with_fold_specs: bool = True) -> LayerComputeResult:
        """Simulate one layer; optionally attach the per-fold fetch plan."""
        shape = layer.to_gemm()
        mapping = map_gemm(shape, self.dataflow)
        frows = ceil_div(mapping.sr, self.rows)
        fcols = ceil_div(mapping.sc, self.cols)
        per_fold = fold_cycles(self.rows, self.cols, mapping.t)
        total = frows * fcols * per_fold

        ifmap_reads, filter_reads, ofmap_writes = self._sram_access_counts(
            shape, frows, fcols
        )
        raw_ifmap, raw_filter, raw_ofmap = self._raw_footprints(layer, shape)
        fold_specs: Sequence[FoldSpec]
        if with_fold_specs:
            fold_specs = self._build_fold_schedule(
                mapping, frows, fcols, per_fold, raw_ifmap, raw_filter, raw_ofmap
            )
            dram_ifmap, dram_filter, dram_owrite, dram_oread = fold_specs.dram_word_totals()
        else:
            fold_specs = []
            dram_ifmap, dram_filter, dram_owrite, dram_oread = self._dram_totals_closed_form(
                shape, mapping, frows, fcols, raw_ifmap, raw_filter, raw_ofmap
            )

        return LayerComputeResult(
            layer_name=layer.name,
            shape=shape,
            dataflow=self.dataflow,
            array_rows=self.rows,
            array_cols=self.cols,
            mapping=mapping,
            compute_cycles=total,
            folds_row=frows,
            folds_col=fcols,
            cycles_per_fold=per_fold,
            mapping_efficiency=mapping_efficiency(mapping, self.rows, self.cols),
            compute_utilization=compute_utilization(shape, self.dataflow, self.rows, self.cols),
            ifmap_sram_reads=ifmap_reads,
            filter_sram_reads=filter_reads,
            ofmap_sram_writes=ofmap_writes,
            dram_ifmap_words=dram_ifmap,
            dram_filter_words=dram_filter,
            dram_ofmap_write_words=dram_owrite,
            dram_ofmap_readback_words=dram_oread,
            fold_specs=fold_specs,
        )

    # ------------------------------------------------------------ internals

    def _sram_access_counts(
        self, shape: GemmShape, frows: int, fcols: int
    ) -> tuple[int, int, int]:
        m, n, k = shape.m, shape.n, shape.k
        if self.dataflow is Dataflow.WEIGHT_STATIONARY:
            return k * n * fcols, k * m, m * n * frows
        if self.dataflow is Dataflow.INPUT_STATIONARY:
            return k * n, k * m * fcols, m * n * frows
        # OS: Sr=M, Sc=N.
        return n * k * frows, m * k * fcols, m * n

    @staticmethod
    def _raw_footprints(layer: Layer, shape: GemmShape) -> tuple[int, int, int]:
        """Words in the raw (pre-im2col) operand tensors."""
        if isinstance(layer, ConvLayer):
            return layer.ifmap_words, layer.filter_words, layer.ofmap_words
        if isinstance(layer, GemmLayer):
            return shape.ifmap_words, shape.filter_words, shape.ofmap_words
        raise SimulationError(f"unsupported layer type: {type(layer).__name__}")

    def _build_fold_schedule(
        self,
        mapping: GemmMapping,
        frows: int,
        fcols: int,
        per_fold: int,
        raw_ifmap: int,
        raw_filter: int,
        raw_ofmap: int,
    ) -> FoldSchedule:
        """Plan per-fold backing-store traffic with double-buffer reuse.

        DRAM spans are synthesised over each operand's *raw* footprint
        (contiguous streaming), proportional to the tile being fetched.
        Im2col duplication is an SRAM-side effect and is charged there;
        DRAM sees unique data.  See DESIGN.md "Core modelling decisions"
        and "The columnar fold schedule".
        """
        df = self.dataflow
        folds = frows * fcols
        rows_used = np.minimum(
            self.rows, mapping.sr - self.rows * np.arange(frows, dtype=np.int64)
        )
        cols_used = np.minimum(
            self.cols, mapping.sc - self.cols * np.arange(fcols, dtype=np.int64)
        )
        fr = np.repeat(np.arange(frows, dtype=np.int64), fcols)
        fc = np.tile(np.arange(fcols, dtype=np.int64), frows)
        fold_rows_used = rows_used[fr]
        fold_cols_used = cols_used[fc]
        everywhere = np.ones(folds, dtype=bool)
        zeros = np.zeros(folds, dtype=np.int64)
        raw_words = {"ifmap": raw_ifmap, "filter": raw_filter}

        # Raw words corresponding to a ``used / total_dim`` share of
        # each operand, capped by the raw footprint.
        def slice_words(raw_total: int, used: np.ndarray, total_dim: int) -> np.ndarray:
            if total_dim == 0:
                return zeros
            return np.minimum(raw_total, -(-(raw_total * used) // total_dim))

        def slot(
            operand: str, present: np.ndarray, words: np.ndarray, advance: np.ndarray
        ) -> FetchSlot:
            # The operand cursor before each fold is the exclusive
            # cumsum of what earlier folds advanced it by.
            cursor = np.cumsum(advance) - advance
            return FetchSlot(
                operand,
                False,
                present,
                cursor % max(1, raw_words[operand]),
                np.where(present, words, 0),
            )

        def streamed(operand: str, words: np.ndarray, working: int) -> FetchSlot:
            # A streamed slice is fetched at fc == 0 and reused across fc
            # while it fits.  The cursor advances only when the slice
            # does not fit or on the last fc of a fetch — so with a
            # fitting slice and fcols > 1 it never advances.
            fits = words <= working
            present = (fc == 0) | ~fits
            advances = ~fits if fcols > 1 else everywhere
            return slot(operand, present, words, np.where(advances, words, 0))

        def stationary(operand: str, words: np.ndarray) -> FetchSlot:
            return slot(operand, everywhere, words, words)

        def ofmap_partials() -> list[FetchSlot]:
            # Ofmap partials: commit once per K-fold unless the output
            # tile accumulates on-chip across fr.
            words = np.minimum(fold_cols_used * mapping.t, raw_ofmap)
            if raw_ofmap <= self.ofmap_working_words:
                last = fr == frows - 1
                return [FetchSlot("ofmap", True, last, zeros, np.where(last, words, 0))]
            readback = fr > 0
            return [
                FetchSlot("ofmap", True, everywhere, zeros, words),
                FetchSlot("ofmap", False, readback, zeros, np.where(readback, words, 0)),
            ]

        if df is Dataflow.WEIGHT_STATIONARY:
            # Stationary filter tile; streamed ifmap slice per fold row.
            slots = [
                stationary("filter", fold_rows_used * fold_cols_used),
                streamed(
                    "ifmap",
                    slice_words(raw_ifmap, fold_rows_used, mapping.sr),
                    self.ifmap_working_words,
                ),
                *ofmap_partials(),
            ]
        elif df is Dataflow.INPUT_STATIONARY:
            slots = [
                stationary(
                    "ifmap",
                    slice_words(
                        raw_ifmap, fold_rows_used * fold_cols_used, mapping.sr * mapping.sc
                    ),
                ),
                streamed(
                    "filter",
                    slice_words(raw_filter, fold_rows_used, mapping.sr),
                    self.filter_working_words,
                ),
                *ofmap_partials(),
            ]
        else:  # OUTPUT_STATIONARY
            # Column-streamed ifmap slice: new per fc, refetched every fr
            # pass unless the whole ifmap fits on-chip.  Outputs commit
            # once.
            x_words = slice_words(raw_ifmap, fold_cols_used, mapping.sc)
            fetched = (fr == 0) | (raw_ifmap > self.ifmap_working_words)
            x_advance = np.where(fetched, x_words, 0)
            slots = [
                streamed(
                    "filter",
                    slice_words(raw_filter, fold_rows_used, mapping.sr),
                    self.filter_working_words,
                ),
                slot("ifmap", fetched, x_words, x_advance),
                FetchSlot(
                    "ofmap",
                    True,
                    everywhere,
                    zeros,
                    np.minimum(fold_rows_used * fold_cols_used, raw_ofmap),
                ),
            ]
        return FoldSchedule(
            folds_row=frows,
            folds_col=fcols,
            cycles=per_fold,
            rows_used=rows_used,
            cols_used=cols_used,
            slots=tuple(slots),
        )

    def _dram_totals_closed_form(
        self,
        shape: GemmShape,
        mapping: GemmMapping,
        frows: int,
        fcols: int,
        raw_ifmap: int,
        raw_filter: int,
        raw_ofmap: int,
    ) -> tuple[int, int, int, int]:
        """Fast-path totals used when fold specs are not materialised.

        Conservative approximation of :meth:`_build_fold_schedule`: streams
        are charged once per reuse group, the stationary operand once.
        """
        df = self.dataflow
        accumulate = raw_ofmap <= self.ofmap_working_words
        if df is Dataflow.WEIGHT_STATIONARY:
            stream_slice = ceil_div(raw_ifmap, frows)
            fits = stream_slice <= self.ifmap_working_words
            ifmap = raw_ifmap if fits else raw_ifmap * fcols
            owrite = raw_ofmap if accumulate else raw_ofmap * frows
            oread = 0 if accumulate else raw_ofmap * (frows - 1)
            return ifmap, raw_filter, owrite, oread
        if df is Dataflow.INPUT_STATIONARY:
            stream_slice = ceil_div(raw_filter, frows)
            fits = stream_slice <= self.filter_working_words
            filt = raw_filter if fits else raw_filter * fcols
            owrite = raw_ofmap if accumulate else raw_ofmap * frows
            oread = 0 if accumulate else raw_ofmap * (frows - 1)
            return raw_ifmap, filt, owrite, oread
        w_slice = ceil_div(raw_filter, frows)
        fits_w = w_slice <= self.filter_working_words
        filt = raw_filter if fits_w else raw_filter * fcols
        ifmap = raw_ifmap if raw_ifmap <= self.ifmap_working_words else raw_ifmap * frows
        return ifmap, filt, raw_ofmap, 0

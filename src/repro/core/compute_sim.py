"""Aggregate per-layer compute simulation (no trace materialisation).

:class:`ComputeSimulator` evaluates one layer on one array and returns a
:class:`LayerComputeResult` holding

* the exact Eq.-1 runtime and its fold decomposition,
* mapping efficiency and compute utilisation,
* exact SRAM access counts (derived in closed form from the per-fold
  port activity — identical to summing the demand traces), and
* a columnar :class:`FoldSchedule` describing what each fold needs
  fetched from backing store, which the double-buffer / DRAM models
  consume to compute stalls (it reads as a sequence of per-fold
  :class:`TileFetch` tuples).

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
class FoldSchedule(Sequence[tuple[TileFetch, ...]]):
    """A layer's fold schedule as columns, one row per fold.

    Every fold takes ``cycles``; a fold's fetches are the present
    entries of ``slots`` in slot order.  Indexing or iterating yields
    each fold's ``tuple[TileFetch, ...]`` for the per-fold walks (the
    first access builds them all once and keeps them); the
    ideal-bandwidth walk and the traffic totals read the columns
    directly and never build a fetch.
    """

    folds: int
    cycles: int
    slots: tuple[FetchSlot, ...]

    def __len__(self) -> int:
        return self.folds

    def __getitem__(self, index: int) -> tuple[TileFetch, ...]:  # type: ignore[override]
        return self._fetches[index]

    def __iter__(self) -> Iterator[tuple[TileFetch, ...]]:
        return iter(self._fetches)

    @cached_property
    def _fetches(self) -> tuple[tuple[TileFetch, ...], ...]:
        """Every fold's fetches, built on first access and kept.

        A cached plan is walked once per DRAM config it meets, so the
        fetches are built once per schedule, not once per walk.  They
        are never pickled (see :meth:`__getstate__`).
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
        return tuple(
            tuple(
                TileFetch(operand, starts[index], words[index], is_write)
                for operand, is_write, present, starts, words in columns
                if present[index]
            )
            for index in range(self.folds)
        )

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_fetches", None)
        return state

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FoldSchedule):
            return NotImplemented
        return (self.folds, self.cycles, self.slots) == (
            other.folds,
            other.cycles,
            other.slots,
        )

    def read_words(self) -> np.ndarray:
        """Words read from backing store ahead of each fold."""
        return self._words(is_write=False)

    def write_words(self) -> np.ndarray:
        """Words written back to backing store after each fold."""
        return self._words(is_write=True)

    def _words(self, is_write: bool) -> np.ndarray:
        words = np.zeros(self.folds, dtype=np.int64)
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


#: One-element read-only buffers behind :func:`_constant_column`.
_ALWAYS = np.ones(1, dtype=bool)
_ZERO_WORDS = np.zeros(1, dtype=np.int64)
_ALWAYS.flags.writeable = _ZERO_WORDS.flags.writeable = False


def _constant_column(value: np.ndarray, folds: int) -> np.ndarray:
    """``folds`` copies of the one-element ``value`` as a zero-stride view.

    The plan cache keeps every schedule, and a full constant column
    would add up to 9 bytes per fold.  The view is read-only, like
    :func:`numpy.broadcast_to`'s, and ~5x cheaper to build.
    """
    return np.ndarray((folds,), value.dtype, value, 0, (0,))


def ofmap_slots(
    words: np.ndarray, first: np.ndarray, last: np.ndarray, accumulate: bool
) -> list[FetchSlot]:
    """Ofmap partial-sum traffic of a K-folded (WS/IS) schedule.

    Partials commit once per K-fold, and every K-fold but an output
    tile's ``first`` reads the previous partial back.  If the tile
    accumulates on-chip (``accumulate``) it commits once instead, on
    its ``last`` K-fold.
    """
    zeros = _constant_column(_ZERO_WORDS, len(words))
    if accumulate:
        return [FetchSlot("ofmap", True, last, zeros, np.where(last, words, 0))]
    readback = ~first
    return [
        FetchSlot("ofmap", True, _constant_column(_ALWAYS, len(words)), zeros, words),
        FetchSlot("ofmap", False, readback, zeros, np.where(readback, words, 0)),
    ]


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
    fold_specs: Sequence[tuple[TileFetch, ...]] = field(default_factory=list, repr=False)

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

    def simulate_layer(self, layer: Layer) -> LayerComputeResult:
        """Simulate one layer, per-fold fetch plan included."""
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
        fold_specs = self._build_fold_schedule(
            mapping, frows, fcols, per_fold, raw_ifmap, raw_filter, raw_ofmap
        )
        dram_ifmap, dram_filter, dram_owrite, dram_oread = fold_specs.dram_word_totals()

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
        # Fold i is row fold i // fcols, column fold i % fcols.
        fr, fc = np.divmod(np.arange(folds, dtype=np.int64), fcols)
        fold_rows_used = rows_used[fr]
        fold_cols_used = cols_used[fc]
        everywhere = _constant_column(_ALWAYS, folds)
        raw_words = {"ifmap": raw_ifmap, "filter": raw_filter}

        # Raw words corresponding to a ``used / total_dim`` share of
        # each operand, capped by the raw footprint.
        def slice_words(raw_total: int, used: np.ndarray, total_dim: int) -> np.ndarray:
            return np.minimum(raw_total, -(-(raw_total * used) // total_dim))

        def slot(
            operand: str, present: np.ndarray, words: np.ndarray, advance: np.ndarray
        ) -> FetchSlot:
            # The operand cursor before each fold is the exclusive
            # cumsum of what earlier folds advanced it by.
            cursor = np.cumsum(advance)
            cursor -= advance
            cursor %= max(1, raw_words[operand])
            if present is not everywhere:
                words = np.where(present, words, 0)
            return FetchSlot(operand, False, present, cursor, words)

        def stationary(operand: str, words: np.ndarray) -> FetchSlot:
            return slot(operand, everywhere, words, words)

        def streamed(operand: str, words: np.ndarray, working: int) -> FetchSlot:
            # A streamed slice is fetched at fc == 0 and reused across fc
            # while it fits.  The cursor advances only when the slice
            # does not fit or on the last fc of a fetch — so with a
            # fitting slice and fcols > 1 it never advances, and with
            # fcols == 1 every fold fetches and advances.
            if fcols == 1:
                return stationary(operand, words)
            misses = words > working
            return slot(
                operand, (fc == 0) | misses, words, np.where(misses, words, 0)
            )

        def ofmap_partials() -> list[FetchSlot]:
            return ofmap_slots(
                np.minimum(fold_cols_used * mapping.t, raw_ofmap),
                fr == 0,
                fr == frows - 1,
                raw_ofmap <= self.ofmap_working_words,
            )

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
            if raw_ifmap > self.ifmap_working_words or frows == 1:
                x_slot = stationary("ifmap", x_words)
            else:
                fetched = fr == 0
                x_slot = slot("ifmap", fetched, x_words, np.where(fetched, x_words, 0))
            slots = [
                streamed(
                    "filter",
                    slice_words(raw_filter, fold_rows_used, mapping.sr),
                    self.filter_working_words,
                ),
                x_slot,
                FetchSlot(
                    "ofmap",
                    True,
                    everywhere,
                    _constant_column(_ZERO_WORDS, folds),
                    np.minimum(fold_rows_used * fold_cols_used, raw_ofmap),
                ),
            ]
        return FoldSchedule(folds=folds, cycles=per_fold, slots=tuple(slots))

"""Columnar fold schedule == the scalar per-fold loops it replaced.

:class:`~repro.core.compute_sim.FoldSchedule` builds each layer's folds
as numpy columns, dense (:class:`ComputeSimulator`) and sparse
(:class:`SparseComputeSimulator`) alike, and :meth:`DoubleBufferMemory.run`
resolves a schedule against the ideal-bandwidth backend in closed form.
Both must be bit-exact to the scalar references they replaced, quirks
included:

* :func:`reference_build_fold_specs` (dense) and
  :func:`reference_build_sparse_fold_specs` (sparse WS) are the original
  per-fold planning loops, kept verbatim as the executable specs
  (``self`` is the simulator whose array and SRAM sizes they read);
  :class:`FoldSpec` is the per-fold record they emit;
* the per-fold ``complete_fetches`` walk is the one
  :meth:`DoubleBufferMemory.run` takes on any backend other than the
  plain ideal one, so running on :class:`PerFoldIdealBackend` (an
  ideal-bandwidth subclass) is the spec walk.

Random conv and GEMM layers cover all three dataflows, 1xN / Nx1
arrays, and SRAM sizes that flip "the streamed slice fits" and "the
ofmap accumulates on-chip" both ways; sparse layers add layer-wise and
row-wise patterns over random block sizes.
"""

import pickle
import random
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.compute_sim import ComputeSimulator, FoldSchedule, TileFetch
from repro.core.dataflow import Dataflow, GemmMapping, fold_cycles, map_gemm
from repro.core.simulator import ComputePlan, resolve_plan
from repro.memory.double_buffer import DoubleBufferMemory, IdealBandwidthBackend
from repro.sparsity.formats import StorageEstimate
from repro.sparsity.pattern import layerwise_pattern, rowwise_pattern
from repro.sparsity.sparse_compute import SparseComputeSimulator
from repro.topology.layer import ConvLayer, GemmLayer, GemmShape, Layer, SparsityRatio
from repro.utils.math import ceil_div
from repro.utils.rng import make_rng

DATAFLOWS = list(Dataflow)


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


class PerFoldIdealBackend(IdealBandwidthBackend):
    """The ideal backend, walked fold by fold through ``complete_fetches``.

    :meth:`DoubleBufferMemory.run` takes the closed form only when the
    backend's type is exactly :class:`IdealBandwidthBackend`.
    """


def reference_build_fold_specs(
    self,
    shape: GemmShape,
    mapping: GemmMapping,
    frows: int,
    fcols: int,
    per_fold: int,
    raw_ifmap: int,
    raw_filter: int,
    raw_ofmap: int,
) -> list[FoldSpec]:
    """Plan per-fold backing-store traffic with double-buffer reuse.

    DRAM spans are synthesised over each operand's *raw* footprint
    (contiguous streaming), proportional to the tile being fetched.
    Im2col duplication is an SRAM-side effect and is charged there;
    DRAM sees unique data.  See DESIGN.md "Core modelling decisions".
    """
    specs: list[FoldSpec] = []
    t = mapping.t
    df = self.dataflow
    start = 0

    # Raw words corresponding to one Sr-slice (row fold) of each
    # streamed operand, capped by the raw footprint.
    def slice_words(raw_total: int, used: int, total_dim: int) -> int:
        if total_dim == 0:
            return 0
        return min(raw_total, ceil_div(raw_total * used, total_dim))

    ifmap_cursor = 0
    filter_cursor = 0

    for fr in range(frows):
        rows_used = min(self.rows, mapping.sr - fr * self.rows)
        for fc in range(fcols):
            cols_used = min(self.cols, mapping.sc - fc * self.cols)
            fetches: list[TileFetch] = []

            if df is Dataflow.WEIGHT_STATIONARY:
                # Stationary filter tile: rows_used x cols_used words.
                stat_words = rows_used * cols_used
                fetches.append(TileFetch("filter", filter_cursor % max(1, raw_filter), stat_words))
                filter_cursor += stat_words
                # Streamed ifmap slice: reused across fc if it fits.
                stream_words = slice_words(raw_ifmap, rows_used, mapping.sr)
                fits = stream_words <= self.ifmap_working_words
                if fc == 0 or not fits:
                    fetches.append(TileFetch("ifmap", ifmap_cursor % max(1, raw_ifmap), stream_words))
                    if not fits or fc == fcols - 1:
                        ifmap_cursor += stream_words
                # Ofmap partials: commit once per K-fold unless the
                # output tile accumulates on-chip across fr.
                out_tile = cols_used * t
                accumulate = raw_ofmap <= self.ofmap_working_words
                if not accumulate:
                    fetches.append(TileFetch("ofmap", 0, min(out_tile, raw_ofmap), is_write=True))
                    if fr > 0:
                        fetches.append(TileFetch("ofmap", 0, min(out_tile, raw_ofmap)))
                elif fr == frows - 1:
                    fetches.append(TileFetch("ofmap", 0, min(out_tile, raw_ofmap), is_write=True))

            elif df is Dataflow.INPUT_STATIONARY:
                stat_words = slice_words(raw_ifmap, rows_used * cols_used, mapping.sr * mapping.sc)
                fetches.append(TileFetch("ifmap", ifmap_cursor % max(1, raw_ifmap), stat_words))
                ifmap_cursor += stat_words
                stream_words = slice_words(raw_filter, rows_used, mapping.sr)
                fits = stream_words <= self.filter_working_words
                if fc == 0 or not fits:
                    fetches.append(TileFetch("filter", filter_cursor % max(1, raw_filter), stream_words))
                    if not fits or fc == fcols - 1:
                        filter_cursor += stream_words
                out_tile = cols_used * t
                accumulate = raw_ofmap <= self.ofmap_working_words
                if not accumulate:
                    fetches.append(TileFetch("ofmap", 0, min(out_tile, raw_ofmap), is_write=True))
                    if fr > 0:
                        fetches.append(TileFetch("ofmap", 0, min(out_tile, raw_ofmap)))
                elif fr == frows - 1:
                    fetches.append(TileFetch("ofmap", 0, min(out_tile, raw_ofmap), is_write=True))

            else:  # OUTPUT_STATIONARY
                # Row-streamed filter slice reused across fc folds.
                w_words = slice_words(raw_filter, rows_used, mapping.sr)
                fits_w = w_words <= self.filter_working_words
                if fc == 0 or not fits_w:
                    fetches.append(TileFetch("filter", filter_cursor % max(1, raw_filter), w_words))
                    if not fits_w or fc == fcols - 1:
                        filter_cursor += w_words
                # Column-streamed ifmap slice: new per fc, refetched
                # every fr pass unless the whole ifmap fits on-chip.
                x_words = slice_words(raw_ifmap, cols_used, mapping.sc)
                cached = raw_ifmap <= self.ifmap_working_words and fr > 0
                if not cached:
                    fetches.append(TileFetch("ifmap", ifmap_cursor % max(1, raw_ifmap), x_words))
                    ifmap_cursor += x_words
                # Outputs commit once.
                fetches.append(
                    TileFetch("ofmap", 0, min(rows_used * cols_used, raw_ofmap), is_write=True)
                )

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


def reference_build_sparse_fold_specs(
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


def _random_layer(rng: random.Random):
    if rng.random() < 0.5:
        filter_h = rng.randint(1, 5)
        filter_w = rng.randint(1, 5)
        return ConvLayer(
            "conv",
            ifmap_h=rng.randint(filter_h, 16),
            ifmap_w=rng.randint(filter_w, 16),
            filter_h=filter_h,
            filter_w=filter_w,
            channels=rng.randint(1, 12),
            num_filters=rng.randint(1, 32),
            stride_h=rng.randint(1, 2),
            stride_w=rng.randint(1, 2),
        )
    m, n, k = (rng.randint(1, 80) for _ in range(3))
    return GemmLayer("gemm", m=m, n=n, k=k)


def _sram_words(rng: random.Random) -> int:
    # Tiny, near-tile and huge buffers flip "fits" / "accumulate" both ways.
    return rng.choice([1, 2, rng.randint(3, 64), rng.randint(64, 4096), 1 << 30])


def _random_simulator(rng: random.Random, dataflow: Dataflow) -> ComputeSimulator:
    rows, cols = rng.choice(
        [
            (1, rng.randint(1, 16)),
            (rng.randint(1, 16), 1),
            (rng.randint(1, 16), rng.randint(1, 16)),
        ]
    )
    return ComputeSimulator(
        rows,
        cols,
        dataflow,
        ifmap_sram_words=_sram_words(rng),
        filter_sram_words=_sram_words(rng),
        ofmap_sram_words=_sram_words(rng),
    )


def _reference(sim: ComputeSimulator, layer) -> list[FoldSpec]:
    shape = layer.to_gemm()
    mapping = map_gemm(shape, sim.dataflow)
    frows = ceil_div(mapping.sr, sim.rows)
    fcols = ceil_div(mapping.sc, sim.cols)
    raw = sim._raw_footprints(layer, shape)
    return reference_build_fold_specs(
        sim, shape, mapping, frows, fcols, fold_cycles(sim.rows, sim.cols, mapping.t), *raw
    )


def _operand_totals(specs: list[FoldSpec]) -> tuple[int, int, int, int]:
    ifmap = filt = owrite = oread = 0
    for spec in specs:
        for fetch in spec.fetches:
            if fetch.operand == "ifmap":
                ifmap += fetch.num_words
            elif fetch.operand == "filter":
                filt += fetch.num_words
            elif fetch.is_write:
                owrite += fetch.num_words
            else:
                oread += fetch.num_words
    return ifmap, filt, owrite, oread


def _assert_schedule_matches(schedule, reference: list[FoldSpec], context) -> None:
    """A columnar schedule reads exactly as the reference fold list."""
    assert isinstance(schedule, FoldSchedule), context
    assert len(schedule) == len(reference), context
    assert list(schedule) == [spec.fetches for spec in reference], context
    for index in {0, len(schedule) // 2, len(schedule) - 1}:
        assert schedule[index] == reference[index].fetches, context
    assert schedule[-1] == reference[-1].fetches, context
    assert [spec.cycles for spec in reference] == [schedule.cycles] * len(schedule)
    assert [spec.start_cycle for spec in reference] == [
        index * schedule.cycles for index in range(len(schedule))
    ], context
    assert schedule.read_words().tolist() == [s.fetch_words for s in reference]
    assert schedule.write_words().tolist() == [s.writeback_words for s in reference]
    assert schedule.dram_word_totals() == _operand_totals(reference), context


@pytest.mark.parametrize("dataflow", DATAFLOWS, ids=str)
def test_columnar_schedule_matches_scalar_loop(dataflow):
    rng = random.Random(f"fold-schedule-{dataflow}")
    flips = {"fits": set(), "accumulate": set()}
    for _ in range(100):
        sim = _random_simulator(rng, dataflow)
        layer = _random_layer(rng)
        result = sim.simulate_layer(layer)
        reference = _reference(sim, layer)
        context = (dataflow, sim.rows, sim.cols, layer)
        assert len(reference) == result.total_folds, context
        _assert_schedule_matches(result.fold_specs, reference, context)
        assert (
            result.dram_ifmap_words,
            result.dram_filter_words,
            result.dram_ofmap_write_words,
            result.dram_ofmap_readback_words,
        ) == _operand_totals(reference), context
        stream = "ifmap" if dataflow is Dataflow.WEIGHT_STATIONARY else "filter"
        slices = [f.num_words for s in reference for f in s.fetches if f.operand == stream]
        working = sim.ifmap_working_words if stream == "ifmap" else sim.filter_working_words
        flips["fits"].update(words <= working for words in slices)
        flips["accumulate"].add(layer.to_gemm().ofmap_words <= sim.ofmap_working_words)
    assert flips == {"fits": {True, False}, "accumulate": {True, False}}


def _random_sparse_simulator(rng: random.Random) -> SparseComputeSimulator:
    rows, cols = rng.choice(
        [
            (1, rng.randint(1, 16)),
            (rng.randint(1, 16), 1),
            (rng.randint(1, 16), rng.randint(1, 16)),
        ]
    )
    return SparseComputeSimulator(
        rows,
        cols,
        representation=rng.choice(["csr", "csc", "ellpack_block"]),
        word_bits=rng.choice([8, 16]),
        ifmap_sram_words=_sram_words(rng),
        ofmap_sram_words=_sram_words(rng),
    )


def _random_pattern(rng: random.Random, layer):
    """A layer-wise or row-wise pattern over a random block size."""
    shape = layer.to_gemm()
    block = rng.randint(2, 9)
    if rng.random() < 0.5:
        ratio = SparsityRatio(rng.randint(0, block), block)
        return "layerwise", layerwise_pattern(shape.m, shape.k, ratio)
    numpy_rng = make_rng(rng.randrange(1 << 30))
    return "rowwise", rowwise_pattern(shape.m, shape.k, block, numpy_rng)


def _sparse_reference(sim: SparseComputeSimulator, layer, result) -> list[FoldSpec]:
    shape = layer.to_gemm()
    mapping = map_gemm(shape, Dataflow.WEIGHT_STATIONARY)
    row_lengths = result.pattern.compressed_row_length()
    tile_max = np.maximum.reduceat(row_lengths, np.arange(0, shape.m, sim.cols))
    tile_keff = np.maximum(tile_max, 1).tolist()
    return reference_build_sparse_fold_specs(
        sim,
        layer,
        shape,
        mapping,
        tile_keff,
        fold_cycles(sim.rows, sim.cols, mapping.t),
        result.compressed_storage,
    )


def test_sparse_schedule_matches_scalar_loop():
    rng = random.Random("sparse-fold-schedule")
    flips = {"fits": set(), "accumulate": set(), "pattern": set()}
    for _ in range(150):
        sim = _random_sparse_simulator(rng)
        layer = _random_layer(rng)
        kind, pattern = _random_pattern(rng, layer)
        result = sim.simulate_layer(layer, pattern=pattern)
        reference = _sparse_reference(sim, layer, result)
        context = (kind, sim.rows, sim.cols, sim.representation, layer)
        _assert_schedule_matches(result.fold_specs, reference, context)
        assert len(reference) * result.fold_specs.cycles == result.sparse_compute_cycles
        assert [(s.fold_col, s.fold_row) for s in reference] == sorted(
            (s.fold_col, s.fold_row) for s in reference
        ), context
        slices = [f.num_words for s in reference for f in s.fetches if f.operand == "ifmap"]
        flips["fits"].update(words <= sim.ifmap_working_words for words in slices)
        flips["accumulate"].add(layer.ofmap_words <= sim.ofmap_working_words)
        flips["pattern"].add(kind)
    assert flips == {
        "fits": {True, False},
        "accumulate": {True, False},
        "pattern": {"layerwise", "rowwise"},
    }


def _random_schedule(rng: random.Random) -> FoldSchedule:
    if rng.random() < 0.5:
        simulator = _random_sparse_simulator(rng)
        layer = _random_layer(rng)
        return simulator.simulate_layer(layer, pattern=_random_pattern(rng, layer)[1]).fold_specs
    simulator = _random_simulator(rng, rng.choice(DATAFLOWS))
    return simulator.simulate_layer(_random_layer(rng)).fold_specs


def _prebusy(backend: IdealBandwidthBackend, rng: random.Random) -> None:
    if rng.random() < 0.5:
        words = rng.randint(1, 5000)
        backend.complete_fetches((TileFetch("ifmap", 0, words),), rng.randint(0, 500))


def _backend_state(backend: IdealBandwidthBackend) -> tuple[int, int, int]:
    return backend.drain(), backend.total_read_words, backend.total_write_words


def test_closed_form_ideal_walk_matches_per_fold_walk():
    rng = random.Random("ideal-closed-form")
    for _ in range(200):
        schedule = _random_schedule(rng)
        bandwidth = rng.choice([1, rng.randint(2, 16), rng.randint(16, 512)])
        latency = rng.choice([0, rng.randint(1, 200)])
        start_cycle = rng.choice([0, rng.randint(1, 10_000)])
        keep = rng.random() < 0.5
        state = rng.getstate()
        closed_backend = IdealBandwidthBackend(bandwidth, latency)
        _prebusy(closed_backend, rng)
        rng.setstate(state)
        loop_backend = PerFoldIdealBackend(bandwidth, latency)
        _prebusy(loop_backend, rng)
        closed = DoubleBufferMemory(closed_backend).run(
            schedule, keep_timings=keep, start_cycle=start_cycle
        )
        loop = DoubleBufferMemory(loop_backend).run(
            schedule, keep_timings=keep, start_cycle=start_cycle
        )
        context = (bandwidth, latency, start_cycle, len(schedule))
        assert closed == loop, context
        assert _backend_state(closed_backend) == _backend_state(loop_backend), context
        for value in (closed.total_cycles, closed.stall_cycles, closed.cold_start_cycles):
            assert type(value) is int


def test_multi_layer_plan_on_one_shared_backend():
    rng = random.Random("ideal-plan")
    for _ in range(20):
        computes = []
        for _ in range(rng.randint(2, 5)):
            sim = _random_simulator(rng, rng.choice(DATAFLOWS))
            computes.append(sim.simulate_layer(_random_layer(rng)))
        plan = ComputePlan("fuzz", ("fuzz",), tuple(computes))
        bandwidth, latency = rng.randint(1, 64), rng.choice([0, rng.randint(1, 100)])
        closed_backend = IdealBandwidthBackend(bandwidth, latency)
        loop_backend = PerFoldIdealBackend(bandwidth, latency)
        closed = resolve_plan(plan, closed_backend, "closed", keep_timings=True)
        loop = resolve_plan(plan, loop_backend, "loop", keep_timings=True)
        assert [layer.timeline for layer in closed.layers] == [
            layer.timeline for layer in loop.layers
        ]
        assert [layer.drain_cycles for layer in closed.layers] == [
            layer.drain_cycles for layer in loop.layers
        ]
        assert _backend_state(closed_backend) == _backend_state(loop_backend)


def test_schedule_pickle_roundtrip_is_equal():
    rng = random.Random("pickle")
    for _ in range(10):
        schedule = _random_schedule(rng)
        clone = pickle.loads(pickle.dumps(schedule))
        assert clone == schedule
        assert list(clone) == list(schedule)


def test_views_are_built_once_and_never_pickled():
    schedule = _random_schedule(random.Random("views"))
    unwalked = pickle.dumps(schedule)
    first = list(schedule)
    assert all(a is b for a, b in zip(first, schedule))
    payload = pickle.dumps(schedule)
    assert payload == unwalked
    clone = pickle.loads(payload)
    assert "_fetches" not in vars(clone)
    assert list(clone) == first

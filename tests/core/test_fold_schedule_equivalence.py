"""Columnar fold schedule == the scalar per-fold loop it replaced.

:class:`~repro.core.compute_sim.FoldSchedule` builds each layer's folds
as numpy columns, and :meth:`DoubleBufferMemory.run` resolves a schedule
against the ideal-bandwidth backend in closed form.  Both must be
bit-exact to the scalar reference they replaced, quirks included:

* :func:`reference_build_fold_specs` is the original per-fold planning
  loop, kept verbatim as the executable spec (``self`` is the
  :class:`ComputeSimulator` whose array and SRAM sizes it reads);
* the per-fold ``complete_fetches`` walk is the one
  :meth:`DoubleBufferMemory.run` still takes for a plain
  ``list[FoldSpec]``, so ``run(list(schedule))`` is the spec walk.

Random conv and GEMM layers cover all three dataflows, 1xN / Nx1
arrays, and SRAM sizes that flip "the streamed slice fits" and "the
ofmap accumulates on-chip" both ways.
"""

import pickle
import random

import pytest

from repro.core.compute_sim import ComputeSimulator, FoldSchedule, FoldSpec, TileFetch
from repro.core.dataflow import Dataflow, GemmMapping, fold_cycles, map_gemm
from repro.core.simulator import ComputePlan, resolve_plan
from repro.memory.double_buffer import DoubleBufferMemory, IdealBandwidthBackend
from repro.topology.layer import ConvLayer, GemmLayer, GemmShape
from repro.utils.math import ceil_div

DATAFLOWS = list(Dataflow)


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


@pytest.mark.parametrize("dataflow", DATAFLOWS, ids=str)
def test_columnar_schedule_matches_scalar_loop(dataflow):
    rng = random.Random(f"fold-schedule-{dataflow}")
    flips = {"fits": set(), "accumulate": set()}
    for _ in range(100):
        sim = _random_simulator(rng, dataflow)
        layer = _random_layer(rng)
        result = sim.simulate_layer(layer)
        schedule = result.fold_specs
        reference = _reference(sim, layer)
        context = (dataflow, sim.rows, sim.cols, layer)
        assert isinstance(schedule, FoldSchedule)
        assert len(schedule) == len(reference) == result.total_folds, context
        assert list(schedule) == reference, context
        for index in {0, len(schedule) // 2, len(schedule) - 1}:
            assert schedule[index] == reference[index], context
        assert schedule[-1] == reference[-1]
        assert schedule.read_words().tolist() == [s.fetch_words for s in reference]
        assert schedule.write_words().tolist() == [s.writeback_words for s in reference]
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


def _random_schedule(rng: random.Random) -> FoldSchedule:
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
        loop_backend = IdealBandwidthBackend(bandwidth, latency)
        _prebusy(loop_backend, rng)
        closed = DoubleBufferMemory(closed_backend).run(
            schedule, keep_timings=keep, start_cycle=start_cycle
        )
        loop = DoubleBufferMemory(loop_backend).run(
            list(schedule), keep_timings=keep, start_cycle=start_cycle
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
        lists = ComputePlan(
            "fuzz",
            ("fuzz",),
            tuple(
                type(c)(**{**c.__dict__, "fold_specs": list(c.fold_specs)}) for c in computes
            ),
        )
        bandwidth, latency = rng.randint(1, 64), rng.choice([0, rng.randint(1, 100)])
        closed_backend = IdealBandwidthBackend(bandwidth, latency)
        loop_backend = IdealBandwidthBackend(bandwidth, latency)
        closed = resolve_plan(plan, closed_backend, "closed", keep_timings=True)
        loop = resolve_plan(lists, loop_backend, "loop", keep_timings=True)
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
    assert "_views" not in vars(clone)
    assert list(clone) == first

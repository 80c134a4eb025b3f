"""Unit tests for the double-buffer stall model and ideal backend."""

import numpy as np
import pytest

from repro.core.compute_sim import FetchSlot, FoldSchedule, TileFetch
from repro.errors import MemoryModelError
from repro.memory.double_buffer import (
    DoubleBufferMemory,
    IdealBandwidthBackend,
    MemoryTimeline,
)


def _schedule(folds, cycles=100, fetch_words=50, write_words=0):
    """``folds`` identical folds: one ifmap read and/or one ofmap write each."""
    present = np.ones(folds, dtype=bool)
    starts = np.zeros(folds, dtype=np.int64)
    slots = [
        FetchSlot(operand, is_write, present, starts, np.full(folds, words))
        for operand, is_write, words in (
            ("ifmap", False, fetch_words),
            ("ofmap", True, write_words),
        )
        if words
    ]
    return FoldSchedule(folds=folds, cycles=cycles, slots=tuple(slots))


class TestIdealBackend:
    def test_transfer_time(self):
        backend = IdealBandwidthBackend(bandwidth_words=10)
        done = backend.complete_fetches((TileFetch("ifmap", 0, 100),), issue_cycle=0)
        assert done == 10

    def test_bus_serialises_batches(self):
        backend = IdealBandwidthBackend(bandwidth_words=10)
        backend.complete_fetches((TileFetch("ifmap", 0, 100),), 0)
        done = backend.complete_fetches((TileFetch("ifmap", 0, 100),), 0)
        assert done == 20

    def test_latency_added_to_reads(self):
        backend = IdealBandwidthBackend(bandwidth_words=10, latency_cycles=7)
        done = backend.complete_fetches((TileFetch("ifmap", 0, 100),), 0)
        assert done == 17

    def test_empty_fetch_free(self):
        backend = IdealBandwidthBackend(bandwidth_words=10)
        assert backend.complete_fetches((), 5) == 5

    def test_word_accounting(self):
        backend = IdealBandwidthBackend(bandwidth_words=10)
        backend.complete_fetches(
            (TileFetch("ifmap", 0, 30), TileFetch("ofmap", 0, 20, is_write=True)), 0
        )
        assert backend.total_read_words == 30
        assert backend.total_write_words == 20

    def test_bad_bandwidth(self):
        with pytest.raises(MemoryModelError):
            IdealBandwidthBackend(bandwidth_words=0)


class TestDoubleBufferTimeline:
    def test_empty_schedule(self):
        timeline = DoubleBufferMemory(IdealBandwidthBackend(10)).run([])
        assert timeline.total_cycles == 0

    def test_cold_start_only_when_bandwidth_ample(self):
        # Fetch takes 5 cycles, compute 100: prefetch always wins.
        memory = DoubleBufferMemory(IdealBandwidthBackend(10))
        schedule = _schedule(4, cycles=100, fetch_words=50)
        timeline = memory.run(schedule)
        assert timeline.cold_start_cycles == 5
        assert timeline.stall_cycles == 0
        assert timeline.total_cycles == 5 + 400

    def test_bandwidth_bound_stalls(self):
        # Fetch takes 100 cycles, compute 10: memory bound.
        memory = DoubleBufferMemory(IdealBandwidthBackend(1))
        schedule = _schedule(3, cycles=10, fetch_words=100)
        timeline = memory.run(schedule)
        assert timeline.stall_cycles > 0
        assert timeline.total_cycles > timeline.compute_cycles

    def test_compute_cycles_preserved(self):
        memory = DoubleBufferMemory(IdealBandwidthBackend(1))
        schedule = _schedule(3, cycles=10, fetch_words=100)
        timeline = memory.run(schedule)
        assert timeline.compute_cycles == 30

    def test_stall_fraction(self):
        timeline = MemoryTimeline(
            compute_cycles=50, total_cycles=100, stall_cycles=30, cold_start_cycles=20
        )
        assert timeline.stall_fraction == pytest.approx(0.5)

    def test_keep_timings(self):
        memory = DoubleBufferMemory(IdealBandwidthBackend(10))
        schedule = _schedule(3)
        timeline = memory.run(schedule, keep_timings=True)
        assert len(timeline.fold_timings) == 3
        # Fold starts strictly increase by at least the fold length.
        starts = [t.compute_start for t in timeline.fold_timings]
        assert all(b - a >= 100 for a, b in zip(starts, starts[1:]))

    def test_start_cycle_offsets_timeline(self):
        memory = DoubleBufferMemory(IdealBandwidthBackend(10))
        schedule = _schedule(2)
        base = memory.run(schedule)
        memory2 = DoubleBufferMemory(IdealBandwidthBackend(10))
        shifted = memory2.run(schedule, start_cycle=1000)
        # Layer-relative metrics identical regardless of global offset.
        assert shifted.total_cycles == base.total_cycles
        assert shifted.cold_start_cycles == base.cold_start_cycles

    def test_shared_backend_across_layers_no_cold_start_blowup(self):
        backend = IdealBandwidthBackend(10)
        memory = DoubleBufferMemory(backend)
        first = memory.run(_schedule(3), start_cycle=0)
        second = memory.run(
            _schedule(3), start_cycle=first.total_cycles
        )
        assert second.cold_start_cycles <= first.cold_start_cycles + 5

    def test_writes_share_the_bus(self):
        read_only = DoubleBufferMemory(IdealBandwidthBackend(1)).run(
            _schedule(3, cycles=10, fetch_words=50)
        )
        with_writes = DoubleBufferMemory(IdealBandwidthBackend(1)).run(
            _schedule(3, cycles=10, fetch_words=50, write_words=50)
        )
        assert with_writes.total_cycles > read_only.total_cycles

"""Unit tests for the DRAM memory backend (tile fetches -> lines)."""

import pytest

from repro.core.compute_sim import TileFetch
from repro.dram.backend import DramBackend
from repro.dram.dram_sim import RamulatorLite
from repro.dram.engine import ReferenceEngine
from repro.errors import DramError


def _backend(read_queue_entries=128):
    engine = ReferenceEngine(
        RamulatorLite(technology="ddr4", channels=1),
        read_queue_entries=read_queue_entries,
    )
    return DramBackend(engine, word_bytes=2)


class TestCompleteFetches:
    def test_line_count(self):
        backend = _backend()
        # 64 words x 2 B = 128 B = 2 lines.
        backend.complete_fetches((TileFetch("ifmap", 0, 64),), 0)
        assert backend.total_lines_read == 2

    def test_write_lines_counted_separately(self):
        backend = _backend()
        backend.complete_fetches(
            (TileFetch("ofmap", 0, 64, is_write=True),), 0
        )
        assert backend.total_lines_written == 2
        assert backend.total_lines_read == 0

    def test_completion_monotone_with_size(self):
        small = _backend().complete_fetches((TileFetch("ifmap", 0, 32),), 0)
        large = _backend().complete_fetches((TileFetch("ifmap", 0, 32_000),), 0)
        assert large > small

    def test_empty_fetch_is_free(self):
        backend = _backend()
        assert backend.complete_fetches((TileFetch("ifmap", 0, 0),), 7) == 7

    def test_issue_clock_never_goes_backwards(self):
        backend = _backend()
        backend.complete_fetches((TileFetch("ifmap", 0, 1000),), 100)
        # Issuing "earlier" respects the already-advanced front-end clock.
        done = backend.complete_fetches((TileFetch("ifmap", 2000, 1000),), 0)
        assert done > 100

    def test_word_bytes_validation(self):
        with pytest.raises(DramError):
            DramBackend(ReferenceEngine(RamulatorLite()), word_bytes=0)


class TestQueueBackpressure:
    def test_small_queue_slower(self):
        fetch = (TileFetch("ifmap", 0, 50_000),)
        small = _backend(read_queue_entries=4).complete_fetches(fetch, 0)
        large = _backend(read_queue_entries=512).complete_fetches(fetch, 0)
        assert small >= large

    def test_backpressure_recorded(self):
        backend = _backend(read_queue_entries=2)
        backend.complete_fetches((TileFetch("ifmap", 0, 50_000),), 0)
        assert backend.read_queue.total_stall_cycles > 0
        assert backend.stall_cycles_from_backpressure > 0

    def test_drain_includes_writes(self):
        backend = _backend()
        done_reads = backend.complete_fetches(
            (
                TileFetch("ifmap", 0, 32),
                TileFetch("ofmap", 0, 50_000, is_write=True),
            ),
            0,
        )
        assert backend.drain() >= done_reads


class TestOperandSeparation:
    def test_operand_regions_map_to_different_addresses(self):
        backend = _backend()
        backend.complete_fetches((TileFetch("ifmap", 0, 32),), 0)
        lines_before = backend.total_lines_read
        backend.complete_fetches((TileFetch("filter", 0, 32),), 0)
        assert backend.total_lines_read == lines_before + 1

    def test_interleaved_operands_contend_on_banks(self):
        # Alternating ifmap/filter fetches touch different regions; the
        # model still serialises them on the shared front-end and bus.
        backend = _backend()
        done1 = backend.complete_fetches((TileFetch("ifmap", 0, 320),), 0)
        done2 = backend.complete_fetches((TileFetch("filter", 0, 320),), 0)
        assert done2 > done1

"""Unit tests for the memory-datapath engine seam."""

import pytest

from repro.core.compute_sim import TileFetch
from repro.dram.backend import DramBackend
from repro.dram.dram_sim import RamulatorLite
from repro.dram.engine import LineRequestBatch, LineStream, ReferenceEngine
from repro.dram.engine_batched import BatchedEngine
from repro.errors import DramError

#: Both engines behind the seam; the protocol tests run against each.
ENGINES = {"reference": ReferenceEngine, "batched": BatchedEngine}


class TestLineRequestBatch:
    def test_from_fetches_counts_lines(self):
        # 64 words x 2 B = 128 B = 2 lines.
        batch = LineRequestBatch.from_fetches((TileFetch("ifmap", 0, 64),), 2)
        assert batch.total_lines == 2
        assert batch.read_lines == 2
        assert batch.write_lines == 0

    def test_from_fetches_skips_empty(self):
        batch = LineRequestBatch.from_fetches(
            (TileFetch("ifmap", 0, 0), TileFetch("ofmap", 0, 32, is_write=True)), 2
        )
        assert len(batch.streams) == 1
        assert batch.write_lines == 1

    def test_operands_map_to_distinct_regions(self):
        word_bytes = 2
        fetches = tuple(TileFetch(op, 0, 32) for op in ("ifmap", "filter", "ofmap"))
        batch = LineRequestBatch.from_fetches(fetches, word_bytes)
        firsts = [stream.first_line for stream in batch.streams]
        assert len(set(firsts)) == 3

    def test_unaligned_span_rounds_to_line_boundaries(self):
        # 1 word starting mid-line still occupies one whole line.
        batch = LineRequestBatch.from_fetches((TileFetch("ifmap", 3, 1),), 2)
        assert batch.total_lines == 1

    def test_round_robin_interleaves_and_drops_exhausted(self):
        batch = LineRequestBatch(
            streams=(
                LineStream(0, 1, False),
                LineStream(100, 3, True),
                LineStream(200, 2, False),
            )
        )
        seq = list(batch.iter_round_robin())
        assert seq == [
            (0, False),
            (100, True),
            (200, False),
            (101, True),
            (201, False),
            (102, True),
        ]

    def test_negative_stream_rejected(self):
        with pytest.raises(DramError):
            LineStream(-1, 4)


@pytest.mark.parametrize("name", ENGINES)
class TestEngineProtocol:
    def test_empty_batch_advances_clock_only(self, name):
        engine = ENGINES[name](RamulatorLite())
        result = engine.process_batch(LineRequestBatch(streams=()), 7)
        assert result.ready_cycle == 7
        assert result.lines_read == 0
        assert engine.drain() == 0

    def test_reads_complete_after_issue(self, name):
        engine = ENGINES[name](RamulatorLite())
        batch = LineRequestBatch(streams=(LineStream(0, 100, False),))
        result = engine.process_batch(batch, 10)
        assert result.ready_cycle > 10
        assert result.lines_read == 100
        stats = engine.aggregate_stats()
        assert stats.reads == 100
        assert stats.first_request_cycle == 10

    def test_writes_gate_drain_not_ready(self, name):
        engine = ENGINES[name](RamulatorLite())
        batch = LineRequestBatch(streams=(LineStream(0, 50, True),))
        result = engine.process_batch(batch, 0)
        assert result.lines_written == 50
        assert engine.drain() > 0

    def test_negative_cycle_rejected(self, name):
        engine = ENGINES[name](RamulatorLite())
        with pytest.raises(DramError):
            engine.process_batch(LineRequestBatch(streams=()), -1)


class TestBackendEngineSelection:
    def test_default_is_batched(self):
        backend = DramBackend(RamulatorLite())
        assert isinstance(backend.engine, BatchedEngine)

    def test_engine_instance_accepted(self):
        engine = ReferenceEngine(RamulatorLite())
        backend = DramBackend(RamulatorLite(), engine=engine)
        assert backend.engine is engine

    def test_backend_queue_views(self):
        backend = DramBackend(RamulatorLite(), read_queue_entries=7)
        assert backend.read_queue.capacity == 7
        assert backend.stall_cycles_from_backpressure == 0

    def test_dram_stats_via_seam(self):
        backend = DramBackend(RamulatorLite())
        backend.complete_fetches((TileFetch("ifmap", 0, 320),), 0)
        stats = backend.dram_stats()
        assert stats.reads == backend.total_lines_read == 10

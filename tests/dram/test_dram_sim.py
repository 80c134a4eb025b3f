"""Unit tests for the RamulatorLite front-end."""

import pytest

from repro.dram.address import LINE_BYTES
from repro.dram.dram_sim import RamulatorLite
from repro.errors import DramError


def _dram(**overrides):
    defaults = dict(technology="ddr4", channels=1, banks_per_rank=4)
    defaults.update(overrides)
    return RamulatorLite(**defaults)


class TestSubmit:
    def test_completion_after_issue(self):
        dram = _dram()
        done = dram.submit(0, cycle=10)
        assert done > 10

    def test_sequential_stream_hits_rows(self):
        dram = _dram()
        for line in range(64):
            dram.submit(line * LINE_BYTES, cycle=line * 10)
        stats = dram.aggregate_stats()
        assert stats.row_hits > stats.row_misses + stats.row_conflicts

    def test_random_stride_conflicts(self):
        dram = _dram()
        # Jump a whole row every access within one bank: conflicts.
        row_bytes = dram.timing.row_bytes
        banks = 4
        stride = row_bytes * banks  # same bank, next row (channel fixed)
        for i in range(32):
            dram.submit(i * stride, cycle=i * 100)
        stats = dram.aggregate_stats()
        assert stats.row_conflicts > stats.row_hits

    def test_negative_cycle_rejected(self):
        with pytest.raises(DramError):
            _dram().submit(0, cycle=-1)

    def test_read_latency_at_least_cas(self):
        dram = _dram()
        done = dram.submit(0, cycle=0)
        assert done >= dram.timing.t_rcd + dram.timing.t_cl + dram.timing.t_burst


class TestChannels:
    def test_channel_parallelism_improves_throughput(self):
        def run(channels):
            dram = _dram(channels=channels)
            last = 0
            for line in range(256):
                last = max(last, dram.submit(line * LINE_BYTES, cycle=0))
            return last

        assert run(4) < run(1)

    def test_stats_per_channel(self):
        dram = _dram(channels=2)
        dram.submit(0, 0)
        dram.submit(LINE_BYTES, 0)  # second channel under line interleaving
        assert dram.channel_stats(0).requests == 1
        assert dram.channel_stats(1).requests == 1

    def test_bad_channels(self):
        with pytest.raises(DramError):
            _dram(channels=0)


class TestStats:
    def test_read_write_split(self):
        dram = _dram()
        dram.submit(0, 0, is_write=False)
        dram.submit(LINE_BYTES * 2, 50, is_write=True)
        stats = dram.aggregate_stats()
        assert stats.reads == 1
        assert stats.writes == 1
        assert stats.requests == 2

    def test_average_read_latency(self):
        dram = _dram()
        done = dram.submit(0, 0)
        stats = dram.aggregate_stats()
        assert stats.average_read_latency == pytest.approx(done)

    def test_bytes_transferred(self):
        dram = _dram()
        for i in range(10):
            dram.submit(i * LINE_BYTES, i)
        assert dram.aggregate_stats().bytes_transferred == 10 * LINE_BYTES

    def test_throughput_positive(self):
        dram = _dram()
        for i in range(100):
            dram.submit(i * LINE_BYTES, i)
        stats = dram.aggregate_stats()
        assert stats.throughput_gbps(dram.timing.tck_ns) > 0

    def test_throughput_bounded_by_peak(self):
        dram = _dram()
        for i in range(1000):
            dram.submit(i * LINE_BYTES, 0)
        stats = dram.aggregate_stats()
        assert stats.throughput_gbps(dram.timing.tck_ns) <= dram.timing.peak_bandwidth_gbps * 1.01

    def test_empty_stats(self):
        stats = _dram().aggregate_stats()
        assert stats.requests == 0
        assert stats.row_hit_rate == 0.0
        assert stats.throughput_gbps(1.0) == 0.0

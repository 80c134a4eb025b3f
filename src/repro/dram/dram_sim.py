"""RamulatorLite front-end: channels, shared data buses, statistics.

The model is open-page with in-order scheduling per channel.  For the
streaming access patterns a systolic accelerator produces (long
sequential tile fetches), in-order + open-page behaves like FR-FCFS —
nearly every access after the first in a row is a row hit — while
keeping the simulator simple and fast.  Per-request round-trip latencies
and the row-hit/miss/conflict taxonomy match Ramulator's reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.address import LINE_BYTES, AddressMapper
from repro.dram.bank import CONFLICT, HIT, MISS, BankState
from repro.dram.timing import DramTiming, get_timing_preset
from repro.errors import DramError


@dataclass
class DramStats:
    """Aggregate statistics across all channels."""

    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    total_read_latency: int = 0
    last_completion: int = 0
    first_request_cycle: int | None = None
    bytes_transferred: int = 0

    @property
    def requests(self) -> int:
        """All requests served."""
        return self.reads + self.writes

    @property
    def row_hit_rate(self) -> float:
        """Fraction of accesses that hit an open row."""
        total = self.row_hits + self.row_misses + self.row_conflicts
        return self.row_hits / total if total else 0.0

    @property
    def average_read_latency(self) -> float:
        """Mean round-trip latency of read requests, in cycles."""
        return self.total_read_latency / self.reads if self.reads else 0.0

    def throughput_gbps(self, tck_ns: float) -> float:
        """Achieved bandwidth over the active window, in GB/s."""
        if self.first_request_cycle is None:
            return 0.0
        window = self.last_completion - self.first_request_cycle
        if window <= 0:
            return 0.0
        return self.bytes_transferred / (window * tck_ns)


@dataclass
class _Channel:
    """One channel: its banks and shared data bus."""

    banks: list[list[BankState]]  # [rank][bank]
    bus_ready: int = 0
    stats: DramStats = field(default_factory=DramStats)


class RamulatorLite:
    """Cycle-accurate-enough DRAM: submit requests, get completion times.

    Requests must be submitted in non-decreasing issue-cycle order per
    caller; the model keeps per-bank and per-bus state so interleaved
    operand streams still contend realistically.
    """

    def __init__(
        self,
        technology: str | DramTiming = "ddr4",
        channels: int = 1,
        ranks_per_channel: int = 1,
        banks_per_rank: int = 16,
        capacity_gb_per_channel: float = 0.5,
        address_mapping: str = "ro_ba_ra_co_ch",
    ) -> None:
        self.timing = (
            technology
            if isinstance(technology, DramTiming)
            else get_timing_preset(technology)
        )
        if channels < 1:
            raise DramError(f"channels must be >= 1, got {channels}")
        self.mapper = AddressMapper(
            mapping=address_mapping,
            channels=channels,
            ranks=ranks_per_channel,
            banks=banks_per_rank,
            row_bytes=self.timing.row_bytes,
            capacity_bytes_per_channel=int(capacity_gb_per_channel * (1 << 30)),
        )
        self._channels = [
            _Channel(
                banks=[
                    [BankState() for _ in range(banks_per_rank)]
                    for _ in range(ranks_per_channel)
                ]
            )
            for _ in range(channels)
        ]

    def submit(self, byte_address: int, cycle: int, is_write: bool = False) -> int:
        """Submit one 64B-line request; returns its completion cycle.

        For reads the completion is when data arrives at the requester;
        for writes, when the write data has been accepted on the bus.
        """
        if cycle < 0:
            raise DramError(f"negative cycle {cycle}")
        decoded = self.mapper.decode(byte_address)
        channel = self._channels[decoded.channel]
        bank = channel.banks[decoded.rank][decoded.bank]

        data_start, category = bank.access(cycle, decoded.row, is_write, self.timing)
        # Win the shared data bus for t_burst cycles.
        bus_start = max(data_start, channel.bus_ready)
        channel.bus_ready = bus_start + self.timing.t_burst
        completion = bus_start + self.timing.t_burst

        stats = channel.stats
        if category == HIT:
            stats.row_hits += 1
        elif category == MISS:
            stats.row_misses += 1
        elif category == CONFLICT:
            stats.row_conflicts += 1
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
            stats.total_read_latency += completion - cycle
        if stats.first_request_cycle is None:
            stats.first_request_cycle = cycle
        stats.last_completion = max(stats.last_completion, completion)
        stats.bytes_transferred += LINE_BYTES
        return completion

    def channel_stats(self, channel: int) -> DramStats:
        """Statistics for one channel."""
        return self._channels[channel].stats

    def aggregate_stats(self) -> DramStats:
        """Merged statistics across all channels."""
        merged = DramStats()
        firsts = []
        for channel in self._channels:
            s = channel.stats
            merged.reads += s.reads
            merged.writes += s.writes
            merged.row_hits += s.row_hits
            merged.row_misses += s.row_misses
            merged.row_conflicts += s.row_conflicts
            merged.total_read_latency += s.total_read_latency
            merged.last_completion = max(merged.last_completion, s.last_completion)
            merged.bytes_transferred += s.bytes_transferred
            if s.first_request_cycle is not None:
                firsts.append(s.first_request_cycle)
        merged.first_request_cycle = min(firsts) if firsts else None
        return merged

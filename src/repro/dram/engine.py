"""The memory-datapath engine seam: line batches in, completions out.

The v3 memory datapath (paper Section V-B step 3) chops every fold's
tile fetches into 64B lines and runs them through the front-end
(issue-bandwidth pacing + finite request queues) and the DRAM model
(banks + shared data buses).  This module makes that pipeline a
*pluggable seam*:

* :class:`LineRequestBatch` — one fold's demand traffic as per-operand
  contiguous line streams, issued round-robin across streams (the
  concurrent per-operand DMA engines of the accelerator).  The DRAM
  fan-out shares one batch across a whole ``dram.*`` config grid.
* :class:`MemoryEngine` — the protocol: ``process_batch`` consumes a
  batch at an issue cycle and returns a :class:`BatchResult`.
* :class:`ReferenceEngine` — the scalar semantics, line by line,
  extracted verbatim from the original ``DramBackend`` loop.  It is the
  executable specification every other engine is validated against.
* :class:`repro.dram.engine_batched.BatchedEngine` — the vectorized
  engine (numpy array passes instead of per-line Python calls), exact
  to the reference bit for bit.

Engines own *all* datapath state — request queues, bank state, bus
state, statistics — so :class:`repro.dram.backend.DramBackend` takes
any engine instance (the batched engine by default) without touching
the simulator above the seam.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Protocol

from repro.core.operand_matrix import FILTER_BASE, IFMAP_BASE, OFMAP_BASE
from repro.dram.address import LINE_BYTES
from repro.dram.dram_sim import DramStats, RamulatorLite
from repro.errors import DramError
from repro.memory.request_queue import RequestQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.compute_sim import TileFetch

#: Byte base of each operand's address region (word offsets scaled by
#: the word size when a batch is built).
OPERAND_BASE_WORDS = {
    "ifmap": IFMAP_BASE,
    "filter": FILTER_BASE,
    "ofmap": OFMAP_BASE,
}


@dataclass(frozen=True)
class LineStream:
    """One operand's contiguous run of 64B line requests."""

    first_line: int
    num_lines: int
    is_write: bool = False

    def __post_init__(self) -> None:
        if self.first_line < 0 or self.num_lines < 0:
            raise DramError(
                f"bad line stream [{self.first_line}, +{self.num_lines})"
            )


@dataclass(frozen=True)
class LineRequestBatch:
    """One fold's fetches as line streams, issued round-robin.

    The per-operand DMA engines run concurrently, so lines from the
    fold's fetches are interleaved round-robin across operand streams —
    the mix that makes DRAM bank behaviour (and request queues) matter
    for combined read/write traffic.
    """

    streams: tuple[LineStream, ...]

    @classmethod
    def from_fetches(
        cls, fetches: tuple["TileFetch", ...], word_bytes: int
    ) -> "LineRequestBatch":
        """Chop tile fetches (word spans) into 64B line streams."""
        streams: list[LineStream] = []
        for fetch in fetches:
            if fetch.num_words == 0:
                continue
            base_byte = OPERAND_BASE_WORDS[fetch.operand] * word_bytes
            start_byte = base_byte + fetch.start_word * word_bytes
            num_bytes = fetch.num_words * word_bytes
            first_line = start_byte // LINE_BYTES
            last_line = (start_byte + num_bytes - 1) // LINE_BYTES
            streams.append(
                LineStream(first_line, last_line - first_line + 1, fetch.is_write)
            )
        return cls(streams=tuple(streams))

    @property
    def total_lines(self) -> int:
        """Line requests in the batch."""
        return sum(stream.num_lines for stream in self.streams)

    @property
    def read_lines(self) -> int:
        """Read-line requests in the batch."""
        return sum(s.num_lines for s in self.streams if not s.is_write)

    @property
    def write_lines(self) -> int:
        """Write-line requests in the batch."""
        return sum(s.num_lines for s in self.streams if s.is_write)

    def iter_round_robin(self) -> Iterator[tuple[int, bool]]:
        """Yield ``(line, is_write)`` in front-end issue order.

        Round-robin across streams; a stream drops out of the rotation
        at the end of the round in which it exhausts (matching the
        per-operand DMA interleave of the scalar datapath).
        """
        iterators = [
            (iter(range(s.first_line, s.first_line + s.num_lines)), s.is_write)
            for s in self.streams
            if s.num_lines
        ]
        while iterators:
            exhausted = []
            for index, (lines, is_write) in enumerate(iterators):
                line = next(lines, None)
                if line is None:
                    exhausted.append(index)
                    continue
                yield line, is_write
            for index in reversed(exhausted):
                iterators.pop(index)


@dataclass(frozen=True)
class BatchResult:
    """What one batch did: completion horizon plus line counts."""

    ready_cycle: int  # all read data has arrived (>= the issue clock)
    lines_read: int
    lines_written: int


class MemoryEngine(Protocol):
    """Anything that can run line batches through a memory datapath.

    Engines own the full datapath state: front-end clock, request
    queues, DRAM bank/bus state and statistics.  ``process_batch``
    calls must be made in non-decreasing ``issue_cycle`` order.
    """

    read_queue: object  # queue-stats view (capacity/stalls/peak/...)
    write_queue: object

    def process_batch(self, batch: LineRequestBatch, issue_cycle: int) -> BatchResult:
        """Issue every line of ``batch``; return the read-ready horizon."""
        ...

    def drain(self) -> int:
        """Cycle when every in-flight read and write has completed."""
        ...

    def aggregate_stats(self) -> DramStats:
        """Merged DRAM statistics across all channels."""
        ...


class ReferenceEngine:
    """The scalar line pipeline — the executable specification.

    One Python-level iteration per 64B line: front-end pacing
    (``max_issue_per_cycle``), request-queue backpressure, then
    :meth:`RamulatorLite.submit` for bank timing and bus arbitration.
    Slow, but every alternative engine is fuzzed against it bit for bit.
    """

    def __init__(
        self,
        dram: RamulatorLite,
        read_queue_entries: int = 128,
        write_queue_entries: int = 128,
        max_issue_per_cycle: int = 1,
    ) -> None:
        if max_issue_per_cycle < 1:
            raise DramError("max_issue_per_cycle must be >= 1")
        self.dram = dram
        self.max_issue_per_cycle = max_issue_per_cycle
        self.read_queue = RequestQueue(read_queue_entries, "read_queue")
        self.write_queue = RequestQueue(write_queue_entries, "write_queue")
        self._issue_clock = 0

    def process_batch(self, batch: LineRequestBatch, issue_cycle: int) -> BatchResult:
        if issue_cycle < 0:
            raise DramError(f"negative cycle {issue_cycle}")
        clock = max(issue_cycle, self._issue_clock)
        last_read_done = clock
        issued_this_cycle = 0
        lines_read = 0
        lines_written = 0

        for line, is_write in batch.iter_round_robin():
            # Front-end issue bandwidth: max_issue_per_cycle lines/cycle.
            if issued_this_cycle >= self.max_issue_per_cycle:
                clock += 1
                issued_this_cycle = 0
            queue = self.write_queue if is_write else self.read_queue
            issue_at = queue.earliest_issue(clock)
            if issue_at > clock:
                queue.record_stall(issue_at - clock)
                clock = issue_at
                issued_this_cycle = 0
            completion = self.dram.submit(line * LINE_BYTES, clock, is_write=is_write)
            queue.push(clock, completion)
            issued_this_cycle += 1
            if is_write:
                lines_written += 1
            else:
                lines_read += 1
                last_read_done = max(last_read_done, completion)

        self._issue_clock = clock
        return BatchResult(
            ready_cycle=last_read_done,
            lines_read=lines_read,
            lines_written=lines_written,
        )

    def drain(self) -> int:
        return max(self.read_queue.drain_time(), self.write_queue.drain_time())

    def aggregate_stats(self) -> DramStats:
        return self.dram.aggregate_stats()

    def channel_stats(self, channel: int) -> DramStats:
        """Statistics for one channel."""
        return self.dram.channel_stats(channel)

"""Adapter: tile fetches -> line batches -> a pluggable memory engine.

This is v3's "memory datapath" (paper Section V-B step 3): demand spans
are chopped into 64B lines, issued at most ``issue_per_cycle`` per cycle
into finite read/write request queues, and each line's round-trip
latency comes from the DRAM model.  A full queue blocks issue — that
backpressure is what makes small queues slow (Figure 10).

The line pipeline itself lives behind the engine seam
(:mod:`repro.dram.engine`): this backend only translates
:class:`TileFetch` spans into a :class:`LineRequestBatch` and routes it
through its :class:`MemoryEngine`: the vectorized batched engine, or any
engine instance passed in (tests pass the scalar reference).  It
serves the per-fold reference walk
(:func:`repro.core.simulator.resolve_plan`); production runs resolve
DRAM through the grid walk (:mod:`repro.dram.engine_grid`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.compute_sim import TileFetch
from repro.dram.dram_sim import DramStats, RamulatorLite
from repro.dram.engine import LineRequestBatch, MemoryEngine
from repro.dram.engine_batched import BatchedEngine
from repro.errors import DramError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config.system import DramConfig


def make_ramulator(dram_cfg: "DramConfig") -> RamulatorLite:
    """A fresh :class:`RamulatorLite` for one ``[memory]`` section.

    The single place a :class:`~repro.config.system.DramConfig` turns
    into DRAM timing/geometry state — used by the grid-batched engine
    when it instantiates its per-config datapaths, and by tests that
    build a reference :class:`DramBackend`.
    """
    return RamulatorLite(
        technology=dram_cfg.technology,
        channels=dram_cfg.channels,
        ranks_per_channel=dram_cfg.ranks_per_channel,
        banks_per_rank=dram_cfg.banks_per_rank,
        capacity_gb_per_channel=dram_cfg.capacity_gb_per_channel,
        address_mapping=dram_cfg.address_mapping,
    )


class DramBackend:
    """A :class:`repro.memory.double_buffer.MemoryBackend` backed by DRAM."""

    def __init__(
        self,
        dram: RamulatorLite,
        read_queue_entries: int = 128,
        write_queue_entries: int = 128,
        word_bytes: int = 2,
        max_issue_per_cycle: int = 1,
        engine: MemoryEngine | None = None,
    ) -> None:
        """Build the adapter.

        ``engine=None`` builds a :class:`BatchedEngine` from ``dram``,
        the queue sizes and ``max_issue_per_cycle``.  An
        already-constructed :class:`MemoryEngine` is used as given: its
        own DRAM, queues and issue rate are what the simulation uses.
        """
        if word_bytes < 1:
            raise DramError(f"word_bytes must be >= 1, got {word_bytes}")
        if max_issue_per_cycle < 1:
            raise DramError("max_issue_per_cycle must be >= 1")
        self.dram = dram
        self.word_bytes = word_bytes
        self.max_issue_per_cycle = max_issue_per_cycle
        if engine is None:
            engine = BatchedEngine(
                dram,
                read_queue_entries=read_queue_entries,
                write_queue_entries=write_queue_entries,
                max_issue_per_cycle=max_issue_per_cycle,
            )
        self.engine: MemoryEngine = engine
        self.total_lines_read = 0
        self.total_lines_written = 0

    # ------------------------------------------------------------- protocol

    def complete_fetches(self, fetches: tuple[TileFetch, ...], issue_cycle: int) -> int:
        """Issue all lines of a fold's fetches; return read-data-ready cycle.

        The per-operand DMA engines run concurrently, so lines from the
        fold's fetches are issued round-robin across operand streams —
        the interleaving that makes DRAM bank behaviour (and request
        queues) matter for mixed traffic.
        """
        result = self.engine.process_batch(
            LineRequestBatch.from_fetches(fetches, self.word_bytes), issue_cycle
        )
        self.total_lines_read += result.lines_read
        self.total_lines_written += result.lines_written
        return result.ready_cycle

    def drain(self) -> int:
        """Cycle when every in-flight read and write has completed."""
        return self.engine.drain()

    # ------------------------------------------------------------- reporting

    @property
    def read_queue(self):
        """The engine's read-queue state/statistics."""
        return self.engine.read_queue

    @property
    def write_queue(self):
        """The engine's write-queue state/statistics."""
        return self.engine.write_queue

    @property
    def stall_cycles_from_backpressure(self) -> int:
        """Issue cycles lost to full request queues."""
        return (
            self.engine.read_queue.total_stall_cycles
            + self.engine.write_queue.total_stall_cycles
        )

    def dram_stats(self) -> DramStats:
        """Aggregate DRAM statistics across all channels."""
        return self.engine.aggregate_stats()

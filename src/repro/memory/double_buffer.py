"""Double-buffered SRAM with prefetch, and the fold-level stall model.

SCALE-Sim's scratchpads are double buffered: while the array computes on
the active half, the other half prefetches the next fold's tiles from
backing store (ideal-bandwidth interface in v2, RamulatorLite in v3).

:class:`DoubleBufferMemory` walks a layer's
:class:`~repro.core.compute_sim.FoldSchedule`:

* fold 0's fetches are issued at cycle 0 (cold start — pure latency),
* fold ``i+1``'s fetches are issued when fold ``i`` starts computing,
* a fold may only start once its data has arrived; the gap between the
  compute-ready time and the data-ready time is the *stall*.

Backends implement :class:`MemoryBackend`; the ideal one models v2's
monolithic interface (fixed words/cycle), the DRAM one lives in
:mod:`repro.dram.backend` and adds request-queue backpressure plus
cycle-accurate bank timing.  The ideal backend resolves a schedule in
closed form (:meth:`IdealBandwidthBackend.walk_schedule`, see DESIGN.md
"The columnar fold schedule"); every other backend takes the per-fold
walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.core.compute_sim import FoldSchedule, TileFetch
from repro.errors import MemoryModelError
from repro.utils.math import ceil_div


class MemoryBackend(Protocol):
    """Anything that can complete a batch of tile fetches."""

    def complete_fetches(self, fetches: tuple[TileFetch, ...], issue_cycle: int) -> int:
        """Return the cycle at which all read data has arrived.

        Writes must be accepted (possibly with backpressure) but do not
        gate the returned read-completion time unless the write path
        blocks issue.
        """
        ...

    def drain(self) -> int:
        """Cycle at which all outstanding traffic (incl. writes) completes."""
        ...

    @property
    def stall_cycles_from_backpressure(self) -> int:
        """Issue cycles lost to backend backpressure (0 for ideal memory)."""
        ...


class IdealBandwidthBackend:
    """SCALE-Sim v2's monolithic memory: fixed bandwidth, zero conflicts."""

    def __init__(self, bandwidth_words: int, latency_cycles: int = 0) -> None:
        if bandwidth_words < 1:
            raise MemoryModelError(f"bandwidth must be >= 1, got {bandwidth_words}")
        if latency_cycles < 0:
            raise MemoryModelError(f"latency must be >= 0, got {latency_cycles}")
        self.bandwidth_words = bandwidth_words
        self.latency_cycles = latency_cycles
        self._busy_until = 0
        self.total_read_words = 0
        self.total_write_words = 0

    def complete_fetches(self, fetches: tuple[TileFetch, ...], issue_cycle: int) -> int:
        read_words = sum(f.num_words for f in fetches if not f.is_write)
        write_words = sum(f.num_words for f in fetches if f.is_write)
        self.total_read_words += read_words
        self.total_write_words += write_words
        start = max(issue_cycle, self._busy_until)
        transfer = ceil_div(read_words + write_words, self.bandwidth_words) if (
            read_words or write_words
        ) else 0
        self._busy_until = start + transfer
        return start + transfer + (self.latency_cycles if read_words else 0)

    def drain(self) -> int:
        return self._busy_until

    @property
    def stall_cycles_from_backpressure(self) -> int:
        """An ideal interface never backpressures the front-end."""
        return 0

    def walk_schedule(
        self, schedule: FoldSchedule, start_cycle: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The double-buffer walk of a whole schedule, in closed form.

        Returns per-fold ``(compute_start, delay)``: each fold's compute
        start exactly as :meth:`DoubleBufferMemory.run` would reach it
        through one :meth:`complete_fetches` per fold, and the fetch
        delay that puts fold ``i``'s data-ready time at
        ``compute_start[i-1] + delay[i]`` (fold 0's is its compute
        start).  Leaves the bus state and word totals where that walk
        would.  Fold ``i+1``'s fetch issues at fold ``i``'s compute
        start, and the bus is never busy past a fold's data-ready time
        (``ready = busy_until + latency``), so every fetch after the
        first starts at its issue cycle and
        ``start[i+1] = start[i] + max(cycles, delay[i+1])`` with
        ``delay = ceil((R + W) / bandwidth) + latency * [R > 0]``.
        """
        reads = schedule.read_words()
        writes = schedule.write_words()
        transfer = reads + writes
        transfer += self.bandwidth_words - 1
        transfer //= self.bandwidth_words
        delay = transfer + (reads > 0) * self.latency_cycles
        first_issue = max(start_cycle, self._busy_until)
        compute_start = np.maximum(delay, schedule.cycles)
        compute_start[0] = first_issue + delay[0]
        np.cumsum(compute_start, out=compute_start)
        last_issue = compute_start[-2] if len(schedule) > 1 else first_issue
        self._busy_until = int(last_issue + transfer[-1])
        self.total_read_words += int(reads.sum())
        self.total_write_words += int(writes.sum())
        return compute_start, delay


@dataclass
class FoldTiming:
    """Resolved timing of one fold after memory stalls."""

    fold_index: int
    data_ready: int
    compute_start: int
    compute_end: int
    stall_cycles: int


@dataclass
class MemoryTimeline:
    """The stall-resolved execution timeline of one layer."""

    compute_cycles: int
    total_cycles: int
    stall_cycles: int
    cold_start_cycles: int
    fold_timings: list[FoldTiming] = field(default_factory=list, repr=False)

    @property
    def stall_fraction(self) -> float:
        """Stalls (incl. cold start) as a fraction of total cycles."""
        if self.total_cycles == 0:
            return 0.0
        return (self.stall_cycles + self.cold_start_cycles) / self.total_cycles


class DoubleBufferMemory:
    """Walks a fold schedule against a backend and resolves stalls."""

    def __init__(self, backend: MemoryBackend) -> None:
        self.backend = backend

    def run(
        self,
        schedule: FoldSchedule,
        keep_timings: bool = False,
        start_cycle: int = 0,
    ) -> MemoryTimeline:
        """Resolve the timeline for one layer's fold schedule.

        ``start_cycle`` places this layer on a continuous run timeline so
        a backend shared across layers (one DRAM, one bus) sees globally
        consistent issue times; the returned cycle counts are all
        layer-relative.
        """
        folds = len(schedule)
        if not folds:
            return MemoryTimeline(0, 0, 0, 0)
        if type(self.backend) is IdealBandwidthBackend:
            return self._run_closed_form(schedule, keep_timings, start_cycle)

        # Folds issue their traffic strictly in order, so one ordered pass
        # over the schedule's per-fold fetches feeds the walk.
        fetches = iter(schedule)
        complete = self.backend.complete_fetches
        timings: list[FoldTiming] = []
        # Cold start: fold 0's data fetched before compute begins.
        ready = complete(next(fetches), start_cycle)
        cold_start = ready - start_cycle
        clock = ready
        stall_total = 0
        cycles = schedule.cycles

        for index in range(folds):
            compute_start = max(clock, ready)
            stall = compute_start - clock
            stall_total += stall
            compute_end = compute_start + cycles
            if keep_timings:
                timings.append(
                    FoldTiming(
                        fold_index=index,
                        data_ready=ready,
                        compute_start=compute_start,
                        compute_end=compute_end,
                        stall_cycles=stall,
                    )
                )
            # Prefetch the next fold while this one computes.
            if index + 1 < folds:
                ready = complete(next(fetches), compute_start)
            clock = compute_end

        # Note: ``clock`` started at ``ready``, so the cold start is not
        # part of ``stall_total`` — the two are reported separately and
        # summed in :attr:`MemoryTimeline.stall_fraction`.
        return MemoryTimeline(
            compute_cycles=cycles * folds,
            total_cycles=clock - start_cycle,
            stall_cycles=stall_total,
            cold_start_cycles=cold_start,
            fold_timings=timings,
        )

    def _run_closed_form(
        self, schedule: FoldSchedule, keep_timings: bool, start_cycle: int
    ) -> MemoryTimeline:
        """:meth:`run` for a fold schedule on the ideal-bandwidth backend."""
        cycles = schedule.cycles
        folds = len(schedule)
        compute_start, delay = self.backend.walk_schedule(schedule, start_cycle)
        first, last = int(compute_start[0]), int(compute_start[-1])
        timings = []
        if keep_timings:
            data_ready = compute_start.copy()
            data_ready[1:] = compute_start[:-1] + delay[1:]
            stalls = np.zeros(folds, dtype=np.int64)
            stalls[1:] = compute_start[1:] - compute_start[:-1] - cycles
            timings = [
                FoldTiming(index, ready, start, start + cycles, stall)
                for index, (ready, start, stall) in enumerate(
                    zip(data_ready.tolist(), compute_start.tolist(), stalls.tolist())
                )
            ]
        # Each fold after the first stalls for whatever its start gap
        # exceeds ``cycles`` by, so the stalls sum in closed form.
        return MemoryTimeline(
            compute_cycles=cycles * folds,
            total_cycles=last + cycles - start_cycle,
            stall_cycles=last - first - cycles * (folds - 1),
            cold_start_cycles=first - start_cycle,
            fold_timings=timings,
        )

"""Finite memory request queues (paper Section V-A2).

The accelerator logs demand requests into read/write queues of
configurable depth.  Read entries clear when data returns; write entries
clear when the memory controller accepts them.  A full queue stalls the
front-end: the issue time of the next request is pushed to the earliest
completion among in-flight entries.

The queue tracks *completion times* rather than request objects — enough
to model backpressure exactly while staying cheap (a heap of ints).
"""

from __future__ import annotations

import heapq

from repro.errors import MemoryModelError


class RequestQueue:
    """A fixed-capacity queue of in-flight memory transactions."""

    def __init__(self, capacity: int, name: str = "queue") -> None:
        if capacity < 1:
            raise MemoryModelError(f"{name}: capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._completions: list[int] = []  # min-heap of completion cycles
        self.total_enqueued = 0
        self.total_stall_cycles = 0
        self.peak_occupancy = 0

    def occupancy_at(self, cycle: int) -> int:
        """Entries still in flight at ``cycle`` (retires finished ones)."""
        while self._completions and self._completions[0] <= cycle:
            heapq.heappop(self._completions)
        return len(self._completions)

    def earliest_issue(self, cycle: int) -> int:
        """Earliest cycle >= ``cycle`` at which a new request can enter.

        If the queue is full, this is the completion time of the oldest
        in-flight entry.
        """
        if self.occupancy_at(cycle) < self.capacity:
            return cycle
        return self._completions[0]

    def push(self, issue_cycle: int, completion_cycle: int) -> int:
        """Insert a request, stalling if full; returns actual issue cycle.

        Args:
            issue_cycle: when the front-end wants to issue.
            completion_cycle: when the transaction will complete, as
                computed by the memory model (must be > issue time).
        """
        actual = self.earliest_issue(issue_cycle)
        # Retire whatever has completed by the resolved issue time so the
        # occupancy reflects the queue state at that cycle.
        self.occupancy_at(actual)
        if completion_cycle < actual:
            raise MemoryModelError(
                f"{self.name}: completion {completion_cycle} before issue {actual}"
            )
        self.total_stall_cycles += actual - issue_cycle
        heapq.heappush(self._completions, completion_cycle)
        self.total_enqueued += 1
        self.peak_occupancy = max(self.peak_occupancy, len(self._completions))
        return actual

    def record_stall(self, cycles: int) -> None:
        """Attribute externally-resolved backpressure stalls to this queue.

        Used by callers that query :meth:`earliest_issue` themselves (to
        time a dependent computation) before calling :meth:`push`.
        """
        if cycles < 0:
            raise MemoryModelError(f"{self.name}: negative stall {cycles}")
        self.total_stall_cycles += cycles

    def drain_time(self) -> int:
        """Cycle at which every in-flight entry has completed."""
        return max(self._completions) if self._completions else 0

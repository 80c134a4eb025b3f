"""Unit tests for the finite request queues."""

import pytest

from repro.errors import MemoryModelError
from repro.memory.request_queue import RequestQueue


class TestRequestQueue:
    def test_accepts_until_full(self):
        queue = RequestQueue(capacity=2)
        assert queue.push(0, 10) == 0
        assert queue.push(0, 20) == 0
        # Third request at cycle 0 must wait for the first completion.
        assert queue.push(0, 30) == 10

    def test_stall_cycles_accumulate(self):
        queue = RequestQueue(capacity=1)
        queue.push(0, 100)
        queue.push(0, 200)
        assert queue.total_stall_cycles == 100

    def test_completions_free_slots(self):
        queue = RequestQueue(capacity=1)
        queue.push(0, 5)
        # At cycle 6 the entry has retired; no stall.
        assert queue.push(6, 10) == 6
        assert queue.total_stall_cycles == 0

    def test_occupancy(self):
        queue = RequestQueue(capacity=4)
        queue.push(0, 10)
        queue.push(0, 20)
        assert queue.occupancy_at(5) == 2
        assert queue.occupancy_at(15) == 1
        assert queue.occupancy_at(25) == 0

    def test_earliest_issue_when_free(self):
        queue = RequestQueue(capacity=2)
        assert queue.earliest_issue(7) == 7

    def test_drain_time(self):
        queue = RequestQueue(capacity=4)
        queue.push(0, 10)
        queue.push(0, 30)
        assert queue.drain_time() == 30

    def test_drain_time_empty(self):
        assert RequestQueue(capacity=1).drain_time() == 0

    def test_peak_occupancy(self):
        queue = RequestQueue(capacity=4)
        for _ in range(3):
            queue.push(0, 100)
        assert queue.peak_occupancy == 3

    def test_total_enqueued(self):
        queue = RequestQueue(capacity=4)
        queue.push(0, 1)
        queue.push(0, 2)
        assert queue.total_enqueued == 2

    def test_bad_capacity(self):
        with pytest.raises(MemoryModelError):
            RequestQueue(capacity=0)

    def test_completion_before_issue_rejected(self):
        queue = RequestQueue(capacity=1)
        with pytest.raises(MemoryModelError):
            queue.push(10, 5)

    def test_backpressure_ordering(self):
        # With capacity 2 and slow completions, issue times serialize.
        queue = RequestQueue(capacity=2)
        issues = [queue.push(0, 100 + i * 10) for i in range(4)]
        assert issues == [0, 0, 100, 110]

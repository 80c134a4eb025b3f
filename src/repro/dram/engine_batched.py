"""BatchedEngine: the vectorized memory-datapath engine.

Bit-exact to :class:`repro.dram.engine.ReferenceEngine`.  Each batch
takes the first dispatch path that accepts it:

* **closed-form single-stream path** — one contiguous read stream on
  one channel, no longer than the read queue, resolves per (bank, row)
  streak with O(streaks) Python arithmetic;
* **scalar loop** — batches below :attr:`BatchedEngine.vector_threshold`
  lines run an inlined per-line loop over the same state (identical
  semantics, no numpy dispatch overhead);
* **vector pass** — everything larger resolves through
  :func:`repro.dram.vector_pass.resolve_vector_pass` with this engine
  as the only participant: the same array walk the config-batched
  :class:`~repro.dram.engine_grid.GridBatchedEngine` runs for a whole
  ``dram.*`` grid (its module docstring derives the scans).

The engine's datapath state is int64 arrays, the vector pass's layout;
the two Python paths convert the part they touch at entry and exit.
"""

from __future__ import annotations

import heapq
from itertools import chain

import numpy as np

from repro.dram.address import LINE_BYTES
from repro.dram.dram_sim import DramStats, RamulatorLite
from repro.dram.engine import BatchResult, LineRequestBatch
from repro.dram.vector_pass import (
    VectorParams,
    decode_lines,
    resolve_vector_pass,
    stack_lines,
)
from repro.errors import DramError, MemoryModelError


def issue_order_arrays(batch: LineRequestBatch) -> tuple[np.ndarray, np.ndarray]:
    """The batch's round-robin issue order as ``(lines, is_write)`` arrays.

    Stream concatenation, then a (round, stream) key sort — the input
    of the vector pass.
    """
    streams = [s for s in batch.streams if s.num_lines]
    lines = np.concatenate(
        [
            np.arange(s.first_line, s.first_line + s.num_lines, dtype=np.int64)
            for s in streams
        ]
    )
    is_write = np.concatenate(
        [np.full(s.num_lines, s.is_write, dtype=bool) for s in streams]
    )
    if len(streams) > 1:
        # Sort by (round, stream) — the round-robin issue order.
        num_streams = len(streams)
        keys = np.concatenate(
            [
                np.arange(s.num_lines, dtype=np.int64) * num_streams + stream_id
                for stream_id, s in enumerate(streams)
            ]
        )
        order = np.argsort(keys)
        lines = lines[order]
        is_write = is_write[order]
    return lines, is_write


def _interleave(batch: LineRequestBatch) -> tuple[list[int], list[int]]:
    """Materialize the round-robin line order as flat Python lists.

    Streams are peeled in phases of equal remaining length: within a
    phase every active stream contributes one line per round (a C-speed
    ``zip`` of ranges), and streams drop out exactly at round ends —
    the same order :meth:`LineRequestBatch.iter_round_robin` yields.
    Returns ``(lines, writes)`` with writes as 0/1 ints.
    """
    active = [
        [s.first_line, s.num_lines, 1 if s.is_write else 0]
        for s in batch.streams
        if s.num_lines
    ]
    lines: list[int] = []
    writes: list[int] = []
    while active:
        rounds = min(entry[1] for entry in active)
        if len(active) == 1:
            first, count, is_write = active[0]
            lines.extend(range(first, first + count))
            writes.extend([is_write] * count)
            break
        lines.extend(
            chain.from_iterable(
                zip(*[range(entry[0], entry[0] + rounds) for entry in active])
            )
        )
        writes.extend([entry[2] for entry in active] * rounds)
        for entry in active:
            entry[0] += rounds
            entry[1] -= rounds
        active = [entry for entry in active if entry[1]]
    return lines, writes


def _scalar_pools(queue: "_EngineQueue", clock0: int, pushes: int) -> tuple[list, list]:
    """The scalar loop's view of ``queue`` for a batch of ``pushes`` from ``clock0``.

    Returns the in-flight entries above ``clock0`` (a sorted list is a
    valid heap; the rest retire at the queue's first push) and the
    pending pool's ``pushes`` smallest entries, the most one batch can
    consume.  A queue the batch does not push into is left alone.
    """
    if not pushes:
        return [], []
    out = queue.outstanding
    return (
        out[out.searchsorted(clock0, side="right") :].tolist(),
        queue.pending[:pushes].tolist(),
    )


class _EngineQueue:
    """Request-queue state + statistics (mirrors ``RequestQueue``'s API).

    Both pools are sorted int64 arrays, replaced (never mutated in
    place) by each dispatch path.  ``outstanding`` holds the in-flight
    completions (entries at or below the issue clock may linger, as in
    the reference queue's lazily-retired heap); ``pending`` holds
    completions whose backpressure rank has not been consumed yet — the
    pool the vector pass reads constraints from.  The scalar loop
    converts only what one batch can touch (:func:`_scalar_pools`) and
    sorts it back in on exit.
    """

    __slots__ = (
        "name",
        "capacity",
        "outstanding",
        "pending",
        "pushed",
        "total_enqueued",
        "total_stall_cycles",
        "peak_occupancy",
    )

    def __init__(self, capacity: int, name: str) -> None:
        if capacity < 1:
            raise MemoryModelError(f"{name}: capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        self.outstanding = np.zeros(0, dtype=np.int64)
        self.pending = np.zeros(0, dtype=np.int64)
        self.pushed = 0
        self.total_enqueued = 0
        self.total_stall_cycles = 0
        self.peak_occupancy = 0

    def drain_time(self) -> int:
        """Cycle at which every in-flight entry has completed."""
        return int(self.outstanding[-1]) if self.outstanding.size else 0


class BatchedEngine:
    """Vectorized line pipeline, bit-exact to the reference engine."""

    #: Batches below this many lines run the inlined scalar loop.  Tuned
    #: by ``benchmarks/perf/test_perf_batched_small.py``: the vector
    #: path's fixed numpy-dispatch cost (~100 array ops) only amortizes
    #: beyond ~190 lines.
    vector_threshold = 192

    #: Closed-form fast path for single-stream read-only batches no
    #: longer than the read queue (the many ~30-line prefetch bursts):
    #: whole (bank, row) streaks resolve as affine sequences with
    #: O(streaks) Python work — no per-line loop, no numpy dispatch.
    #: Exactness is guarded (and fuzzed); any batch the guards reject,
    #: longer bursts included, falls through to scalar/vector.
    single_stream_fast_path = True

    def __init__(
        self,
        dram: RamulatorLite,
        read_queue_entries: int = 128,
        write_queue_entries: int = 128,
        max_issue_per_cycle: int = 1,
    ) -> None:
        if max_issue_per_cycle < 1:
            raise DramError("max_issue_per_cycle must be >= 1")
        self.timing = dram.timing
        self.mapper = dram.mapper
        self.max_issue_per_cycle = max_issue_per_cycle
        self.read_queue = _EngineQueue(read_queue_entries, "read_queue")
        self.write_queue = _EngineQueue(write_queue_entries, "write_queue")
        self._issue_clock = 0

        mapper = self.mapper
        self.channels = mapper.channels
        self.ranks = mapper.ranks
        self.banks = mapper.banks
        num_banks = self.channels * self.ranks * self.banks
        # Canonical datapath state is int64 arrays, the layout the vector
        # pass gathers and writes back by slice; the scalar loop and the
        # single-stream path convert what they read at entry and exit.
        self._open_row = np.full(num_banks, -1, dtype=np.int64)
        self._ready = np.zeros(num_banks, dtype=np.int64)
        self._act = np.full(num_banks, -(10**9), dtype=np.int64)
        self._bus_ready = np.zeros(self.channels, dtype=np.int64)
        # Per-channel statistics (Python ints: they reach DramStats).
        self._s_reads = [0] * self.channels
        self._s_writes = [0] * self.channels
        self._s_hits = [0] * self.channels
        self._s_misses = [0] * self.channels
        self._s_conflicts = [0] * self.channels
        self._s_lat = [0] * self.channels
        self._s_last = [0] * self.channels
        self._s_first: list[int | None] = [None] * self.channels
        self._s_bytes = [0] * self.channels
        # Decode plan shared with AddressMapper: (line // stride) % size.
        self._strides = mapper.field_strides
        self._sizes = mapper.field_sizes
        # Vector-pass parameters, built on the first vector-size batch.
        self._vector_params: VectorParams | None = None

    # ------------------------------------------------------------- protocol

    def process_batch(self, batch: LineRequestBatch, issue_cycle: int) -> BatchResult:
        """Issue every line of ``batch``; return the read-ready horizon.

        No run reaches this per-engine entry: every DRAM config
        resolves through :class:`~repro.dram.engine_grid.GridBatchedEngine`,
        which calls :meth:`_dispatch` and the vector pass itself.  It is
        kept only because ``perfbench/tracing.py`` patches it by name
        (the ``dram.batched_*`` metrics, which read 0 on every workload).
        """
        result, clock0 = self._dispatch(batch, issue_cycle)
        if result is not None:
            return result
        lines, is_write = issue_order_arrays(batch)
        params = self.vector_params()
        stacked = stack_lines(params, [decode_lines(self, lines)])
        [result] = resolve_vector_pass(params, [self], stacked, is_write, [clock0])
        return result

    def _dispatch(
        self, batch: LineRequestBatch, issue_cycle: int
    ) -> tuple[BatchResult | None, int]:
        """Every dispatch path but the vector pass; ``(result, clock0)``.

        An empty batch, the single-stream path or (below
        :attr:`vector_threshold`) the scalar loop; ``None`` leaves the
        batch to the caller's vector pass from ``clock0``.
        """
        if issue_cycle < 0:
            raise DramError(f"negative cycle {issue_cycle}")
        clock0 = max(issue_cycle, self._issue_clock)
        total = batch.total_lines
        if total == 0:
            self._issue_clock = clock0
            result = BatchResult(ready_cycle=clock0, lines_read=0, lines_written=0)
            return result, clock0
        result = self._process_single_stream(batch, clock0, total)
        if result is None and total < self.vector_threshold:
            result = self._process_scalar(batch, clock0)
        return result, clock0

    def vector_params(self) -> VectorParams:
        """This engine's vector-pass parameters, built on first use."""
        if self._vector_params is None:
            self._vector_params = VectorParams([self])
        return self._vector_params

    def drain(self) -> int:
        """Cycle when every in-flight read and write has completed."""
        return max(self.read_queue.drain_time(), self.write_queue.drain_time())

    def aggregate_stats(self) -> DramStats:
        """Merged statistics across all channels."""
        merged = DramStats()
        firsts = [f for f in self._s_first if f is not None]
        merged.reads = sum(self._s_reads)
        merged.writes = sum(self._s_writes)
        merged.row_hits = sum(self._s_hits)
        merged.row_misses = sum(self._s_misses)
        merged.row_conflicts = sum(self._s_conflicts)
        merged.total_read_latency = sum(self._s_lat)
        merged.last_completion = max(self._s_last)
        merged.bytes_transferred = sum(self._s_bytes)
        merged.first_request_cycle = min(firsts) if firsts else None
        return merged

    # ------------------------------------------------- single-stream fast path

    def _process_single_stream(
        self, batch: LineRequestBatch, clock0: int, total: int
    ) -> BatchResult | None:
        """Closed-form pipeline for one contiguous read-only line stream.

        The common prefetch burst — a single stream of consecutive read
        lines on one channel, issued while every earlier read has already
        completed — reduces to per-(bank, row) streaks whose issue/bus
        recurrences telescope into affine sequences (``issue[i] = issue0
        + i*tCCD``; ``completion[i] = max(data[i], bus-chain) + tBURST``).
        Each streak costs O(1) Python arithmetic plus two ``range``
        materializations; anything outside the guarded regime (or every
        batch, with :attr:`single_stream_fast_path` off) returns ``None``
        and takes the scalar loop or the vector pass.  Nothing is mutated
        until every exactness guard has passed.  The grid engine
        (:mod:`repro.dram.engine_grid`) reaches it per config, through
        :meth:`_dispatch`, before its shared vector pass.
        """
        if not self.single_stream_fast_path:
            return None
        streams = [s for s in batch.streams if s.num_lines]
        if len(streams) != 1 or streams[0].is_write or self.channels != 1:
            return None
        timing = self.timing
        t_ccd = timing.t_ccd
        t_cl = timing.t_cl
        t_burst = timing.t_burst
        if t_ccd < 1 or t_cl < 1 or t_burst < 1:
            return None  # the streak telescoping needs CAS >= pacing rate
        read_q = self.read_queue
        cap = read_q.capacity
        k = total
        if k > cap:
            return None  # backpressure possible
        out_r = read_q.outstanding
        if out_r.size and out_r[-1] > clock0:
            return None  # in-flight prior reads complicate occupancy
        strides = self._strides
        candidates = [
            stride
            for stride, size in (
                (strides["ba"], self.banks),
                (strides["ra"], self.ranks),
                (strides["ro"], self._sizes["ro"]),
            )
            if size > 1
        ]
        s_min = min(candidates) if candidates else None
        first_line = streams[0].first_line
        if s_min is not None and (first_line % s_min) + k > s_min * max(2, k // 8):
            return None  # (bank, row) interleaving too fine — streaks degenerate

        st_ra, n_ra = strides["ra"], self.ranks
        st_ba, n_ba = strides["ba"], self.banks
        st_ro, n_ro_size = strides["ro"], self._sizes["ro"]
        ipc = self.max_issue_per_cycle

        # --- resolve every streak into locals (no state mutated yet).
        open_row, ready, act = self._open_row, self._ready, self._act
        t_ras, t_rp, t_rcd = timing.t_ras, timing.t_rp, timing.t_rcd
        bus_chain = self._bus_ready.item(0)
        completions: list[int] = []
        line = first_line
        remaining = k
        index = 0  # batch-wide issue index (paces the front-end clock)
        hits = misses = conflicts = 0
        # Deferred state updates: bank -> (open_row, ready, act).
        bank_updates: dict[int, tuple[int, int, int]] = {}
        while remaining:
            run = remaining if s_min is None else min(
                remaining, s_min - (line % s_min)
            )
            bank_index = ((line // st_ra) % n_ra) * n_ba + (line // st_ba) % n_ba
            row = (line // st_ro) % n_ro_size
            clock_first = clock0 + index // ipc
            state = bank_updates.get(bank_index)
            if state is None:
                state = (
                    open_row.item(bank_index),
                    ready.item(bank_index),
                    act.item(bank_index),
                )
            orow, bank_ready, bank_act = state
            start = bank_ready if bank_ready > clock_first else clock_first
            if orow == row:
                issue0 = start
                hits += run
            elif orow < 0:
                issue0 = start + t_rcd
                bank_act = issue0 - t_rcd
                misses += 1
                hits += run - 1
            else:
                pre = bank_act + t_ras
                if start > pre:
                    pre = start
                bank_act = pre + t_rp
                issue0 = bank_act + t_rcd
                conflicts += 1
                hits += run - 1
            issue_last = issue0 + (run - 1) * t_ccd
            bank_updates[bank_index] = (row, issue_last + t_ccd, bank_act)
            # completion[i] = max(data0 + i*tCCD, max(data0, bus) + i*tBURST) + tBURST
            data0 = issue0 + t_cl
            a0 = data0 + t_burst
            b0 = (data0 if data0 > bus_chain else bus_chain) + t_burst
            if t_ccd > t_burst:
                cross = -(-(b0 - a0) // (t_ccd - t_burst))
                cross = 0 if cross < 0 else (run if cross > run else cross)
            else:
                cross = run  # the bus chain dominates throughout
            completions.extend(range(b0, b0 + cross * t_burst, t_burst))
            completions.extend(
                range(a0 + cross * t_ccd, a0 + run * t_ccd, t_ccd)
            )
            bus_chain = completions[-1]
            line += run
            index += run
            remaining -= run

        clock_last = clock0 + (k - 1) // ipc
        if completions[0] <= clock_last:
            return None  # a completion would retire mid-batch

        # --- commit: bank state, bus, queue, statistics.
        for bank_index, (row, bank_ready, bank_act) in bank_updates.items():
            open_row[bank_index] = row
            ready[bank_index] = bank_ready
            act[bank_index] = bank_act
        self._bus_ready[0] = bus_chain
        self._issue_clock = clock_last
        # One pop per line once `pushed` reaches capacity (the scalar
        # loop's rank-consumption rule), never more than k in one batch:
        # the pool's smallest entries.  The new completions ascend, and
        # with nothing in flight past clock0 every earlier completion
        # lies below them, so the pool stays sorted.
        pops = min(k, max(0, read_q.pushed + k - cap))
        new = np.array(completions, dtype=np.int64)
        read_q.pending = np.concatenate((read_q.pending[pops:], new))
        read_q.outstanding = new
        read_q.pushed += k
        read_q.total_enqueued += k
        if k > read_q.peak_occupancy:
            read_q.peak_occupancy = k
        full, rem = divmod(k, ipc)
        clock_sum = k * clock0 + ipc * (full * (full - 1)) // 2 + rem * full
        self._s_reads[0] += k
        self._s_hits[0] += hits
        self._s_misses[0] += misses
        self._s_conflicts[0] += conflicts
        self._s_lat[0] += sum(completions) - clock_sum
        if completions[-1] > self._s_last[0]:
            self._s_last[0] = completions[-1]
        if self._s_first[0] is None:
            self._s_first[0] = clock0
        self._s_bytes[0] += LINE_BYTES * k
        return BatchResult(
            ready_cycle=completions[-1], lines_read=k, lines_written=0
        )

    # ---------------------------------------------------------- scalar path

    def _process_scalar(self, batch: LineRequestBatch, clock0: int) -> BatchResult:
        """Inlined per-line loop (reference semantics, no numpy)."""
        timing = self.timing
        t_burst = timing.t_burst
        t_ccd = timing.t_ccd
        write_ccd = t_ccd + timing.t_wr
        t_rcd = timing.t_rcd
        t_rp = timing.t_rp
        t_ras = timing.t_ras
        t_cl = timing.t_cl
        t_cwl = timing.t_cwl
        strides = self._strides
        st_ch, n_ch = strides["ch"], self.channels
        st_ra, n_ra = strides["ra"], self.ranks
        st_ba, n_ba = strides["ba"], self.banks
        st_ro, n_ro = strides["ro"], self._sizes["ro"]
        open_row = self._open_row.tolist()
        ready = self._ready.tolist()
        act = self._act.tolist()
        bus = self._bus_ready.tolist()
        s_reads, s_writes = self._s_reads, self._s_writes
        s_hits, s_misses, s_conflicts = self._s_hits, self._s_misses, self._s_conflicts
        s_lat, s_last, s_first, s_bytes = (
            self._s_lat,
            self._s_last,
            self._s_first,
            self._s_bytes,
        )
        heappush, heappop = heapq.heappush, heapq.heappop
        read_q, write_q = self.read_queue, self.write_queue
        lines, writes = _interleave(batch)
        count_w = sum(writes)
        count_r = len(writes) - count_w
        # Per queue: the in-flight heap and the pending pool's head, the
        # only entries this batch can pop; `new_*` heaps its completions.
        out_r, head_r = _scalar_pools(read_q, clock0, count_r)
        out_w, head_w = _scalar_pools(write_q, clock0, count_w)
        new_r: list[int] = []
        new_w: list[int] = []
        used_r = used_w = 0
        cap_r, cap_w = read_q.capacity, write_q.capacity
        pushed_r, pushed_w = read_q.pushed, write_q.pushed
        stall_r = stall_w = 0
        peak_r, peak_w = read_q.peak_occupancy, write_q.peak_occupancy
        ipc = self.max_issue_per_cycle

        clock = clock0
        issued = 0
        last_read = clock0
        lines_read = 0
        lines_written = 0

        for line, is_write in zip(lines, writes):
            # Front-end issue bandwidth: max_issue_per_cycle lines/cycle.
            if issued >= ipc:
                clock += 1
                issued = 0
            if is_write:
                out, cap = out_w, cap_w
            else:
                out, cap = out_r, cap_r
            while out and out[0] <= clock:
                heappop(out)
            if len(out) >= cap:
                issue_at = out[0]
                if is_write:
                    stall_w += issue_at - clock
                else:
                    stall_r += issue_at - clock
                clock = issue_at
                issued = 0
                while out and out[0] <= clock:
                    heappop(out)
            # Decode.
            chan = (line // st_ch) % n_ch
            bank_index = (
                (chan * n_ra + (line // st_ra) % n_ra) * n_ba + (line // st_ba) % n_ba
            )
            row = (line // st_ro) % n_ro
            # Bank access.
            start = ready[bank_index]
            if start < clock:
                start = clock
            orow = open_row[bank_index]
            if orow == row:
                issue_bank = start
                s_hits[chan] += 1
            elif orow < 0:
                issue_bank = start + t_rcd
                act[bank_index] = start
                s_misses[chan] += 1
                open_row[bank_index] = row
            else:
                pre = act[bank_index] + t_ras
                if start > pre:
                    pre = start
                new_act = pre + t_rp
                act[bank_index] = new_act
                issue_bank = new_act + t_rcd
                s_conflicts[chan] += 1
                open_row[bank_index] = row
            # Shared data bus.
            if is_write:
                data_start = issue_bank + t_cwl
                ready[bank_index] = issue_bank + write_ccd
            else:
                data_start = issue_bank + t_cl
                ready[bank_index] = issue_bank + t_ccd
            bus_start = bus[chan]
            if data_start > bus_start:
                bus_start = data_start
            completion = bus_start + t_burst
            bus[chan] = completion
            # Statistics.
            if is_write:
                s_writes[chan] += 1
                lines_written += 1
            else:
                s_reads[chan] += 1
                s_lat[chan] += completion - clock
                lines_read += 1
                if completion > last_read:
                    last_read = completion
            if s_first[chan] is None:
                s_first[chan] = clock
            if completion > s_last[chan]:
                s_last[chan] = completion
            s_bytes[chan] += LINE_BYTES
            # Queue bookkeeping: a full queue's push consumes the pending
            # pool's smallest entry, the head's or this batch's.
            heappush(out, completion)
            occupancy = len(out)
            if is_write:
                if occupancy > peak_w:
                    peak_w = occupancy
                if pushed_w >= cap_w:
                    if new_w and (used_w == len(head_w) or new_w[0] < head_w[used_w]):
                        heappop(new_w)
                    else:
                        used_w += 1
                pushed_w += 1
                heappush(new_w, completion)
            else:
                if occupancy > peak_r:
                    peak_r = occupancy
                if pushed_r >= cap_r:
                    if new_r and (used_r == len(head_r) or new_r[0] < head_r[used_r]):
                        heappop(new_r)
                    else:
                        used_r += 1
                pushed_r += 1
                heappush(new_r, completion)
            issued += 1

        self._open_row[:] = open_row
        self._ready[:] = ready
        self._act[:] = act
        self._bus_ready[:] = bus
        # A queue this batch pushed into gets its pools back sorted.
        for queue, out, used, new in (
            (read_q, out_r, used_r, new_r),
            (write_q, out_w, used_w, new_w),
        ):
            if new:
                queue.outstanding = np.sort(np.array(out, dtype=np.int64))
                pending = np.concatenate(
                    (queue.pending[used:], np.array(new, dtype=np.int64))
                )
                pending.sort()
                queue.pending = pending
        read_q.pushed = pushed_r
        write_q.pushed = pushed_w
        read_q.total_enqueued += lines_read
        write_q.total_enqueued += lines_written
        read_q.total_stall_cycles += stall_r
        write_q.total_stall_cycles += stall_w
        read_q.peak_occupancy = peak_r
        write_q.peak_occupancy = peak_w
        self._issue_clock = clock
        return BatchResult(
            ready_cycle=last_read, lines_read=lines_read, lines_written=lines_written
        )

    def _accumulate_channel(
        self,
        chan_id: int,
        reads: int,
        writes: int,
        hits: int,
        misses: int,
        conflicts: int,
        read_latency: int,
        last_completion: int,
        first_cycle: int,
        num_lines: int,
    ) -> None:
        """Fold one batch's per-channel reductions into the running stats."""
        self._s_reads[chan_id] += reads
        self._s_writes[chan_id] += writes
        self._s_hits[chan_id] += hits
        self._s_misses[chan_id] += misses
        self._s_conflicts[chan_id] += conflicts
        self._s_lat[chan_id] += read_latency
        if last_completion > self._s_last[chan_id]:
            self._s_last[chan_id] = last_completion
        if self._s_first[chan_id] is None:
            self._s_first[chan_id] = first_cycle
        self._s_bytes[chan_id] += LINE_BYTES * num_lines

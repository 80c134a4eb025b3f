"""GridBatchedEngine: one vectorized stall walk for a whole ``dram.*`` grid.

The fifth engine-seam instance (see DESIGN.md): where
:class:`~repro.dram.engine_batched.BatchedEngine` replaced the per-line
Python loop with array passes over one config's line batches, this
module promotes the *config* to an extra array axis.  A pure ``dram.*``
grid shares one compute plan and one decoded line stream per word size
(PR 5's fan-out), so the only per-config work left is the stall walk —
and those walks are data-parallel over identical line sequences.

State layout.  Each config keeps its own :class:`BatchedEngine` as the
canonical state owner (plain Python lists — the scalar and closed-form
fast paths run on them unchanged, per config).  Per batch, the grid
pass snapshots the participating engines' bank/channel state into
*offset-flattened* arrays: config ``p``'s flat bank ids live in
``[bank_off[p], bank_off[p+1])`` and its channel ids in
``[chan_off[p], chan_off[p+1])``.  Ragged geometries (1 channel next to
8, 2 banks next to 16) need no bucketing — the offsets make every
(config, bank) and (config, channel) pair globally unique, so one
stable sort groups the whole grid's traffic and the segmented
running-max scans of the batched engine apply verbatim with per-config
parameters gathered per element:

* per-config timing (tRCD/tRP/tCAS/tRAS/tCCD/tWR/tBURST), queue
  capacities, channel counts and issue rates become broadcast arrays
  (:func:`repro.dram.timing.timing_param_arrays`);
* the front-end pacing scan seeds each config's segment with its own
  ``pace_h`` and runs one segmented running max over the concatenation;
* the row-hit-streak scan and the bus max-plus scan segment on the
  offset bank/channel ids — runs never cross configs;
* queue-constraint construction, violation checks and pending-pool
  merges stay per config (small ``O(capacity)`` array ops).

Exactness.  Each config advances through the *same* block sequence it
would take alone — block bounds come from its own queue capacities and
cursor, and violation truncation re-runs only that config's segment —
so every intermediate array restricted to one config's segment is
element-for-element the one ``BatchedEngine._process_vector`` computes.
Configs a closed-form fast path accepts (single-stream bursts, the
saturated affine steady state) take it *per config* before the shared
pass; each config locks into its own ``completion[i - Q]`` recurrence
exactly as it would alone.  The whole thing is pinned bit-identical by
``tests/dram/test_grid_engine_equivalence.py``.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.config.system import SystemConfig
from repro.core.compute_sim import schedule_cycles
from repro.dram.backend import make_ramulator
from repro.dram.engine import BatchResult, LineRequestBatch
from repro.dram.engine_batched import (
    _BIG,
    _LOW,
    BatchedEngine,
    PreparedLineBatch,
    issue_order_arrays,
)
from repro.dram.timing import timing_param_arrays
from repro.errors import DramError, MemoryModelError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.simulator import ComputePlan, RunResult


class GridBatchedEngine:
    """A grid of batched engines resolved by one shared vector pass.

    ``configs`` must all be DRAM-enabled and share ``arch.word_bytes``
    (they consume one decoded line stream).  :meth:`process_batch`
    issues the same batch into every config's datapath and returns one
    :class:`BatchResult` per config, bit-identical to calling each
    config's :class:`BatchedEngine` alone.
    """

    def __init__(self, configs: Sequence[SystemConfig]) -> None:
        configs = list(configs)
        if not configs:
            raise DramError("grid engine needs at least one config")
        word_sizes = {config.arch.word_bytes for config in configs}
        if len(word_sizes) != 1:
            raise DramError(
                f"grid configs span word sizes {sorted(word_sizes)}; "
                "one grid pass shares one decoded line stream"
            )
        for config in configs:
            if not config.dram.enabled:
                raise DramError(
                    f"config {config.run.run_name!r} has dram.enabled=False; "
                    "the grid engine only resolves DRAM datapaths"
                )
        self.configs = configs
        self.engines = [
            BatchedEngine(
                make_ramulator(config.dram),
                read_queue_entries=config.dram.read_queue_entries,
                write_queue_entries=config.dram.write_queue_entries,
                max_issue_per_cycle=config.dram.issue_per_cycle,
            )
            for config in configs
        ]
        engines = self.engines
        k = len(engines)
        # Broadcast parameter axes (one int64 entry per config).
        self._timing = timing_param_arrays([e.timing for e in engines])
        self._t_ccd_wr = self._timing["t_ccd"] + self._timing["t_wr"]
        self._ipc = np.array([e.max_issue_per_cycle for e in engines], dtype=np.int64)
        self._cap_r = np.array([e.read_queue.capacity for e in engines], dtype=np.int64)
        self._cap_w = np.array(
            [e.write_queue.capacity for e in engines], dtype=np.int64
        )
        # Decode plan per config: field = (line // stride) % size.
        self._st = {
            name: np.array([e._strides[name] for e in engines], dtype=np.int64)
            for name in ("ch", "ra", "ba", "ro")
        }
        self._sz = {
            name: np.array([e._sizes[name] for e in engines], dtype=np.int64)
            for name in ("ch", "ra", "ba", "ro")
        }
        # Offset-flattened state geometry: config p's banks/channels map to
        # [off[p], off[p+1]) — ragged shapes concatenate without bucketing.
        nbanks = np.array(
            [e.channels * e.ranks * e.banks for e in engines], dtype=np.int64
        )
        nchan = np.array([e.channels for e in engines], dtype=np.int64)
        self._bank_off = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(nbanks, out=self._bank_off[1:])
        self._chan_off = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(nchan, out=self._chan_off[1:])
        # Homogeneous-parameter fast flags: a grid sweeping only geometry
        # (channels, banks, mapping) shares every timing constant, so the
        # per-element parameter gathers collapse to Python ints.
        self._uniform_timing = all(
            int(arr.min()) == int(arr.max()) for arr in self._timing.values()
        ) and int(self._ipc.min()) == int(self._ipc.max())
        self._caps_uniform = (
            int(self._cap_r.min()) == int(self._cap_r.max())
            and int(self._cap_w.min()) == int(self._cap_w.max())
        )
        self._cap_r0 = int(self._cap_r[0])
        self._cap_w0 = int(self._cap_w[0])
        self._ramp = np.arange(0, dtype=np.int64)  # lazily grown scratch

    # ------------------------------------------------------------- protocol

    def process_batch(
        self, batch: LineRequestBatch, issue_cycles: Sequence[int]
    ) -> list[BatchResult]:
        """Issue every line of ``batch`` into every config's datapath.

        ``issue_cycles`` carries one issue cycle per config.  Configs a
        per-config fast path accepts commit immediately through their
        own engine; the rest resolve together in the shared grid pass.
        """
        engines = self.engines
        if len(issue_cycles) != len(engines):
            raise DramError(
                f"{len(issue_cycles)} issue cycles for {len(engines)} configs"
            )
        total = batch.total_lines
        results: list[BatchResult | None] = [None] * len(engines)
        rest: list[int] = []
        clock0s: list[int] = []
        for index, engine in enumerate(engines):
            cycle = int(issue_cycles[index])
            if cycle < 0:
                raise DramError(f"negative cycle {cycle}")
            clock0 = max(cycle, engine._issue_clock)
            if total == 0:
                engine._issue_clock = clock0
                results[index] = BatchResult(
                    ready_cycle=clock0, lines_read=0, lines_written=0
                )
                continue
            fast = engine._try_fast_paths(batch, clock0, total)
            if fast is not None:
                results[index] = fast
                continue
            rest.append(index)
            clock0s.append(clock0)
        if rest:
            if total < BatchedEngine.vector_threshold:
                # Small batches: the per-config inlined scalar loop beats
                # any array machinery (same dispatch rule as one engine).
                for index, clock0 in zip(rest, clock0s):
                    results[index] = engines[index]._process_scalar(batch, clock0)
            elif len(rest) == 1:
                results[rest[0]] = engines[rest[0]]._process_vector(
                    batch, clock0s[0]
                )
            else:
                for index, result in zip(
                    rest, self._process_vector_grid(batch, rest, clock0s)
                ):
                    results[index] = result
        return results  # type: ignore[return-value]

    def backpressure_stalls(self) -> list[int]:
        """Per-config issue cycles lost to full request queues."""
        return [
            e.read_queue.total_stall_cycles + e.write_queue.total_stall_cycles
            for e in self.engines
        ]

    def drains(self) -> list[int]:
        """Per-config cycle when all in-flight traffic has completed."""
        return [e.drain() for e in self.engines]

    # ------------------------------------------------------ shared grid pass

    def _process_vector_grid(
        self, batch: LineRequestBatch, part: list[int], clock0s: list[int]
    ) -> list[BatchResult]:
        """One vector pass resolving the stall walk for many configs.

        ``part`` names the participating configs; per-participant state
        is snapshotted from (and written back to) their engines' Python
        lists, exactly like ``_process_vector`` does for one engine.
        """
        engines = [self.engines[c] for c in part]
        num = len(part)
        idx = np.asarray(part, dtype=np.int64)
        # Per-participant parameters (gathered once per call).
        ipc_a = self._ipc[idx]
        cap_r_a = self._cap_r[idx]
        cap_w_a = self._cap_w[idx]
        t_burst_a = self._timing["t_burst"][idx]
        t_ccd_a = self._timing["t_ccd"][idx]
        t_ccd_wr_a = self._t_ccd_wr[idx]
        t_rcd_a = self._timing["t_rcd"][idx]
        t_rp_a = self._timing["t_rp"][idx]
        t_ras_a = self._timing["t_ras"][idx]
        t_cl_a = self._timing["t_cl"][idx]
        t_cwl_a = self._timing["t_cwl"][idx]
        nbanks = np.array(
            [e.channels * e.ranks * e.banks for e in engines], dtype=np.int64
        )
        nchan = np.array([e.channels for e in engines], dtype=np.int64)
        bank_off = np.zeros(num + 1, dtype=np.int64)
        np.cumsum(nbanks, out=bank_off[1:])
        chan_off = np.zeros(num + 1, dtype=np.int64)
        np.cumsum(nchan, out=chan_off[1:])
        cap_r_l = cap_r_a.tolist()
        cap_w_l = cap_w_a.tolist()

        # --- 1. shared issue order + per-config decode --------------------
        if (
            isinstance(batch, PreparedLineBatch)
            and batch.lines_in_order is not None
        ):
            lines = batch.lines_in_order
            is_write = batch.writes_in_order
        else:
            lines, is_write = issue_order_arrays(batch)
        n = lines.size
        index = np.arange(n + 1, dtype=np.int64)
        writes_cum = np.cumsum(is_write)
        reads_cum = index[1:] - writes_cum
        ln = lines[None, :]
        sz_ra = self._sz["ra"][idx]
        sz_ba = self._sz["ba"][idx, None]
        chan = (ln // self._st["ch"][idx, None]) % self._sz["ch"][idx, None]
        bankl = (ln // self._st["ba"][idx, None]) % sz_ba
        row = (ln // self._st["ro"][idx, None]) % self._sz["ro"][idx, None]
        if (sz_ra == 1).all():
            # Single-rank grids (the common case) skip the rank divmod.
            flat_bank = chan * sz_ba + bankl
        else:
            rank = (ln // self._st["ra"][idx, None]) % sz_ra[:, None]
            flat_bank = (chan * sz_ra[:, None] + rank) * sz_ba + bankl
            del rank
        flat_bank += bank_off[:-1, None]
        gchan = chan + chan_off[:-1, None]
        del ln, bankl

        # --- 2. offset-concatenated snapshots of the datapath state -------
        open_row = np.concatenate(
            [np.asarray(e._open_row, dtype=np.int64) for e in engines]
        )
        ready = np.concatenate(
            [np.asarray(e._ready, dtype=np.int64) for e in engines]
        )
        act = np.concatenate([np.asarray(e._act, dtype=np.int64) for e in engines])
        bus = np.concatenate(
            [np.asarray(e._bus_ready, dtype=np.int64) for e in engines]
        )
        pend_r = [
            np.sort(np.asarray(e.read_queue.pending, dtype=np.int64))
            for e in engines
        ]
        pend_w = [
            np.sort(np.asarray(e.write_queue.pending, dtype=np.int64))
            for e in engines
        ]
        pushed_r = [e.read_queue.pushed for e in engines]
        pushed_w = [e.write_queue.pushed for e in engines]
        # Equal-length pending matrices (the lockstep steady state): queue
        # gates and merges become one 2D op instead of a per-config loop.
        # Invalidated whenever a commit leaves rows ragged.
        pend2_r = (
            np.stack(pend_r) if len({a.size for a in pend_r}) == 1 else None
        )
        pend2_w = (
            np.stack(pend_w) if len({a.size for a in pend_w}) == 1 else None
        )
        enq_r = [0] * num
        enq_w = [0] * num
        stall_r = [0] * num
        stall_w = [0] * num

        issue_all = np.empty((num, n), dtype=np.int64)
        comp_all = np.empty((num, n), dtype=np.int64)
        cat_all = np.empty((num, n), dtype=np.int8)  # 0 hit / 1 miss / 2 conflict

        pace_h = [int(ipc) * c0 for ipc, c0 in zip(ipc_a.tolist(), clock0s)]
        pos = [0] * num
        block_override = [0] * num  # violation re-run lengths (0 = none)
        caps_uniform = self._caps_uniform
        uniform_timing = self._uniform_timing
        if uniform_timing:
            ccd0 = int(t_ccd_a[0])
            ccdwr0 = int(t_ccd_wr_a[0])
            cl0 = int(t_cl_a[0])
            cwl0 = int(t_cwl_a[0])
            tb0 = int(t_burst_a[0])
            ipc0 = int(ipc_a[0])
            ipc1 = ipc0 == 1
            # Power-of-two issue rates (1, 2, 4...) turn the pacing
            # divides into shifts; h >= 0 after the pace seeding, so
            # the arithmetic shift matches floor division exactly.
            ipc_sh = ipc0.bit_length() - 1 if ipc0 & (ipc0 - 1) == 0 else None
        else:
            ipc1 = False
            ipc_sh = None

        # --- 3. lockstep block loop ---------------------------------------
        # Every participant advances through exactly the block sequence it
        # would take alone (its own capacities, cursor and violation
        # truncations); segments concatenate per iteration so the scans
        # stay single numpy calls.
        while True:
            active = [p for p in range(num) if pos[p] < n]
            if not active:
                break
            num_act = len(active)
            all_act = num_act == num
            act_sel = None if all_act else np.asarray(active, dtype=np.int64)
            ov = [block_override[p] for p in active]
            has_ov = any(ov)
            if has_ov:
                for p in active:
                    block_override[p] = 0
            # Longest prefix with at most `capacity` pushes per queue:
            # constraints then predate the block.  The lockstep steady
            # state (shared cursor, shared caps or a truncate-all retry)
            # needs only two scalar searchsorted calls.
            starts_set = {pos[p] for p in active}
            if len(starts_set) == 1 and (
                (has_ov and ov[0] > 0 and ov.count(ov[0]) == num_act)
                or (not has_ov and caps_uniform)
            ):
                p0 = next(iter(starts_set))
                if has_ov:
                    blk = ov[0]
                else:
                    rb = int(reads_cum[p0 - 1]) if p0 else 0
                    wb = int(writes_cum[p0 - 1]) if p0 else 0
                    er = int(
                        reads_cum.searchsorted(rb + self._cap_r0, side="right")
                    )
                    ew = int(
                        writes_cum.searchsorted(wb + self._cap_w0, side="right")
                    )
                    blk = min(er, ew, n) - p0
                starts = [p0] * num_act
                blocks = [blk] * num_act
                uniform = True
            else:
                base_arr = np.asarray([pos[p] for p in active], dtype=np.int64)
                # One searchsorted per queue covers every participant
                # (the needle array need not be sorted); base 0 reads
                # cum[-1] harmlessly — masked out.
                reads_base = np.where(base_arr > 0, reads_cum[base_arr - 1], 0)
                writes_base = np.where(base_arr > 0, writes_cum[base_arr - 1], 0)
                cr = cap_r_a if all_act else cap_r_a[act_sel]
                cw = cap_w_a if all_act else cap_w_a[act_sel]
                end_r = reads_cum.searchsorted(reads_base + cr, side="right")
                end_w = writes_cum.searchsorted(writes_base + cw, side="right")
                seg_len = np.minimum(np.minimum(end_r, end_w), n) - base_arr
                if has_ov:
                    override = np.asarray(ov, dtype=np.int64)
                    seg_len = np.where(override > 0, override, seg_len)
                starts = base_arr.tolist()
                blocks = seg_len.tolist()
                # The truncate-all retry keeps equal-capacity grids in
                # perfect lockstep, so the uniform rectangle lane is the
                # steady state; the ragged lane only runs for mixed
                # queue capacities.
                uniform = (
                    starts.count(starts[0]) == num_act
                    and blocks.count(blocks[0]) == num_act
                )

            # Per-active parameter rows (identity while every config is
            # still active — the steady state).
            if all_act:
                ipc_act = ipc_a
                tccd_act = t_ccd_a
                tccdwr_act = t_ccd_wr_a
                tcl_act = t_cl_a
                tcwl_act = t_cwl_a
                tburst_act = t_burst_a
                pace_arr = np.asarray(pace_h, dtype=np.int64)
            else:
                ipc_act = ipc_a[act_sel]
                tccd_act = t_ccd_a[act_sel]
                tccdwr_act = t_ccd_wr_a[act_sel]
                tcl_act = t_cl_a[act_sel]
                tcwl_act = t_cwl_a[act_sel]
                tburst_act = t_burst_a[act_sel]
                pace_arr = np.asarray(
                    [pace_h[p] for p in active], dtype=np.int64
                )

            ends = [s + b for s, b in zip(starts, blocks)]
            if uniform:
                # ---- uniform lane: one (configs, block) rectangle --------
                # Same math as the ragged lane element-for-element, but
                # every per-segment construct (offset trick, segment
                # seeding, searchsorted partitions) collapses into 2D
                # slicing and axis-1 scans; the participant/block-local
                # coordinates of any flat element index are just
                # divmod(element, block).
                s0 = starts[0]
                e0 = ends[0]
                blk = blocks[0]
                total = num_act * blk
                gidx_blk = index[s0:e0]
                wr_blk = is_write[s0:e0]
                if all_act:
                    fb_c = flat_bank[:, s0:e0].ravel()
                    row_c = row[:, s0:e0].ravel()
                    gch_c = gchan[:, s0:e0].ravel()
                else:
                    fb_c = flat_bank[act_sel, s0:e0].ravel()
                    row_c = row[act_sel, s0:e0].ravel()
                    gch_c = gchan[act_sel, s0:e0].ravel()

                # Queue constraints g: consumed order statistics; the
                # block-local read/write positions are shared by rows.
                if wr_blk.any():
                    rd_local = (~wr_blk).nonzero()[0]
                    wr_local = wr_blk.nonzero()[0]
                    rd_contig = False
                else:
                    # Read-only block (the common fetch stream): the
                    # read positions are just 0..blk-1, so downstream
                    # column gathers become plain slices.
                    rd_local = index[:blk]
                    wr_local = index[:0]
                    rd_contig = True
                g2 = np.full((num_act, blk), _LOW, dtype=np.int64)
                for local, contig, pend2, pend_l, caps, pushed_l in (
                    (rd_local, rd_contig, pend2_r, pend_r, cap_r_l, pushed_r),
                    (wr_local, False, pend2_w, pend_w, cap_w_l, pushed_w),
                ):
                    count = local.size
                    if not count:
                        continue
                    if all_act and pend2 is not None:
                        skip0 = caps[0] - pushed_l[0]
                        if skip0 < 0:
                            skip0 = 0
                        same = True
                        for p in active:
                            skip = caps[p] - pushed_l[p]
                            if (skip if skip > 0 else 0) != skip0:
                                same = False
                                break
                        if same:
                            if count > skip0:
                                if contig:
                                    g2[:, skip0:count] = pend2[
                                        :, : count - skip0
                                    ]
                                else:
                                    g2[:, local[skip0:]] = pend2[
                                        :, : count - skip0
                                    ]
                            continue
                    for a_i, p in enumerate(active):
                        skip = caps[p] - pushed_l[p]
                        if skip < 0:
                            skip = 0
                        if count > skip:
                            g2[a_i, local[skip:]] = pend_l[p][: count - skip]

                # Front-end pacing: row-wise running max, no segment
                # offsets needed.
                if ipc1:
                    # One line per cycle: h = g - i and issue = i + hmax,
                    # skipping the (expensive) integer divides entirely.
                    h2 = g2 - gidx_blk
                elif ipc_sh is not None:
                    h2 = (g2 << ipc_sh) - gidx_blk
                else:
                    ipc_col = ipc_act[:, None]
                    h2 = ipc_col * g2 - gidx_blk
                np.maximum(h2[:, 0], pace_arr, out=h2[:, 0])
                hmax2 = np.maximum.accumulate(h2, axis=1)
                if ipc1:
                    issue2 = gidx_blk + hmax2
                elif ipc_sh is not None:
                    issue2 = (gidx_blk + hmax2) >> ipc_sh
                else:
                    issue2 = (gidx_blk + hmax2) // ipc_col
                issue = issue2.ravel()
            else:
                # ---- ragged lane: offset-concatenated segments -----------
                bounds = np.zeros(num_act + 1, dtype=np.int64)
                np.cumsum(seg_len, out=bounds[1:])
                total = int(bounds[-1])
                pae = np.repeat(np.arange(num_act, dtype=np.int64), seg_len)
                gidx = np.concatenate([index[s:e] for s, e in zip(starts, ends)])
                wr = is_write[gidx]
                fb_c = np.concatenate(
                    [flat_bank[p, s:e] for p, s, e in zip(active, starts, ends)]
                )
                row_c = np.concatenate(
                    [row[p, s:e] for p, s, e in zip(active, starts, ends)]
                )
                gch_c = np.concatenate(
                    [gchan[p, s:e] for p, s, e in zip(active, starts, ends)]
                )

                # Queue constraints g: consumed order statistics.
                g = np.full(total, _LOW, dtype=np.int64)
                wr_nz = wr.nonzero()[0]
                rd_nz = (~wr).nonzero()[0]
                r_bounds = np.searchsorted(rd_nz, bounds)
                w_bounds = np.searchsorted(wr_nz, bounds)
                for a_i, p in enumerate(active):
                    for nz, qb, pend, cap, pushed in (
                        (rd_nz, r_bounds, pend_r[p], cap_r_l[p], pushed_r[p]),
                        (wr_nz, w_bounds, pend_w[p], cap_w_l[p], pushed_w[p]),
                    ):
                        positions = nz[qb[a_i] : qb[a_i + 1]]
                        count = positions.size
                        if not count:
                            continue
                        skip = cap - pushed
                        if skip < 0:
                            skip = 0
                        if count > skip:
                            g[positions[skip:]] = pend[: count - skip]

                # Front-end pacing: per-config segmented running max.
                ipc_e = ipc_act[pae]
                h = ipc_e * g - gidx
                seg_starts = bounds[:-1]
                # Seeding each segment start with pace_h (always >= 0)
                # keeps segment values strictly above any carried maximum
                # from the previous segment under the +pae*_BIG offset.
                h[seg_starts] = np.maximum(h[seg_starts], pace_arr)
                seg_off = pae * _BIG
                hmax = np.maximum.accumulate(h + seg_off) - seg_off
                issue = (gidx + hmax) // ipc_e
                h_prev = np.empty(total, dtype=np.int64)
                h_prev[1:] = hmax[:-1]
                h_prev[seg_starts] = pace_arr
                stall = issue - (gidx + h_prev) // ipc_e

            # --- bank timing (globally grouped, streak scans) -------------
            grouping = fb_c.argsort(kind="stable")
            fb_s = fb_c[grouping]
            row_s = row_c[grouping]
            cyc_s = issue[grouping]
            if uniform:
                # Block-local coordinates and the write mask materialize
                # only when a consumer needs them: read-only blocks (the
                # common fetch stream) need neither, and the prefix commit
                # derives j_s only on a violation.
                j_s = None
                pae_s = None
                wr_s = (
                    np.broadcast_to(wr_blk, (num_act, blk)).ravel()[grouping]
                    if wr_local.size
                    else None
                )
            else:
                wr_s = wr[grouping]
                pae_s = pae[grouping]
            is_start = np.empty(total, dtype=bool)
            is_start[0] = True
            np.not_equal(fb_s[1:], fb_s[:-1], out=is_start[1:])
            group_starts = is_start.nonzero()[0]
            prev_row = np.empty(total, dtype=np.int64)
            prev_row[1:] = row_s[:-1]
            prev_row[group_starts] = open_row[fb_s[group_starts]]
            hit = row_s == prev_row
            not_hit = ~hit
            all_hits = not not_hit.any()
            if all_hits:
                # Runs coincide with bank groups: reuse their boundaries.
                run_start = is_start
            else:
                run_start = is_start | not_hit
                run_start[1:] |= not_hit[:-1]
            run_id = run_start.cumsum() - 1
            if uniform_timing:
                # ``delta is None`` encodes a constant ccd0 everywhere —
                # the exclusive cumsum collapses to a scaled ramp.
                delta = (
                    None
                    if wr_s is None or ccdwr0 == ccd0
                    else np.where(wr_s, ccdwr0, ccd0)
                )
            else:
                if pae_s is None:
                    pae_s = grouping // blk
                delta = (
                    tccd_act[pae_s]
                    if wr_s is None
                    else np.where(wr_s, tccdwr_act[pae_s], tccd_act[pae_s])
                )
            if delta is None:
                if self._ramp.size < total:
                    self._ramp = np.arange(total, dtype=np.int64)
                d_excl = self._ramp[:total] * ccd0
            else:
                d_excl = np.empty(total, dtype=np.int64)
                d_excl[0] = 0
                delta[:-1].cumsum(out=d_excl[1:])
            rid_off = run_id * _BIG
            streak_max = np.maximum.accumulate(cyc_s - d_excl + rid_off) - rid_off
            run_starts = group_starts if all_hits else run_start.nonzero()[0]
            # Provisional seeds as if every run opened at a group start
            # with a row hit; for bad (miss-carrying) groups the walker
            # overwrites the seed of *every* run it visits, so the
            # provisional values never survive where they are wrong.
            seeds = ready[fb_s[run_starts]] - d_excl[run_starts]
            act_updates: list[tuple[int, int, int]] = []
            if not all_hits:
                _resolve_streak_boundaries_grid(
                    fb_s,
                    cyc_s,
                    prev_row,
                    hit,
                    group_starts,
                    run_id,
                    run_starts,
                    d_excl,
                    delta,
                    streak_max,
                    ready,
                    act,
                    seeds,
                    act_updates,
                    # The walker needs only one participant id per bad
                    # group; deriving it from grouping//blk in Python
                    # beats materializing the whole pae_s array.
                    (grouping, blk) if pae_s is None else pae_s,
                    t_rcd_a if all_act else t_rcd_a[act_sel],
                    t_rp_a if all_act else t_rp_a[act_sel],
                    t_ras_a if all_act else t_ras_a[act_sel],
                    ccd0 if delta is None else None,
                )
            issue_bank = d_excl + np.maximum(seeds[run_id], streak_max)
            if uniform_timing:
                if wr_s is None or cwl0 == cl0:
                    data_start_s = issue_bank + cl0
                else:
                    data_start_s = issue_bank + np.where(wr_s, cwl0, cl0)
            else:
                data_start_s = issue_bank + (
                    tcl_act[pae_s]
                    if wr_s is None
                    else np.where(wr_s, tcwl_act[pae_s], tcl_act[pae_s])
                )

            # --- bus arbitration per (config, channel) --------------------
            data_start = np.empty(total, dtype=np.int64)
            data_start[grouping] = data_start_s
            chan_order = gch_c.argsort(kind="stable")
            chan_s = gch_c[chan_order]
            bus_in = data_start[chan_order]
            cstart = np.empty(total, dtype=bool)
            cstart[0] = True
            np.not_equal(chan_s[1:], chan_s[:-1], out=cstart[1:])
            chan_starts = cstart.nonzero()[0]
            seg_end = np.empty(chan_starts.size, dtype=np.int64)
            seg_end[:-1] = chan_starts[1:]
            seg_end[-1] = total
            if self._ramp.size < total:
                self._ramp = np.arange(total, dtype=np.int64)
            # The per-segment offset only needs distinct nondecreasing
            # values — the sorted channel ids themselves qualify, saving
            # a cumsum.
            seg_off = chan_s * _BIG
            if uniform_timing:
                # Uniform burst: measure elements against the *global*
                # ramp instead of a segment-local one — the segment base
                # (chan_start * tb0) cancels between the seeded ``elem``
                # and the final completion, so the per-segment ``within``
                # ramp (and its np.repeat) never materializes.
                ramp_tb = self._ramp[:total] * tb0
                elem = bus_in - ramp_tb
                elem[chan_starts] = np.maximum(
                    elem[chan_starts],
                    bus[chan_s[chan_starts]] - ramp_tb[chan_starts],
                )
                seg_max = np.maximum.accumulate(elem + seg_off) - seg_off
                completion_s = ramp_tb + tb0 + seg_max
            else:
                within = self._ramp[:total] - np.repeat(
                    chan_starts, seg_end - chan_starts
                )
                tb_e = tburst_act[
                    chan_order // blk if uniform else pae[chan_order]
                ]
                wtb = within * tb_e
                elem = bus_in - wtb
                elem[chan_starts] = np.maximum(
                    elem[chan_starts], bus[chan_s[chan_starts]]
                )
                seg_max = np.maximum.accumulate(elem + seg_off) - seg_off
                completion_s = wtb + tb_e + seg_max
            completion = np.empty(total, dtype=np.int64)
            completion[chan_order] = completion_s

            # --- verify the order-statistic speculation per config --------
            v_min = None
            if uniform:
                cut = blk
                completion2 = completion.reshape(num_act, blk)
                suspects = completion2.min(axis=1) < g2.max(axis=1)
                for a_i in suspects.nonzero()[0].tolist():
                    violation = blk
                    for local in (rd_local, wr_local):
                        if local.size < 2:
                            continue
                        run_min = np.minimum.accumulate(completion2[a_i, local])
                        bad = (run_min[:-1] < g2[a_i, local[1:]]).nonzero()[0]
                        if bad.size:
                            violation = min(
                                violation, int(local[int(bad[0]) + 1])
                            )
                    if violation < blk:
                        v_pos = s0 + violation
                        v_min = v_pos if v_min is None else min(v_min, v_pos)
                if v_min is not None:
                    # Every element value before the violation frontier is
                    # already exact: scans are prefix-causal per (config,
                    # bank, channel) — bank groups never cross configs, so
                    # even the walker's ACT chain ascends in position —
                    # and the clean prefix commits directly: no retry pass.
                    cut = v_min - s0
            else:
                # One reduceat pair replaces a per-participant min/max
                # sweep; segments are never empty (each block holds >= 1
                # line).
                comp_min = np.minimum.reduceat(completion, bounds[:-1])
                g_max = np.maximum.reduceat(g, bounds[:-1])
                for a_i in (comp_min < g_max).nonzero()[0].tolist():
                    lo, hi = int(bounds[a_i]), int(bounds[a_i + 1])
                    violation = hi - lo
                    for nz, qb in ((rd_nz, r_bounds), (wr_nz, w_bounds)):
                        positions = nz[qb[a_i] : qb[a_i + 1]]
                        if positions.size < 2:
                            continue
                        comp_q = completion[positions]
                        run_min = np.minimum.accumulate(comp_q)
                        bad = (run_min[:-1] < g[positions[1:]]).nonzero()[0]
                        if bad.size:
                            violation = min(
                                violation, int(positions[int(bad[0]) + 1]) - lo
                            )
                    if violation < hi - lo:
                        v_pos = starts[a_i] + violation
                        v_min = v_pos if v_min is None else min(v_min, v_pos)
                if v_min is not None:
                    # Retry the whole iteration with every segment cut at
                    # the violation frontier: block partitioning is
                    # refinement-independent (scans re-seed from committed
                    # state), so truncating a non-violating config is free
                    # — and keeping all configs advancing in lockstep
                    # preserves the shared passes instead of re-running
                    # stragglers one by one.
                    for a_i, p in enumerate(active):
                        trunc = v_min - starts[a_i]
                        block_override[p] = (
                            trunc if 0 < trunc < blocks[a_i] else blocks[a_i]
                        )
                    continue

            # --- commit (the verified span of every segment) ---------------
            if all_hits:
                cat_c = None  # every access a row hit: category 0 everywhere
            else:
                # hit -> 0, miss on a closed row -> 1, conflict -> 2,
                # as int8 arithmetic (cheaper than nested np.where).
                category_s = not_hit.view(np.int8) * (
                    (prev_row >= 0).view(np.int8) + np.int8(1)
                )
                cat_c = np.empty(total, dtype=np.int8)
                cat_c[grouping] = category_s
            if uniform and cut < blk:
                # Prefix state commit: each bank group / channel segment
                # advances to its last kept element (position < cut);
                # groups with nothing kept stay untouched.
                if j_s is None:
                    j_s = grouping % blk
                kept = (j_s < cut).nonzero()[0]
                gid_k = group_starts.searchsorted(kept, side="right") - 1
                lk = np.empty(kept.size, dtype=bool)
                lk[-1] = True
                np.not_equal(gid_k[:-1], gid_k[1:], out=lk[:-1])
                last_k = kept[lk]
                touched = fb_s[last_k]
                open_row[touched] = row_s[last_k]
                ready[touched] = issue_bank[last_k] + (
                    ccd0 if delta is None else delta[last_k]
                )
                kept_c = ((chan_order % blk) < cut).nonzero()[0]
                cid_k = chan_starts.searchsorted(kept_c, side="right") - 1
                lc = np.empty(kept_c.size, dtype=bool)
                lc[-1] = True
                np.not_equal(cid_k[:-1], cid_k[1:], out=lc[:-1])
                last_c = kept_c[lc]
                bus[chan_s[last_c]] = completion_s[last_c]
                for bank_index, position, value in act_updates:
                    if int(j_s[position]) < cut:
                        act[bank_index] = value
            else:
                last_pos = np.empty(group_starts.size, dtype=np.int64)
                last_pos[:-1] = group_starts[1:]
                last_pos[-1] = total
                last_pos -= 1
                touched = fb_s[group_starts]
                open_row[touched] = row_s[last_pos]
                ready[touched] = issue_bank[last_pos] + (
                    ccd0 if delta is None else delta[last_pos]
                )
                bus[chan_s[chan_starts]] = completion_s[seg_end - 1]
                for bank_index, _, value in act_updates:
                    act[bank_index] = value
            if uniform:
                ec = s0 + cut
                if all_act:
                    issue_all[:, s0:ec] = issue2[:, :cut]
                    comp_all[:, s0:ec] = completion2[:, :cut]
                    if cat_c is None:
                        cat_all[:, s0:ec] = 0
                    else:
                        cat_all[:, s0:ec] = cat_c.reshape(num_act, blk)[
                            :, :cut
                        ]
                else:
                    issue_all[act_sel, s0:ec] = issue2[:, :cut]
                    comp_all[act_sel, s0:ec] = completion2[:, :cut]
                    if cat_c is None:
                        cat_all[act_sel, s0:ec] = 0
                    else:
                        cat_all[act_sel, s0:ec] = cat_c.reshape(num_act, blk)[
                            :, :cut
                        ]
                hlast = hmax2[:, cut - 1].tolist()
                for a_i, p in enumerate(active):
                    pace_h[p] = hlast[a_i]
                    pos[p] = ec
                # Stall accounting, deferred past the verify so aborted
                # iterations never pay for it.
                h_prev2 = np.empty_like(hmax2)
                h_prev2[:, 1:] = hmax2[:, :-1]
                h_prev2[:, 0] = pace_arr
                if ipc1:
                    stall2 = hmax2 - h_prev2
                elif ipc_sh is not None:
                    stall2 = issue2 - ((gidx_blk + h_prev2) >> ipc_sh)
                else:
                    stall2 = issue2 - (gidx_blk + h_prev2) // ipc_col
                # Column gathers + row-wise sums replace the per-queue
                # searchsorted partitions and reduceat stall totals; when
                # every participant consumes the same queue prefix (equal
                # caps and occupancy — the steady state) the per-config
                # merge sorts collapse into one axis-1 sort.
                for is_w, local, contig in (
                    (False, rd_local, rd_contig),
                    (True, wr_local, False),
                ):
                    if contig:
                        count = blk if cut == blk else cut
                    else:
                        count = (
                            local.size
                            if cut == blk
                            else int(local.searchsorted(cut))
                        )
                    if not count:
                        continue
                    if contig:
                        # Contiguous read positions: plain slices, no
                        # column gathers.
                        comp_q = completion2[:, :count]
                        stall_q = stall2[:, :count].sum(axis=1).tolist()
                    else:
                        kept_local = (
                            local if count == local.size else local[:count]
                        )
                        comp_q = completion2[:, kept_local]
                        stall_q = stall2[:, kept_local].sum(axis=1).tolist()
                    pend_l = pend_w if is_w else pend_r
                    pushed_l = pushed_w if is_w else pushed_r
                    caps = cap_w_l if is_w else cap_r_l
                    pend2 = pend2_w if is_w else pend2_r
                    consumed = []
                    for p in active:
                        skip = caps[p] - pushed_l[p]
                        if skip < 0:
                            skip = 0
                        consumed.append(count - skip if count > skip else 0)
                    c0 = consumed[0]
                    if (
                        all_act
                        and pend2 is not None
                        and all(c == c0 for c in consumed)
                    ):
                        merged2 = np.concatenate([pend2[:, c0:], comp_q], axis=1)
                        merged2.sort(axis=1)
                        if is_w:
                            pend2_w = merged2
                        else:
                            pend2_r = merged2
                        rows = merged2
                    else:
                        if is_w:
                            pend2_w = None
                        else:
                            pend2_r = None
                        rows = []
                        for a_i, p in enumerate(active):
                            merged = np.concatenate(
                                [pend_l[p][consumed[a_i] :], comp_q[a_i]]
                            )
                            merged.sort()
                            rows.append(merged)
                    for a_i, p in enumerate(active):
                        pend_l[p] = rows[a_i]
                        pushed_l[p] += count
                        if is_w:
                            enq_w[p] += count
                            stall_w[p] += stall_q[a_i]
                        else:
                            enq_r[p] += count
                            stall_r[p] += stall_q[a_i]
            else:
                pend2_r = None
                pend2_w = None
                for a_i, p in enumerate(active):
                    lo, hi = int(bounds[a_i]), int(bounds[a_i + 1])
                    sl = slice(starts[a_i], ends[a_i])
                    issue_all[p, sl] = issue[lo:hi]
                    comp_all[p, sl] = completion[lo:hi]
                    cat_all[p, sl] = 0 if cat_c is None else cat_c[lo:hi]
                    pace_h[p] = int(hmax[hi - 1])
                # Per-(participant, queue) stall totals in two reduceat
                # calls; empty segments return a stray neighbour value —
                # masked off.
                stall_sums = []
                for nz, qb in ((rd_nz, r_bounds), (wr_nz, w_bounds)):
                    if nz.size:
                        clamped = np.minimum(qb[:-1], nz.size - 1)
                        sums = np.add.reduceat(stall[nz], clamped)
                        sums[qb[:-1] == qb[1:]] = 0
                    else:
                        sums = np.zeros(num_act, dtype=np.int64)
                    stall_sums.append(sums)
                for a_i, p in enumerate(active):
                    for q_i, (is_w, nz, qb) in enumerate(
                        ((False, rd_nz, r_bounds), (True, wr_nz, w_bounds))
                    ):
                        positions = nz[qb[a_i] : qb[a_i + 1]]
                        count = positions.size
                        if not count:
                            continue
                        cap = cap_w_l[p] if is_w else cap_r_l[p]
                        pushed = pushed_w[p] if is_w else pushed_r[p]
                        pend = pend_w[p] if is_w else pend_r[p]
                        skip = cap - pushed
                        if skip < 0:
                            skip = 0
                        consumed = count - skip if count > skip else 0
                        merged = np.sort(
                            np.concatenate(
                                [pend[consumed:], completion[positions]]
                            )
                        )
                        stall_sum = int(stall_sums[q_i][a_i])
                        if is_w:
                            pend_w[p] = merged
                            pushed_w[p] += count
                            enq_w[p] += count
                            stall_w[p] += stall_sum
                        else:
                            pend_r[p] = merged
                            pushed_r[p] += count
                            enq_r[p] += count
                            stall_r[p] += stall_sum
                    pos[p] = ends[a_i]

        # --- 4. per-config queue occupancy + outstanding ------------------
        reads_mask = ~is_write
        rd_pos = reads_mask.nonzero()[0]
        wr_pos = is_write.nonzero()[0]
        lines_read = rd_pos.size
        lines_written = n - lines_read
        for p, engine in enumerate(engines):
            for queue, pend, positions, pushed, enq, stalled in (
                (engine.read_queue, pend_r[p], rd_pos, pushed_r[p], enq_r[p], stall_r[p]),
                (
                    engine.write_queue,
                    pend_w[p],
                    wr_pos,
                    pushed_w[p],
                    enq_w[p],
                    stall_w[p],
                ),
            ):
                queue.pushed = pushed
                queue.total_enqueued += enq
                queue.total_stall_cycles += stalled
                if not positions.size:
                    continue
                if positions.size == n:
                    clocks = issue_all[p]
                    comps = comp_all[p]
                else:
                    clocks = issue_all[p, positions]
                    comps = comp_all[p, positions]
                prior = np.asarray(queue.outstanding, dtype=np.int64)
                if queue.peak_occupancy < queue.capacity:
                    # Admission stalls when the queue is full, so
                    # occupancy is capped at capacity; once the peak has
                    # reached it, the alive/retire walk cannot move it.
                    prior_s = np.sort(prior)
                    alive_prior = prior_s.size - np.searchsorted(
                        prior_s, clocks, side="right"
                    )
                    count = positions.size
                    retire_at = np.searchsorted(clocks, comps, side="left")
                    retired_cum = np.cumsum(
                        np.bincount(
                            np.minimum(retire_at, count), minlength=count + 1
                        )
                    )[:count]
                    occupancy = alive_prior + index[1 : count + 1] - retired_cum
                    peak = int(occupancy.max())
                    if peak > queue.peak_occupancy:
                        queue.peak_occupancy = peak
                final_clock = int(clocks[-1])
                keep_prior = prior[prior > final_clock]
                keep_new = comps[comps > final_clock]
                queue.outstanding = np.sort(
                    np.concatenate([keep_prior, keep_new])
                ).tolist()
                queue.pending = pend.tolist()

        # --- 5. statistics: global bincounts over (config, channel) -------
        total_chan = int(chan_off[-1])
        counts3 = np.bincount(
            (gchan * 3 + cat_all).ravel(), minlength=3 * total_chan
        ).reshape(total_chan, 3)
        if lines_read:
            gch_r = gchan if not lines_written else gchan[:, rd_pos]
            lat_r = (
                comp_all - issue_all
                if not lines_written
                else comp_all[:, rd_pos] - issue_all[:, rd_pos]
            )
            reads_pc = np.bincount(gch_r.ravel(), minlength=total_chan)
            # Weighted bincount accumulates in float64 — exact while the
            # per-channel latency sum stays below 2**53 cycles.
            lat_pc = np.bincount(
                gch_r.ravel(), weights=lat_r.ravel(), minlength=total_chan
            )
        else:
            reads_pc = np.zeros(total_chan, dtype=np.int64)
            lat_pc = reads_pc
        if lines_written:
            writes_pc = np.bincount(gchan[:, wr_pos].ravel(), minlength=total_chan)
        else:
            writes_pc = np.zeros(total_chan, dtype=np.int64)

        # --- 6. write back per-config state + build results ---------------
        counts3_l = counts3.tolist()
        reads_l = reads_pc.tolist()
        writes_l = writes_pc.tolist()
        lat_l = lat_pc.tolist()
        bus_l = bus.tolist()
        results: list[BatchResult] = []
        for p, engine in enumerate(engines):
            base = int(chan_off[p])
            for local in range(engine.channels):
                gch = base + local
                reads = reads_l[gch]
                writes = writes_l[gch]
                num_lines = reads + writes
                if not num_lines:
                    continue
                first_cycle = 0
                if engine._s_first[local] is None:
                    first_cycle = int(
                        issue_all[p, int(np.argmax(chan[p] == local))]
                    )
                hits3 = counts3_l[gch]
                # bus[gch] is the channel's last completion this call (the
                # per-channel completion chain is monotone), hence the max.
                engine._accumulate_channel(
                    local,
                    reads,
                    writes,
                    hits3[0],
                    hits3[1],
                    hits3[2],
                    int(lat_l[gch]),
                    bus_l[gch],
                    first_cycle,
                    num_lines,
                )
            engine._open_row = open_row[bank_off[p] : bank_off[p + 1]].tolist()
            engine._ready = ready[bank_off[p] : bank_off[p + 1]].tolist()
            engine._act = act[bank_off[p] : bank_off[p + 1]].tolist()
            engine._bus_ready = bus[chan_off[p] : chan_off[p + 1]].tolist()
            engine._issue_clock = int(issue_all[p, -1])
            if lines_read:
                ready_cycle = max(clock0s[p], int(comp_all[p, rd_pos].max()))
            else:
                ready_cycle = clock0s[p]
            results.append(
                BatchResult(
                    ready_cycle=ready_cycle,
                    lines_read=lines_read,
                    lines_written=lines_written,
                )
            )
        return results


def _resolve_streak_boundaries_grid(
    fb_s: np.ndarray,
    cyc_s: np.ndarray,
    prev_row: np.ndarray,
    hit: np.ndarray,
    group_starts: np.ndarray,
    run_id: np.ndarray,
    run_starts: np.ndarray,
    d_excl: np.ndarray,
    delta: np.ndarray | None,
    streak_max: np.ndarray,
    ready: np.ndarray,
    act: np.ndarray,
    seeds: np.ndarray,
    act_updates: list[tuple[int, int, int]],
    pae_s: np.ndarray | tuple[np.ndarray, int],
    t_rcd_a: np.ndarray,
    t_rp_a: np.ndarray,
    t_ras_a: np.ndarray,
    ccd_const: int | None = None,
) -> None:
    """``BatchedEngine._resolve_streak_boundaries`` with per-config timing.

    Bank groups never cross configs (flat bank ids are offset per
    config), so each bad group resolves with its owner's tRCD/tRP/tRAS,
    looked up through ``pae_s``/the per-active timing arrays.

    ``ccd_const`` (a read-only block under uniform timing) declares the
    CAS gap constant: ``delta`` may then be ``None`` and the exclusive
    cumsum collapses to ``position * ccd_const`` — Python arithmetic in
    place of per-run array indexing, the hot path of this walk.

    ``pae_s`` is either the per-element participant array, or a
    ``(grouping, blk)`` pair from the uniform lane: the participant of
    a group is then ``grouping[start] // blk``, computed per bad group
    instead of for the whole block.
    """
    if isinstance(pae_s, tuple):
        grouping_a, blk_c = pae_s
        pae_s = None
    else:
        grouping_a = blk_c = None
    block = fb_s.size
    group_bounds = np.empty(group_starts.size + 1, dtype=np.int64)
    group_bounds[:-1] = group_starts
    group_bounds[-1] = block
    run_bounds = np.empty(run_starts.size + 1, dtype=np.int64)
    run_bounds[:-1] = run_starts
    run_bounds[-1] = block
    # Misses are sorted by position, so their (searchsorted) group ids
    # dedup with one neighbour comparison — no cumsum/unique needed.
    miss_groups = np.searchsorted(group_bounds, (~hit).nonzero()[0], side="right") - 1
    keep = np.empty(miss_groups.size, dtype=bool)
    keep[0] = True
    np.not_equal(miss_groups[1:], miss_groups[:-1], out=keep[1:])
    run_bounds_l = run_bounds.tolist()
    const = ccd_const is not None
    for group in miss_groups[keep].tolist():
        start = int(group_bounds[group])
        end = int(group_bounds[group + 1])
        participant = (
            int(grouping_a[start]) // blk_c
            if pae_s is None
            else int(pae_s[start])
        )
        t_rcd = int(t_rcd_a[participant])
        t_rp = int(t_rp_a[participant])
        t_ras = int(t_ras_a[participant])
        bank_index = int(fb_s[start])
        ready_c = int(ready[bank_index])
        act_c = int(act[bank_index])
        position = start
        # Runs tile a group contiguously, so the run index just
        # increments — no per-run run_id lookup.
        run = int(run_id[start])
        while position < end:
            run_end = run_bounds_l[run + 1]
            if hit[position]:
                d_pos = position * ccd_const if const else int(d_excl[position])
                seed = ready_c - d_pos
                seeds[run] = seed
                last = run_end - 1
                if const:
                    issue_last = last * ccd_const + max(
                        seed, int(streak_max[last])
                    )
                    ready_c = issue_last + ccd_const
                else:
                    issue_last = int(d_excl[last]) + max(
                        seed, int(streak_max[last])
                    )
                    ready_c = issue_last + int(delta[last])
            else:
                demand = int(cyc_s[position])
                bank_start = demand if demand > ready_c else ready_c
                if int(prev_row[position]) < 0:  # row miss (bank idle)
                    issue_b = bank_start + t_rcd
                    act_c = bank_start
                else:  # row conflict: PRE (after tRAS), ACT, CAS
                    pre = act_c + t_ras
                    if bank_start > pre:
                        pre = bank_start
                    act_c = pre + t_rp
                    issue_b = act_c + t_rcd
                if const:
                    seeds[run] = issue_b - position * ccd_const
                    ready_c = issue_b + ccd_const
                else:
                    seeds[run] = issue_b - int(d_excl[position])
                    ready_c = issue_b + int(delta[position])
                # One entry per miss (position-ascending within a group:
                # banks never cross configs) so a violation frontier can
                # commit the prefix's ACT chain exactly.
                act_updates.append((bank_index, position, act_c))
            position = run_end
            run += 1


def resolve_plan_grid(
    plan: "ComputePlan",
    configs: Sequence[SystemConfig],
    line_batches: list[list[LineRequestBatch]],
) -> list["RunResult"]:
    """Grid stall resolution: walk one plan against many DRAM configs.

    The config-axis twin of :func:`repro.core.simulator.resolve_plan`:
    one :class:`GridBatchedEngine` replays the double-buffer fold walk
    with per-config clock vectors, issuing each shared line batch into
    every datapath at once.  ``line_batches`` carries the shared decoded
    streams (outer list per layer, aligned with ``plan.computes``).
    Results are bit-identical to resolving each config alone.
    """
    from repro.core.simulator import LayerResult, RunResult
    from repro.memory.double_buffer import MemoryTimeline

    configs = list(configs)
    engine = GridBatchedEngine(configs)
    num = len(configs)
    results = [
        RunResult(run_name=config.run.run_name, topology_name=plan.topology_name)
        for config in configs
    ]
    clocks = [0] * num
    for layer_index, compute in enumerate(plan.computes):
        fold_specs = compute.fold_specs
        stalls_before = engine.backpressure_stalls()
        if not fold_specs:
            timelines = [MemoryTimeline(0, 0, 0, 0) for _ in range(num)]
        else:
            batches = line_batches[layer_index]
            if len(batches) != len(fold_specs):
                raise MemoryModelError(
                    f"{len(batches)} line batches for {len(fold_specs)} folds"
                )
            # The double-buffer recurrence of DoubleBufferMemory.run with
            # (clock, ready, stall) as per-config vectors.
            ready = [r.ready_cycle for r in engine.process_batch(batches[0], clocks)]
            cold = [rv - ck for rv, ck in zip(ready, clocks)]
            clock_l = list(ready)
            stall_tot = [0] * num
            compute_total = 0
            for index, cycles in enumerate(schedule_cycles(fold_specs)):
                compute_start = [
                    cl if cl > rv else rv for cl, rv in zip(clock_l, ready)
                ]
                for c in range(num):
                    stall_tot[c] += compute_start[c] - clock_l[c]
                if index + 1 < len(fold_specs):
                    ready = [
                        r.ready_cycle
                        for r in engine.process_batch(batches[index + 1], compute_start)
                    ]
                compute_total += cycles
                clock_l = [cs + cycles for cs in compute_start]
            timelines = [
                MemoryTimeline(
                    compute_cycles=compute_total,
                    total_cycles=clock_l[c] - clocks[c],
                    stall_cycles=stall_tot[c],
                    cold_start_cycles=cold[c],
                )
                for c in range(num)
            ]
        stalls_after = engine.backpressure_stalls()
        for c in range(num):
            clocks[c] += timelines[c].total_cycles
            results[c].layers.append(
                LayerResult(
                    layer_name=compute.layer_name,
                    compute=compute,
                    timeline=timelines[c],
                    backpressure_stall_cycles=stalls_after[c] - stalls_before[c],
                    drain_cycles=max(0, engine.engines[c].drain() - clocks[c]),
                )
            )
    for c in range(num):
        results[c].dram_stats = engine.engines[c].aggregate_stats()
    return results


__all__ = ["GridBatchedEngine", "resolve_plan_grid"]

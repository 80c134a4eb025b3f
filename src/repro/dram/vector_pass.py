"""The vector stall pass: one array walk for one batched engine or a grid.

Every vector-size line batch resolves here — a lone
:class:`~repro.dram.engine_batched.BatchedEngine` as a 1-participant
pass, a :class:`~repro.dram.engine_grid.GridBatchedEngine` with every
config the fast paths declined.  The per-64B-line loop of
:class:`repro.dram.engine.ReferenceEngine` becomes array scans:

* **front-end pacing + queue backpressure** become one running-max
  scan.  With ``c = max_issue_per_cycle``, the scalar recurrence
  "bump the clock every c issues, jump to the oldest in-flight
  completion when a queue is full" has the closed form
  ``issue[i] = (i + max_{j<=i}(c*g[j] - j)) // c`` where ``g[j]`` is
  the queue constraint of request ``j`` — an order statistic of the
  queue's past completions (see below);
* **bank timing** is resolved per row-hit streak: within a streak the
  recurrence ``issue[k] = max(cycle[k], issue[k-1] + delta[k-1])``
  telescopes to a prefix sum plus a segmented running max, so whole
  streaks (the overwhelmingly common case for streaming tile fetches)
  resolve in one vector op.  Row misses/conflicts — the rare streak
  boundaries — are walked scalar (:func:`_walk_streak_boundaries`);
* **bus arbitration** per channel is the same max-plus telescoping:
  ``ready[k] = max(data[k], ready[k-1]) + t_burst`` becomes
  ``(k+1)*t_burst + runmax(data[k] - k*t_burst)``;
* **statistics** are array reductions accumulated once per batch.

The queue constraint ``g`` is exact, not heuristic.  For a queue of
capacity ``Q``, the j-th push can issue no earlier than the
``(j-Q)``-th smallest of all completions pushed before it (when the
queue is full, the front-end jumps to the oldest in-flight completion;
retired entries only make the constraint vacuous).  Those order
statistics are consumed in strictly increasing rank order, so each
queue keeps a sorted ``pending`` pool and lines resolve in sub-blocks
of at most ``Q`` pushes per queue — every constraint a block needs is
then a completion from *before* the block.  A cheap vectorized check
(no in-block completion may undercut a later consumed constraint)
guards the one case where an in-block completion could reorder the
statistics; on the rare violation only the clean prefix commits.

State layout.  Each participant's engine stays the canonical state
owner (plain Python lists — the scalar and closed-form fast paths run
on them unchanged).  Per batch, the pass snapshots the participants'
bank/channel state into *offset-flattened* arrays: participant ``p``'s
flat bank ids live in ``[bank_off[p], bank_off[p+1])`` and its channel
ids in ``[chan_off[p], chan_off[p+1])``.  Ragged geometries (1 channel
next to 8, 2 banks next to 16) need no bucketing — the offsets make
every (config, bank) and (config, channel) pair globally unique, so one
stable sort groups the whole grid's traffic and the segmented scans run
with per-config parameters gathered per element.

Exactness.  Each participant advances through the *same* block
sequence it would take alone — block bounds come from its own queue
capacities and cursor, and a violation only shortens the committed
span — so every array restricted to one participant's segment is
element-for-element the walk of that engine alone.  The pass is pinned
to :class:`~repro.dram.engine.ReferenceEngine` by
``tests/dram/test_engine_equivalence.py`` (one engine) and
``tests/dram/test_grid_engine_equivalence.py`` (grids).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.dram.engine import BatchResult
from repro.dram.timing import BROADCAST_TIMING_FIELDS, timing_param_arrays

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dram.engine_batched import BatchedEngine

_LOW = -(1 << 42)  # "no constraint" sentinel (far below any real cycle)
_BIG = 1 << 44  # segment offset for segmented running-max scans


class VectorParams:
    """Per-participant parameter axes of the vector pass.

    Built once per participant set — a lone engine keeps its own, a
    grid keeps one for all its configs — from the engines' timing,
    decode plan, queue capacities and issue rates.  Holds the int64
    broadcast arrays, the offset-flattened bank/channel geometry, the
    homogeneity flags that collapse per-element gathers into Python
    ints, and a lazily grown ``0..n`` ramp shared by the scans.
    """

    def __init__(self, engines: Sequence["BatchedEngine"]) -> None:
        timings = [e.timing for e in engines]
        self.timing = timing_param_arrays(timings)
        self.t_ccd_wr = self.timing["t_ccd"] + self.timing["t_wr"]
        ipc_l = [e.max_issue_per_cycle for e in engines]
        self.cap_r_l = [e.read_queue.capacity for e in engines]
        self.cap_w_l = [e.write_queue.capacity for e in engines]
        self.ipc = np.array(ipc_l, dtype=np.int64)
        self.cap_r = np.array(self.cap_r_l, dtype=np.int64)
        self.cap_w = np.array(self.cap_w_l, dtype=np.int64)
        # Decode plan as columns: field = (line // stride) % size.
        self.st = {
            name: np.array([e._strides[name] for e in engines], dtype=np.int64)[
                :, None
            ]
            for name in ("ch", "ra", "ba", "ro")
        }
        self.sz = {
            name: np.array([e._sizes[name] for e in engines], dtype=np.int64)[
                :, None
            ]
            for name in ("ch", "ra", "ba", "ro")
        }
        self.single_rank = all(e.ranks == 1 for e in engines)
        # Every participant on one channel: (config, channel) ids are the
        # participant ids, so the bus scan runs row-wise with no sort.
        self.single_channel = all(e.channels == 1 for e in engines)
        # Offset-flattened state geometry: participant p's banks/channels
        # map to [off[p], off[p+1]) — ragged shapes concatenate unbucketed.
        self.bank_off = np.zeros(len(engines) + 1, dtype=np.int64)
        np.cumsum(
            [e.channels * e.ranks * e.banks for e in engines], out=self.bank_off[1:]
        )
        self.chan_off = np.zeros(len(engines) + 1, dtype=np.int64)
        np.cumsum([e.channels for e in engines], out=self.chan_off[1:])
        # Channel ids as 16-bit keys: numpy's stable argsort is then a
        # radix sort, 2-4x faster on interleaved channels, and a stable
        # sort's permutation does not depend on the key width.  (The
        # statistics bincount packs 3 * channel + category.)
        self.chan_dtype = (
            np.int16 if 3 * int(self.chan_off[-1]) < (1 << 15) else np.int64
        )
        # Homogeneous-parameter flags: a grid sweeping only geometry
        # (channels, banks, mapping) shares every timing constant, so the
        # per-element parameter gathers collapse to Python ints.
        timing_rows = {
            tuple(getattr(t, f) for f in BROADCAST_TIMING_FIELDS) for t in timings
        }
        self.uniform_timing = len(timing_rows) == 1 and len(set(ipc_l)) == 1
        self.caps_uniform = len(set(self.cap_r_l)) == 1 and len(set(self.cap_w_l)) == 1
        if self.uniform_timing:
            t0 = timings[0]
            self.ccd0 = t0.t_ccd
            self.ccdwr0 = t0.t_ccd + t0.t_wr
            self.cl0 = t0.t_cl
            self.cwl0 = t0.t_cwl
            self.tb0 = t0.t_burst
            ipc0 = ipc_l[0]
            self.ipc1 = ipc0 == 1
            # Power-of-two issue rates (1, 2, 4...) turn the pacing
            # divides into shifts; h >= 0 after the pace seeding, so
            # the arithmetic shift matches floor division exactly.
            self.ipc_sh = ipc0.bit_length() - 1 if ipc0 & (ipc0 - 1) == 0 else None
        else:
            self.ipc1 = False
            self.ipc_sh = None
        self._ramp = np.arange(0, dtype=np.int64)

    def ramp(self, size: int) -> np.ndarray:
        """Read-only ``0..size-1`` (a view of a lazily grown scratch)."""
        if self._ramp.size < size:
            self._ramp = np.arange(size, dtype=np.int64)
            self._ramp.flags.writeable = False
        return self._ramp[:size]


def resolve_vector_pass(
    params: VectorParams,
    engines: Sequence["BatchedEngine"],
    lines: np.ndarray,
    is_write: np.ndarray,
    clock0s: Sequence[int],
) -> list[BatchResult]:
    """Issue one batch's lines into every participant; one result each.

    ``lines``/``is_write`` are the batch's round-robin issue order
    (:func:`repro.dram.engine_batched.issue_order_arrays`); ``params``
    describes exactly ``engines``, whose state is snapshotted from (and
    written back to) their Python lists.
    """
    num = len(engines)
    ipc_a = params.ipc
    cap_r_a = params.cap_r
    cap_w_a = params.cap_w
    timing = params.timing
    t_burst_a = timing["t_burst"]
    t_ccd_a = timing["t_ccd"]
    t_ccd_wr_a = params.t_ccd_wr
    t_rcd_a = timing["t_rcd"]
    t_rp_a = timing["t_rp"]
    t_ras_a = timing["t_ras"]
    t_cl_a = timing["t_cl"]
    t_cwl_a = timing["t_cwl"]
    bank_off = params.bank_off
    chan_off = params.chan_off
    cap_r_l = params.cap_r_l
    cap_w_l = params.cap_w_l
    single_channel = params.single_channel

    # --- 1. shared issue order + per-participant decode -------------------
    n = lines.size
    index = params.ramp(n + 1)
    writes_cum = np.cumsum(is_write)
    reads_cum = index[1:] - writes_cum
    ln = lines[None, :]
    st, sz = params.st, params.sz
    chan = (ln // st["ch"]) % sz["ch"]
    bankl = (ln // st["ba"]) % sz["ba"]
    row = (ln // st["ro"]) % sz["ro"]
    if params.single_rank:
        # Single-rank grids (the common case) skip the rank divmod.
        flat_bank = chan * sz["ba"] + bankl
    else:
        rank = (ln // st["ra"]) % sz["ra"]
        flat_bank = (chan * sz["ra"] + rank) * sz["ba"] + bankl
        del rank
    flat_bank += bank_off[:-1, None]
    gchan = (chan + chan_off[:-1, None]).astype(params.chan_dtype)
    del ln, bankl

    # --- 2. offset-concatenated snapshots of the datapath state -----------
    open_row = np.concatenate(
        [np.asarray(e._open_row, dtype=np.int64) for e in engines]
    )
    ready = np.concatenate([np.asarray(e._ready, dtype=np.int64) for e in engines])
    act = np.concatenate([np.asarray(e._act, dtype=np.int64) for e in engines])
    bus = np.concatenate([np.asarray(e._bus_ready, dtype=np.int64) for e in engines])
    pend_r = [
        np.sort(np.asarray(e.read_queue.pending, dtype=np.int64)) for e in engines
    ]
    pend_w = [
        np.sort(np.asarray(e.write_queue.pending, dtype=np.int64)) for e in engines
    ]
    pushed_r = [e.read_queue.pushed for e in engines]
    pushed_w = [e.write_queue.pushed for e in engines]
    # Equal-length pending matrices (the lockstep steady state): queue
    # gates and merges become one 2D op instead of a per-config loop.
    # Invalidated whenever a commit leaves rows ragged.
    pend2_r = np.stack(pend_r) if len({a.size for a in pend_r}) == 1 else None
    pend2_w = np.stack(pend_w) if len({a.size for a in pend_w}) == 1 else None
    enq_r = [0] * num
    enq_w = [0] * num
    stall_r = [0] * num
    stall_w = [0] * num

    issue_all = np.empty((num, n), dtype=np.int64)
    comp_all = np.empty((num, n), dtype=np.int64)
    cat_all = np.empty((num, n), dtype=np.int8)  # 0 hit / 1 miss / 2 conflict

    # Pacing state in h-space (running max of c*g - i), per participant.
    pace = np.array(
        [ipc * c0 for ipc, c0 in zip(ipc_a.tolist(), clock0s)], dtype=np.int64
    )
    pos = [0] * num
    block_override = [0] * num  # violation re-run lengths (0 = none)
    caps_uniform = params.caps_uniform
    uniform_timing = params.uniform_timing
    ipc1 = params.ipc1
    ipc_sh = params.ipc_sh
    if uniform_timing:
        ccd0 = params.ccd0
        ccdwr0 = params.ccdwr0
        cl0 = params.cl0
        cwl0 = params.cwl0
        tb0 = params.tb0
        if single_channel:
            ramp_tb_all = index * tb0  # the row-wise bus scan's k*tBURST
        # Per-line CAS gap and data offset by access kind, gathered into
        # each block's bank order (None: one value for every line).
        has_writes = bool(writes_cum[-1])
        delta_line = (
            np.where(is_write, ccdwr0, ccd0) if has_writes and ccdwr0 != ccd0 else None
        )
        cas_line = np.where(is_write, cwl0, cl0) if has_writes and cwl0 != cl0 else None

    # --- 3. lockstep block loop -------------------------------------------
    # Every participant advances through exactly the block sequence it
    # would take alone (its own capacities, cursor and violation
    # truncations); segments concatenate per iteration so the scans
    # stay single numpy calls.
    everyone = list(range(num))
    while True:
        if caps_uniform:
            # Equal queue capacities keep every participant in lockstep
            # (the uniform lane advances all cursors together): one
            # shared cursor, never a pending truncation.
            s0 = pos[0]
            if s0 >= n:
                break
            active = everyone
            ov = None
        else:
            active = [p for p in range(num) if pos[p] < n]
            if not active:
                break
            ov = [block_override[p] for p in active]
            if any(ov):
                for p in active:
                    block_override[p] = 0
            else:
                ov = None
        num_act = len(active)
        all_act = num_act == num
        act_sel = None if all_act else np.asarray(active, dtype=np.int64)
        # Longest prefix with at most `capacity` pushes per queue:
        # constraints then predate the block.  A shared cursor (equal
        # caps or a truncate-all retry) needs only two scalar
        # searchsorted calls.
        if caps_uniform:
            rb = int(reads_cum[s0 - 1]) if s0 else 0
            wb = int(writes_cum[s0 - 1]) if s0 else 0
            er = int(reads_cum.searchsorted(rb + cap_r_l[0], side="right"))
            ew = int(writes_cum.searchsorted(wb + cap_w_l[0], side="right"))
            blk = min(er, ew, n) - s0
            uniform = True
        elif (
            ov is not None
            and ov[0] > 0
            and ov.count(ov[0]) == num_act
            and len({pos[p] for p in active}) == 1
        ):
            s0 = pos[active[0]]
            blk = ov[0]
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
            if ov is not None:
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
            s0 = starts[0]
            blk = blocks[0]
            ends = [s + b for s, b in zip(starts, blocks)]

        # Per-active parameter rows (identity while every config is
        # still active — the steady state).
        if all_act:
            ipc_act = ipc_a
            tccd_act = t_ccd_a
            tccdwr_act = t_ccd_wr_a
            tcl_act = t_cl_a
            tcwl_act = t_cwl_a
            tburst_act = t_burst_a
            pace_arr = pace
        else:
            ipc_act = ipc_a[act_sel]
            tccd_act = t_ccd_a[act_sel]
            tccdwr_act = t_ccd_wr_a[act_sel]
            tcl_act = t_cl_a[act_sel]
            tcwl_act = t_cwl_a[act_sel]
            tburst_act = t_burst_a[act_sel]
            pace_arr = pace[act_sel]

        if uniform:
            # ---- uniform lane: one (configs, block) rectangle ------------
            # Same math as the ragged lane element-for-element, but
            # every per-segment construct (offset trick, segment
            # seeding, searchsorted partitions) collapses into 2D
            # slicing and axis-1 scans; the participant/block-local
            # coordinates of any flat element index are just
            # divmod(element, block).
            e0 = s0 + blk
            total = num_act * blk
            gidx_blk = index[s0:e0]
            wr_blk = is_write[s0:e0]
            if all_act:
                fb_c = flat_bank[:, s0:e0].ravel()
                row_c = row[:, s0:e0].ravel()
                gch_c = None if single_channel else gchan[:, s0:e0].ravel()
            else:
                fb_c = flat_bank[act_sel, s0:e0].ravel()
                row_c = row[act_sel, s0:e0].ravel()
                gch_c = None if single_channel else gchan[act_sel, s0:e0].ravel()

            # Queue constraints g: consumed order statistics; the
            # block-local read/write positions are shared by rows.
            wr_local = wr_blk.nonzero()[0]
            if wr_local.size:
                rd_local = (~wr_blk).nonzero()[0]
                rd_contig = False
            else:
                # Read-only block (the common fetch stream): the
                # read positions are just 0..blk-1, so downstream
                # column gathers become plain slices.
                rd_local = index[:blk]
                rd_contig = True
            # Pushes left before each queue first fills (their constraint
            # is vacuous); the commit's pending merges reuse them.
            skips_r = [max(cap_r_l[p] - pushed_r[p], 0) for p in active]
            skips_w = [max(cap_w_l[p] - pushed_w[p], 0) for p in active]
            if any(skips_r) or any(skips_w):
                g2 = np.full((num_act, blk), _LOW, dtype=np.int64)
            else:
                # Both queues filled: every column consumes a constraint.
                g2 = np.empty((num_act, blk), dtype=np.int64)
            for local, contig, pend2, pend_l, skips in (
                (rd_local, rd_contig, pend2_r, pend_r, skips_r),
                (wr_local, False, pend2_w, pend_w, skips_w),
            ):
                count = local.size
                skip0 = skips[0]
                if all_act and pend2 is not None and skips.count(skip0) == num_act:
                    if count > skip0:
                        if contig:
                            g2[:, skip0:count] = pend2[:, : count - skip0]
                        else:
                            g2[:, local[skip0:]] = pend2[:, : count - skip0]
                    continue
                for a_i, p in enumerate(active):
                    skip = skips[a_i]
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
            u2 = gidx_blk + hmax2
            if ipc1:
                issue2 = u2
            elif ipc_sh is not None:
                issue2 = u2 >> ipc_sh
            else:
                issue2 = u2 // ipc_col
            issue = issue2.ravel()
        else:
            # ---- ragged lane: offset-concatenated segments ---------------
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
            # Seeding each segment start with its pace (always >= 0)
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

        # --- bank timing (globally grouped, streak scans) -----------------
        grouping = fb_c.argsort(kind="stable")
        fb_s = fb_c[grouping]
        row_s = row_c[grouping]
        cyc_s = issue[grouping]
        if uniform:
            # Block-local columns materialize only when a consumer needs
            # them: read-only blocks (the common fetch stream) gather no
            # per-kind timing, and the prefix commit derives j_s only on
            # a violation.  A one-row rectangle's flat index already is
            # the column.
            pae_s = None
            j_s = None
            if wr_local.size:
                j_s = grouping % blk if num_act > 1 else grouping
        else:
            pae_s = pae[grouping]
        if uniform_timing:
            # Line index of each sorted element, for the per-line timing
            # arrays (None: a read-only rectangle, one kind throughout).
            if uniform:
                line_s = None if j_s is None else j_s + s0
            else:
                line_s = gidx[grouping]
        else:
            wr_s = (None if j_s is None else wr_blk[j_s]) if uniform else wr[grouping]
        is_start = np.empty(total, dtype=bool)
        is_start[0] = True
        np.not_equal(fb_s[1:], fb_s[:-1], out=is_start[1:])
        group_starts = is_start.nonzero()[0]
        fb_g = fb_s[group_starts]
        prev_row = np.empty(total, dtype=np.int64)
        prev_row[1:] = row_s[:-1]
        prev_row[group_starts] = open_row[fb_g]
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
                None if delta_line is None or line_s is None else delta_line[line_s]
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
            d_excl = params.ramp(total) * ccd0
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
        seeds = ready[fb_g if all_hits else fb_s[run_starts]] - d_excl[run_starts]
        act_updates: list[tuple[int, int, int]] = []
        if not all_hits:
            _walk_streak_boundaries(
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
            data_start_s = issue_bank + (
                cl0 if cas_line is None or line_s is None else cas_line[line_s]
            )
        else:
            data_start_s = issue_bank + (
                tcl_act[pae_s]
                if wr_s is None
                else np.where(wr_s, tcwl_act[pae_s], tcl_act[pae_s])
            )

        # --- bus arbitration per (config, channel) ------------------------
        data_start = np.empty(total, dtype=np.int64)
        data_start[grouping] = data_start_s
        if uniform and single_channel:
            # One channel per participant: each rectangle row is one
            # bus segment already in issue order — a row-wise scan.
            if uniform_timing:
                ramp_tb = ramp_tb_all[:blk]
                ramp_tb1 = ramp_tb_all[1 : blk + 1]
            else:
                tb_row = tburst_act[:, None]
                ramp_tb = params.ramp(blk) * tb_row
                ramp_tb1 = ramp_tb + tb_row
            elem2 = data_start.reshape(num_act, blk) - ramp_tb
            np.maximum(
                elem2[:, 0], bus if all_act else bus[act_sel], out=elem2[:, 0]
            )
            completion2 = np.maximum.accumulate(elem2, axis=1)
            completion2 += ramp_tb1
            completion = completion2.ravel()
        else:
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
            # The per-segment offset only needs distinct nondecreasing
            # values — the sorted channel ids themselves qualify, saving
            # a cumsum.
            seg_off = np.multiply(chan_s, _BIG, dtype=np.int64)
            if uniform_timing:
                # Uniform burst: measure elements against the *global*
                # ramp instead of a segment-local one — the segment base
                # (chan_start * tb0) cancels between the seeded ``elem``
                # and the final completion, so the per-segment ``within``
                # ramp (and its np.repeat) never materializes.
                ramp_tb = params.ramp(total) * tb0
                elem = bus_in - ramp_tb
                elem[chan_starts] = np.maximum(
                    elem[chan_starts],
                    bus[chan_s[chan_starts]] - ramp_tb[chan_starts],
                )
                seg_max = np.maximum.accumulate(elem + seg_off) - seg_off
                completion_s = ramp_tb + tb0 + seg_max
            else:
                within = params.ramp(total) - np.repeat(
                    chan_starts, seg_end - chan_starts
                )
                tb_e = tburst_act[chan_order // blk if uniform else pae[chan_order]]
                wtb = within * tb_e
                elem = bus_in - wtb
                elem[chan_starts] = np.maximum(
                    elem[chan_starts], bus[chan_s[chan_starts]]
                )
                seg_max = np.maximum.accumulate(elem + seg_off) - seg_off
                completion_s = wtb + tb_e + seg_max
            completion = np.empty(total, dtype=np.int64)
            completion[chan_order] = completion_s
            if uniform:
                completion2 = completion.reshape(num_act, blk)

        # --- verify the order-statistic speculation per config ------------
        if uniform:
            # The cut is the earliest violating column over every row and
            # queue: a row violates where an earlier in-block completion
            # of the queue undercuts a later consumed constraint.  Every
            # element before that frontier is already exact — scans are
            # prefix-causal per (config, bank, channel), and bank groups
            # never cross configs, so even the walker's ACT chain ascends
            # in position — so the clean prefix commits directly, with no
            # retry pass.  A 1-channel row never violates: its bus chain
            # rises past every earlier completion, constraints included.
            # Otherwise fast-accept when no row's completions undercut its
            # own constraints (rows are compared with themselves: across
            # rows the check would alarm on nearly every grid block).
            cut = blk
            if not single_channel and (
                completion2.min(axis=1) < g2.max(axis=1)
            ).any():
                for local in (rd_local, wr_local):
                    if local.size < 2:
                        continue
                    run_min = np.minimum.accumulate(
                        completion2.take(local[:-1], axis=1), axis=1
                    )
                    bad = (run_min < g2.take(local[1:], axis=1)).any(axis=0)
                    if bad.any():
                        cut = min(cut, int(local[int(bad.argmax()) + 1]))
        else:
            # One reduceat pair replaces a per-participant min/max
            # sweep; segments are never empty (each block holds >= 1
            # line).
            v_min = None
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

        # --- commit (the verified span of every segment) -------------------
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
            # (Multi-channel passes only: 1-channel rows never cut.)
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
            np.subtract(group_starts[1:], 1, out=last_pos[:-1])
            last_pos[-1] = total - 1
            touched = fb_g
            open_row[touched] = row_s[last_pos]
            ready[touched] = issue_bank[last_pos] + (
                ccd0 if delta is None else delta[last_pos]
            )
            if uniform and single_channel:
                if all_act:
                    bus[:] = completion2[:, -1]
                else:
                    bus[act_sel] = completion2[:, -1]
            else:
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
                    cat_all[:, s0:ec] = cat_c.reshape(num_act, blk)[:, :cut]
            else:
                issue_all[act_sel, s0:ec] = issue2[:, :cut]
                comp_all[act_sel, s0:ec] = completion2[:, :cut]
                if cat_c is None:
                    cat_all[act_sel, s0:ec] = 0
                else:
                    cat_all[act_sel, s0:ec] = cat_c.reshape(num_act, blk)[:, :cut]
            if all_act:
                pace = hmax2[:, cut - 1]
            else:
                pace[act_sel] = hmax2[:, cut - 1]
            for p in active:
                pos[p] = ec
            # Stall accounting, deferred past the verify so aborted
            # iterations never pay for it: stall = issue minus the clock
            # without this line's jump, floor((i + hmax[i-1]) / c), and
            # i + hmax[i-1] is the previous column's u2 plus one.
            base2 = np.empty_like(u2)
            np.add(u2[:, :-1], 1, out=base2[:, 1:])
            np.add(pace_arr, s0, out=base2[:, 0])
            if ipc1:
                stall2 = issue2 - base2
            elif ipc_sh is not None:
                stall2 = issue2 - (base2 >> ipc_sh)
            else:
                stall2 = issue2 - base2 // ipc_col
            stall_kept = (stall2 if cut == blk else stall2[:, :cut]).sum(axis=1)
            # Column gathers + row-wise sums replace the per-queue
            # searchsorted partitions and reduceat stall totals (the read
            # stall is the kept total minus the write columns); when
            # every participant consumes the same queue prefix (equal
            # caps and occupancy — the steady state) the per-config
            # merge sorts collapse into one axis-1 sort.
            if rd_contig:
                # Read-only block: plain slices, no column gathers.
                kept = ((False, cut, completion2[:, :cut], stall_kept, skips_r),)
            else:
                n_w = wr_local.size if cut == blk else int(wr_local.searchsorted(cut))
                kept_w = wr_local[:n_w]
                kept_r = rd_local[: cut - n_w]
                stall_w_q = stall2.take(kept_w, axis=1).sum(axis=1)
                kept = (
                    (
                        False,
                        cut - n_w,
                        completion2.take(kept_r, axis=1),
                        stall_kept - stall_w_q,
                        skips_r,
                    ),
                    (True, n_w, completion2.take(kept_w, axis=1), stall_w_q, skips_w),
                )
            for is_w, count, comp_q, stall_q, skips in kept:
                if not count:
                    continue
                stall_q = stall_q.tolist()
                pend_l = pend_w if is_w else pend_r
                pushed_l = pushed_w if is_w else pushed_r
                pend2 = pend2_w if is_w else pend2_r
                consumed = [count - skip if count > skip else 0 for skip in skips]
                c0 = consumed[0]
                if all_act and pend2 is not None and consumed.count(c0) == num_act:
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
            if all_act:
                pace = hmax[bounds[1:] - 1]
            else:
                pace[act_sel] = hmax[bounds[1:] - 1]
            # Per-(participant, queue) stall totals as differences of one
            # exclusive cumsum per queue (empty segments sum to zero).
            stall_sums = []
            for nz, qb in ((rd_nz, r_bounds), (wr_nz, w_bounds)):
                csum = np.zeros(nz.size + 1, dtype=np.int64)
                np.cumsum(stall[nz], out=csum[1:])
                stall_sums.append(csum[qb[1:]] - csum[qb[:-1]])
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
                        np.concatenate([pend[consumed:], completion[positions]])
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

    # --- 4. per-participant queue occupancy + outstanding -----------------
    reads_mask = ~is_write
    rd_pos = reads_mask.nonzero()[0]
    wr_pos = is_write.nonzero()[0]
    lines_read = rd_pos.size
    lines_written = n - lines_read
    for p, engine in enumerate(engines):
        for queue, pend, positions, pushed, enq, stalled in (
            (engine.read_queue, pend_r[p], rd_pos, pushed_r[p], enq_r[p], stall_r[p]),
            (engine.write_queue, pend_w[p], wr_pos, pushed_w[p], enq_w[p], stall_w[p]),
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
                    np.bincount(np.minimum(retire_at, count), minlength=count + 1)
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

    # --- 5. statistics: global bincounts over (config, channel) -----------
    total_chan = int(chan_off[-1])
    counts3 = np.bincount(
        (gchan * 3 + cat_all).ravel(), minlength=3 * total_chan
    ).reshape(total_chan, 3)
    if lines_read:
        gch_r = gchan if not lines_written else gchan.take(rd_pos, axis=1)
        lat_r = (
            comp_all - issue_all
            if not lines_written
            else comp_all.take(rd_pos, axis=1) - issue_all.take(rd_pos, axis=1)
        )
        reads_pc = np.bincount(gch_r.ravel(), minlength=total_chan)
        # Weighted bincount accumulates in float64 — exact while the
        # per-channel latency sum stays below 2**53 cycles.
        lat_pc = np.bincount(gch_r.ravel(), weights=lat_r.ravel(), minlength=total_chan)
    else:
        reads_pc = np.zeros(total_chan, dtype=np.int64)
        lat_pc = reads_pc
    if lines_written:
        writes_pc = np.bincount(
            gchan.take(wr_pos, axis=1).ravel(), minlength=total_chan
        )
    else:
        writes_pc = np.zeros(total_chan, dtype=np.int64)

    # --- 6. write back per-participant state + build results --------------
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
                first_cycle = int(issue_all[p, int(np.argmax(chan[p] == local))])
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


def _walk_streak_boundaries(
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
    """Walk the rare row-miss/conflict boundaries of one block.

    Only bank groups that contain a non-hit are visited; each group's
    streaks are chained scalar (a boundary's timing depends on the
    previous streak's final issue), with the hit-streaks in between
    still resolved by the precomputed segmented running max.  Bank
    groups never cross participants (flat bank ids are offset per
    config), so each bad group resolves with its owner's
    tRCD/tRP/tRAS, looked up through ``pae_s``/the per-active timing
    arrays.

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
            int(grouping_a[start]) // blk_c if pae_s is None else int(pae_s[start])
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
                    issue_last = last * ccd_const + max(seed, int(streak_max[last]))
                    ready_c = issue_last + ccd_const
                else:
                    issue_last = int(d_excl[last]) + max(seed, int(streak_max[last]))
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


__all__ = ["VectorParams", "resolve_vector_pass"]

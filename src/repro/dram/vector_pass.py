"""The vector stall pass: one array walk for one batched engine or a grid.

Every vector-size line batch resolves here — a lone
:class:`~repro.dram.engine_batched.BatchedEngine` as a 1-participant
pass, a :class:`~repro.dram.engine_grid.GridBatchedEngine` with every
config of one pass class (queue depth, DRAM timing, issue rate) the
fast paths declined.  The per-64B-line loop of
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
stable sort groups the whole grid's traffic.  Every participant shares
one DRAM timing and one issue rate, so the segmented scans run on
Python-int timing constants.  Queue state is a ``(configs, k)`` pending
matrix per queue: every participant shares one (read, write) depth and
has been issued every batch, so each holds ``min(pushed, depth)``
pending completions.

Exactness.  Equal depths put every participant on one block sequence:
block bounds come from the shared capacities and cursor, and a
violation cuts every row at the earliest violating column — a prefix
of each participant's own block, which is exactly where that engine
alone would have re-entered, since block partitioning is
refinement-independent (scans re-seed from committed state).  So every
row of the ``(configs, block)`` rectangle is element-for-element the
walk of that engine alone.  The pass is pinned to
:class:`~repro.dram.engine.ReferenceEngine` by
``tests/dram/test_engine_equivalence.py`` (one engine) and
``tests/dram/test_grid_engine_equivalence.py`` (grids).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.dram.engine import BatchResult
from repro.dram.timing import DramTiming
from repro.errors import DramError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dram.engine_batched import BatchedEngine

_LOW = -(1 << 42)  # "no constraint" sentinel (far below any real cycle)
_BIG = 1 << 44  # segment offset for segmented running-max scans
_RAMP = np.arange(0, dtype=np.int64)  # see VectorParams.ramp


class VectorParams:
    """Shared parameters of the vector pass.

    Built once per participant set — a lone engine keeps its own, a
    grid keeps one per pass class — from the engines' timing, decode
    plan, queue capacities and issue rates.  Holds the timing constants
    as Python ints and the offset-flattened bank/channel geometry; the
    scans share one lazily grown ``0..n`` ramp across every pass.

    Every participant must share one (read, write) queue depth, one
    :class:`~repro.dram.timing.DramTiming` and one issue rate: the pass
    walks them all on one block sequence with one set of constants.
    Anything else raises :class:`~repro.errors.DramError`.
    """

    def __init__(self, engines: Sequence["BatchedEngine"]) -> None:
        classes = {
            (
                e.read_queue.capacity,
                e.write_queue.capacity,
                e.timing,
                e.max_issue_per_cycle,
            )
            for e in engines
        }
        if len(classes) != 1:
            spans = sorted((r, w, t.name, c) for r, w, t, c in classes)
            raise DramError(
                "vector pass participants span (read, write) queue depths, "
                f"DRAM timings and issue rates {spans}; one pass needs one of each"
            )
        [(self.cap_r, self.cap_w, timing, ipc)] = classes
        self.timing: DramTiming = timing
        self.ccd = timing.t_ccd
        self.write_ccd = timing.t_ccd + timing.t_wr
        self.cl = timing.t_cl
        self.cwl = timing.t_cwl
        self.burst = timing.t_burst
        self.ipc = ipc
        # Power-of-two issue rates (1, 2, 4...) turn the pacing divides
        # into shifts; h >= 0 after the pace seeding, so the arithmetic
        # shift matches floor division exactly.
        self.ipc_sh = ipc.bit_length() - 1 if ipc & (ipc - 1) == 0 else None
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

    @staticmethod
    def ramp(size: int) -> np.ndarray:
        """Read-only ``0..size-1`` (a view of one lazily grown scratch)."""
        global _RAMP
        ramp = _RAMP
        if ramp.size < size:
            ramp = np.arange(size, dtype=np.int64)
            ramp.flags.writeable = False
            _RAMP = ramp
        return ramp[:size]


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
    cap_r = params.cap_r
    cap_w = params.cap_w
    ccd = params.ccd
    cl = params.cl
    tb = params.burst
    ipc = params.ipc
    ipc_sh = params.ipc_sh
    bank_off = params.bank_off
    chan_off = params.chan_off
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
    # (configs, min(pushed, depth)) pending matrices: equal depths and
    # equal pushes keep the rows equally long, and np.stack raises if a
    # caller ever breaks that.
    pend_r = np.stack(
        [np.sort(np.asarray(e.read_queue.pending, dtype=np.int64)) for e in engines]
    )
    pend_w = np.stack(
        [np.sort(np.asarray(e.write_queue.pending, dtype=np.int64)) for e in engines]
    )
    stall_r = np.zeros(num, dtype=np.int64)
    stall_w = np.zeros(num, dtype=np.int64)

    issue_all = np.empty((num, n), dtype=np.int64)
    comp_all = np.empty((num, n), dtype=np.int64)
    cat_all = np.empty((num, n), dtype=np.int8)  # 0 hit / 1 miss / 2 conflict

    # Pacing state in h-space (running max of c*g - i), per participant.
    pace = np.array([ipc * c0 for c0 in clock0s], dtype=np.int64)
    if single_channel:
        ramp_tb_all = index * tb  # the row-wise bus scan's k*tBURST
    # Per-line CAS gap and data offset by access kind, gathered into
    # each block's bank order (None: one value for every line).
    has_writes = bool(writes_cum[-1])
    write_ccd, cwl = params.write_ccd, params.cwl
    delta_line = (
        np.where(is_write, write_ccd, ccd) if has_writes and write_ccd != ccd else None
    )
    cas_line = np.where(is_write, cwl, cl) if has_writes and cwl != cl else None

    # --- 3. block loop over one (configs, block) rectangle ----------------
    # Every participant shares the queue depths and the cursor, so the
    # whole pass advances through one block sequence; the
    # participant/block-local coordinates of any flat element index
    # are just divmod(element, block).
    s0 = 0
    while s0 < n:
        # Longest prefix with at most `capacity` pushes per queue:
        # constraints then predate the block.
        rb = int(reads_cum[s0 - 1]) if s0 else 0
        wb = int(writes_cum[s0 - 1]) if s0 else 0
        er = int(reads_cum.searchsorted(rb + cap_r, side="right"))
        ew = int(writes_cum.searchsorted(wb + cap_w, side="right"))
        blk = min(er, ew, n) - s0
        e0 = s0 + blk
        total = num * blk
        gidx_blk = index[s0:e0]
        wr_blk = is_write[s0:e0]
        fb_c = flat_bank[:, s0:e0].ravel()
        row_c = row[:, s0:e0].ravel()
        gch_c = None if single_channel else gchan[:, s0:e0].ravel()

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
        # Pushes left before each queue first fills (their constraint is
        # vacuous): a queue holds min(pushed, depth) pending entries.
        skip_r = cap_r - pend_r.shape[1]
        skip_w = cap_w - pend_w.shape[1]
        if skip_r or skip_w:
            g2 = np.full((num, blk), _LOW, dtype=np.int64)
        else:
            # Both queues filled: every column consumes a constraint.
            g2 = np.empty((num, blk), dtype=np.int64)
        for local, contig, pend, skip in (
            (rd_local, rd_contig, pend_r, skip_r),
            (wr_local, False, pend_w, skip_w),
        ):
            count = local.size
            if count > skip:
                if contig:
                    g2[:, skip:count] = pend[:, : count - skip]
                else:
                    g2[:, local[skip:]] = pend[:, : count - skip]

        # Front-end pacing: row-wise running max.
        if ipc == 1:
            # One line per cycle: h = g - i and issue = i + hmax,
            # skipping the (expensive) integer divides entirely.
            h2 = g2 - gidx_blk
        elif ipc_sh is not None:
            h2 = (g2 << ipc_sh) - gidx_blk
        else:
            h2 = ipc * g2 - gidx_blk
        np.maximum(h2[:, 0], pace, out=h2[:, 0])
        hmax2 = np.maximum.accumulate(h2, axis=1)
        u2 = gidx_blk + hmax2
        if ipc == 1:
            issue2 = u2
        elif ipc_sh is not None:
            issue2 = u2 >> ipc_sh
        else:
            issue2 = u2 // ipc
        issue = issue2.ravel()

        # --- bank timing (globally grouped, streak scans) -----------------
        grouping = fb_c.argsort(kind="stable")
        fb_s = fb_c[grouping]
        row_s = row_c[grouping]
        cyc_s = issue[grouping]
        # Block-local columns materialize only when a consumer needs
        # them: read-only blocks (the common fetch stream) gather no
        # per-kind timing, and the prefix commit derives j_s only on a
        # violation.  A one-row rectangle's flat index already is the
        # column.
        j_s = None
        if wr_local.size:
            j_s = grouping % blk if num > 1 else grouping
        # Line index of each sorted element, for the per-line timing
        # arrays (None: a read-only block, one kind throughout).
        line_s = None if j_s is None else j_s + s0
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
        # ``delta is None`` encodes a constant ccd everywhere — the
        # exclusive cumsum collapses to a scaled ramp.
        delta = None if delta_line is None or line_s is None else delta_line[line_s]
        if delta is None:
            d_excl = params.ramp(total) * ccd
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
                params.timing,
                ccd if delta is None else None,
            )
        issue_bank = d_excl + np.maximum(seeds[run_id], streak_max)
        data_start_s = issue_bank + (
            cl if cas_line is None or line_s is None else cas_line[line_s]
        )

        # --- bus arbitration per (config, channel) ------------------------
        data_start = np.empty(total, dtype=np.int64)
        data_start[grouping] = data_start_s
        if single_channel:
            # One channel per participant: each rectangle row is one
            # bus segment already in issue order — a row-wise scan.
            ramp_tb = ramp_tb_all[:blk]
            ramp_tb1 = ramp_tb_all[1 : blk + 1]
            elem2 = data_start.reshape(num, blk) - ramp_tb
            np.maximum(elem2[:, 0], bus, out=elem2[:, 0])
            completion2 = np.maximum.accumulate(elem2, axis=1)
            completion2 += ramp_tb1
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
            # One burst length: measure elements against the *global*
            # ramp instead of a segment-local one — the segment base
            # (chan_start * tb) cancels between the seeded ``elem`` and
            # the final completion, so no per-segment ramp materializes.
            ramp_tb = params.ramp(total) * tb
            elem = bus_in - ramp_tb
            elem[chan_starts] = np.maximum(
                elem[chan_starts],
                bus[chan_s[chan_starts]] - ramp_tb[chan_starts],
            )
            seg_max = np.maximum.accumulate(elem + seg_off) - seg_off
            completion_s = ramp_tb + tb + seg_max
            completion = np.empty(total, dtype=np.int64)
            completion[chan_order] = completion_s
            completion2 = completion.reshape(num, blk)

        # --- verify the order-statistic speculation -----------------------
        # The cut is the earliest violating column over every row and
        # queue: a row violates where an earlier in-block completion of
        # the queue undercuts a later consumed constraint.  Every element
        # before that frontier is already exact — scans are prefix-causal
        # per (config, bank, channel), and bank groups never cross
        # configs, so even the walker's ACT chain ascends in position —
        # so the clean prefix commits directly, with no retry pass.  A
        # 1-channel row never violates: its bus chain rises past every
        # earlier completion, constraints included.  Otherwise
        # fast-accept when no row's completions undercut its own
        # constraints (rows are compared with themselves: across rows
        # the check would alarm on nearly every grid block).
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

        # --- commit (the verified prefix of the rectangle) -----------------
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
        if cut < blk:
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
                ccd if delta is None else delta[last_k]
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
                ccd if delta is None else delta[last_pos]
            )
            if single_channel:
                bus[:] = completion2[:, -1]
            else:
                bus[chan_s[chan_starts]] = completion_s[seg_end - 1]
            for bank_index, _, value in act_updates:
                act[bank_index] = value
        ec = s0 + cut
        issue_all[:, s0:ec] = issue2[:, :cut]
        comp_all[:, s0:ec] = completion2[:, :cut]
        if cat_c is None:
            cat_all[:, s0:ec] = 0
        else:
            cat_all[:, s0:ec] = cat_c.reshape(num, blk)[:, :cut]
        # Stall accounting: stall = issue minus the clock without this
        # line's jump, floor((i + hmax[i-1]) / c), and i + hmax[i-1] is
        # the previous column's u2 plus one.
        base2 = np.empty_like(u2)
        np.add(u2[:, :-1], 1, out=base2[:, 1:])
        np.add(pace, s0, out=base2[:, 0])
        if ipc == 1:
            stall2 = issue2 - base2
        elif ipc_sh is not None:
            stall2 = issue2 - (base2 >> ipc_sh)
        else:
            stall2 = issue2 - base2 // ipc
        pace = hmax2[:, cut - 1]
        s0 = ec
        stall_kept = (stall2 if cut == blk else stall2[:, :cut]).sum(axis=1)
        # Column gathers + row-wise sums split the kept stalls by queue
        # (the read stall is the kept total minus the write columns), and
        # each queue's pending merge is one axis-1 sort.
        if rd_contig:
            # Read-only block: plain slices, no column gathers.
            n_w = 0
            comp_r = completion2[:, :cut]
        else:
            n_w = wr_local.size if cut == blk else int(wr_local.searchsorted(cut))
            comp_r = completion2.take(rd_local[: cut - n_w], axis=1)
            kept_w = wr_local[:n_w]
            stall_w_q = stall2.take(kept_w, axis=1).sum(axis=1)
            stall_w += stall_w_q
            stall_kept -= stall_w_q
        stall_r += stall_kept
        if cut > n_w:
            pend_r = _merge_pending(pend_r, cut - n_w - skip_r, comp_r)
        if n_w:
            pend_w = _merge_pending(
                pend_w, n_w - skip_w, completion2.take(kept_w, axis=1)
            )

    # --- 4. per-participant queue occupancy + outstanding -----------------
    reads_mask = ~is_write
    rd_pos = reads_mask.nonzero()[0]
    wr_pos = is_write.nonzero()[0]
    lines_read = rd_pos.size
    lines_written = n - lines_read
    stall_r_l = stall_r.tolist()
    stall_w_l = stall_w.tolist()
    for p, engine in enumerate(engines):
        for queue, pend, positions, stalled in (
            (engine.read_queue, pend_r[p], rd_pos, stall_r_l[p]),
            (engine.write_queue, pend_w[p], wr_pos, stall_w_l[p]),
        ):
            count = positions.size
            queue.pushed += count
            queue.total_enqueued += count
            queue.total_stall_cycles += stalled
            if not count:
                continue
            if count == n:
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


def _merge_pending(
    pending: np.ndarray, consumed: int, completions: np.ndarray
) -> np.ndarray:
    """Drop each row's ``consumed`` smallest entries, merge in new completions.

    ``consumed`` is the block's pushes past the vacuous ones (negative
    when the queue never filled); the result stays row-wise sorted.
    """
    merged = np.concatenate([pending[:, max(consumed, 0) :], completions], axis=1)
    merged.sort(axis=1)
    return merged


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
    timing: DramTiming,
    ccd_const: int | None = None,
) -> None:
    """Walk the rare row-miss/conflict boundaries of one block.

    Only bank groups that contain a non-hit are visited; each group's
    streaks are chained scalar (a boundary's timing depends on the
    previous streak's final issue), with the hit-streaks in between
    still resolved by the precomputed segmented running max.  Every
    participant shares ``timing``, so one tRCD/tRP/tRAS serves every
    group.

    ``ccd_const`` (a read-only block, or equal read/write gaps) declares the
    CAS gap constant: ``delta`` may then be ``None`` and the exclusive
    cumsum collapses to ``position * ccd_const`` — Python arithmetic in
    place of per-run array indexing, the hot path of this walk.
    """
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
    t_rcd, t_rp, t_ras = timing.t_rcd, timing.t_rp, timing.t_ras
    for group in miss_groups[keep].tolist():
        start = int(group_bounds[group])
        end = int(group_bounds[group + 1])
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

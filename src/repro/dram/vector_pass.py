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

Stages.  :func:`resolve_vector_pass` keeps the block loop and calls
named stages.  Once per pass: :func:`_gather_state` (state and pending
pools), :func:`_settle_queues` (queue counters, peak occupancy and the
outstanding pools) and :func:`_write_back` (statistics, state and
results).  Once per block, in order: :func:`_pace_block` (queue
constraints and front-end pacing), :func:`_bank_timing` (bank streak
timing, with :func:`_walk_streak_boundaries`), :func:`_arbitrate_bus`,
:func:`_speculation_cut` (the speculation check) and
:func:`_commit_block` (the prefix or full commit, its stall split and
the pending merge).

State layout.  Each participant's engine owns its state as int64
arrays: bank open row, ready and ACT cycles, channel buses, and per
queue a sorted ``pending`` pool and a sorted ``outstanding`` pool (the
scalar and closed-form fast paths convert what they touch at entry and
exit).  A batch is decoded once per decode geometry
(:func:`decode_lines`), and the participants' rows are stacked into
*offset-flattened* ids (:func:`stack_lines`): participant ``p``'s flat
bank ids live in ``[bank_off[p], bank_off[p+1])`` and its channel ids
in ``[chan_off[p], chan_off[p+1])``.  The pass gathers the state with
one ``np.concatenate`` per array and the pools with one ``np.stack``
per queue (no sort), and writes it back by slice assignment.  Ragged
geometries (1 channel next to 8, 2 banks next to 16) need no
bucketing — the offsets make every (config, bank) and (config,
channel) pair globally unique, so one stable sort groups the whole
grid's traffic.  Every participant shares one DRAM timing and one
issue rate, so the segmented scans run on Python-int timing constants.
Queue state is a ``(configs, k)`` pending matrix per queue: every
participant shares one (read, write) depth and has been issued every
batch, so each holds ``min(pushed, depth)`` pending completions.

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
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np

from repro.dram.address import LINE_BYTES
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

    Built once per participant set (a grid caches one per participant
    tuple) from the engines' timing, geometry, queue capacities and
    issue rates.  Holds the timing constants as Python ints and the
    offset-flattened bank/channel geometry; the scans share one lazily
    grown ``0..n`` ramp across every pass.

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
        # into shifts (rate 1 shifts by 0); h >= 0 after the pace
        # seeding, so the arithmetic shift matches floor division exactly.
        self.ipc_sh = ipc.bit_length() - 1 if ipc & (ipc - 1) == 0 else None
        # Every participant on one channel: (config, channel) ids are the
        # participant ids, so the bus scan runs row-wise with no sort.
        self.single_channel = all(e.channels == 1 for e in engines)
        # Offset-flattened state geometry: participant p's banks/channels
        # map to [off[p], off[p+1]) — ragged shapes concatenate unbucketed.
        self.bank_off = [0, *accumulate(e.channels * e.ranks * e.banks for e in engines)]
        self.chan_off = [0, *accumulate(e.channels for e in engines)]
        # Channel ids as 16-bit keys: numpy's stable argsort is then a
        # radix sort, 2-4x faster on interleaved channels, and a stable
        # sort's permutation does not depend on the key width.  (The
        # statistics bincount packs 3 * channel + category.)
        self.chan_dtype = (
            np.int16 if 3 * self.chan_off[-1] < (1 << 15) else np.int64
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


def decode_lines(
    engine: "BatchedEngine", lines: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``lines`` under ``engine``'s address map: ``(channel, bank, row)``.

    ``bank`` is the engine's flat bank id, ``(channel * ranks + rank) *
    banks + bank``.  Engines with one decode geometry (strides and
    sizes) share the result, so a grid decodes each batch once per
    geometry, whatever its pass classes.  A field of size 1 is zero
    without a divide.
    """
    strides, sizes = engine._strides, engine._sizes

    def field(name: str) -> np.ndarray:
        size = sizes[name]
        if size > 1:
            return (lines // strides[name]) % size
        return np.zeros(lines.size, dtype=np.int64)

    chan = field("ch")
    bank = field("ba")
    if sizes["ra"] > 1:
        bank += (chan * sizes["ra"] + field("ra")) * sizes["ba"]
    elif sizes["ch"] > 1:
        bank += chan * sizes["ba"]
    row = field("ro")
    return chan, bank, row


def stack_lines(
    params: VectorParams, decoded: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The participants' :func:`decode_lines` as ``(participants, lines)`` rows.

    Returns the offset-flattened ``(channel, bank, row)`` ids of
    ``params``' state layout.  They depend only on the participants'
    geometries, so passes over equal geometries share them.
    """
    if len(decoded) == 1:
        # One participant at offset 0: its decode is already the layout.
        [(chan, bank, rows)] = decoded
        return chan.astype(params.chan_dtype)[None], bank[None], rows[None]
    num, n = len(decoded), decoded[0][0].size
    gchan = np.empty((num, n), dtype=params.chan_dtype)
    flat_bank = np.empty((num, n), dtype=np.int64)
    row = np.empty((num, n), dtype=np.int64)
    for p, (chan, bank, rows) in enumerate(decoded):
        np.add(chan, params.chan_off[p], out=gchan[p], casting="unsafe")
        np.add(bank, params.bank_off[p], out=flat_bank[p])
        row[p] = rows
    return gchan, flat_bank, row


def resolve_vector_pass(
    params: VectorParams,
    engines: Sequence["BatchedEngine"],
    stacked: tuple[np.ndarray, np.ndarray, np.ndarray],
    is_write: np.ndarray,
    clock0s: Sequence[int],
) -> list[BatchResult]:
    """Issue one batch's lines into every participant; one result each.

    ``is_write`` is the batch's round-robin issue order
    (:func:`repro.dram.engine_batched.issue_order_arrays`) and
    ``stacked`` its :func:`stack_lines` for ``engines``, which
    ``params`` describes exactly.  It runs the stages of the module
    docstring: it gathers the participants' state, walks the block
    stages over every block, settles the queues and writes the state
    back.  Statistics and results reach the engines as Python ints.
    """
    num, n = len(engines), is_write.size
    gchan, flat_bank, row = stacked
    state, pend_r, pend_w = _gather_state(engines)
    index = params.ramp(n + 1)
    writes_cum = np.cumsum(is_write)
    reads_cum = index[1:] - writes_cum
    # Per-line CAS gap and data offset by access kind, gathered into
    # each block's bank order (None: one value for every line).
    has_writes = bool(writes_cum[-1])
    ccd, write_ccd, cl, cwl = params.ccd, params.write_ccd, params.cl, params.cwl
    delta_line = (
        np.where(is_write, write_ccd, ccd) if has_writes and write_ccd != ccd else None
    )
    cas_line = np.where(is_write, cwl, cl) if has_writes and cwl != cl else None
    # k*tCCD and k*tBURST scan ramps as long as the widest rectangle (a
    # block holds at most cap_r + cap_w lines).
    ramp = params.ramp(num * min(n, params.cap_r + params.cap_w) + 1)
    ramp_ccd, ramp_tb = ramp * ccd, ramp * params.burst
    records = (
        np.empty((num, n), dtype=np.int64),  # issue cycles
        np.empty((num, n), dtype=np.int64),  # completions
        np.zeros((num, n), dtype=np.int8),  # 0 hit / 1 miss / 2 conflict
        np.zeros(num, dtype=np.int64),  # read stalls
        np.zeros(num, dtype=np.int64),  # write stalls
    )
    # Pacing state in h-space (running max of c*g - i), per participant.
    pace = np.array([params.ipc * c0 for c0 in clock0s], dtype=np.int64)

    # Every participant shares the queue depths and the cursor, so the
    # pass advances through one sequence of (configs, block) rectangles:
    # the longest runs with at most `capacity` pushes per queue, whose
    # constraints then predate the block.
    s0 = 0
    while s0 < n:
        rb = int(reads_cum[s0 - 1]) if s0 else 0
        wb = int(writes_cum[s0 - 1]) if s0 else 0
        e0 = min(
            int(reads_cum.searchsorted(rb + params.cap_r, side="right")),
            int(writes_cum.searchsorted(wb + params.cap_w, side="right")),
            n,
        )
        rd_local, wr_local, g2, u2, hmax2, issue2 = _pace_block(
            params, index, is_write, s0, e0, pend_r, pend_w, pace
        )
        data_start, banks = _bank_timing(
            params, state, flat_bank, row, s0, e0, issue2, wr_local, delta_line, cas_line,
            ramp_ccd,
        )
        completion2, chans = _arbitrate_bus(params, state, gchan, s0, e0, data_start, ramp_tb)
        cut = _speculation_cut(params, completion2, g2, rd_local, wr_local)
        pend_r, pend_w = _commit_block(
            params, state, records, s0, e0, cut, pace, pend_r, pend_w,
            rd_local, wr_local, u2, issue2, completion2, banks, chans,
        )
        pace = hmax2[:, cut - 1]
        s0 += cut

    rd_pos = (~is_write).nonzero()[0]
    wr_pos = is_write.nonzero()[0]
    _settle_queues(engines, index, records, pend_r, pend_w, rd_pos, wr_pos)
    return _write_back(params, engines, clock0s, state, gchan, records, rd_pos, wr_pos)


def _gather_state(engines: Sequence["BatchedEngine"]) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Offset-concatenated datapath state and the stacked pending pools.

    Returns ``((open_row, ready, act, bus), pend_r, pend_w)``.  The
    pending pools are ``(configs, min(pushed, depth))`` matrices: equal
    depths and equal pushes keep the rows equally long, and ``np.stack``
    raises if a caller ever breaks that.
    """
    state = (
        np.concatenate([e._open_row for e in engines]),
        np.concatenate([e._ready for e in engines]),
        np.concatenate([e._act for e in engines]),
        np.concatenate([e._bus_ready for e in engines]),
    )
    pend_r = np.stack([e.read_queue.pending for e in engines])
    pend_w = np.stack([e.write_queue.pending for e in engines])
    return state, pend_r, pend_w


def _pace_block(
    params: VectorParams, index: np.ndarray, is_write: np.ndarray, s0: int, e0: int,
    pend_r: np.ndarray, pend_w: np.ndarray, pace: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Queue constraints and front-end pacing of the block ``[s0, e0)``.

    Returns ``(rd_local, wr_local, g2, u2, hmax2, issue2)``: the
    block-local read and write columns (shared by every row), the
    queue constraints, the pacing scan and its running max, and the
    issue cycles, each ``(configs, block)``.
    """
    blk = e0 - s0
    gidx_blk = index[s0:e0]
    wr_blk = is_write[s0:e0]
    # Queue constraints g: consumed order statistics.  A read-only block
    # (the common fetch stream) reads at 0..blk-1, so its column
    # gathers become plain slices.
    wr_local = wr_blk.nonzero()[0]
    contig = not wr_local.size
    rd_local = index[:blk] if contig else (~wr_blk).nonzero()[0]
    # Pushes left before each queue first fills (their constraint is
    # vacuous): a queue holds min(pushed, depth) pending entries.
    skip_r = params.cap_r - pend_r.shape[1]
    skip_w = params.cap_w - pend_w.shape[1]
    if skip_r or skip_w:
        g2 = np.full((pace.size, blk), _LOW, dtype=np.int64)
    else:
        # Both queues filled: every column consumes a constraint.
        g2 = np.empty((pace.size, blk), dtype=np.int64)
    for local, pend, skip in ((rd_local, pend_r, skip_r), (wr_local, pend_w, skip_w)):
        count = local.size
        if count > skip:
            if contig:
                g2[:, skip:count] = pend[:, : count - skip]
            else:
                g2[:, local[skip:]] = pend[:, : count - skip]

    # Front-end pacing: row-wise running max.
    ipc_sh = params.ipc_sh
    h2 = (g2 << ipc_sh) - gidx_blk if ipc_sh is not None else params.ipc * g2 - gidx_blk
    np.maximum(h2[:, 0], pace, out=h2[:, 0])
    hmax2 = np.maximum.accumulate(h2, axis=1)
    u2 = gidx_blk + hmax2
    issue2 = u2 >> ipc_sh if ipc_sh is not None else u2 // params.ipc
    return rd_local, wr_local, g2, u2, hmax2, issue2


def _bank_timing(
    params: VectorParams, state: tuple, flat_bank: np.ndarray, row: np.ndarray,
    s0: int, e0: int, issue2: np.ndarray, wr_local: np.ndarray,
    delta_line: np.ndarray | None, cas_line: np.ndarray | None, ramp_ccd: np.ndarray,
) -> tuple[np.ndarray, tuple]:
    """Bank streak timing of the block ``[s0, e0)``, grouped globally.

    Returns the data start of every element in rectangle order and the
    bank-sorted products the commit needs: ``(grouping, j_s, fb_s,
    row_s, group_starts, issue_bank, delta, act_updates, cat_c)``.
    """
    open_row, ready, act, _ = state
    num, blk = issue2.shape
    total = num * blk
    ccd = params.ccd
    fb_c = flat_bank[:, s0:e0].ravel()
    grouping = fb_c.argsort(kind="stable")
    fb_s = fb_c[grouping]
    row_s = row[:, s0:e0].ravel()[grouping]
    cyc_s = issue2.ravel()[grouping]
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
    all_hits = bool(hit.all())
    cat_c = None  # every access a row hit: category 0 everywhere
    if all_hits:
        # Runs coincide with bank groups: reuse their boundaries.
        run_start = is_start
    else:
        not_hit = ~hit
        run_start = is_start | not_hit
        run_start[1:] |= not_hit[:-1]
        # hit -> 0, miss on a closed row -> 1, conflict -> 2,
        # as int8 arithmetic (cheaper than nested np.where).
        cat_c = np.empty(total, dtype=np.int8)
        cat_c[grouping] = not_hit.view(np.int8) * (
            (prev_row >= 0).view(np.int8) + np.int8(1)
        )
    run_id = run_start.cumsum() - 1
    # ``delta is None`` encodes a constant ccd everywhere — the
    # exclusive cumsum collapses to the pass's k*tCCD ramp.
    delta = None if delta_line is None or line_s is None else delta_line[line_s]
    if delta is None:
        d_excl = ramp_ccd[:total]
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
            fb_s, cyc_s, prev_row, hit, group_starts, run_id, run_starts, d_excl,
            delta, streak_max, ready, act, seeds, act_updates, params.timing,
            ccd if delta is None else None,
        )
    issue_bank = d_excl + np.maximum(seeds[run_id], streak_max)
    data_start = np.empty(total, dtype=np.int64)
    data_start[grouping] = issue_bank + (
        params.cl if cas_line is None or line_s is None else cas_line[line_s]
    )
    banks = (grouping, j_s, fb_s, row_s, group_starts, issue_bank, delta, act_updates, cat_c)
    return data_start, banks


def _arbitrate_bus(
    params: VectorParams, state: tuple, gchan: np.ndarray, s0: int, e0: int,
    data_start: np.ndarray, ramp_tb: np.ndarray,
) -> tuple[np.ndarray, tuple | None]:
    """Bus arbitration of the block ``[s0, e0)`` per (config, channel).

    Returns the ``(configs, block)`` completions and, after the
    channel-sorted scan, the products the commit needs: ``(chan_order,
    chan_s, chan_starts, completion_s)`` (``None`` after the row-wise
    scan).  ``ramp_tb`` is the pass's ``k*tBURST``.
    """
    bus = state[3]
    blk = e0 - s0
    tb = params.burst
    if params.single_channel:
        # One channel per participant: each rectangle row is one
        # bus segment already in issue order — a row-wise scan.
        elem2 = data_start.reshape(-1, blk) - ramp_tb[:blk]
        np.maximum(elem2[:, 0], bus, out=elem2[:, 0])
        completion2 = np.maximum.accumulate(elem2, axis=1)
        completion2 += ramp_tb[1 : blk + 1]
        return completion2, None
    gch_c = gchan[:, s0:e0].ravel()
    total = gch_c.size
    chan_order = gch_c.argsort(kind="stable")
    chan_s = gch_c[chan_order]
    bus_in = data_start[chan_order]
    cstart = np.empty(total, dtype=bool)
    cstart[0] = True
    np.not_equal(chan_s[1:], chan_s[:-1], out=cstart[1:])
    chan_starts = cstart.nonzero()[0]
    # The per-segment offset only needs distinct nondecreasing
    # values — the sorted channel ids themselves qualify, saving
    # a cumsum.
    seg_off = np.multiply(chan_s, _BIG, dtype=np.int64)
    # One burst length: measure elements against the *global*
    # ramp instead of a segment-local one — the segment base
    # (chan_start * tb) cancels between the seeded ``elem`` and
    # the final completion, so no per-segment ramp materializes.
    ramp_tb = ramp_tb[:total]
    elem = bus_in - ramp_tb
    elem[chan_starts] = np.maximum(
        elem[chan_starts],
        bus[chan_s[chan_starts]] - ramp_tb[chan_starts],
    )
    seg_max = np.maximum.accumulate(elem + seg_off) - seg_off
    completion_s = ramp_tb + tb + seg_max
    completion = np.empty(total, dtype=np.int64)
    completion[chan_order] = completion_s
    return completion.reshape(-1, blk), (chan_order, chan_s, chan_starts, completion_s)


def _speculation_cut(
    params: VectorParams, completion2: np.ndarray, g2: np.ndarray,
    rd_local: np.ndarray, wr_local: np.ndarray,
) -> int:
    """Verify the order-statistic speculation; the block's exact width.

    The cut is the earliest violating column over every row and
    queue: a row violates where an earlier in-block completion of the
    queue undercuts a later consumed constraint.  Every element
    before that frontier is already exact — scans are prefix-causal
    per (config, bank, channel), and bank groups never cross
    configs, so even the walker's ACT chain ascends in position —
    so the clean prefix commits directly, with no retry pass.  A
    1-channel row never violates: its bus chain rises past every
    earlier completion, constraints included.  Otherwise
    fast-accept when no row's completions undercut its own
    constraints (rows are compared with themselves: across rows
    the check would alarm on nearly every grid block).
    """
    cut = completion2.shape[1]
    if params.single_channel or not (completion2.min(axis=1) < g2.max(axis=1)).any():
        return cut
    for local in (rd_local, wr_local):
        if local.size < 2:
            continue
        run_min = np.minimum.accumulate(completion2.take(local[:-1], axis=1), axis=1)
        bad = (run_min < g2.take(local[1:], axis=1)).any(axis=0)
        if bad.any():
            cut = min(cut, int(local[int(bad.argmax()) + 1]))
    return cut


def _commit_block(
    params: VectorParams, state: tuple, records: tuple, s0: int, e0: int, cut: int,
    pace: np.ndarray, pend_r: np.ndarray, pend_w: np.ndarray, rd_local: np.ndarray,
    wr_local: np.ndarray, u2: np.ndarray, issue2: np.ndarray, completion2: np.ndarray,
    banks: tuple, chans: tuple | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Commit the verified prefix ``[s0, s0 + cut)`` of the block ``[s0, e0)``.

    Each bank group and channel segment advances to its last kept
    element (groups with nothing kept stay untouched), the kept
    columns land in ``records``, their stalls split by queue, and each
    queue's pending pool merges its kept completions.  Returns the new
    ``(pend_r, pend_w)``.
    """
    open_row, ready, act, bus = state
    issue_all, comp_all, cat_all, stall_r, stall_w = records
    grouping, j_s, fb_s, row_s, group_starts, issue_bank, delta, act_updates, cat_c = banks
    num, blk = pace.size, e0 - s0
    total = num * blk
    prefix = cut < blk
    if prefix and j_s is None:
        j_s = grouping % blk
    last = _last_in_groups(group_starts, total, (j_s < cut).nonzero()[0] if prefix else None)
    touched = fb_s[last]
    open_row[touched] = row_s[last]
    ready[touched] = issue_bank[last] + (params.ccd if delta is None else delta[last])
    for bank_index, position, value in act_updates:
        if not prefix or int(j_s[position]) < cut:
            act[bank_index] = value
    if chans is None:
        bus[:] = completion2[:, -1]  # (1-channel rows never cut)
    else:
        chan_order, chan_s, chan_starts, completion_s = chans
        kept = ((chan_order % blk) < cut).nonzero()[0] if prefix else None
        last = _last_in_groups(chan_starts, total, kept)
        bus[chan_s[last]] = completion_s[last]

    ec = s0 + cut
    issue_all[:, s0:ec] = issue2[:, :cut]
    comp_all[:, s0:ec] = completion2[:, :cut]
    if cat_c is not None:  # (None: all hits, category 0 as initialized)
        cat_all[:, s0:ec] = cat_c.reshape(num, blk)[:, :cut]
    # Stall accounting: stall = issue minus the clock without this
    # line's jump, floor((i + hmax[i-1]) / c), and i + hmax[i-1] is
    # the previous column's u2 plus one.
    base2 = np.empty_like(u2)
    np.add(u2[:, :-1], 1, out=base2[:, 1:])
    np.add(pace, s0, out=base2[:, 0])
    ipc_sh = params.ipc_sh
    stall2 = issue2 - (base2 >> ipc_sh if ipc_sh is not None else base2 // params.ipc)
    stall_kept = (stall2[:, :cut] if prefix else stall2).sum(axis=1)
    # Column gathers + row-wise sums split the kept stalls by queue
    # (the read stall is the kept total minus the write columns), and
    # each queue's pending merge is one axis-1 sort.
    if not wr_local.size:
        # Read-only block: plain slices, no column gathers.
        n_w = 0
        comp_r = completion2[:, :cut]
    else:
        n_w = int(wr_local.searchsorted(cut)) if prefix else wr_local.size
        comp_r = completion2.take(rd_local[: cut - n_w], axis=1)
        kept_w = wr_local[:n_w]
        stall_w_q = stall2.take(kept_w, axis=1).sum(axis=1)
        stall_w += stall_w_q
        stall_kept -= stall_w_q
    stall_r += stall_kept
    if cut > n_w:
        skip_r = params.cap_r - pend_r.shape[1]
        pend_r = _merge_pending(pend_r, cut - n_w - skip_r, comp_r)
    if n_w:
        skip_w = params.cap_w - pend_w.shape[1]
        pend_w = _merge_pending(pend_w, n_w - skip_w, completion2.take(kept_w, axis=1))
    return pend_r, pend_w


def _last_in_groups(starts: np.ndarray, total: int, kept: np.ndarray | None) -> np.ndarray:
    """Position of each sorted group's last kept element.

    ``starts`` are the groups' first positions among ``total``; ``kept``
    the ascending kept positions (``None``: every element, so every
    group's last).  Groups with nothing kept are left out.
    """
    if kept is None:
        last = np.empty(starts.size, dtype=np.int64)
        np.subtract(starts[1:], 1, out=last[:-1])
        last[-1] = total - 1
        return last
    group = starts.searchsorted(kept, side="right") - 1
    is_last = np.empty(kept.size, dtype=bool)
    is_last[-1] = True
    np.not_equal(group[:-1], group[1:], out=is_last[:-1])
    return kept[is_last]


def _settle_queues(
    engines: Sequence["BatchedEngine"], index: np.ndarray, records: tuple,
    pend_r: np.ndarray, pend_w: np.ndarray, rd_pos: np.ndarray, wr_pos: np.ndarray,
) -> None:
    """Each queue's counters, peak occupancy and outstanding/pending pools."""
    issue_all, comp_all, _, stall_r, stall_w = records
    n = issue_all.shape[1]
    for queues, pend, positions, stalls in (
        ([e.read_queue for e in engines], pend_r, rd_pos, stall_r),
        ([e.write_queue for e in engines], pend_w, wr_pos, stall_w),
    ):
        count = positions.size
        for queue, stalled in zip(queues, stalls.tolist()):
            queue.pushed += count
            queue.total_enqueued += count
            queue.total_stall_cycles += stalled
        if not count:
            continue
        if count == n:
            clocks, comps = issue_all, comp_all
        else:
            clocks, comps = issue_all[:, positions], comp_all[:, positions]
        # New completions in flight past each row's last issue.
        final = clocks[:, -1:]
        live = comps > final
        for p, queue in enumerate(queues):
            prior = queue.outstanding
            if queue.peak_occupancy < queue.capacity:
                # Admission stalls when the queue is full, so
                # occupancy is capped at capacity; once the peak has
                # reached it, the alive/retire walk cannot move it.
                alive_prior = prior.size - prior.searchsorted(clocks[p], side="right")
                retire_at = clocks[p].searchsorted(comps[p], side="left")
                retired_cum = np.bincount(
                    np.minimum(retire_at, count), minlength=count + 1
                ).cumsum()[:count]
                occupancy = alive_prior + index[1 : count + 1] - retired_cum
                peak = int(occupancy.max())
                if peak > queue.peak_occupancy:
                    queue.peak_occupancy = peak
            kept = np.concatenate(
                (prior[prior.searchsorted(final[p, 0], side="right") :], comps[p][live[p]])
            )
            kept.sort()
            queue.outstanding = kept
            queue.pending = pend[p]


def _write_back(
    params: VectorParams, engines: Sequence["BatchedEngine"], clock0s: Sequence[int],
    state: tuple, gchan: np.ndarray, records: tuple, rd_pos: np.ndarray, wr_pos: np.ndarray,
) -> list[BatchResult]:
    """Per-channel statistics, per-participant state and results.

    The statistics are global bincounts over (config, channel); each
    engine's ``_s_*`` lists take them as Python ints.
    """
    open_row, ready, act, bus = state
    issue_all, comp_all, cat_all, _, _ = records
    chan_off = params.chan_off
    total_chan = chan_off[-1]
    lines_read, lines_written = rd_pos.size, wr_pos.size
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

    counts3_l = counts3.tolist()
    reads_l = reads_pc.tolist()
    writes_l = writes_pc.tolist()
    lat_l = lat_pc.tolist()
    bus_l = bus.tolist()
    issue_clocks = issue_all[:, -1].tolist()
    if lines_read:
        last_reads = (
            comp_all if not lines_written else comp_all[:, rd_pos]
        ).max(axis=1).tolist()
    results: list[BatchResult] = []
    for p, engine in enumerate(engines):
        base = chan_off[p]
        for local in range(engine.channels):
            gch = base + local
            reads = reads_l[gch]
            writes = writes_l[gch]
            if not reads + writes:
                continue
            hits, misses, conflicts = counts3_l[gch]
            engine._s_reads[local] += reads
            engine._s_writes[local] += writes
            engine._s_hits[local] += hits
            engine._s_misses[local] += misses
            engine._s_conflicts[local] += conflicts
            engine._s_lat[local] += int(lat_l[gch])
            # bus[gch] is the channel's last completion this call (the
            # per-channel completion chain is monotone), hence the max.
            if bus_l[gch] > engine._s_last[local]:
                engine._s_last[local] = bus_l[gch]
            if engine._s_first[local] is None:
                engine._s_first[local] = int(issue_all[p, int(np.argmax(gchan[p] == gch))])
            engine._s_bytes[local] += LINE_BYTES * (reads + writes)
        banks = slice(params.bank_off[p], params.bank_off[p + 1])
        engine._open_row[:] = open_row[banks]
        engine._ready[:] = ready[banks]
        engine._act[:] = act[banks]
        engine._bus_ready[:] = bus[base : chan_off[p + 1]]
        engine._issue_clock = issue_clocks[p]
        ready_cycle = clock0s[p]
        if lines_read and last_reads[p] > ready_cycle:
            ready_cycle = last_reads[p]
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


__all__ = ["VectorParams", "decode_lines", "resolve_vector_pass", "stack_lines"]

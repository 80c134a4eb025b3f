"""VectorizedConflictEvaluator: offline bank-LRU evaluation with numpy.

Bit-exact to :class:`repro.layout.conflict.BankConflictEvaluator`, but
the per-cycle Python loop (per-bank ``OrderedDict`` LRUs) is replaced by
array passes over whole demand matrices:

* **request extraction + decode** — the layout-independent half
  (boolean masking, per-cycle request counts, the (cycle, offset) sort
  and per-cycle offset dedup) lives in
  :func:`repro.layout.conflict.build_fold_demand`, so a fan-out over
  many evaluator configurations computes it once per fold
  (:meth:`VectorizedConflictEvaluator.add_fold_demand`); (bank, line)
  keys come from a lazily-built lookup table over the tensor's element
  space (the trace re-reads the same elements thousands of times, so
  decoding each distinct offset once beats re-running the index
  arithmetic per request), and fan-outs whose configurations share
  inter-line steps derive each LUT from one shared decode
  (:meth:`VectorizedConflictEvaluator.prime_key_lut`).
* **per-cycle dedup** — the reference walks ``np.unique`` keys per
  cycle; one global sort of ``cycle * key_space + key`` reproduces that
  exact (cycle, then ascending key) touch order for the whole matrix.
* **LRU hits via stack distances** — a touch of a (bank, line) is a
  buffered hit iff ``D < row_buffers_per_bank``, where ``D`` is the
  number of distinct lines touched in that bank since the line's
  previous touch.  With ``p[k]`` the per-bank position of the previous
  touch and ``gap = k - p[k] - 1`` (touches in between), ``D`` resolves
  through an exact three-tier cascade:

  1. ``gap < B`` — hit (``D <= gap``), no counting needed;
  2. ``p[k] >= max(p[j] for j < k in the bank)`` — no line inside the
     window repeats, so ``D = gap`` exactly (the segmented running-max
     is one scan).  This covers the periodic line-cycling that
     dominates systolic traces;
  3. residual touches — ``D = #{j in window : p[j] <= p[k]}``, counted
     directly: one vector pass per window offset while windows stay
     shallow, one contiguous slice per touch when residuals are few,
     and otherwise a full offline prev-greater merge count (sorted
     blocks + one global ``searchsorted`` per level, banks kept
     disjoint by segment offsets).

* **cost reduction** — per-(cycle, bank) new-line counts and the
  per-cycle ``worst_new`` maximum are segmented ``reduceat`` scans; the
  layout/bandwidth cycle totals are array sums.

State across calls (the per-bank LRU buffers the scalar reference
carries between folds) is exact: each call is prefixed with synthetic
*preamble* touches replaying every bank's open lines in LRU order, and
ends by re-extracting the ``row_buffers_per_bank`` most recently used
distinct lines per bank.
"""

from __future__ import annotations

import numpy as np

from repro.layout.conflict import (
    BankConflictEvaluator,
    CycleCost,
    FoldDemand,
    build_fold_demand,
)
from repro.layout.spec import LayoutSpec

#: Tensors up to this many elements get a (bank, line) decode LUT.
_LUT_MAX_ELEMENTS = 1 << 22

_INT32_MAX = np.iinfo(np.int32).max

#: Residual windows are counted directly (one contiguous slice per
#: touch) while their summed lengths stay under this budget; beyond it
#: the gap-class difference-array passes or the offline merge count
#: take over (see the residual dispatch in ``_resolve_worst_new``).
_WINDOW_SCAN_BUDGET = 1 << 24

#: The layout fan-out joins consecutive small folds into one
#: ``add_fold_demand`` call until the batch holds at least this many
#: offsets (:func:`repro.layout.integrate.evaluate_layout_slowdown_many`).
#: Most folds carry a few dozen offsets, where a call's fixed numpy
#: cost outweighs its per-element work; larger folds pass alone.
_FOLD_BATCH_OFFSETS = 1 << 12


def _count_prev_greater(values: np.ndarray) -> np.ndarray:
    """For each i: ``#{j < i : values[j] > values[i]}`` (values >= 0).

    Bottom-up merge counting: at each level the array is sorted within
    blocks of ``width``; every right-half element is ranked against its
    left half with one global ``searchsorted`` (per-block offsets keep
    the concatenated left halves globally sorted), then blocks merge by
    an axis sort.  O(n log^2 n) in a handful of numpy passes per level.
    """
    n = values.size
    counts = np.zeros(n, dtype=np.int64)
    if n < 2:
        return counts
    arr = values.astype(np.int64) + 1  # pads are 0, real values >= 1
    perm = np.arange(n, dtype=np.int64)
    width = 1
    while width < arr.size:
        size = 2 * width
        nblocks = -(-arr.size // size)
        padded = nblocks * size
        if padded != arr.size:
            arr = np.concatenate([arr, np.zeros(padded - arr.size, dtype=np.int64)])
            perm = np.concatenate(
                [perm, np.full(padded - perm.size, -1, dtype=np.int64)]
            )
        blocks = arr.reshape(nblocks, size)
        lefts = blocks[:, :width]
        rights = blocks[:, width:]
        span = int(arr.max()) + 1
        offsets = np.arange(nblocks, dtype=np.int64)[:, None] * span
        flat_lefts = (lefts + offsets).ravel()
        queries = (rights + offsets).ravel()
        le_within = np.searchsorted(flat_lefts, queries, side="right").astype(
            np.int64
        ) - np.repeat(np.arange(nblocks, dtype=np.int64) * width, width)
        greater = width - le_within
        right_perm = perm.reshape(nblocks, size)[:, width:].ravel()
        real = right_perm >= 0
        # Each original index occupies exactly one slot per level, so a
        # plain fancy-index accumulate is safe (and much faster than ufunc.at).
        counts[right_perm[real]] += greater[real]
        order = np.argsort(blocks, axis=1, kind="stable")
        arr = np.take_along_axis(blocks, order, axis=1).ravel()
        perm = np.take_along_axis(perm.reshape(nblocks, size), order, axis=1).ravel()
        width = size
    return counts


def _segmented_running_max_exclusive(
    values: np.ndarray, seg_id: np.ndarray, seg_starts: np.ndarray
) -> np.ndarray:
    """Per-segment exclusive running max (segments contiguous, -2 seed)."""
    n = values.size
    big = np.int64(int(values.max()) + 4)  # segment stride above any shifted value
    shifted = (values + 2) + seg_id * big  # values >= -1 -> strictly positive
    running = np.maximum.accumulate(shifted)
    exclusive = np.empty(n, dtype=np.int64)
    exclusive[0] = 0
    exclusive[1:] = running[:-1]
    exclusive[seg_starts] = 0  # no predecessor within the segment
    return exclusive - seg_id * big - 2  # 0 maps below any real value


class VectorizedConflictEvaluator(BankConflictEvaluator):
    """Drop-in vectorized evaluator (see module docstring).

    Inherits the reference's validated construction, accumulation
    counters and ``slowdown`` property; every evaluation path funnels
    through the offline :meth:`_evaluate_fold` pass over a
    :class:`~repro.layout.conflict.FoldDemand` artifact.
    """

    def __init__(
        self,
        layout: LayoutSpec,
        bandwidth_model_words: int,
        row_buffers_per_bank: int = 4,
    ) -> None:
        super().__init__(
            layout,
            bandwidth_model_words=bandwidth_model_words,
            row_buffers_per_bank=row_buffers_per_bank,
        )
        # Per-bank open lines, LRU -> MRU (each list <= row_buffers long).
        self._bank_lines: dict[int, list[int]] = {}
        self._key_lut: np.ndarray | None = None

    # ------------------------------------------------------------ public API

    def cost_of_cycle(self, offsets: np.ndarray) -> CycleCost:
        """Cost of one cycle's element requests (flat offsets)."""
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.size == 0:
            return CycleCost(0, 1, 1)
        if (offsets < 0).any():
            self.layout.locate(offsets)  # raises the reference's LayoutError
        costs = self._evaluate_fold(
            build_fold_demand(offsets.reshape(1, -1), dedup=False),
            accumulate=False,
            return_costs=True,
        )
        assert costs is not None
        return costs[0]

    def add_cycle(self, offsets: np.ndarray) -> CycleCost:
        """Evaluate and accumulate one cycle."""
        offsets = np.asarray(offsets, dtype=np.int64)
        if (offsets < 0).any():
            self.layout.locate(offsets)  # raises the reference's LayoutError
        costs = self._evaluate_fold(
            build_fold_demand(offsets.reshape(1, -1), dedup=False),
            accumulate=True,
            return_costs=True,
        )
        assert costs is not None
        return costs[0]

    def add_demand_matrix(
        self,
        demand: np.ndarray,
        base_offset: int = 0,
        return_costs: bool = False,
    ) -> list[CycleCost] | None:
        """Evaluate every row of a (cycles x ports) demand matrix."""
        return self._evaluate_fold(
            build_fold_demand(demand, base_offset, dedup=False),
            accumulate=True,
            return_costs=return_costs,
        )

    def add_fold_demand(
        self, fold: FoldDemand, return_costs: bool = False
    ) -> list[CycleCost] | None:
        """Evaluate one fold from its layout-independent artifact.

        The fan-out entry point: the caller builds the
        :class:`~repro.layout.conflict.FoldDemand` once per fold and
        broadcasts it to every evaluator configuration; only the
        address -> (bank, line) mapping and the LRU stack-distance
        cascade below run per configuration.
        """
        return self._evaluate_fold(fold, accumulate=True, return_costs=return_costs)

    # ----------------------------------------------------------- decode LUT

    def prime_key_lut(self, line_id: np.ndarray, col_id: np.ndarray) -> None:
        """Adopt a shared (line, col) decode of the tensor's element space.

        ``line_id`` / ``col_id`` depend only on the layout's inter-line
        steps, not on its bank split, so a fan-out over configurations
        sharing those steps computes them once (one
        :meth:`~repro.layout.spec.LayoutSpec.locate` over the element
        space) and derives each configuration's key LUT here with two
        cheap array ops.  Bit-exact: this is precisely the LUT
        :meth:`_keys_for` would build from its own ``locate`` call.
        """
        layout = self.layout
        num_elements = layout.view.num_elements
        if num_elements > _LUT_MAX_ELEMENTS:
            return  # the LUT path is disabled for huge tensors anyway
        if line_id.shape != (num_elements,) or col_id.shape != (num_elements,):
            raise ValueError(
                f"decode arrays must cover the element space ({num_elements},)"
            )
        num_lines1 = layout.num_lines + 1
        keys = (col_id // layout.bandwidth_per_bank) * num_lines1 + line_id
        key_space = layout.num_banks * num_lines1
        dtype = np.int32 if key_space <= _INT32_MAX else np.int64
        self._key_lut = keys.astype(dtype, copy=False)

    def _keys_for(self, offsets: np.ndarray) -> np.ndarray:
        """(bank, line) keys (``bank * (num_lines+1) + line``) per offset."""
        layout = self.layout
        num_lines1 = layout.num_lines + 1
        num_elements = layout.view.num_elements
        if num_elements > _LUT_MAX_ELEMENTS:
            line_id, _, bank_id = layout.locate(offsets)
            return bank_id * num_lines1 + line_id
        if offsets.size and int(offsets.min()) < 0:
            # locate() would reject these; preserve the reference's error.
            layout.locate(offsets)
        if self._key_lut is None:
            element_space = np.arange(num_elements, dtype=np.int64)
            line_id, _, bank_id = layout.locate(element_space)
            keys = bank_id * num_lines1 + line_id
            key_space = layout.num_banks * num_lines1
            dtype = np.int32 if key_space <= _INT32_MAX else np.int64
            self._key_lut = keys.astype(dtype)
        return self._key_lut[offsets % num_elements]

    # --------------------------------------------------------- offline pass

    def _evaluate_fold(
        self,
        fold: FoldDemand,
        accumulate: bool,
        return_costs: bool,
    ) -> list[CycleCost] | None:
        rows = fold.cycles
        requests = fold.requests
        worst_new = np.zeros(rows, dtype=np.int64)

        if fold.offsets.size:
            keys = self._keys_for(fold.offsets)
            num_lines1 = self.layout.num_lines + 1
            key_space = self.layout.num_banks * num_lines1
            # One global sort reproduces the reference's per-cycle
            # ascending-key walk; adjacent duplicates are distinct
            # offsets sharing a (cycle, bank, line).
            if rows * key_space <= _INT32_MAX:
                combined = fold.cycle_index.astype(np.int32) * np.int32(key_space)
                combined += keys.astype(np.int32, copy=False)
            else:
                combined = fold.cycle_index * np.int64(key_space) + keys
            combined.sort()
            keep = np.empty(combined.size, dtype=bool)
            keep[0] = True
            np.not_equal(combined[1:], combined[:-1], out=keep[1:])
            touches = combined[keep]
            self._resolve_worst_new(touches, key_space, num_lines1, worst_new)

        layout_cycles = np.maximum(1, -(-worst_new // self.layout.ports_per_bank))
        bandwidth_cycles = np.maximum(1, -(-requests // self.bandwidth_model_words))

        if accumulate:
            self.total_layout_cycles += int(layout_cycles.sum())
            self.total_bandwidth_cycles += int(bandwidth_cycles.sum())
            self.total_requests += int(requests.sum())
            self.cycles_evaluated += rows
        if not return_costs:
            return None
        return [
            CycleCost(int(r), int(l), int(b))
            for r, l, b in zip(requests, layout_cycles, bandwidth_cycles)
        ]

    # ------------------------------------------------------- hit resolution

    def _resolve_worst_new(
        self,
        touches: np.ndarray,
        key_space: int,
        num_lines1: int,
        worst_new: np.ndarray,
    ) -> None:
        """Fill per-cycle worst new-line counts; update the bank state.

        ``touches`` is the deduped, (cycle, key)-sorted stream encoded
        as ``cycle * key_space + key``.  The stream is prefixed with
        preamble touches replaying the per-bank LRU buffers carried
        from earlier calls (one synthetic negative group each, so they
        never merge with real touches), and the end-of-call state is
        re-extracted afterwards.
        """
        row_buffers = self.row_buffers_per_bank
        num_banks = key_space // num_lines1
        t_key = touches % key_space
        # cycle * num_banks + bank — group identity in one division.
        t_grp = touches // num_lines1
        pre_key_list = [
            bank * num_lines1 + line
            for bank, lines in self._bank_lines.items()
            for line in lines
        ]
        n_pre = len(pre_key_list)
        if n_pre:
            pre_keys = np.array(pre_key_list, dtype=t_key.dtype)
            key_all = np.concatenate([pre_keys, t_key])
            # One synthetic pre-cycle group per preamble touch, keyed so
            # grp % num_banks still recovers the touch's true bank.
            pre_grp = (
                np.arange(-n_pre, 0, dtype=t_grp.dtype) * num_banks
                + pre_keys // num_lines1
            )
            grp_all = np.concatenate([pre_grp, t_grp])
        else:
            key_all = t_key
            grp_all = t_grp
        n = key_all.size
        pos_dtype = np.int32 if n < _INT32_MAX else np.int64
        index = np.arange(n, dtype=pos_dtype)

        # --- (cycle, bank) groups: contiguous runs of the touch stream.
        group_start = np.empty(n, dtype=bool)
        group_start[0] = True
        np.not_equal(grp_all[1:], grp_all[:-1], out=group_start[1:])
        g_starts = group_start.nonzero()[0]

        if num_banks == 1:
            # Single bank: the stream order *is* the bank's time order.
            r = index
        else:
            # --- per-bank positions r without a touch-level sort: order
            # the (few) groups by bank, prefix-sum their sizes per bank,
            # and scatter the fused (base - start) offsets back.
            g_size = np.diff(np.append(g_starts, n))
            g_id = np.repeat(np.arange(g_starts.size, dtype=pos_dtype), g_size)
            g_bank = grp_all[g_starts] % num_banks  # group-level, cheap
            g_by_bank = np.argsort(g_bank, kind="stable")
            bank_sorted = g_bank[g_by_bank]
            b_start = np.empty(g_by_bank.size, dtype=bool)
            b_start[0] = True
            b_start[1:] = bank_sorted[1:] != bank_sorted[:-1]
            b_seg = np.cumsum(b_start) - 1
            sizes_sorted = g_size[g_by_bank]
            csum = np.cumsum(sizes_sorted) - sizes_sorted  # exclusive
            base_sorted = csum - csum[b_start.nonzero()[0]][b_seg]
            g_offset = np.empty(g_by_bank.size, dtype=pos_dtype)
            g_offset[g_by_bank] = base_sorted
            g_offset -= g_starts.astype(pos_dtype)
            r = index + g_offset[g_id]

        # --- previous occurrence of the same (bank, line), as a per-bank
        # position p (-1 when the line was never touched before).  The
        # narrowest integer view keeps the stable (radix) sort to as few
        # passes as possible.
        if key_space <= 1 << 16:
            by_key = np.argsort(key_all.astype(np.uint16), kind="stable")
        elif key_all.dtype == np.int64 and key_space <= _INT32_MAX:
            by_key = np.argsort(key_all.astype(np.int32), kind="stable")
        else:
            by_key = np.argsort(key_all, kind="stable")
        ks = key_all[by_key]
        same = ks[1:] == ks[:-1]
        r_sorted = r[by_key]
        p_sorted = np.empty(n, dtype=pos_dtype)
        p_sorted[0] = -1
        np.copyto(p_sorted[1:], r_sorted[:-1])
        p_sorted[1:][~same] = -1
        p = np.empty(n, dtype=pos_dtype)
        p[by_key] = p_sorted
        has_prev = p >= 0
        gap = r - p  # true gap + 1; only compared under has_prev

        # --- per-bank running max of p over the time order: an inclusive
        # within-group scan (p[k] equals the running max iff it beats every
        # earlier p in its group) plus a per-bank carry across groups.
        if num_banks == 1:
            tier2 = np.maximum.accumulate(p) == p
        else:
            big = np.int64(n + 4)
            shifted = p + g_id * big
            tier2 = np.maximum.accumulate(shifted) == shifted
            g_max = np.maximum.reduceat(p, g_starts)
            carry_sorted = _segmented_running_max_exclusive(
                g_max[g_by_bank], b_seg, b_start.nonzero()[0]
            )
            g_carry = np.empty(g_by_bank.size, dtype=np.int64)
            g_carry[g_by_bank] = carry_sorted
            tier2 &= p >= g_carry[g_id]

        # --- exact three-tier cascade (module docstring).
        hit = has_prev & (gap <= row_buffers)  # gap here is true gap + 1
        residual = has_prev & ~hit & ~tier2
        res_idx = residual.nonzero()[0]
        if res_idx.size:
            bank_all = key_all // num_lines1
            if num_banks <= 1 << 8:
                by_bank = np.argsort(bank_all.astype(np.uint8), kind="stable")
            elif num_banks <= 1 << 16:
                by_bank = np.argsort(bank_all.astype(np.uint16), kind="stable")
            else:
                by_bank = np.argsort(bank_all, kind="stable")
            p_seq = p[by_bank].astype(np.int64)
            bank_seq = bank_all[by_bank]
            res_gap = gap[res_idx].astype(np.int64)
            seg_first = np.searchsorted(
                bank_seq, np.arange(num_banks, dtype=bank_seq.dtype)
            ).astype(np.int64)
            gap_classes, class_counts = np.unique(res_gap, return_counts=True)
            # Dominant window lengths (periodic revisit strides) resolve
            # with one O(n) pass each; the straggler classes (typically
            # fold-boundary touches) fall to the per-touch slice count.
            # Strategy choice is by estimated work: per-touch slices cost
            # their summed window lengths, a gap-class pass costs O(n).
            dominant = class_counts >= max(64, res_idx.size // 64)
            stragglers = int(class_counts[~dominant].sum())
            total_window = int(res_gap.sum()) - res_idx.size
            if res_idx.size <= 16384 and total_window <= _WINDOW_SCAN_BUDGET:
                self._resolve_residuals_by_slice(
                    res_idx, p, r, bank_all, p_seq, seg_first, hit
                )
            elif dominant.sum() <= 32 and stragglers <= 16384:
                self._resolve_residuals_by_gap_class(
                    res_idx,
                    res_gap,
                    gap_classes[dominant],
                    p,
                    bank_all,
                    p_seq,
                    bank_seq,
                    seg_first,
                    hit,
                )
                if stragglers:
                    strag = np.isin(res_gap, gap_classes[~dominant]).nonzero()[0]
                    self._resolve_residuals_by_slice(
                        res_idx[strag], p, r, bank_all, p_seq, seg_first, hit
                    )
            else:
                # Many residuals over many window lengths: one offline
                # merge count resolves every touch's distance at once.
                seg_start = np.empty(n, dtype=bool)
                seg_start[0] = True
                seg_start[1:] = bank_seq[1:] != bank_seq[:-1]
                seg_id = np.cumsum(seg_start) - 1
                inversions = _count_prev_greater(
                    (p_seq + 1) + seg_id * np.int64(n + 2)
                )
                distance_seq = (gap[by_bank] - 1) - inversions
                exact_hit = np.empty(n, dtype=bool)
                exact_hit[by_bank] = distance_seq < row_buffers
                hit[residual] = exact_hit[residual]

        # --- per-(cycle, bank) new-line counts over the real groups, then
        # the per-cycle max (preamble groups are exactly the first n_pre).
        real_starts = g_starts[n_pre:]
        miss = ~hit
        new_per_group = np.add.reduceat(miss.astype(np.int32), real_starts)
        g_cyc = grp_all[real_starts] // num_banks
        c_start = np.empty(g_cyc.size, dtype=bool)
        c_start[0] = True
        c_start[1:] = g_cyc[1:] != g_cyc[:-1]
        c_starts = c_start.nonzero()[0]
        worst_new[g_cyc[c_starts]] = np.maximum.reduceat(new_per_group, c_starts)

        # --- end-of-call state: per bank, the last `row_buffers` distinct
        # lines in recency order (preamble touches included, so carried
        # state merges exactly).
        is_last = np.empty(n, dtype=bool)
        is_last[-1] = True
        is_last[:-1] = ~same
        last_global = by_key[is_last]
        lg_key = key_all[last_global]
        order = np.argsort(
            (lg_key // num_lines1) * np.int64(n + 1) + last_global, kind="stable"
        )
        lg = last_global[order]
        lg_key = key_all[lg]
        lg_bank = lg_key // num_lines1
        lg_line = lg_key % num_lines1
        lb_start = np.empty(lg.size, dtype=bool)
        lb_start[0] = True
        lb_start[1:] = lg_bank[1:] != lg_bank[:-1]
        bounds = lb_start.nonzero()[0].tolist() + [lg.size]
        state: dict[int, list[int]] = {}
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            keep_lo = max(lo, hi - row_buffers)
            state[int(lg_bank[lo])] = lg_line[keep_lo:hi].tolist()
        self._bank_lines = state

    def _resolve_residuals_by_slice(
        self,
        res_idx: np.ndarray,
        p: np.ndarray,
        r: np.ndarray,
        bank_all: np.ndarray,
        p_seq: np.ndarray,
        seg_first: np.ndarray,
        hit: np.ndarray,
    ) -> None:
        """Resolve residual windows with one contiguous slice count each.

        ``D = #{j in window : p[j] <= p[k]}`` — the first-in-window
        touches are exactly the distinct lines.
        """
        row_buffers = self.row_buffers_per_bank
        starts = seg_first[bank_all[res_idx]]
        for t, start, lo_t in zip(
            res_idx.tolist(), starts.tolist(), p[res_idx].tolist()
        ):
            window = p_seq[start + lo_t + 1 : start + int(r[t])]
            hit[t] = int(np.count_nonzero(window <= lo_t)) < row_buffers

    def _resolve_residuals_by_gap_class(
        self,
        res_idx: np.ndarray,
        res_gap: np.ndarray,
        gap_classes: np.ndarray,
        p: np.ndarray,
        bank_all: np.ndarray,
        p_seq: np.ndarray,
        bank_seq: np.ndarray,
        seg_first: np.ndarray,
        hit: np.ndarray,
    ) -> None:
        """Resolve residual windows exactly, one O(n) pass per window length.

        Periodic systolic traces revisit lines at a handful of fixed
        strides, so residual touches cluster into very few distinct gap
        values.  For one gap ``g`` every query is a length-(g-1)
        sliding window, and the distinct-line count of *every* window
        start resolves offline: per-bank position ``j`` is
        first-in-window (``p[j] <= s``) for exactly the window starts
        ``s in [max(p[j], j - g + 1), j - 1]``, so two ``bincount``
        difference arrays plus one ``cumsum`` yield
        ``D(s) = #{first-in-window touches}`` for all ``s`` at once.
        Queries then gather their window start's count.
        """
        n = p_seq.size
        row_buffers = self.row_buffers_per_bank
        index = np.arange(n, dtype=np.int64)
        seg_start_j = seg_first[bank_seq]  # global start of each touch's bank
        # Class-independent interval floor: the window start can never
        # precede the line's previous touch or the segment start.
        floor = seg_start_j + np.maximum(p_seq, 0)
        q_pos = seg_first[bank_all[res_idx]] + p[res_idx]  # window starts, global
        for g in gap_classes.tolist():
            sel = (res_gap == g).nonzero()[0]
            lo = np.maximum(floor, index - g + 1)
            valid = lo < index  # interval [lo, j - 1] non-empty
            add = np.bincount(lo[valid], minlength=n)
            sub = np.bincount(index[valid], minlength=n)
            counts = np.cumsum(add[:n] - sub[:n])
            hit[res_idx[sel]] = counts[q_pos[sel]] < row_buffers

"""Bank-conflict evaluation: per-cycle request sets -> access latency.

For every compute cycle the array requests a set of elements.  Each bank
serves its requests from ``row_buffers`` open-line buffers (the 'bank
size' knob of Section VII-C): a request to an already-open line is a
buffered hit, while each newly-opened line costs one of the bank's
``ports_per_bank`` accesses for the cycle::

    cost = max(1, max_over_banks ceil(new_lines_in_bank / ports))

SCALE-Sim v2's pure bandwidth model instead charges
``ceil(requests / total_bandwidth)``.  The slowdown the paper plots
(Figures 12/13) is the ratio of the two totals minus one, which can be
negative: an open line delivers many elements per access, so well-laid-
out requests beat the flat bandwidth assumption.

Like the DRAM datapath (:mod:`repro.dram.engine`), the evaluation has
two bit-identical implementations:

* :class:`BankConflictEvaluator` — the scalar semantics, one compute
  cycle at a time with per-bank ``OrderedDict`` LRUs.  It is the
  executable specification every other evaluator is validated against.
* :class:`repro.layout.conflict_vectorized.VectorizedConflictEvaluator`
  — the vectorized evaluator (offline LRU stack distances over whole
  demand matrices), exact to the reference bit for bit.  Every layout
  study runs it; the equivalence fuzzes construct the reference
  directly.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import LayoutError
from repro.layout.spec import LayoutSpec
from repro.utils.math import ceil_div

@dataclass(frozen=True)
class CycleCost:
    """Cost of serving one cycle's requests under both models."""

    requests: int
    layout_cycles: int
    bandwidth_cycles: int


@dataclass(frozen=True)
class FoldDemand:
    """Layout-independent demand artifact for one demand-matrix feed.

    Everything a conflict evaluator needs that does *not* depend on the
    layout under test, precomputed once so a whole grid of evaluator
    configurations can consume the same fold (the trace fan-out of
    :func:`repro.layout.integrate.evaluate_layout_slowdown_many`):

    * ``cycles`` / ``requests`` — the matrix's row count and the raw
      (pre-dedup) valid-request count per row, which the flat bandwidth
      model charges.
    * ``cycle_index`` / ``offsets`` — the per-cycle demand stream,
      sorted by (cycle, offset) and deduplicated per cycle.  Equal
      offsets share a (bank, line) under every layout, so this dedup is
      layout-independent; evaluators still dedup per-cycle *keys* (two
      distinct offsets may share a line).

    Feeding an evaluator through :meth:`BankConflictEvaluator.
    add_fold_demand` is bit-identical to feeding it the raw matrix
    through ``add_demand_matrix`` — for the reference and the
    vectorized implementation alike, which is what keeps the
    cross-evaluator fuzz meaningful for the fan-out path.
    """

    cycles: int
    requests: np.ndarray  # (cycles,) int64 raw request counts
    cycle_index: np.ndarray  # (n,) int64, non-decreasing
    offsets: np.ndarray  # (n,) int64 tensor-local offsets

    @property
    def total_requests(self) -> int:
        """Raw requests across the fold (pre-dedup)."""
        return int(self.requests.sum())

    @classmethod
    def concat(cls, folds: Sequence["FoldDemand"]) -> "FoldDemand":
        """Join consecutive folds into one artifact, in order.

        Each fold's ``cycle_index`` shifts by the cycles before it, so
        the joined stream stays sorted by (cycle, offset).  Evaluating
        it is bit-identical to evaluating the folds one call at a time:
        evaluators carry their per-bank LRU state across calls, so
        either way they see the same cycle sequence.  A lone fold is
        returned as is, uncopied.
        """
        if len(folds) == 1:
            return folds[0]
        cycles = 0
        cycle_index = []
        for fold in folds:
            cycle_index.append(fold.cycle_index + cycles)
            cycles += fold.cycles
        return cls(
            cycles=cycles,
            requests=np.concatenate([fold.requests for fold in folds]),
            cycle_index=np.concatenate(cycle_index),
            offsets=np.concatenate([fold.offsets for fold in folds]),
        )


def build_fold_demand(
    demand: np.ndarray, base_offset: int = 0, dedup: bool = True
) -> "FoldDemand":
    """Extract the layout-independent artifact from a demand matrix.

    Entries below zero are bubbles; ``base_offset`` is subtracted to
    convert operand-region addresses to tensor-local offsets (exactly
    as ``add_demand_matrix`` would).

    ``dedup=False`` skips the (cycle, offset) sort and per-cycle offset
    dedup, leaving the stream in raw matrix order (still grouped by
    cycle).  Evaluation is bit-identical either way — evaluators dedup
    per-cycle *keys* regardless — so single-consumer feeds use the
    cheap form while fan-outs pay the one sort that every
    configuration then shares.
    """
    demand = np.asarray(demand, dtype=np.int64)
    if demand.ndim != 2:
        raise LayoutError(f"demand matrix must be 2-D, got shape {demand.shape}")
    rows = demand.shape[0]
    valid = demand >= 0
    if demand.size:
        requests = valid.sum(axis=1, dtype=np.int64)
    else:
        requests = np.zeros(rows, dtype=np.int64)
    offsets = demand[valid]
    if base_offset:
        offsets -= base_offset  # demand[valid] is already a copy
    if not offsets.size:
        return FoldDemand(
            cycles=rows,
            requests=requests,
            cycle_index=np.empty(0, dtype=np.int64),
            offsets=offsets,
        )
    if not dedup:
        return FoldDemand(
            cycles=rows,
            requests=requests,
            cycle_index=np.repeat(np.arange(rows, dtype=np.int64), requests),
            offsets=offsets,
        )
    # One packed sort yields the (cycle, offset) order and the per-cycle
    # offset dedup in a handful of array passes.
    lo = int(offsets.min())
    span = int(offsets.max()) - lo + 1
    if rows * span >= np.iinfo(np.int64).max:
        raise LayoutError(
            f"demand matrix too large to pack: {rows} cycles x offset span {span}"
        )
    combined = np.repeat(np.arange(rows, dtype=np.int64) * span, requests)
    combined += offsets - lo
    combined.sort()
    keep = np.empty(combined.size, dtype=bool)
    keep[0] = True
    np.not_equal(combined[1:], combined[:-1], out=keep[1:])
    combined = combined[keep]
    return FoldDemand(
        cycles=rows,
        requests=requests,
        cycle_index=combined // span,
        offsets=combined % span + lo,
    )


class BankConflictEvaluator:
    """Accumulates per-cycle costs for a layout and a bandwidth budget.

    Args:
        layout: the banked-SRAM layout under evaluation.
        bandwidth_model_words: words/cycle assumed by the flat model.
        row_buffers_per_bank: open-line buffers per bank (LRU); lines in
            a buffer are re-read for free on later cycles.
    """

    def __init__(
        self,
        layout: LayoutSpec,
        bandwidth_model_words: int,
        row_buffers_per_bank: int = 4,
    ) -> None:
        if bandwidth_model_words < 1:
            raise LayoutError(
                f"bandwidth_model_words must be >= 1, got {bandwidth_model_words}"
            )
        if row_buffers_per_bank < 1:
            raise LayoutError(
                f"row_buffers_per_bank must be >= 1, got {row_buffers_per_bank}"
            )
        self.layout = layout
        self.bandwidth_model_words = bandwidth_model_words
        self.row_buffers_per_bank = row_buffers_per_bank
        self.total_layout_cycles = 0
        self.total_bandwidth_cycles = 0
        self.total_requests = 0
        self.cycles_evaluated = 0
        # Per-bank LRU of open line ids.
        self._open_lines: dict[int, OrderedDict[int, None]] = {}

    def _bank_buffer(self, bank: int) -> OrderedDict[int, None]:
        if bank not in self._open_lines:
            self._open_lines[bank] = OrderedDict()
        return self._open_lines[bank]

    def cost_of_cycle(self, offsets: np.ndarray) -> CycleCost:
        """Cost of one cycle's element requests (flat offsets).

        Updates the per-bank open-line state as a side effect.
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        requests = int(offsets.size)
        if requests == 0:
            return CycleCost(0, 1, 1)
        return self._cost_of_deduped_cycle(offsets, requests)

    def _cost_of_deduped_cycle(self, offsets: np.ndarray, requests: int) -> CycleCost:
        """One cycle's cost from (possibly pre-deduplicated) offsets.

        ``requests`` is the raw request count the bandwidth model
        charges; the LRU walk dedups per-cycle keys anyway, so feeding
        offset-deduplicated streams (``FoldDemand``) is bit-exact.
        """
        line_id, _, bank_id = self.layout.locate(offsets)
        keys = bank_id * (self.layout.num_lines + 1) + line_id
        unique_keys = np.unique(keys)

        worst_new = 0
        per_bank_new: dict[int, int] = {}
        for key in unique_keys.tolist():
            bank = key // (self.layout.num_lines + 1)
            line = key % (self.layout.num_lines + 1)
            buffer = self._bank_buffer(bank)
            if line in buffer:
                buffer.move_to_end(line)
                continue
            buffer[line] = None
            while len(buffer) > self.row_buffers_per_bank:
                buffer.popitem(last=False)
            per_bank_new[bank] = per_bank_new.get(bank, 0) + 1
        if per_bank_new:
            worst_new = max(per_bank_new.values())

        layout_cycles = max(1, ceil_div(worst_new, self.layout.ports_per_bank)) if worst_new else 1
        bandwidth_cycles = max(1, ceil_div(requests, self.bandwidth_model_words))
        return CycleCost(requests, layout_cycles, bandwidth_cycles)

    def add_cycle(self, offsets: np.ndarray) -> CycleCost:
        """Evaluate and accumulate one cycle."""
        cost = self.cost_of_cycle(offsets)
        self.total_layout_cycles += cost.layout_cycles
        self.total_bandwidth_cycles += cost.bandwidth_cycles
        self.total_requests += cost.requests
        self.cycles_evaluated += 1
        return cost

    def add_demand_matrix(
        self,
        demand: np.ndarray,
        base_offset: int = 0,
        return_costs: bool = False,
    ) -> list[CycleCost] | None:
        """Evaluate every row of a (cycles x ports) demand matrix.

        Entries below zero are bubbles; ``base_offset`` is subtracted to
        convert operand-region addresses to tensor-local offsets.  With
        ``return_costs`` the per-cycle :class:`CycleCost` stream is
        returned (used by the cross-evaluator equivalence fuzz).
        """
        demand = np.asarray(demand)
        costs: list[CycleCost] | None = [] if return_costs else None
        for row in demand:
            valid = row[row >= 0]
            if valid.size:
                cost = self.add_cycle(valid - base_offset)
            else:
                cost = CycleCost(0, 1, 1)
                self.total_layout_cycles += 1
                self.total_bandwidth_cycles += 1
                self.cycles_evaluated += 1
            if costs is not None:
                costs.append(cost)
        return costs

    def add_fold_demand(
        self, fold: FoldDemand, return_costs: bool = False, repeats: int = 1
    ) -> list[CycleCost] | None:
        """Evaluate ``repeats`` consecutive copies of one fold's artifact.

        Bit-identical to feeding the raw matrix through
        :meth:`add_demand_matrix` ``repeats`` times: the artifact's
        per-cycle offset dedup never changes the per-cycle key set, and
        the raw request counts it carries keep the bandwidth model
        exact.  Every copy is walked cycle by cycle.
        """
        costs: list[CycleCost] | None = [] if return_costs else None
        bounds = np.searchsorted(
            fold.cycle_index, np.arange(fold.cycles + 1, dtype=np.int64)
        )
        for _ in range(repeats):
            for row in range(fold.cycles):
                raw = int(fold.requests[row])
                if raw:
                    cost = self._cost_of_deduped_cycle(
                        fold.offsets[bounds[row] : bounds[row + 1]], raw
                    )
                    self.total_layout_cycles += cost.layout_cycles
                    self.total_bandwidth_cycles += cost.bandwidth_cycles
                    self.total_requests += cost.requests
                    self.cycles_evaluated += 1
                else:
                    cost = CycleCost(0, 1, 1)
                    self.total_layout_cycles += 1
                    self.total_bandwidth_cycles += 1
                    self.cycles_evaluated += 1
                if costs is not None:
                    costs.append(cost)
        return costs

    @property
    def slowdown(self) -> float:
        """Layout-model total over bandwidth-model total, minus one."""
        if self.total_bandwidth_cycles == 0:
            return 0.0
        return self.total_layout_cycles / self.total_bandwidth_cycles - 1.0

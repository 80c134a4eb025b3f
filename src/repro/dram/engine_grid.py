"""GridBatchedEngine: one vectorized stall walk for a whole ``dram.*`` grid.

The fifth engine-seam instance (see DESIGN.md): where
:class:`~repro.dram.engine_batched.BatchedEngine` replaced the per-line
Python loop with array passes over one config's line batches, this
module promotes the *config* to an extra array axis.  A pure ``dram.*``
grid shares one compute plan and one line stream per word size
(PR 5's fan-out), so the only per-config work left is the stall walk —
and those walks are data-parallel over identical line sequences.
:func:`resolve_plan_grid` is the one production DRAM walk: every
DRAM-enabled config resolves as a member of the grid for its word
size, a lone config (``Simulator.run``, a service job, a lone word size
in a sweep) as a one-config grid.

The stall walk itself is :func:`repro.dram.vector_pass.resolve_vector_pass`,
the one vector pass a lone :class:`BatchedEngine` also runs (as a
1-participant pass); its module docstring derives the scans and the
offset-flattened state layout that lets ragged geometries share them.
One pass walks one block sequence with one set of timing constants, so
it needs one (read, write) queue depth, one DRAM timing and one issue
rate: the grid splits its configs into pass classes
(:func:`pass_classes`), and each class resolves as its own pass.
Here each config keeps its own :class:`BatchedEngine` as the canonical
state owner.  Per batch, each config first takes its own dispatch
(:meth:`BatchedEngine._dispatch`), exactly as it would alone; the rest
of each pass class resolve together in one pass whose per-config rows
are element-for-element the walk of that config alone, so how configs
split into passes changes no result.  The whole thing is pinned to
:class:`~repro.dram.engine.ReferenceEngine` by
``tests/dram/test_grid_engine_equivalence.py``.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.config.system import SystemConfig
from repro.dram import fanout
from repro.dram.backend import make_ramulator
from repro.dram.engine import BatchResult, LineRequestBatch
from repro.dram.engine_batched import BatchedEngine, issue_order_arrays
from repro.dram.timing import DramTiming, get_timing_preset
from repro.dram.vector_pass import VectorParams, resolve_vector_pass
from repro.errors import DramError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.simulator import ComputePlan, RunResult


def pass_classes(configs: Sequence[SystemConfig]) -> list[list[int]]:
    """Indices of ``configs`` grouped into vector-pass classes.

    A class shares one (read, write) queue depth, one
    :class:`~repro.dram.timing.DramTiming` and one issue rate, the
    preconditions of :class:`VectorParams`.  Classes come in
    first-appearance order; each is one vector pass of
    :class:`GridBatchedEngine`.
    """
    classes: dict[tuple[int, int, DramTiming, int], list[int]] = {}
    for index, config in enumerate(configs):
        dram = config.dram
        key = (
            dram.read_queue_entries,
            dram.write_queue_entries,
            get_timing_preset(dram.technology),
            dram.issue_per_cycle,
        )
        classes.setdefault(key, []).append(index)
    return list(classes.values())


def grid_partition(configs: Sequence[SystemConfig]) -> dict[int, list[list[int]]]:
    """The grid passes of ``configs``: word size first, then pass class.

    Maps the word size of every DRAM-enabled config (one line stream,
    one :class:`GridBatchedEngine`), ascending, to its pass classes as
    indices into ``configs``; a lone config is a one-config grid.
    DRAM-disabled configs take no grid.
    """
    groups: dict[int, list[int]] = {}
    for index, config in enumerate(configs):
        if config.dram.enabled:
            groups.setdefault(config.arch.word_bytes, []).append(index)
    return {
        word: [
            [members[i] for i in cls]
            for cls in pass_classes([configs[i] for i in members])
        ]
        for word, members in sorted(groups.items())
    }


class GridBatchedEngine:
    """A grid of batched engines resolved by one vector pass per pass class.

    ``configs`` must all be DRAM-enabled and share ``arch.word_bytes``
    (they consume one line stream).  :meth:`process_batch`
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
                "one grid pass shares one line stream"
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
        self._classes = [
            (members, VectorParams([self.engines[i] for i in members]))
            for members in pass_classes(configs)
        ]

    # ------------------------------------------------------------- protocol

    def process_batch(
        self, batch: LineRequestBatch, issue_cycles: Sequence[int]
    ) -> list[BatchResult]:
        """Issue every line of ``batch`` into every config's datapath.

        ``issue_cycles`` carries one issue cycle per config.  Each config
        takes its own engine's dispatch first; the configs left for the
        vector pass resolve together, one pass per pass class.
        """
        engines = self.engines
        if len(issue_cycles) != len(engines):
            raise DramError(
                f"{len(issue_cycles)} issue cycles for {len(engines)} configs"
            )
        results: list[BatchResult | None] = []
        rest: dict[int, int] = {}  # config index -> clock0, vector pass needed
        for index, (engine, cycle) in enumerate(zip(engines, issue_cycles)):
            result, clock0 = engine._dispatch(batch, int(cycle))
            results.append(result)
            if result is None:
                rest[index] = clock0
        if not rest:
            return results  # type: ignore[return-value]
        lines, is_write = issue_order_arrays(batch)
        for members, params in self._classes:
            left = [index for index in members if index in rest]
            if not left:
                continue
            part = [engines[index] for index in left]
            if len(left) < len(members):
                params = (
                    part[0].vector_params() if len(part) == 1 else VectorParams(part)
                )
            for index, result in zip(
                left,
                resolve_vector_pass(
                    params, part, lines, is_write, [rest[i] for i in left]
                ),
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


def resolve_plan_grid(
    plan: "ComputePlan", configs: Sequence[SystemConfig]
) -> list["RunResult"]:
    """Grid stall resolution: walk one plan against many DRAM configs.

    The production DRAM walk, for a grid of one config too; the
    config-axis twin of the reference walk
    :func:`repro.core.simulator.resolve_plan`.  One
    :class:`GridBatchedEngine` replays the double-buffer fold walk with
    per-config clock vectors, issuing each fold's line batch into every
    datapath at once.  The batches are chopped from the plan's fetches
    as the walk reaches each fold, through the module attribute
    :func:`repro.dram.fanout.prepare_line_batch`, so a run holds one
    fold's line stream at a time.  Results are bit-identical to
    resolving each config alone.
    """
    from repro.core.simulator import LayerResult, RunResult
    from repro.memory.double_buffer import MemoryTimeline

    configs = list(configs)
    engine = GridBatchedEngine(configs)
    word_bytes = configs[0].arch.word_bytes
    num = len(configs)
    results = [
        RunResult(run_name=config.run.run_name, topology_name=plan.topology_name)
        for config in configs
    ]
    clocks = [0] * num
    for compute in plan.computes:
        folds = len(compute.fold_specs)
        stalls_before = engine.backpressure_stalls()
        if not folds:
            timelines = [MemoryTimeline(0, 0, 0, 0) for _ in range(num)]
        else:
            # The double-buffer recurrence of DoubleBufferMemory.run with
            # the clocks as per-config vectors: fold i+1's fetches issue
            # when fold i starts computing, at max(its clock, its data).
            prepare = fanout.prepare_line_batch
            pending = iter(compute.fold_specs)
            first = [
                r.ready_cycle
                for r in engine.process_batch(prepare(next(pending), word_bytes), clocks)
            ]
            clock_l, ready = first, first
            cycles = compute.fold_specs.cycles
            for fetches in pending:
                start = [cl if cl > rv else rv for cl, rv in zip(clock_l, ready)]
                ready = [
                    r.ready_cycle
                    for r in engine.process_batch(prepare(fetches, word_bytes), start)
                ]
                clock_l = [st + cycles for st in start]
            # Compute cycles plus cold start plus stalls fill the layer,
            # so the stalls are what the other two leave.
            ends = [(cl if cl > rv else rv) + cycles for cl, rv in zip(clock_l, ready)]
            busy = cycles * folds
            timelines = [
                MemoryTimeline(
                    compute_cycles=busy,
                    total_cycles=end - ck,
                    stall_cycles=end - rv0 - busy,
                    cold_start_cycles=rv0 - ck,
                )
                for end, rv0, ck in zip(ends, first, clocks)
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


__all__ = ["GridBatchedEngine", "grid_partition", "pass_classes", "resolve_plan_grid"]

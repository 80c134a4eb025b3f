"""GridBatchedEngine: one vectorized stall walk for a whole ``dram.*`` grid.

The fifth engine-seam instance (see DESIGN.md): where
:class:`~repro.dram.engine_batched.BatchedEngine` replaced the per-line
Python loop with array passes over one config's line batches, this
module promotes the *config* to an extra array axis.  A pure ``dram.*``
grid shares one compute plan and one decoded line stream per word size
(PR 5's fan-out), so the only per-config work left is the stall walk —
and those walks are data-parallel over identical line sequences.

The stall walk itself is :func:`repro.dram.vector_pass.resolve_vector_pass`,
the one vector pass a lone :class:`BatchedEngine` also runs (as a
1-participant pass); its module docstring derives the scans and the
offset-flattened state layout that lets ragged geometries share them.
Here each config keeps its own :class:`BatchedEngine` as the canonical
state owner.  Per batch, configs a closed-form fast path accepts
(single-stream bursts, the saturated affine steady state) take it *per
config* — each locks into its own ``completion[i - Q]`` recurrence
exactly as it would alone — small batches run each config's scalar
loop, and the rest resolve together in one pass whose per-config
segments are element-for-element the walk of that config alone.  The
whole thing is pinned to :class:`~repro.dram.engine.ReferenceEngine`
by ``tests/dram/test_grid_engine_equivalence.py``.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.config.system import SystemConfig
from repro.core.compute_sim import schedule_cycles
from repro.dram.backend import make_ramulator
from repro.dram.engine import BatchResult, LineRequestBatch
from repro.dram.engine_batched import BatchedEngine, issue_order_arrays
from repro.dram.vector_pass import VectorParams, resolve_vector_pass
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
        self._params = VectorParams(self.engines)

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
            else:
                part = [engines[index] for index in rest]
                if len(part) == len(engines):
                    params = self._params
                elif len(part) == 1:
                    params = part[0].vector_params()
                else:
                    params = VectorParams(part)
                lines, is_write = issue_order_arrays(batch)
                for index, result in zip(
                    rest, resolve_vector_pass(params, part, lines, is_write, clock0s)
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

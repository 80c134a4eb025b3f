"""Single-core end-to-end simulator: compute + memory (+ DRAM).

:class:`Simulator` wires the compute model to a memory backend chosen by
the configuration:

* ``dram.enabled == False`` — v2 semantics: ideal-bandwidth interface.
* ``dram.enabled == True`` — v3 semantics: RamulatorLite with finite
  read/write request queues; stalls appear whenever a fold's data is not
  resident in the double buffer in time.

The run is split at an explicit seam (see DESIGN.md "The DRAM
fan-out"):

* the **compute plan** (:class:`ComputePlan`, built by
  :meth:`Simulator.plan`) — per-layer fold schedules plus closed-form
  stats, a pure function of (topology, array, dataflow, SRAM sizes)
  that no ``dram.*`` knob can affect.  Plans are memoized per process
  (:func:`layer_compute`), so repeated layers and repeated sweep points
  never rebuild identical schedules;
* the **stall resolution** — the only part that differs across a
  ``dram.*`` grid.  :func:`repro.dram.fanout.simulate_many_dram`
  resolves a plan against any number of configs, one of them included
  (:meth:`Simulator.run`): DRAM configs through the grid walk
  (:func:`repro.dram.engine_grid.resolve_plan_grid`), DRAM-disabled ones
  in closed form.  :func:`resolve_plan` walks one plan fold by fold
  against one concrete backend; it is the reference walk the fuzzes
  hold the grid walk to.

Layout slowdown and energy are layered on top by their feature packages
(:mod:`repro.layout`, :mod:`repro.energy`) and the high-level driver in
:mod:`repro.run.runner`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from repro.config.system import ArchitectureConfig, SystemConfig
from repro.core.compute_sim import ComputeSimulator, LayerComputeResult
from repro.core.dataflow import Dataflow
from repro.core.report import (
    write_bandwidth_report,
    write_compute_report,
    write_detailed_report,
)
from repro.dram.backend import DramBackend
from repro.dram.dram_sim import DramStats
from repro.dram.fanout import simulate_many_dram
from repro.memory.double_buffer import DoubleBufferMemory, MemoryBackend, MemoryTimeline
from repro.store.artifact_store import active_store, canonical_artifact, content_address
from repro.topology.layer import Layer
from repro.topology.topology import Topology


@dataclass
class LayerResult:
    """One layer's resolved compute + memory outcome.

    ``backpressure_stall_cycles`` counts front-end issue cycles lost to
    full request queues while this layer's traffic was in flight;
    ``drain_cycles`` is how far the layer's last in-flight transaction
    (typically writebacks) completed past the layer's compute end.
    """

    layer_name: str
    compute: LayerComputeResult
    timeline: MemoryTimeline
    backpressure_stall_cycles: int = 0
    drain_cycles: int = 0

    @property
    def total_cycles(self) -> int:
        """End-to-end cycles including stalls and cold start."""
        return self.timeline.total_cycles

    @property
    def compute_cycles(self) -> int:
        """Pure compute cycles (Eq. 1)."""
        return self.compute.compute_cycles

    @property
    def stall_cycles(self) -> int:
        """Mid-run stalls (excludes the cold-start fill)."""
        return self.timeline.stall_cycles

    @property
    def stall_fraction(self) -> float:
        """Stall + cold-start cycles over total cycles."""
        return self.timeline.stall_fraction


@dataclass
class RunResult:
    """Results for a whole topology."""

    run_name: str
    topology_name: str
    layers: list[LayerResult] = field(default_factory=list)
    dram_stats: DramStats | None = None

    @property
    def total_cycles(self) -> int:
        """Sum of per-layer end-to-end cycles."""
        return sum(layer.total_cycles for layer in self.layers)

    @property
    def total_compute_cycles(self) -> int:
        """Sum of per-layer compute cycles."""
        return sum(layer.compute_cycles for layer in self.layers)

    @property
    def total_stall_cycles(self) -> int:
        """Sum of per-layer stall + cold-start cycles."""
        return sum(
            layer.stall_cycles + layer.timeline.cold_start_cycles for layer in self.layers
        )

    @property
    def total_macs(self) -> int:
        """Dense MAC count across layers."""
        return sum(layer.compute.macs for layer in self.layers)

    def layer_named(self, name: str) -> LayerResult:
        """Look up one layer's result."""
        for layer in self.layers:
            if layer.layer_name == name:
                return layer
        raise KeyError(f"no layer {name!r} in run {self.run_name!r}")

    def write_reports(self, out_dir: str | Path) -> list[Path]:
        """Emit the three classic SCALE-Sim CSV reports."""
        out = Path(out_dir) / self.run_name
        return [
            write_compute_report(self.layers, out),
            write_bandwidth_report(self.layers, out),
            write_detailed_report(self.layers, out),
        ]


@dataclass(frozen=True)
class ComputePlan:
    """DRAM-independent compute schedules for one topology.

    The plan is the fan-out artifact of the memory system (the fourth
    engine-seam instance, after ``FoldDemand`` for layouts): per-layer
    :class:`LayerComputeResult` records — fold schedules, fetch plans
    and closed-form stats — built once and resolvable against any
    number of memory backends via :func:`resolve_plan` /
    :func:`repro.dram.fanout.simulate_many_dram`.

    ``signature`` pins the compute-relevant architecture knobs (array
    shape, dataflow, SRAM working sizes); a config whose signature
    differs would produce a different fold schedule and must not reuse
    this plan.
    """

    topology_name: str
    signature: tuple
    computes: tuple[LayerComputeResult, ...]

    @property
    def total_folds(self) -> int:
        """Fold schedules across all layers."""
        return sum(len(compute.fold_specs) for compute in self.computes)


def plan_signature(arch: ArchitectureConfig) -> tuple:
    """The compute-schedule identity of an architecture config.

    Two configs with equal signatures produce bit-identical
    :class:`ComputePlan` schedules for any topology — ``dram.*`` (and
    every other non-arch section) never enters.  The fields are
    :class:`ComputeSimulator`'s arguments, in its order.
    """
    return (
        arch.array_rows,
        arch.array_cols,
        Dataflow.parse(arch.dataflow),
        arch.ifmap_sram_words(),
        arch.filter_sram_words(),
        arch.ofmap_sram_words(),
    )


def layer_compute_store_key(layer: Layer, signature: tuple) -> str:
    """Artifact-store content address of one layer's compute schedule.

    Exactly the :func:`plan_signature` knobs plus the layer itself — the
    full input set of :func:`layer_compute` — so equal keys imply
    bit-identical schedules across processes and sessions.
    """
    rows, cols, dataflow, ifmap_words, filter_words, ofmap_words = signature
    return content_address(
        "layer_compute",
        {
            "layer": canonical_artifact(layer),
            "dataflow": str(dataflow),
            "array_rows": rows,
            "array_cols": cols,
            "ifmap_sram_words": ifmap_words,
            "filter_sram_words": filter_words,
            "ofmap_sram_words": ofmap_words,
        },
    )


@lru_cache(maxsize=64)
def layer_compute(layer: Layer, signature: tuple) -> LayerComputeResult:
    """Memoized per-layer compute simulation (fold schedule included).

    Keyed on the layer plus its :func:`plan_signature`, every knob that
    can change the schedule, so repeated layers across sweep points —
    and the single-layer topologies of the fig9/fig10-style studies —
    are planned once per worker process.  On an LRU miss the active
    artifact store (when one is installed — see :mod:`repro.store`) is
    consulted before any scheduling happens, so a cold process loads
    plans instead of re-scheduling.  The returned record is shared
    between callers and must be treated as immutable (consumers that
    need to drop ``fold_specs`` copy via ``dataclasses.replace``).
    """
    store = active_store()
    if store is not None:
        key = layer_compute_store_key(layer, signature)
        cached = store.get("layer_compute", key)
        if cached is not None:
            return cached  # type: ignore[return-value]
    result = ComputeSimulator(*signature).simulate_layer(layer)
    if store is not None:
        store.put("layer_compute", key, result)
    return result


def clear_compute_plan_cache() -> None:
    """Drop every memoized layer plan (tests and timing harnesses)."""
    layer_compute.cache_clear()


def resolve_plan(
    plan: ComputePlan,
    backend: MemoryBackend,
    run_name: str,
    keep_timings: bool = False,
) -> RunResult:
    """Per-config stall resolution: walk one plan against one backend.

    Production runs DRAM configs through the grid walk
    (:func:`~repro.dram.fanout.simulate_many_dram`); this per-fold walk
    resolves the ideal-bandwidth backend (in closed form) and is the
    reference the grid walk is fuzzed against.
    """
    memory = DoubleBufferMemory(backend)
    result = RunResult(run_name=run_name, topology_name=plan.topology_name)
    clock = 0
    for compute in plan.computes:
        stalls_before = backend.stall_cycles_from_backpressure
        timeline = memory.run(
            compute.fold_specs, keep_timings=keep_timings, start_cycle=clock
        )
        clock += timeline.total_cycles
        result.layers.append(
            LayerResult(
                layer_name=compute.layer_name,
                compute=compute,
                timeline=timeline,
                backpressure_stall_cycles=backend.stall_cycles_from_backpressure
                - stalls_before,
                drain_cycles=max(0, backend.drain() - clock),
            )
        )
    if isinstance(backend, DramBackend):
        result.dram_stats = backend.dram_stats()
    return result


class Simulator:
    """End-to-end single-core simulator for a :class:`SystemConfig`."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.signature = plan_signature(config.arch)

    def plan(self, topology: Topology) -> ComputePlan:
        """Build the DRAM-independent compute plan for ``topology``.

        Each layer's schedule comes from the per-process LRU, which
        itself falls back to the active artifact store before
        re-scheduling.
        """
        return ComputePlan(
            topology_name=topology.name,
            signature=self.signature,
            computes=tuple(layer_compute(layer, self.signature) for layer in topology),
        )

    def run(self, topology: Topology) -> RunResult:
        """Simulate every layer of ``topology`` in order.

        The one-config case of :func:`repro.dram.fanout.simulate_many_dram`.
        """
        return simulate_many_dram(self.plan(topology), [self.config])[0]

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
* the **stall resolution** (:func:`resolve_plan`) — one walk of the
  plan's fold schedules against one concrete memory backend.  This is
  the only part that differs across a ``dram.*`` grid, which is what
  :func:`repro.dram.fanout.simulate_many_dram` exploits to fan a single
  plan across many backends.

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
from repro.dram.backend import DramBackend, make_ramulator
from repro.dram.dram_sim import DramStats
from repro.memory.double_buffer import (
    DoubleBufferMemory,
    IdealBandwidthBackend,
    MemoryBackend,
    MemoryTimeline,
)
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
    def num_layers(self) -> int:
        """Layers in the planned topology."""
        return len(self.computes)

    @property
    def total_folds(self) -> int:
        """Fold schedules across all layers."""
        return sum(len(compute.fold_specs) for compute in self.computes)


def plan_signature(arch: ArchitectureConfig) -> tuple:
    """The compute-schedule identity of an architecture config.

    Two configs with equal signatures produce bit-identical
    :class:`ComputePlan` schedules for any topology — ``dram.*`` (and
    every other non-arch section) never enters.
    """
    return (
        arch.array_rows,
        arch.array_cols,
        Dataflow.parse(arch.dataflow),
        arch.ifmap_sram_words(),
        arch.filter_sram_words(),
        arch.ofmap_sram_words(),
    )


def layer_compute_store_key(
    layer: Layer,
    dataflow: Dataflow,
    array_rows: int,
    array_cols: int,
    ifmap_sram_words: int,
    filter_sram_words: int,
    ofmap_sram_words: int,
) -> str:
    """Artifact-store content address of one layer's compute schedule.

    Exactly the ``plan_signature`` knobs plus the layer itself — the
    full input set of :func:`layer_compute` — so equal keys imply
    bit-identical schedules across processes and sessions.
    """
    return content_address(
        "layer_compute",
        {
            "layer": canonical_artifact(layer),
            "dataflow": str(dataflow),
            "array_rows": array_rows,
            "array_cols": array_cols,
            "ifmap_sram_words": ifmap_sram_words,
            "filter_sram_words": filter_sram_words,
            "ofmap_sram_words": ofmap_sram_words,
        },
    )


@lru_cache(maxsize=64)
def layer_compute(
    layer: Layer,
    dataflow: Dataflow,
    array_rows: int,
    array_cols: int,
    ifmap_sram_words: int,
    filter_sram_words: int,
    ofmap_sram_words: int,
) -> LayerComputeResult:
    """Memoized per-layer compute simulation (fold schedule included).

    Keyed on the layer plus every knob that can change the schedule, so
    repeated layers across sweep points — and the single-layer
    topologies of the fig9/fig10-style studies — are planned once per
    worker process.  On an LRU miss the active artifact store (when one
    is installed — see :mod:`repro.store`) is consulted before any
    scheduling happens, so a cold process loads plans instead of
    re-scheduling.  The returned record is shared between callers and
    must be treated as immutable (consumers that need to drop
    ``fold_specs`` copy via ``dataclasses.replace``).
    """
    store = active_store()
    if store is not None:
        key = layer_compute_store_key(
            layer,
            dataflow,
            array_rows,
            array_cols,
            ifmap_sram_words,
            filter_sram_words,
            ofmap_sram_words,
        )
        cached = store.get("layer_compute", key)
        if cached is not None:
            return cached  # type: ignore[return-value]
    result = ComputeSimulator(
        array_rows=array_rows,
        array_cols=array_cols,
        dataflow=dataflow,
        ifmap_sram_words=ifmap_sram_words,
        filter_sram_words=filter_sram_words,
        ofmap_sram_words=ofmap_sram_words,
    ).simulate_layer(layer)
    if store is not None:
        store.put("layer_compute", key, result)
    return result


def clear_compute_plan_cache() -> None:
    """Drop every memoized layer plan (tests and timing harnesses)."""
    layer_compute.cache_clear()


def make_memory_backend(config: SystemConfig) -> MemoryBackend:
    """Fresh memory backend for one config (state must not leak).

    The DRAM path routes line batches through the vectorized batched
    engine (tests build a :class:`DramBackend` around the scalar
    reference engine themselves).  DRAM statistics are read back
    through the backend's seam (:meth:`DramBackend.dram_stats`), never
    from the :class:`RamulatorLite` instance directly — the batched
    engine keeps its own state.
    """
    if config.dram.enabled:
        dram_cfg = config.dram
        return DramBackend(
            make_ramulator(dram_cfg),
            read_queue_entries=dram_cfg.read_queue_entries,
            write_queue_entries=dram_cfg.write_queue_entries,
            word_bytes=config.arch.word_bytes,
            max_issue_per_cycle=dram_cfg.issue_per_cycle,
        )
    return IdealBandwidthBackend(config.arch.bandwidth_words)


def resolve_plan(
    plan: ComputePlan,
    backend: MemoryBackend,
    run_name: str,
    keep_timings: bool = False,
) -> RunResult:
    """Per-config stall resolution: walk one plan against one backend."""
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
        arch = config.arch
        self.compute_sim = ComputeSimulator(
            array_rows=arch.array_rows,
            array_cols=arch.array_cols,
            dataflow=arch.dataflow,
            ifmap_sram_words=arch.ifmap_sram_words(),
            filter_sram_words=arch.filter_sram_words(),
            ofmap_sram_words=arch.ofmap_sram_words(),
        )

    def _make_backend(self) -> MemoryBackend:
        """Fresh backend per run (see :func:`make_memory_backend`)."""
        return make_memory_backend(self.config)

    def _layer_compute(self, layer: Layer) -> LayerComputeResult:
        """Memoized per-layer schedule for this simulator's architecture."""
        arch = self.config.arch
        return layer_compute(
            layer,
            self.compute_sim.dataflow,
            arch.array_rows,
            arch.array_cols,
            arch.ifmap_sram_words(),
            arch.filter_sram_words(),
            arch.ofmap_sram_words(),
        )

    def plan(self, topology: Topology) -> ComputePlan:
        """Build the DRAM-independent compute plan for ``topology``.

        Each layer's schedule comes from the per-process LRU, which
        itself falls back to the active artifact store before
        re-scheduling.
        """
        return ComputePlan(
            topology_name=topology.name,
            signature=plan_signature(self.config.arch),
            computes=tuple(self._layer_compute(layer) for layer in topology),
        )

    def run(self, topology: Topology, keep_timings: bool = False) -> RunResult:
        """Simulate every layer of ``topology`` in order."""
        return resolve_plan(
            self.plan(topology),
            self._make_backend(),
            self.config.run.run_name,
            keep_timings=keep_timings,
        )

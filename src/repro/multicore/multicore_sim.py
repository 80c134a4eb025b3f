"""Multi tensor-core simulator (paper Section III).

Combines the pieces of this package:

* the GEMM is partitioned per the configured scheme (Section III-A),
* each core runs its sub-GEMM through a per-core
  :class:`ComputeSimulator` (heterogeneous cores get their own array
  dimensions and SIMD units, Section III-C),
* the hierarchical memory check sizes the shared L2 against the
  deduplicated partitions (Section III-B),
* non-uniform NoP latencies skew per-core finish times, optionally
  rebalanced by non-uniform workload shares (Section III-D).

Layer latency is the slowest core's finish time plus the vector unit's
post-processing of the layer's outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.compute_sim import ComputeSimulator, LayerComputeResult
from repro.core.dataflow import Dataflow
from repro.errors import ConfigError, SimulationError
from repro.multicore.noc import NopLink, nonuniform_shares
from repro.multicore.partition import (
    PartitionScheme,
    l1_footprint_words,
    l2_footprint_words,
    partition_shape,
)
from repro.core.dataflow import map_gemm
from repro.multicore.simd import SimdUnit
from repro.topology.layer import GemmLayer, GemmShape, Layer
from repro.topology.topology import Topology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memory.double_buffer import MemoryBackend


@dataclass(frozen=True)
class CoreSpec:
    """One tensor core: array shape plus an optional vector unit."""

    array_rows: int
    array_cols: int
    simd: SimdUnit | None = None
    nop: NopLink | None = None

    def __post_init__(self) -> None:
        if self.array_rows < 1 or self.array_cols < 1:
            raise ConfigError(f"bad core array {self.array_rows}x{self.array_cols}")

    @property
    def num_pes(self) -> int:
        """PEs in this core's array."""
        return self.array_rows * self.array_cols


@dataclass
class CoreOutcome:
    """One core's resolved work for a layer."""

    core_index: int
    spec: CoreSpec
    compute: LayerComputeResult
    work_share: float
    compute_cycles: int
    nop_cycles: int
    simd_cycles: int
    dram_cycles: int = 0  # wait for the core's operands behind the memory seam

    @property
    def finish_cycles(self) -> int:
        """Core-local finish time."""
        return self.compute_cycles + self.nop_cycles + self.simd_cycles + self.dram_cycles


@dataclass
class MultiCoreGemmResult:
    """The whole grid's outcome for one layer."""

    layer_name: str
    shape: GemmShape
    scheme: PartitionScheme
    partitions_row: int
    partitions_col: int
    cores: list[CoreOutcome] = field(default_factory=list)
    l1_footprint_words: int = 0
    l2_footprint_words: int = 0
    l2_required_kb: float = 0.0
    l2_fits: bool = True

    @property
    def latency_cycles(self) -> int:
        """Layer latency: slowest core's finish."""
        return max(core.finish_cycles for core in self.cores)

    @property
    def num_cores(self) -> int:
        """Cores in the grid."""
        return len(self.cores)

    @property
    def total_macs(self) -> int:
        """MACs actually executed across cores (ceiling shares overlap)."""
        return sum(core.compute.macs for core in self.cores)


class MultiCoreSimulator:
    """Simulates layers over a grid of (possibly heterogeneous) cores."""

    def __init__(
        self,
        cores: list[CoreSpec],
        partitions_row: int,
        partitions_col: int,
        dataflow: Dataflow | str,
        scheme: PartitionScheme | str = PartitionScheme.SPATIAL,
        l2_sram_kb: int = 2048,
        word_bytes: int = 2,
        nonuniform: bool = False,
        memory_backend: "MemoryBackend | None" = None,
    ) -> None:
        if partitions_row * partitions_col != len(cores):
            raise ConfigError(
                f"grid {partitions_row}x{partitions_col} needs "
                f"{partitions_row * partitions_col} cores, got {len(cores)}"
            )
        self.cores = cores
        self.partitions_row = partitions_row
        self.partitions_col = partitions_col
        self.dataflow = Dataflow.parse(dataflow) if isinstance(dataflow, str) else dataflow
        self.scheme = (
            PartitionScheme.parse(scheme) if isinstance(scheme, str) else scheme
        )
        if l2_sram_kb < 1:
            raise ConfigError(f"l2_sram_kb must be >= 1, got {l2_sram_kb}")
        self.l2_sram_kb = l2_sram_kb
        self.word_bytes = word_bytes
        self.nonuniform = nonuniform
        # Optional shared main memory behind the engine seam
        # (repro.dram.engine): when set, every core's operand traffic is
        # routed through it, so cores contend for the same DRAM banks,
        # buses and request queues the single-core datapath models.
        self.memory_backend = memory_backend
        self._memory_clock = 0

    @classmethod
    def homogeneous(
        cls,
        num_cores_row: int,
        num_cores_col: int,
        array_rows: int,
        array_cols: int,
        dataflow: Dataflow | str,
        scheme: PartitionScheme | str = PartitionScheme.SPATIAL,
        simd: SimdUnit | None = None,
        l2_sram_kb: int = 2048,
    ) -> "MultiCoreSimulator":
        """Convenience constructor for a uniform grid."""
        cores = [
            CoreSpec(array_rows=array_rows, array_cols=array_cols, simd=simd)
            for _ in range(num_cores_row * num_cores_col)
        ]
        return cls(
            cores=cores,
            partitions_row=num_cores_row,
            partitions_col=num_cores_col,
            dataflow=dataflow,
            scheme=scheme,
            l2_sram_kb=l2_sram_kb,
        )

    # ------------------------------------------------------------------ API

    def simulate_layer(self, layer: Layer) -> MultiCoreGemmResult:
        """Partition and simulate one layer across the grid."""
        shape = layer.to_gemm()
        sub_shape = partition_shape(
            shape, self.dataflow, self.scheme, self.partitions_row, self.partitions_col
        )
        shares = self._work_shares(shape)

        outcomes: list[CoreOutcome] = []
        layer_start = self._memory_clock
        for index, spec in enumerate(self.cores):
            core_shape = self._scaled_shape(sub_shape, shares[index] * len(self.cores))
            sim = ComputeSimulator(
                array_rows=spec.array_rows,
                array_cols=spec.array_cols,
                dataflow=self.dataflow,
            )
            sub_layer = GemmLayer(
                name=f"{layer.name}@core{index}",
                m=core_shape.m,
                n=core_shape.n,
                k=core_shape.k,
            )
            compute = sim.simulate_layer(sub_layer)
            nop_cycles = 0
            if spec.nop is not None:
                nop_cycles = spec.nop.transfer_cycles(
                    core_shape.ifmap_words + core_shape.ofmap_words
                )
            simd_cycles = 0
            if spec.simd is not None:
                simd_cycles = spec.simd.cycles(core_shape.ofmap_words, op="relu")
            dram_cycles = 0
            if self.memory_backend is not None:
                dram_cycles = self._core_memory_cycles(index, core_shape, layer_start)
            outcomes.append(
                CoreOutcome(
                    core_index=index,
                    spec=spec,
                    compute=compute,
                    work_share=shares[index],
                    compute_cycles=compute.compute_cycles,
                    nop_cycles=nop_cycles,
                    simd_cycles=simd_cycles,
                    dram_cycles=dram_cycles,
                )
            )

        mapping = map_gemm(shape, self.dataflow)
        l1_words = l1_footprint_words(
            mapping, self.scheme, self.partitions_row, self.partitions_col
        )
        l2_words = l2_footprint_words(mapping)
        l2_required_kb = l2_words * self.word_bytes / 1024
        return MultiCoreGemmResult(
            layer_name=layer.name,
            shape=shape,
            scheme=self.scheme,
            partitions_row=self.partitions_row,
            partitions_col=self.partitions_col,
            cores=outcomes,
            l1_footprint_words=l1_words,
            l2_footprint_words=l2_words,
            l2_required_kb=l2_required_kb,
            l2_fits=l2_required_kb <= self.l2_sram_kb,
        )

    def simulate_topology(self, topology: Topology) -> list[MultiCoreGemmResult]:
        """Simulate every layer; returns per-layer results."""
        return [self.simulate_layer(layer) for layer in topology]

    def total_latency(self, topology: Topology) -> int:
        """Sum of layer latencies across a topology."""
        return sum(result.latency_cycles for result in self.simulate_topology(topology))

    # ------------------------------------------------------------ internals

    def _core_memory_cycles(
        self, core_index: int, core_shape: GemmShape, layer_start: int
    ) -> int:
        """Route one core's operand traffic through the shared memory seam.

        Each core fetches its *own* slice of the operand regions (cores
        hold disjoint partitions, so their spans are offset by the core
        index) and writes back its ofmap partition; all cores issue
        against the same backend, so a later core's DMA sees the banks,
        buses and request queues the earlier cores left busy — the
        shared-memory contention of the paper's multi-core evaluation
        (Section III-B).
        """
        from repro.core.compute_sim import TileFetch

        backend = self.memory_backend
        assert backend is not None
        fetches = (
            TileFetch(
                "ifmap", core_index * core_shape.ifmap_words, core_shape.ifmap_words
            ),
            TileFetch(
                "filter", core_index * core_shape.filter_words, core_shape.filter_words
            ),
            TileFetch(
                "ofmap",
                core_index * core_shape.ofmap_words,
                core_shape.ofmap_words,
                is_write=True,
            ),
        )
        ready = backend.complete_fetches(fetches, layer_start)
        if ready > self._memory_clock:
            self._memory_clock = ready
        return max(0, ready - layer_start)

    def _work_shares(self, shape: GemmShape) -> list[float]:
        """Per-core work fractions (uniform unless NoP-aware rebalancing)."""
        count = len(self.cores)
        throughput = [spec.num_pes for spec in self.cores]
        total_tp = sum(throughput)
        base = [tp / total_tp for tp in throughput]
        if not self.nonuniform:
            return base
        nop_lats = [spec.nop.base_latency if spec.nop else 0 for spec in self.cores]
        if not any(nop_lats):
            return base
        # Finish time of core i ~ share_i * W + base_latency_i, where W
        # bundles the workload's compute time on one core-equivalent plus
        # the full data-transfer time (both scale with the share).
        ref = max(self.cores, key=lambda s: s.num_pes)
        from repro.core.dataflow import analytical_runtime

        total_work = analytical_runtime(shape, self.dataflow, ref.array_rows, ref.array_cols)
        links = [spec.nop for spec in self.cores if spec.nop is not None]
        if links:
            words_per_cycle = links[0].words_per_cycle
            total_work += (shape.ifmap_words + shape.ofmap_words) // words_per_cycle
        if total_work <= 0:
            raise SimulationError("degenerate workload for non-uniform partitioning")
        shares = nonuniform_shares(nop_lats, total_work)
        # Blend with throughput weighting for heterogeneous grids.
        blended = [s * b * count for s, b in zip(shares, base)]
        norm = sum(blended)
        if norm <= 0:
            return base
        return [b / norm for b in blended]

    @staticmethod
    def _scaled_shape(sub_shape: GemmShape, relative_share: float) -> GemmShape:
        """Scale a core's sub-GEMM by its relative work share.

        The temporal dimension absorbs the scaling (spatial tiles are
        fixed by the partitioning); a share of zero still costs one
        column of work (the core participates in the grid handshake).
        """
        if relative_share <= 0:
            return GemmShape(m=sub_shape.m, n=1, k=sub_shape.k)
        n = max(1, round(sub_shape.n * relative_share))
        return GemmShape(m=sub_shape.m, n=n, k=sub_shape.k)

"""Multi-core traffic routed through the shared memory-datapath seam."""

from repro.dram.backend import DramBackend
from repro.dram.dram_sim import RamulatorLite
from repro.dram.engine import ReferenceEngine
from repro.multicore.multicore_sim import MultiCoreSimulator
from repro.topology.layer import GemmLayer

LAYER = GemmLayer(name="gemm", m=256, n=256, k=256)


def _shared_dram(channels: int = 1) -> DramBackend:
    """One DDR4 memory every core's DMA traffic contends for."""
    return DramBackend(ReferenceEngine(RamulatorLite(technology="ddr4", channels=channels)))


def _grid(memory_backend=None):
    return MultiCoreSimulator.homogeneous(
        num_cores_row=2,
        num_cores_col=2,
        array_rows=16,
        array_cols=16,
        dataflow="os",
    ) if memory_backend is None else MultiCoreSimulator(
        cores=MultiCoreSimulator.homogeneous(2, 2, 16, 16, "os").cores,
        partitions_row=2,
        partitions_col=2,
        dataflow="os",
        memory_backend=memory_backend,
    )


class TestWithoutBackend:
    def test_dram_cycles_zero(self):
        result = _grid().simulate_layer(LAYER)
        assert all(core.dram_cycles == 0 for core in result.cores)


class TestWithSharedBackend:
    def test_cores_wait_for_operands(self):
        backend = _shared_dram()
        result = _grid(backend).simulate_layer(LAYER)
        assert all(core.dram_cycles > 0 for core in result.cores)
        # Finish time includes the memory wait.
        core = result.cores[0]
        assert core.finish_cycles == (
            core.compute_cycles + core.nop_cycles + core.simd_cycles + core.dram_cycles
        )

    def test_shared_memory_contention_serializes_cores(self):
        backend = _shared_dram()
        result = _grid(backend).simulate_layer(LAYER)
        waits = [core.dram_cycles for core in result.cores]
        # Later cores' DMA sees a busier DRAM: waits are non-decreasing.
        assert waits == sorted(waits)
        assert waits[-1] > waits[0]

    def test_more_channels_reduce_wait(self):
        slow = _grid(
            _shared_dram()
        ).simulate_layer(LAYER)
        fast = _grid(
            _shared_dram(8)
        ).simulate_layer(LAYER)
        assert fast.latency_cycles <= slow.latency_cycles

    def test_contention_persists_across_layers(self):
        backend = _shared_dram()
        grid = _grid(backend)
        first = grid.simulate_layer(LAYER)
        second = grid.simulate_layer(LAYER)
        # The shared clock advanced: the backend kept serving traffic.
        assert backend.total_lines_read > 0
        assert second.latency_cycles >= 1
        assert first.cores[0].dram_cycles > 0

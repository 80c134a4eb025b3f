"""Design study: how much on-chip memory does a sparse core save?

Reproduces the reasoning behind the paper's Section IX-B "Sparsity"
claim: under a fixed latency budget, a 2:4 sparse core needs a much
smaller SRAM than a dense core (3.00 MB -> 768 kB in the paper).

Run with::

    python examples/sparse_accelerator_study.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.memory.double_buffer import DoubleBufferMemory, IdealBandwidthBackend
from repro.sparsity.pattern import layerwise_pattern
from repro.sparsity.report import write_sparse_report
from repro.sparsity.sparse_compute import SparseComputeSimulator
from repro.topology.layer import SparsityRatio
from repro.topology.models import resnet18

MEM_SIZES_KB = (96, 192, 384, 768, 1536, 3072)
RATIOS = ("1:4", "2:4", "4:4")
SCALE = 4
BANDWIDTH_WORDS = 16


def total_cycles(ratio: str, mem_kb: int) -> int:
    """End-to-end ResNet-18 cycles (incl. stalls) for one design point."""
    topology = resnet18(scale=SCALE).with_sparsity(ratio)
    words = mem_kb * 1024 // 2
    simulator = SparseComputeSimulator(32, 32, ifmap_sram_words=words, ofmap_sram_words=words)
    cycles = 0
    for layer in topology:
        shape = layer.to_gemm()
        pattern = layerwise_pattern(shape.m, shape.k, layer.sparsity or SparsityRatio(4, 4))
        result = simulator.simulate_layer(layer, pattern=pattern)
        memory = DoubleBufferMemory(IdealBandwidthBackend(BANDWIDTH_WORDS))
        cycles += memory.run(result.fold_specs).total_cycles
    return cycles


def main() -> None:
    print(f"ResNet-18 ({SCALE}x scale), 32x32 WS array, {BANDWIDTH_WORDS} words/cycle\n")
    print("total cycles (incl. stalls) per design point:")
    header = "  ".join(f"{kb:>7}kB" for kb in MEM_SIZES_KB)
    print(f"{'ratio':8s}{header}")
    curves = {}
    for ratio in RATIOS:
        curves[ratio] = [total_cycles(ratio, kb) for kb in MEM_SIZES_KB]
        cells = "  ".join(f"{c:>9,}" for c in curves[ratio])
        print(f"{ratio:8s}{cells}")

    # Latency-constrained design: what does each core need to hit the
    # dense core's best latency?
    budget = curves["4:4"][-1]
    print(f"\nlatency budget = dense core at {MEM_SIZES_KB[-1]} kB: {budget:,} cycles")
    for ratio in RATIOS:
        feasible = [kb for kb, c in zip(MEM_SIZES_KB, curves[ratio]) if c <= budget]
        if feasible:
            print(f"  {ratio} core meets it with {feasible[0]:>5} kB on-chip memory")
        else:
            print(f"  {ratio} core cannot meet it in this sweep")

    # Storage report for the 2:4 design.
    simulator = SparseComputeSimulator(32, 32)
    results = [
        simulator.simulate_layer(layer)
        for layer in resnet18(scale=SCALE).with_sparsity("2:4")
    ]
    path = write_sparse_report(results, "outputs/sparse_study")
    print(f"\nSPARSE_REPORT written to {path}")


if __name__ == "__main__":
    main()

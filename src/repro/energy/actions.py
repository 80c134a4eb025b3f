"""Action counting from simulation results (paper Sections VII-C/D/E).

SCALE-Sim v3 feeds Accelergy *action counts* rather than raw traces:

* **MAC** — ``mac_random = #PEs x cycles x utilization`` (== the layer's
  MAC count), the rest of the PE-cycles are ``mac_constant`` or, with
  clock gating, ``mac_gated``.
* **Scratchpads** (per Section VII-E): weights_spad writes = SRAM filter
  reads, reads = MACs; ifmap_spad writes = SRAM ifmap reads, reads =
  MACs; psum_spad reads = writes = MACs.
* **SRAM** — the repeated-access lookup: consecutive addresses within a
  'row size' block cost a cheap repeated access; with ``bank_rows`` row
  buffers the effective reuse window is ``row_size x bank_rows``.
  ``idle = cycles x array_size - accesses`` (the paper's formula).
* **DRAM** — one read/write action per word moved.
* **NoC** — one hop per SRAM<->array word.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config.system import EnergyConfig
from repro.core.simulator import LayerResult
from repro.errors import EnergyModelError
from repro.utils.math import ceil_div


@dataclass
class ActionCounts:
    """(instance -> action -> count) for one layer or one run."""

    counts: dict[str, dict[str, int]] = field(default_factory=dict)
    cycles: int = 0

    def add(self, instance: str, action: str, count: int) -> None:
        """Accumulate ``count`` actions."""
        if count < 0:
            raise EnergyModelError(f"negative count for {instance}.{action}")
        actions = self.counts.setdefault(instance, {})
        actions[action] = actions.get(action, 0) + count

    def get(self, instance: str, action: str) -> int:
        """Current count (0 if never added)."""
        return self.counts.get(instance, {}).get(action, 0)

    def merge(self, other: "ActionCounts") -> None:
        """Accumulate another layer's counts into this one."""
        for instance, actions in other.counts.items():
            for action, count in actions.items():
                self.add(instance, action, count)
        self.cycles += other.cycles


def _split_repeated(accesses: int, reuse_window: int) -> tuple[int, int]:
    """Split streaming accesses into (random, repeated).

    The first access of every ``reuse_window`` block pays the random
    cost; subsequent words in the open row are repeated accesses.
    """
    if accesses == 0:
        return 0, 0
    random = ceil_div(accesses, max(1, reuse_window))
    return random, accesses - random


def count_actions(
    result: LayerResult,
    energy: EnergyConfig,
    use_total_cycles: bool = True,
) -> ActionCounts:
    """Derive Accelergy action counts for one simulated layer."""
    compute = result.compute
    cycles = result.total_cycles if use_total_cycles else compute.compute_cycles
    cycles = max(1, cycles)
    pes = compute.array_rows * compute.array_cols
    macs = compute.macs

    counts = ActionCounts(cycles=cycles)
    pe_cycles = pes * cycles
    mac_random = min(macs, pe_cycles)
    idle_macs = pe_cycles - mac_random
    counts.add("mac", "mac_random", mac_random)
    counts.add("mac", "mac_gated" if energy.clock_gating else "mac_constant", idle_macs)

    counts.add("weights_spad", "write", compute.filter_sram_reads)
    counts.add("weights_spad", "read", macs)
    counts.add("ifmap_spad", "write", compute.ifmap_sram_reads)
    counts.add("ifmap_spad", "read", macs)
    counts.add("psum_spad", "read", macs)
    counts.add("psum_spad", "write", macs)

    reuse_window = energy.row_size_words * energy.bank_rows
    for sram, accesses, is_write in (
        ("ifmap_sram", compute.ifmap_sram_reads, False),
        ("filter_sram", compute.filter_sram_reads, False),
        ("ofmap_sram", compute.ofmap_sram_writes, True),
    ):
        random, repeated = _split_repeated(accesses, reuse_window)
        prefix = "write" if is_write else "read"
        counts.add(sram, f"{prefix}_random", random)
        counts.add(sram, f"{prefix}_repeat", repeated)
        counts.add(sram, "idle", max(0, cycles * pes - accesses))

    dram_reads = (
        compute.dram_ifmap_words
        + compute.dram_filter_words
        + compute.dram_ofmap_readback_words
    )
    counts.add("dram", "read", dram_reads)
    counts.add("dram", "write", compute.dram_ofmap_write_words)

    counts.add("noc", "hop", compute.total_sram_accesses)
    return counts

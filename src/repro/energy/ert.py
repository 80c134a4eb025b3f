"""Energy Reference Table generation (paper Section VII-A, Step 1).

Accelergy's ERT maps every (component instance, action) pair to a unit
energy.  :func:`build_ert` instantiates the paper's baseline template —
per-PE register files and MAC, plus three smart-buffer SRAMs — from the
high-level :class:`ArchitectureConfig`, exactly the role of the paper's
"YAML file generator".  The table serialises to Accelergy-compatible
YAML via :mod:`repro.energy.yaml_gen`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config.system import ArchitectureConfig, EnergyConfig
from repro.energy.components import ComponentLibrary, UnitEnergy
from repro.errors import EnergyModelError


@dataclass
class EnergyReferenceTable:
    """(instance -> UnitEnergy) with instance multiplicities."""

    technology_nm: int
    entries: dict[str, UnitEnergy] = field(default_factory=dict)
    multiplicity: dict[str, int] = field(default_factory=dict)

    def add(self, instance: str, unit: UnitEnergy, count: int = 1) -> None:
        """Register a component instance appearing ``count`` times."""
        if instance in self.entries:
            raise EnergyModelError(f"duplicate ERT instance {instance!r}")
        if count < 1:
            raise EnergyModelError(f"bad multiplicity {count} for {instance!r}")
        self.entries[instance] = unit
        self.multiplicity[instance] = count

    def energy_pj(self, instance: str, action: str, count: float) -> float:
        """Dynamic energy of ``count`` actions on one instance, in pJ."""
        unit = self.entries.get(instance)
        if unit is None:
            raise EnergyModelError(
                f"unknown ERT instance {instance!r}; have {sorted(self.entries)}"
            )
        if count < 0:
            raise EnergyModelError(f"negative action count for {instance!r}.{action}")
        return unit.energy(action) * count

    def leakage_pj(self, instance: str, cycles: int, gated_fraction: float = 0.0) -> float:
        """Leakage over ``cycles`` for all copies of one instance.

        ``gated_fraction`` models power gating: that fraction of copies
        leaks at 15% of nominal.
        """
        if not 0.0 <= gated_fraction <= 1.0:
            raise EnergyModelError(f"gated_fraction must be in [0,1], got {gated_fraction}")
        unit = self.entries[instance]
        copies = self.multiplicity[instance]
        active = copies * (1.0 - gated_fraction)
        gated = copies * gated_fraction * 0.15
        return unit.leakage_pj_per_cycle * (active + gated) * cycles

    def total_leakage_pj(self, cycles: int) -> float:
        """Leakage of the whole design over ``cycles``."""
        return sum(self.leakage_pj(name, cycles) for name in self.entries)


def build_ert(arch: ArchitectureConfig, energy: EnergyConfig) -> EnergyReferenceTable:
    """Instantiate the baseline template for an architecture.

    Per PE: one MAC and three scratchpads (ifmap / weights / psum).
    Globally: three smart-buffer SRAMs sized per the config, the DRAM
    interface, the NoC, and (if configured) the SIMD unit.
    """
    library = ComponentLibrary(energy.technology_nm)
    ert = EnergyReferenceTable(technology_nm=energy.technology_nm)
    pes = arch.num_pes
    ert.add("mac", library.component("mac"), count=pes)
    ert.add("ifmap_spad", library.component("ifmap_spad"), count=pes)
    ert.add("weights_spad", library.component("weights_spad"), count=pes)
    ert.add("psum_spad", library.component("psum_spad"), count=pes)
    ert.add("ifmap_sram", library.sram_scaled(arch.ifmap_sram_kb))
    ert.add("filter_sram", library.sram_scaled(arch.filter_sram_kb))
    ert.add("ofmap_sram", library.sram_scaled(arch.ofmap_sram_kb))
    ert.add("dram", library.component("dram"))
    ert.add("noc", library.component("noc"))
    if arch.simd_lanes:
        ert.add("simd", library.component("simd"), count=arch.simd_lanes)
    return ert

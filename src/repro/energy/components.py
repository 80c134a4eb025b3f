"""Component library: per-action unit energies (the Accelergy plug-ins).

Unit energies are in picojoules at a 65 nm reference node, drawn from
the Eyeriss/Accelergy literature's order-of-magnitude ladder:

* register/scratchpad access  ~0.03-0.1 pJ
* 16-bit integer MAC           ~2 pJ
* large SRAM word access       ~6-12 pJ (repeated ~half of random)
* DRAM word access             ~200 pJ
* NoC hop per word             ~1.5 pJ

Dynamic energy scales ~quadratically with feature size, leakage roughly
linearly; :meth:`ComponentLibrary.scaled` applies both so other nodes
can be explored.  Absolute joules are calibration-grade, but every
paper experiment compares *relative* energies (dataflows, array sizes),
which these ratios preserve.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from repro.errors import EnergyModelError

REFERENCE_NM = 65


@dataclass(frozen=True)
class UnitEnergy:
    """Energy per action (pJ) and leakage per cycle (pJ) of a component."""

    actions_pj: Mapping[str, float]
    leakage_pj_per_cycle: float = 0.0

    def __post_init__(self) -> None:
        for action, value in self.actions_pj.items():
            if value < 0:
                raise EnergyModelError(f"negative energy for action {action!r}")
        if self.leakage_pj_per_cycle < 0:
            raise EnergyModelError("negative leakage")

    def energy(self, action: str) -> float:
        """Energy of one action, in pJ."""
        try:
            return self.actions_pj[action]
        except KeyError:
            raise EnergyModelError(
                f"unknown action {action!r}; available: {sorted(self.actions_pj)}"
            ) from None


def _frozen(mapping: dict[str, float]) -> Mapping[str, float]:
    return MappingProxyType(dict(mapping))


class ComponentLibrary:
    """All primitive components available to the architecture template."""

    def __init__(self, technology_nm: int = REFERENCE_NM) -> None:
        if technology_nm < 1:
            raise EnergyModelError(f"bad technology node {technology_nm}")
        self.technology_nm = technology_nm
        dyn = (technology_nm / REFERENCE_NM) ** 2
        leak = technology_nm / REFERENCE_NM
        self._components: dict[str, UnitEnergy] = {
            "mac": UnitEnergy(
                _frozen(
                    {
                        "mac_random": 2.20 * dyn,
                        "mac_constant": 1.80 * dyn,  # clocked, stationary operands
                        "mac_gated": 0.0,  # clock gated: leakage only
                    }
                ),
                leakage_pj_per_cycle=0.078 * leak,
            ),
            "ifmap_spad": UnitEnergy(
                _frozen({"read": 0.03 * dyn, "write": 0.06 * dyn}),
                leakage_pj_per_cycle=0.005 * leak,
            ),
            "weights_spad": UnitEnergy(
                _frozen({"read": 0.06 * dyn, "write": 0.11 * dyn}),
                leakage_pj_per_cycle=0.010 * leak,
            ),
            "psum_spad": UnitEnergy(
                _frozen({"read": 0.08 * dyn, "write": 0.08 * dyn}),
                leakage_pj_per_cycle=0.010 * leak,
            ),
            "sram": UnitEnergy(
                _frozen(
                    {
                        "read_random": 6.10 * dyn,
                        "read_repeat": 2.80 * dyn,
                        "write_random": 6.80 * dyn,
                        "write_repeat": 3.10 * dyn,
                        "write_cst_data": 1.30 * dyn,
                        "idle": 0.0,
                    }
                ),
                leakage_pj_per_cycle=1.50 * leak,
            ),
            "dram": UnitEnergy(_frozen({"read": 200.0, "write": 200.0})),
            "noc": UnitEnergy(
                _frozen({"hop": 1.50 * dyn}),
                leakage_pj_per_cycle=0.043 * leak,
            ),
            "simd": UnitEnergy(
                _frozen({"op": 0.90 * dyn}),
                leakage_pj_per_cycle=0.05 * leak,
            ),
        }

    def component(self, name: str) -> UnitEnergy:
        """Look up a primitive component."""
        if name not in self._components:
            raise EnergyModelError(
                f"unknown component {name!r}; available: {sorted(self._components)}"
            )
        return self._components[name]

    def names(self) -> tuple[str, ...]:
        """All component names."""
        return tuple(sorted(self._components))

    def sram_scaled(self, capacity_kb: int) -> UnitEnergy:
        """SRAM energy grows ~sqrt(capacity) relative to a 256 kB macro."""
        if capacity_kb < 1:
            raise EnergyModelError(f"bad SRAM capacity {capacity_kb} kB")
        base = self._components["sram"]
        factor = (capacity_kb / 256) ** 0.5
        return UnitEnergy(
            _frozen({k: v * factor for k, v in base.actions_pj.items()}),
            leakage_pj_per_cycle=base.leakage_pj_per_cycle * (capacity_kb / 256),
        )

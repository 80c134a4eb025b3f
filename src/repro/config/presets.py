"""Named configuration presets used throughout the paper's evaluation.

* ``google_tpu_v2`` — the "Google TPU configuration" of Section V-C with
  DDR4-2400, 4 Gb per channel, and 128-entry request queues.
* ``eyeriss_like`` — a small OS-dataflow array for energy validation.
* ``scale_sim_v2_default`` — v2's shipped default (32x32, OS).
* ``layout_study`` — a 128x128 WS array with a 4-bank ifmap layout.
"""

from __future__ import annotations

from repro.config.system import (
    ArchitectureConfig,
    DramConfig,
    EnergyConfig,
    LayoutConfig,
    RunConfig,
    SystemConfig,
)
from repro.errors import ConfigError


def _tpu_v2() -> SystemConfig:
    return SystemConfig(
        arch=ArchitectureConfig(
            array_rows=128,
            array_cols=128,
            ifmap_sram_kb=1024,
            filter_sram_kb=1024,
            ofmap_sram_kb=1024,
            dataflow="ws",
            bandwidth_words=32,
            simd_lanes=128,
        ),
        dram=DramConfig(
            enabled=True,
            technology="ddr4",
            channels=4,
            banks_per_rank=16,
            capacity_gb_per_channel=0.5,
            read_queue_entries=128,
            write_queue_entries=128,
        ),
        energy=EnergyConfig(enabled=True, technology_nm=65),
        run=RunConfig(run_name="google_tpu_v2"),
    )


def _eyeriss_like() -> SystemConfig:
    return SystemConfig(
        arch=ArchitectureConfig(
            array_rows=12,
            array_cols=14,
            ifmap_sram_kb=108,
            filter_sram_kb=108,
            ofmap_sram_kb=108,
            dataflow="os",
            bandwidth_words=4,
        ),
        energy=EnergyConfig(enabled=True, technology_nm=65),
        run=RunConfig(run_name="eyeriss_like"),
    )


def _v2_default() -> SystemConfig:
    return SystemConfig(run=RunConfig(run_name="scale_sim_v2_default"))


def _layout_study() -> SystemConfig:
    return SystemConfig(
        arch=ArchitectureConfig(array_rows=128, array_cols=128, dataflow="ws"),
        layout=LayoutConfig(enabled=True, num_banks=4, bandwidth_per_bank_words=32),
        run=RunConfig(run_name="layout_study"),
    )


_PRESETS = {
    "google_tpu_v2": _tpu_v2,
    "eyeriss_like": _eyeriss_like,
    "scale_sim_v2_default": _v2_default,
    "layout_study": _layout_study,
}


def available_presets() -> tuple[str, ...]:
    """Names of all built-in configuration presets."""
    return tuple(sorted(_PRESETS))


def get_preset(name: str) -> SystemConfig:
    """Build a fresh :class:`SystemConfig` for a named preset."""
    try:
        factory = _PRESETS[name]
    except KeyError as exc:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(available_presets())}"
        ) from exc
    return factory()

"""System configuration: dataclasses, .cfg parsing, and named presets."""

from repro.config.system import (
    ArchitectureConfig,
    DramConfig,
    EnergyConfig,
    LayoutConfig,
    RunConfig,
    SparsityConfig,
    SystemConfig,
)
from repro.config.parser import load_config, parse_config_text
from repro.config.presets import available_presets, get_preset

__all__ = [
    "ArchitectureConfig",
    "DramConfig",
    "EnergyConfig",
    "LayoutConfig",
    "RunConfig",
    "SparsityConfig",
    "SystemConfig",
    "load_config",
    "parse_config_text",
    "available_presets",
    "get_preset",
]

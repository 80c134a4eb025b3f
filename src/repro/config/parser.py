"""Parse SCALE-Sim style ``.cfg`` files into :class:`SystemConfig`.

The file format follows SCALE-Sim's INI-like convention::

    [architecture_presets]
    ArrayHeight = 32
    Dataflow = os

    [sparsity]
    SparsitySupport = true

One table, :data:`CFG_SECTIONS`, maps each file section and key to a
:class:`SystemConfig` field; parsing and :func:`serialize_config` both
walk it.  Types and defaults come from the config dataclasses, and
:func:`~repro.config.system.field_value` types each value, the rule
``--set`` values and job payloads follow too; it also lower-cases
string values outside ``[general]``.  Keys are case-insensitive.  v3's
sections (``sparsity``, ``memory``, ``layout``, ``energy``) are
optional, leaving the feature at its defaults (usually disabled).
SCALE-Sim v2's ``[run_presets]`` is ignored; any other unknown section
or key raises :class:`~repro.errors.ConfigError`.
"""

from __future__ import annotations

import configparser
from pathlib import Path

from repro.config.system import SystemConfig, field_value
from repro.errors import ConfigError

#: ``(file section, SystemConfig section, ((file key, field), ...))``.
CFG_SECTIONS = (
    ("general", "run", (("run_name", "run_name"), ("output_dir", "output_dir"))),
    (
        "architecture_presets",
        "arch",
        (
            ("ArrayHeight", "array_rows"),
            ("ArrayWidth", "array_cols"),
            ("IfmapSramSzkB", "ifmap_sram_kb"),
            ("FilterSramSzkB", "filter_sram_kb"),
            ("OfmapSramSzkB", "ofmap_sram_kb"),
            ("Dataflow", "dataflow"),
            ("Bandwidth", "bandwidth_words"),
            ("WordBytes", "word_bytes"),
            ("SimdLanes", "simd_lanes"),
        ),
    ),
    (
        "sparsity",
        "sparsity",
        (
            ("SparsitySupport", "sparsity_support"),
            ("OptimizedMapping", "optimized_mapping"),
            ("SparseRep", "sparse_representation"),
            ("BlockSize", "block_size"),
            ("RandomSeed", "random_seed"),
        ),
    ),
    (
        "memory",
        "dram",
        (
            ("Enabled", "enabled"),
            ("Technology", "technology"),
            ("Channels", "channels"),
            ("RanksPerChannel", "ranks_per_channel"),
            ("BanksPerRank", "banks_per_rank"),
            ("CapacityGBPerChannel", "capacity_gb_per_channel"),
            ("ReadQueueEntries", "read_queue_entries"),
            ("WriteQueueEntries", "write_queue_entries"),
            ("AddressMapping", "address_mapping"),
            ("IssuePerCycle", "issue_per_cycle"),
        ),
    ),
    (
        "layout",
        "layout",
        (
            ("Enabled", "enabled"),
            ("NumBanks", "num_banks"),
            ("PortsPerBank", "ports_per_bank"),
            ("BandwidthPerBank", "bandwidth_per_bank_words"),
        ),
    ),
    (
        "energy",
        "energy",
        (
            ("Enabled", "enabled"),
            ("TechnologyNm", "technology_nm"),
            ("RowSize", "row_size_words"),
            ("BankSize", "bank_rows"),
            ("ClockGHz", "clock_ghz"),
            ("ClockGating", "clock_gating"),
        ),
    ),
)


def parse_config_text(text: str) -> SystemConfig:
    """Parse ``.cfg`` content into a validated :class:`SystemConfig`."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
        raw = {name.lower(): dict(parser.items(name)) for name in parser.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc
    known = {file_section for file_section, _, _ in CFG_SECTIONS} | {"run_presets"}
    for name in parser.sections():
        if name.lower() not in known:
            raise ConfigError(f"unknown config section [{name}]")

    defaults = SystemConfig()
    sections = {}
    for file_section, section, keys in CFG_SECTIONS:
        values = raw.get(file_section, {})
        default = getattr(defaults, section)
        fields = {}
        for key, name in keys:
            value = values.pop(key.lower(), None)
            if value is None:
                continue
            fields[name] = field_value(default, name, value, f"[{file_section}] {key}")
        if values:
            raise ConfigError(
                f"unknown keys in section [{file_section}]: {sorted(values)}"
            )
        sections[section] = type(default)(**fields)
    return SystemConfig(**sections)


def load_config(path: str | Path) -> SystemConfig:
    """Read a ``.cfg`` file from disk and parse it."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text())


def serialize_config(config: SystemConfig) -> str:
    """Render a :class:`SystemConfig` as ``.cfg`` text.

    Every key is written explicitly (defaults included) using the same
    key names :func:`parse_config_text` accepts, so
    ``parse_config_text(serialize_config(cfg)) == cfg`` for any valid
    config — the round-trip property the shipped ``configs/`` artifacts
    are generated (and tested) under.
    """
    lines: list[str] = []
    for file_section, section, keys in CFG_SECTIONS:
        lines.append(f"[{file_section}]")
        for key, name in keys:
            value = getattr(getattr(config, section), name)
            text = str(value).lower() if isinstance(value, bool) else str(value)
            lines.append(f"{key} = {text}")
        lines.append("")
    return "\n".join(lines)


def save_config(config: SystemConfig, path: str | Path) -> Path:
    """Write ``config`` to ``path`` in ``.cfg`` format; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(serialize_config(config))
    return path

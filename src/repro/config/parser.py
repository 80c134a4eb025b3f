"""Parse SCALE-Sim style ``.cfg`` files into :class:`SystemConfig`.

The file format follows SCALE-Sim's INI-like convention::

    [general]
    run_name = tpu_like

    [architecture_presets]
    ArrayHeight = 32
    ArrayWidth = 32
    IfmapSramSzkB = 256
    ...

    [sparsity]
    SparsitySupport = true
    OptimizedMapping = false
    SparseRep = ellpack_block
    BlockSize = 4

v3's new sections (``sparsity``, ``memory``, ``layout``, ``energy``) are
all optional; omitting a section leaves the feature at its defaults
(usually disabled), matching the paper's modular design.  Unknown
sections and keys raise :class:`~repro.errors.ConfigError`.
"""

from __future__ import annotations

import configparser
from pathlib import Path

from repro.config.system import (
    ArchitectureConfig,
    DramConfig,
    EnergyConfig,
    LayoutConfig,
    RunConfig,
    SparsityConfig,
    SystemConfig,
)
from repro.errors import ConfigError

_TRUE_VALUES = {"true", "yes", "on", "1"}
_FALSE_VALUES = {"false", "no", "off", "0"}


def _parse_bool(raw: str, key: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in _TRUE_VALUES:
        return True
    if lowered in _FALSE_VALUES:
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from exc


def _parse_float(raw: str, key: str) -> float:
    try:
        return float(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from exc


class _Section:
    """Case-insensitive view over one cfg section with typed getters."""

    def __init__(self, name: str, raw: dict[str, str]) -> None:
        self.name = name
        self._raw = {key.lower(): value for key, value in raw.items()}
        self._seen: set[str] = set()

    def get_str(self, key: str, default: str) -> str:
        self._seen.add(key.lower())
        return self._raw.get(key.lower(), default).strip()

    def get_int(self, key: str, default: int) -> int:
        self._seen.add(key.lower())
        raw = self._raw.get(key.lower())
        return default if raw is None else _parse_int(raw, f"[{self.name}] {key}")

    def get_float(self, key: str, default: float) -> float:
        self._seen.add(key.lower())
        raw = self._raw.get(key.lower())
        return default if raw is None else _parse_float(raw, f"[{self.name}] {key}")

    def get_bool(self, key: str, default: bool) -> bool:
        self._seen.add(key.lower())
        raw = self._raw.get(key.lower())
        return default if raw is None else _parse_bool(raw, f"[{self.name}] {key}")

    def reject_unknown_keys(self) -> None:
        unknown = set(self._raw) - self._seen
        if unknown:
            raise ConfigError(
                f"unknown keys in section [{self.name}]: {sorted(unknown)}"
            )


def parse_config_text(text: str) -> SystemConfig:
    """Parse ``.cfg`` content into a validated :class:`SystemConfig`."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc

    known_sections = {
        "general",
        "architecture_presets",
        "sparsity",
        "memory",
        "layout",
        "energy",
        "run_presets",
    }
    for section in parser.sections():
        if section.lower() not in known_sections:
            raise ConfigError(f"unknown config section [{section}]")

    def section(name: str) -> _Section:
        for candidate in parser.sections():
            if candidate.lower() == name:
                return _Section(name, dict(parser.items(candidate)))
        return _Section(name, {})

    general = section("general")
    run = RunConfig(
        run_name=general.get_str("run_name", "scale_sim_v3_repro"),
        output_dir=general.get_str("output_dir", "outputs"),
    )
    general.reject_unknown_keys()

    arch_sec = section("architecture_presets")
    arch = ArchitectureConfig(
        array_rows=arch_sec.get_int("ArrayHeight", 32),
        array_cols=arch_sec.get_int("ArrayWidth", 32),
        ifmap_sram_kb=arch_sec.get_int("IfmapSramSzkB", 256),
        filter_sram_kb=arch_sec.get_int("FilterSramSzkB", 256),
        ofmap_sram_kb=arch_sec.get_int("OfmapSramSzkB", 256),
        dataflow=arch_sec.get_str("Dataflow", "os").lower(),
        bandwidth_words=arch_sec.get_int("Bandwidth", 10),
        word_bytes=arch_sec.get_int("WordBytes", 2),
        simd_lanes=arch_sec.get_int("SimdLanes", 0),
    )
    arch_sec.reject_unknown_keys()

    sp_sec = section("sparsity")
    sparsity = SparsityConfig(
        sparsity_support=sp_sec.get_bool("SparsitySupport", False),
        optimized_mapping=sp_sec.get_bool("OptimizedMapping", False),
        sparse_representation=sp_sec.get_str("SparseRep", "ellpack_block").lower(),
        block_size=sp_sec.get_int("BlockSize", 4),
        random_seed=sp_sec.get_int("RandomSeed", 7),
    )
    sp_sec.reject_unknown_keys()

    mem_sec = section("memory")
    dram = DramConfig(
        enabled=mem_sec.get_bool("Enabled", False),
        technology=mem_sec.get_str("Technology", "ddr4").lower(),
        channels=mem_sec.get_int("Channels", 1),
        ranks_per_channel=mem_sec.get_int("RanksPerChannel", 1),
        banks_per_rank=mem_sec.get_int("BanksPerRank", 16),
        capacity_gb_per_channel=mem_sec.get_float("CapacityGBPerChannel", 0.5),
        speed_mts=mem_sec.get_int("SpeedMTs", 2400),
        read_queue_entries=mem_sec.get_int("ReadQueueEntries", 128),
        write_queue_entries=mem_sec.get_int("WriteQueueEntries", 128),
        address_mapping=mem_sec.get_str("AddressMapping", "ro_ba_ra_co_ch").lower(),
        issue_per_cycle=mem_sec.get_int("IssuePerCycle", 4),
    )
    mem_sec.reject_unknown_keys()

    layout_sec = section("layout")
    layout = LayoutConfig(
        enabled=layout_sec.get_bool("Enabled", False),
        num_banks=layout_sec.get_int("NumBanks", 4),
        ports_per_bank=layout_sec.get_int("PortsPerBank", 1),
        bandwidth_per_bank_words=layout_sec.get_int("BandwidthPerBank", 16),
    )
    layout_sec.reject_unknown_keys()

    energy_sec = section("energy")
    energy = EnergyConfig(
        enabled=energy_sec.get_bool("Enabled", False),
        technology_nm=energy_sec.get_int("TechnologyNm", 65),
        row_size_words=energy_sec.get_int("RowSize", 16),
        bank_rows=energy_sec.get_int("BankSize", 4),
        clock_ghz=energy_sec.get_float("ClockGHz", 1.0),
        clock_gating=energy_sec.get_bool("ClockGating", True),
    )
    energy_sec.reject_unknown_keys()

    return SystemConfig(
        arch=arch,
        sparsity=sparsity,
        dram=dram,
        layout=layout,
        energy=energy,
        run=run,
    )


def load_config(path: str | Path) -> SystemConfig:
    """Read a ``.cfg`` file from disk and parse it."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text())


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def serialize_config(config: SystemConfig) -> str:
    """Render a :class:`SystemConfig` as ``.cfg`` text.

    Every key is written explicitly (defaults included) using the same
    key names :func:`parse_config_text` accepts, so
    ``parse_config_text(serialize_config(cfg)) == cfg`` for any valid
    config — the round-trip property the shipped ``configs/`` artifacts
    are generated (and tested) under.
    """
    sections: list[tuple[str, list[tuple[str, object]]]] = [
        (
            "general",
            [
                ("run_name", config.run.run_name),
                ("output_dir", config.run.output_dir),
            ],
        ),
        (
            "architecture_presets",
            [
                ("ArrayHeight", config.arch.array_rows),
                ("ArrayWidth", config.arch.array_cols),
                ("IfmapSramSzkB", config.arch.ifmap_sram_kb),
                ("FilterSramSzkB", config.arch.filter_sram_kb),
                ("OfmapSramSzkB", config.arch.ofmap_sram_kb),
                ("Dataflow", config.arch.dataflow),
                ("Bandwidth", config.arch.bandwidth_words),
                ("WordBytes", config.arch.word_bytes),
                ("SimdLanes", config.arch.simd_lanes),
            ],
        ),
        (
            "sparsity",
            [
                ("SparsitySupport", config.sparsity.sparsity_support),
                ("OptimizedMapping", config.sparsity.optimized_mapping),
                ("SparseRep", config.sparsity.sparse_representation),
                ("BlockSize", config.sparsity.block_size),
                ("RandomSeed", config.sparsity.random_seed),
            ],
        ),
        (
            "memory",
            [
                ("Enabled", config.dram.enabled),
                ("Technology", config.dram.technology),
                ("Channels", config.dram.channels),
                ("RanksPerChannel", config.dram.ranks_per_channel),
                ("BanksPerRank", config.dram.banks_per_rank),
                ("CapacityGBPerChannel", config.dram.capacity_gb_per_channel),
                ("SpeedMTs", config.dram.speed_mts),
                ("ReadQueueEntries", config.dram.read_queue_entries),
                ("WriteQueueEntries", config.dram.write_queue_entries),
                ("AddressMapping", config.dram.address_mapping),
                ("IssuePerCycle", config.dram.issue_per_cycle),
            ],
        ),
        (
            "layout",
            [
                ("Enabled", config.layout.enabled),
                ("NumBanks", config.layout.num_banks),
                ("PortsPerBank", config.layout.ports_per_bank),
                ("BandwidthPerBank", config.layout.bandwidth_per_bank_words),
            ],
        ),
        (
            "energy",
            [
                ("Enabled", config.energy.enabled),
                ("TechnologyNm", config.energy.technology_nm),
                ("RowSize", config.energy.row_size_words),
                ("BankSize", config.energy.bank_rows),
                ("ClockGHz", config.energy.clock_ghz),
                ("ClockGating", config.energy.clock_gating),
            ],
        ),
    ]
    lines: list[str] = []
    for name, entries in sections:
        lines.append(f"[{name}]")
        for key, value in entries:
            lines.append(f"{key} = {_format_value(value)}")
        lines.append("")
    return "\n".join(lines)


def save_config(config: SystemConfig, path: str | Path) -> Path:
    """Write ``config`` to ``path`` in ``.cfg`` format; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(serialize_config(config))
    return path

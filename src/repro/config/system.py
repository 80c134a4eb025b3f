"""Configuration dataclasses for the SCALE-Sim v3 reproduction.

A :class:`SystemConfig` aggregates one section per simulator feature, in
the same spirit as SCALE-Sim's ``.cfg`` files: ``[architecture_presets]``
for the array and SRAM sizes, plus v3's new ``[sparsity]``, ``[memory]``
(Ramulator), ``[layout]`` and ``[energy]`` sections.  The multi-core
model (Section III) takes its partitioning as arguments of
:class:`~repro.multicore.multicore_sim.MultiCoreSimulator`, not as a
config section.

Each dataclass validates itself in ``__post_init__`` so an invalid
configuration fails loudly at construction, not deep inside a simulation.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field

from repro.errors import ConfigError

VALID_DATAFLOWS = ("os", "ws", "is")

#: Known DRAM technology presets (see :mod:`repro.dram.timing`).
VALID_DRAM_TECHNOLOGIES = ("ddr3", "ddr4", "lpddr4", "gddr5", "hbm", "hbm2", "wio2")

#: Ramulator's address-field codes; a DRAM address mapping is an
#: underscore-joined permutation of them (see :mod:`repro.dram.address`).
ADDRESS_FIELD_CODES = ("ro", "ba", "ra", "co", "ch")

VALID_SPARSE_REPRESENTATIONS = ("csr", "csc", "ellpack_block")

#: Words a boolean field accepts as text, in any case.
BOOL_WORDS = {
    **dict.fromkeys(("true", "yes", "on", "1"), True),
    **dict.fromkeys(("false", "no", "off", "0"), False),
}

#: Declared field type -> (what an error calls it, accepted non-text type).
_FIELD_KINDS = {
    "bool": ("a boolean", bool),
    "int": ("an integer", numbers.Integral),
    "float": ("a number", numbers.Real),
    "str": ("a string", str),
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def field_value(section_cfg: object, name: str, value: object, where: str) -> object:
    """Type ``value`` for field ``name`` of a config section dataclass.

    The one rule for every input source (``.cfg`` text, ``--set``
    values, job payloads).  Text is parsed by the field's declared
    type; booleans take :data:`BOOL_WORDS`.  A string field is stripped
    and, outside :class:`RunConfig` (names and paths), lower-cased, so
    ``WS`` names the same dataflow from every source.  Any other value must
    already have the field's type: an int is accepted for a float field
    and returned unchanged, a bool is never an int.  Properties and
    methods are not fields.  Raises :class:`ConfigError` prefixed with
    ``where``; range checks stay in each ``__post_init__``.
    """
    declared = {f.name: f.type for f in dataclasses.fields(section_cfg)}.get(name)
    if declared is None:
        raise ConfigError(f"{where}: unknown config field {name!r}")
    kind, value_type = _FIELD_KINDS[declared]
    if isinstance(value, str) and declared != "str":
        text = value.strip().lower()
        try:
            if declared == "bool":
                return BOOL_WORDS[text]
            value = int(text) if declared == "int" else float(text)
        except (KeyError, ValueError):
            raise ConfigError(f"{where}: expected {kind}, got {value!r}") from None
    elif isinstance(value, str):
        value = value.strip()
        return value if isinstance(section_cfg, RunConfig) else value.lower()
    elif isinstance(value, bool) != (declared == "bool") or not isinstance(
        value, value_type
    ):
        raise ConfigError(f"{where}: expected {kind}, got {value!r}")
    if declared == "float" and not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return value


@dataclass(frozen=True)
class ArchitectureConfig:
    """Systolic array and on-chip SRAM parameters (SCALE-Sim v2 core knobs).

    Attributes:
        array_rows / array_cols: PE array dimensions (R and C in the paper).
        ifmap_sram_kb / filter_sram_kb / ofmap_sram_kb: double-buffered
            SRAM sizes in kilobytes.
        dataflow: one of ``"os"``, ``"ws"``, ``"is"``.
        bandwidth_words: words per cycle deliverable by the interface in
            ideal-bandwidth mode (v2's monolithic main-memory model).
        word_bytes: bytes per data word (2 for 16-bit quantised models).
        simd_lanes: vector-unit width used for the non-GEMM ops of a
            tensor core (activations, softmax).
    """

    array_rows: int = 32
    array_cols: int = 32
    ifmap_sram_kb: int = 256
    filter_sram_kb: int = 256
    ofmap_sram_kb: int = 256
    dataflow: str = "os"
    bandwidth_words: int = 10
    word_bytes: int = 2
    simd_lanes: int = 0

    def __post_init__(self) -> None:
        _require(self.array_rows > 0, f"array_rows must be positive, got {self.array_rows}")
        _require(self.array_cols > 0, f"array_cols must be positive, got {self.array_cols}")
        for name in ("ifmap_sram_kb", "filter_sram_kb", "ofmap_sram_kb"):
            value = getattr(self, name)
            _require(value > 0, f"{name} must be positive, got {value}")
        _require(
            self.dataflow in VALID_DATAFLOWS,
            f"dataflow must be one of {VALID_DATAFLOWS}, got {self.dataflow!r}",
        )
        _require(self.bandwidth_words > 0, "bandwidth_words must be positive")
        _require(self.word_bytes > 0, "word_bytes must be positive")
        _require(self.simd_lanes >= 0, "simd_lanes must be non-negative")

    @property
    def num_pes(self) -> int:
        """Total number of processing elements in the array."""
        return self.array_rows * self.array_cols

    def ifmap_sram_words(self) -> int:
        """Ifmap SRAM capacity in words."""
        return self.ifmap_sram_kb * 1024 // self.word_bytes

    def filter_sram_words(self) -> int:
        """Filter SRAM capacity in words."""
        return self.filter_sram_kb * 1024 // self.word_bytes

    def ofmap_sram_words(self) -> int:
        """Ofmap SRAM capacity in words."""
        return self.ofmap_sram_kb * 1024 // self.word_bytes


@dataclass(frozen=True)
class SparsityConfig:
    """The paper's ``[sparsity]`` section (Section IV-B, Step 1).

    ``sparsity_support`` enables layer-wise sparsity taken from the
    topology's ``SparsitySupport`` column; ``optimized_mapping`` switches
    to row-wise N:M sparsity with ``block_size`` holding M.
    """

    sparsity_support: bool = False
    optimized_mapping: bool = False
    sparse_representation: str = "ellpack_block"
    block_size: int = 4
    random_seed: int = 7

    def __post_init__(self) -> None:
        _require(
            self.sparse_representation in VALID_SPARSE_REPRESENTATIONS,
            f"sparse_representation must be one of {VALID_SPARSE_REPRESENTATIONS}, "
            f"got {self.sparse_representation!r}",
        )
        _require(self.block_size >= 1, f"block_size must be >= 1, got {self.block_size}")
        if self.optimized_mapping:
            _require(
                self.sparsity_support,
                "optimized_mapping (row-wise sparsity) requires sparsity_support=true",
            )


@dataclass(frozen=True)
class DramConfig:
    """Main-memory (RamulatorLite) parameters (Section V).

    The paper's evaluation uses DDR4 at 2400 MT/s, 4 Gb per channel, and
    read/write request queues of 128 entries each.
    """

    enabled: bool = False
    technology: str = "ddr4"
    channels: int = 1
    ranks_per_channel: int = 1
    banks_per_rank: int = 16
    capacity_gb_per_channel: float = 0.5
    speed_mts: int = 2400
    read_queue_entries: int = 128
    write_queue_entries: int = 128
    address_mapping: str = "ro_ba_ra_co_ch"
    # Line requests the accelerator front-end can issue per cycle (the
    # AXI outstanding-transaction rate the paper mimics from the Micron
    # DDR4 Verilog model).
    issue_per_cycle: int = 4

    def __post_init__(self) -> None:
        _require(
            self.technology in VALID_DRAM_TECHNOLOGIES,
            f"technology must be one of {VALID_DRAM_TECHNOLOGIES}, got {self.technology!r}",
        )
        _require(self.channels >= 1, f"channels must be >= 1, got {self.channels}")
        _require(self.ranks_per_channel >= 1, "ranks_per_channel must be >= 1")
        _require(self.banks_per_rank >= 1, "banks_per_rank must be >= 1")
        _require(self.capacity_gb_per_channel > 0, "capacity_gb_per_channel must be positive")
        _require(self.speed_mts > 0, "speed_mts must be positive")
        _require(self.read_queue_entries >= 1, "read_queue_entries must be >= 1")
        _require(self.write_queue_entries >= 1, "write_queue_entries must be >= 1")
        mapping = sorted(self.address_mapping.strip().lower().split("_"))
        _require(
            mapping == sorted(ADDRESS_FIELD_CODES),
            f"address_mapping must be a permutation of {ADDRESS_FIELD_CODES}, "
            f"got {self.address_mapping!r}",
        )
        _require(self.issue_per_cycle >= 1, "issue_per_cycle must be >= 1")


@dataclass(frozen=True)
class LayoutConfig:
    """On-chip multi-bank layout parameters (Section VI)."""

    enabled: bool = False
    num_banks: int = 4
    ports_per_bank: int = 1
    bandwidth_per_bank_words: int = 16

    def __post_init__(self) -> None:
        _require(self.num_banks >= 1, f"num_banks must be >= 1, got {self.num_banks}")
        _require(self.ports_per_bank >= 1, "ports_per_bank must be >= 1")
        _require(self.bandwidth_per_bank_words >= 1, "bandwidth_per_bank_words must be >= 1")

    @property
    def total_bandwidth_words(self) -> int:
        """Aggregate on-chip bandwidth across all banks, in words/cycle."""
        return self.num_banks * self.bandwidth_per_bank_words


@dataclass(frozen=True)
class EnergyConfig:
    """AccelergyLite parameters (Section VII).

    ``row_size_words`` and ``bank_rows`` are the paper's tunable 'row
    size' and 'bank size' used by the repeated-access lookup.
    """

    enabled: bool = False
    technology_nm: int = 65
    row_size_words: int = 16
    bank_rows: int = 4
    clock_ghz: float = 1.0
    clock_gating: bool = False

    def __post_init__(self) -> None:
        _require(self.technology_nm > 0, "technology_nm must be positive")
        _require(self.row_size_words >= 1, "row_size_words must be >= 1")
        _require(self.bank_rows >= 1, "bank_rows must be >= 1")
        _require(self.clock_ghz > 0, "clock_ghz must be positive")


@dataclass(frozen=True)
class RunConfig:
    """Run metadata: name and output directory for report files."""

    run_name: str = "scale_sim_v3_repro"
    output_dir: str = "outputs"

    def __post_init__(self) -> None:
        _require(bool(self.run_name), "run_name must be non-empty")


@dataclass(frozen=True)
class SystemConfig:
    """Top-level configuration aggregating every simulator feature."""

    arch: ArchitectureConfig = field(default_factory=ArchitectureConfig)
    sparsity: SparsityConfig = field(default_factory=SparsityConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    layout: LayoutConfig = field(default_factory=LayoutConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    run: RunConfig = field(default_factory=RunConfig)

    def replace(self, **sections: object) -> "SystemConfig":
        """Copy of this config with whole sections replaced by keyword."""
        return dataclasses.replace(self, **sections)  # type: ignore[arg-type]

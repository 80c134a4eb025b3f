"""Unit tests for the configuration dataclasses."""

import pytest

from repro.config.system import (
    ArchitectureConfig,
    DramConfig,
    EnergyConfig,
    LayoutConfig,
    RunConfig,
    SparsityConfig,
    SystemConfig,
    field_value,
)
from repro.errors import ConfigError


class TestArchitectureConfig:
    def test_defaults_valid(self):
        arch = ArchitectureConfig()
        assert arch.array_rows == 32
        assert arch.dataflow == "os"

    def test_num_pes(self):
        assert ArchitectureConfig(array_rows=8, array_cols=16).num_pes == 128

    def test_sram_words_conversion(self):
        arch = ArchitectureConfig(ifmap_sram_kb=2, word_bytes=2)
        assert arch.ifmap_sram_words() == 1024

    @pytest.mark.parametrize("field,value", [
        ("array_rows", 0),
        ("array_cols", -1),
        ("ifmap_sram_kb", 0),
        ("bandwidth_words", 0),
        ("word_bytes", 0),
        ("simd_lanes", -1),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            ArchitectureConfig(**{field: value})

    def test_invalid_dataflow_rejected(self):
        with pytest.raises(ConfigError):
            ArchitectureConfig(dataflow="nope")


class TestSparsityConfig:
    def test_defaults(self):
        cfg = SparsityConfig()
        assert not cfg.sparsity_support
        assert cfg.sparse_representation == "ellpack_block"

    def test_rowwise_requires_support(self):
        with pytest.raises(ConfigError):
            SparsityConfig(sparsity_support=False, optimized_mapping=True)

    def test_rowwise_with_support_ok(self):
        cfg = SparsityConfig(sparsity_support=True, optimized_mapping=True, block_size=8)
        assert cfg.block_size == 8

    def test_bad_representation(self):
        with pytest.raises(ConfigError):
            SparsityConfig(sparse_representation="coo")


class TestDramConfig:
    def test_defaults(self):
        cfg = DramConfig()
        assert cfg.technology == "ddr4"
        assert cfg.read_queue_entries == 128

    def test_bad_technology(self):
        with pytest.raises(ConfigError):
            DramConfig(technology="ddr9")

    @pytest.mark.parametrize("mapping", ["zzz", "ro_ba_ra_co", "ro_ba_ra_co_ch_ch"])
    def test_bad_address_mapping(self, mapping):
        with pytest.raises(ConfigError, match="address_mapping"):
            DramConfig(address_mapping=mapping)

    @pytest.mark.parametrize("field", ["channels", "read_queue_entries", "write_queue_entries"])
    def test_positive_required(self, field):
        with pytest.raises(ConfigError):
            DramConfig(**{field: 0})


class TestLayoutConfig:
    def test_total_bandwidth(self):
        cfg = LayoutConfig(num_banks=4, bandwidth_per_bank_words=16)
        assert cfg.total_bandwidth_words == 64

    def test_bad_banks(self):
        with pytest.raises(ConfigError):
            LayoutConfig(num_banks=0)


class TestEnergyConfig:
    def test_defaults(self):
        cfg = EnergyConfig()
        assert cfg.technology_nm == 65
        assert not cfg.clock_gating

    def test_bad_clock(self):
        with pytest.raises(ConfigError):
            EnergyConfig(clock_ghz=0)


class TestSystemConfig:
    def test_defaults_compose(self):
        cfg = SystemConfig()
        assert not cfg.dram.enabled
        assert not cfg.energy.enabled
        assert cfg.run.run_name

    def test_replace_section(self):
        cfg = SystemConfig().replace(run=RunConfig(run_name="other"))
        assert cfg.run.run_name == "other"
        assert cfg.arch.array_rows == 32


class TestFieldValue:
    """The one rule typing every config value from text or JSON."""

    @pytest.mark.parametrize(
        "section, name, value, expected",
        [
            (DramConfig(), "channels", " 4 ", 4),
            (DramConfig(), "enabled", "Yes", True),
            (DramConfig(), "enabled", "off", False),
            (DramConfig(), "capacity_gb_per_channel", "0.25", 0.25),
            (ArchitectureConfig(), "dataflow", " ws ", "ws"),
            (DramConfig(), "channels", 4, 4),
            (DramConfig(), "enabled", True, True),
        ],
    )
    def test_accepts(self, section, name, value, expected):
        typed = field_value(section, name, value, "here")
        assert typed == expected and type(typed) is type(expected)

    def test_int_for_float_is_returned_unchanged(self):
        typed = field_value(DramConfig(), "capacity_gb_per_channel", 1, "here")
        assert typed == 1 and type(typed) is int

    @pytest.mark.parametrize(
        "section, name, value",
        [
            (DramConfig(), "channels", "two"),
            (DramConfig(), "channels", "1.5"),
            (DramConfig(), "channels", 1.5),
            (DramConfig(), "channels", True),
            (DramConfig(), "channels", None),
            (DramConfig(), "enabled", 1),
            (DramConfig(), "enabled", "maybe"),
            (DramConfig(), "capacity_gb_per_channel", float("nan")),
            (ArchitectureConfig(), "dataflow", 3),
            (ArchitectureConfig(), "num_pes", 4),
            (ArchitectureConfig(), "ifmap_sram_words", 4),
            (DramConfig(), "no_such_field", 1),
            (DramConfig(), "speed_mts", 2400),
        ],
    )
    def test_rejects(self, section, name, value):
        with pytest.raises(ConfigError, match="^here: "):
            field_value(section, name, value, "here")

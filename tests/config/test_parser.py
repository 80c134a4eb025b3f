"""Unit tests for the .cfg parser and serializer."""

import pytest

from repro.config.parser import (
    load_config,
    parse_config_text,
    save_config,
    serialize_config,
)
from repro.config.presets import available_presets, get_preset
from repro.config.system import SystemConfig
from repro.errors import ConfigError

FULL_CFG = """
[general]
run_name = my_run
output_dir = out

[architecture_presets]
ArrayHeight = 64
ArrayWidth = 16
IfmapSramSzkB = 512
FilterSramSzkB = 128
OfmapSramSzkB = 64
Dataflow = ws
Bandwidth = 20
WordBytes = 2
SimdLanes = 32

[sparsity]
SparsitySupport = true
OptimizedMapping = true
SparseRep = ellpack_block
BlockSize = 8

[memory]
Enabled = true
Technology = hbm
Channels = 4
ReadQueueEntries = 256
WriteQueueEntries = 64

[layout]
Enabled = true
NumBanks = 8
BandwidthPerBank = 8

[energy]
Enabled = true
TechnologyNm = 45
ClockGHz = 0.8
"""


class TestParseFullConfig:
    def test_general(self):
        cfg = parse_config_text(FULL_CFG)
        assert cfg.run.run_name == "my_run"
        assert cfg.run.output_dir == "out"

    def test_architecture(self):
        arch = parse_config_text(FULL_CFG).arch
        assert (arch.array_rows, arch.array_cols) == (64, 16)
        assert arch.dataflow == "ws"
        assert arch.simd_lanes == 32

    def test_sparsity(self):
        sp = parse_config_text(FULL_CFG).sparsity
        assert sp.sparsity_support and sp.optimized_mapping
        assert sp.block_size == 8

    def test_memory(self):
        dram = parse_config_text(FULL_CFG).dram
        assert dram.enabled
        assert dram.technology == "hbm"
        assert dram.channels == 4
        assert dram.read_queue_entries == 256

    def test_layout(self):
        layout = parse_config_text(FULL_CFG).layout
        assert layout.enabled and layout.num_banks == 8

    def test_energy(self):
        energy = parse_config_text(FULL_CFG).energy
        assert energy.enabled
        assert energy.technology_nm == 45
        assert energy.clock_ghz == pytest.approx(0.8)

    def test_multicore(self):
        # Not a config section: MultiCoreSimulator takes its partitioning
        # as arguments.
        with pytest.raises(ConfigError, match="multicore"):
            parse_config_text(FULL_CFG + "\n[multicore]\nEnabled = true\nPartitionsRow = 2\n")


class TestDefaultsAndErrors:
    def test_empty_config_gives_defaults(self):
        cfg = parse_config_text("")
        assert cfg == SystemConfig()
        assert cfg.arch.array_rows == 32
        assert not cfg.dram.enabled
        assert not cfg.energy.clock_gating

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[bogus]\nx = 1\n")

    def test_unknown_key_rejected(self):
        for text in (
            "[architecture_presets]\nNotAKnob = 5\n",
            "[memory]\nEngine = reference\n",
            "[layout]\nEvaluator = reference\n",
            "[architecture_presets]\nSimdLatencyPerElement = 2.0\n",
            "[layout]\nC1Step = 16\n",
            "[layout]\nH1Step = 4\n",
            "[layout]\nW1Step = 2\n",
            "[memory]\nSpeedMTs = 2400\n",
        ):
            with pytest.raises(ConfigError):
                parse_config_text(text)

    def test_bad_int_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[architecture_presets]\nArrayHeight = many\n")

    def test_bad_bool_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[memory]\nEnabled = maybe\n")

    def test_case_insensitive_keys(self):
        cfg = parse_config_text("[architecture_presets]\narrayheight = 8\n")
        assert cfg.arch.array_rows == 8

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(FULL_CFG)
        assert load_config(path).run.run_name == "my_run"

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")


class TestSerializer:
    def test_full_config_round_trips(self):
        config = parse_config_text(FULL_CFG)
        assert parse_config_text(serialize_config(config)) == config

    @pytest.mark.parametrize("preset", available_presets())
    def test_every_preset_round_trips(self, preset):
        config = get_preset(preset)
        assert parse_config_text(serialize_config(config)) == config

    def test_save_and_load(self, tmp_path):
        config = get_preset("google_tpu_v2")
        path = save_config(config, tmp_path / "tpu.cfg")
        assert load_config(path) == config

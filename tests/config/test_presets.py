"""Unit tests for the named configuration presets."""

import pytest

from repro.config.presets import available_presets, get_preset
from repro.errors import ConfigError


class TestPresets:
    def test_all_presets_construct(self):
        for name in available_presets():
            cfg = get_preset(name)
            assert cfg.run.run_name

    def test_tpu_preset_matches_paper_section_5c(self):
        cfg = get_preset("google_tpu_v2")
        assert cfg.arch.array_rows == 128
        assert cfg.dram.enabled
        assert cfg.dram.technology == "ddr4"
        assert cfg.dram.read_queue_entries == 128
        assert cfg.dram.write_queue_entries == 128

    def test_eyeriss_preset_is_os(self):
        assert get_preset("eyeriss_like").arch.dataflow == "os"

    def test_v2_default_has_no_v3_features(self):
        cfg = get_preset("scale_sim_v2_default")
        assert not cfg.dram.enabled
        assert not cfg.energy.enabled

    def test_presets_are_fresh_instances(self):
        assert get_preset("google_tpu_v2") is not get_preset("google_tpu_v2")

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            get_preset("not_a_preset")

    def test_available_sorted(self):
        names = available_presets()
        assert list(names) == sorted(names)

"""Unit tests for the end-to-end single-core Simulator."""

import pytest

from repro.config.system import ArchitectureConfig, DramConfig, SystemConfig
from repro.core.simulator import Simulator
from repro.topology.models import toy_conv, toy_gemm


def _config(**arch_kw):
    defaults = dict(array_rows=8, array_cols=8, bandwidth_words=16)
    defaults.update(arch_kw)
    return SystemConfig(arch=ArchitectureConfig(**defaults))


class TestIdealBandwidthRuns:
    def test_runs_all_layers(self):
        result = Simulator(_config()).run(toy_conv())
        assert len(result.layers) == 2
        assert result.total_cycles > 0

    def test_total_is_sum_of_layers(self):
        result = Simulator(_config()).run(toy_conv())
        assert result.total_cycles == sum(l.total_cycles for l in result.layers)

    def test_high_bandwidth_means_no_mid_run_stalls(self):
        result = Simulator(_config(bandwidth_words=10_000)).run(toy_gemm())
        for layer in result.layers:
            assert layer.stall_cycles == 0

    def test_low_bandwidth_stalls(self):
        fast = Simulator(_config(bandwidth_words=10_000)).run(toy_gemm())
        slow = Simulator(_config(bandwidth_words=1)).run(toy_gemm())
        assert slow.total_cycles > fast.total_cycles

    def test_compute_cycles_independent_of_bandwidth(self):
        fast = Simulator(_config(bandwidth_words=10_000)).run(toy_gemm())
        slow = Simulator(_config(bandwidth_words=1)).run(toy_gemm())
        assert fast.total_compute_cycles == slow.total_compute_cycles

    def test_layer_named(self):
        result = Simulator(_config()).run(toy_conv())
        assert result.layer_named("c1").layer_name == "c1"
        with pytest.raises(KeyError):
            result.layer_named("zzz")

    def test_no_dram_stats_without_dram(self):
        result = Simulator(_config()).run(toy_conv())
        assert result.dram_stats is None

    def test_cold_start_positive(self):
        result = Simulator(_config()).run(toy_conv())
        assert result.layers[0].timeline.cold_start_cycles > 0

    def test_continuous_timeline_keeps_layers_cheap(self):
        # Regression: a shared backend must not charge layer N the whole
        # runtime of layers 0..N-1 as cold start.
        result = Simulator(_config(bandwidth_words=1000)).run(toy_gemm())
        later = result.layers[-1]
        assert later.timeline.cold_start_cycles < later.compute_cycles


class TestDramRuns:
    def _dram_config(self, **dram_kw):
        dram_defaults = dict(enabled=True, technology="ddr4", channels=1)
        dram_defaults.update(dram_kw)
        return SystemConfig(
            arch=ArchitectureConfig(array_rows=8, array_cols=8),
            dram=DramConfig(**dram_defaults),
        )

    def test_dram_stats_collected(self):
        result = Simulator(self._dram_config()).run(toy_conv())
        assert result.dram_stats is not None
        assert result.dram_stats.reads > 0

    def test_dram_adds_latency_over_ideal(self):
        ideal = Simulator(_config(bandwidth_words=10_000)).run(toy_conv())
        dram = Simulator(self._dram_config()).run(toy_conv())
        assert dram.total_cycles >= ideal.total_cycles

    def test_more_channels_not_slower(self):
        one = Simulator(self._dram_config(channels=1)).run(toy_conv())
        four = Simulator(self._dram_config(channels=4)).run(toy_conv())
        assert four.total_cycles <= one.total_cycles

    def test_tiny_queue_not_faster(self):
        small = Simulator(
            self._dram_config(read_queue_entries=1, write_queue_entries=1)
        ).run(toy_conv())
        large = Simulator(
            self._dram_config(read_queue_entries=256, write_queue_entries=256)
        ).run(toy_conv())
        assert large.total_cycles <= small.total_cycles

    def test_run_layer_single(self):
        sim = Simulator(self._dram_config())
        [layer_result] = sim.run(toy_conv().first_layers(1)).layers
        assert layer_result.total_cycles > 0

    def test_backpressure_and_drain_surfaced_per_layer(self):
        result = Simulator(
            self._dram_config(read_queue_entries=1, write_queue_entries=1)
        ).run(toy_conv())
        # 1-entry queues stall the front-end constantly.
        assert sum(layer.backpressure_stall_cycles for layer in result.layers) > 0
        assert all(layer.drain_cycles >= 0 for layer in result.layers)

    def test_ideal_backend_reports_zero_backpressure(self):
        result = Simulator(_config()).run(toy_conv())
        assert all(layer.backpressure_stall_cycles == 0 for layer in result.layers)


class TestReports:
    def test_write_reports(self, tmp_path):
        result = Simulator(_config()).run(toy_conv())
        paths = result.write_reports(tmp_path)
        assert len(paths) == 3
        for path in paths:
            assert path.exists()
            assert path.read_text().count("\n") == len(result.layers) + 1

    def test_backpressure_and_drain_columns_present(self, tmp_path):
        config = SystemConfig(
            arch=ArchitectureConfig(array_rows=8, array_cols=8),
            dram=DramConfig(enabled=True, read_queue_entries=1, write_queue_entries=1),
        )
        result = Simulator(config).run(toy_conv())
        result.write_reports(tmp_path)
        detailed = (tmp_path / result.run_name / "DETAILED_ACCESS_REPORT.csv").read_text()
        header = detailed.splitlines()[0]
        assert header.endswith("DramBackpressureStallCycles,DramDrainCycles")
        bandwidth = (tmp_path / result.run_name / "BANDWIDTH_REPORT.csv").read_text()
        assert bandwidth.splitlines()[0].endswith(
            "DramBackpressureStall%,AvgDramBwInclDrain(words/cycle)"
        )


class TestComputePlanSeam:
    """The plan/resolve split behind the DRAM fan-out."""

    def _dram_config(self, **dram_kw):
        defaults = dict(enabled=True, channels=2)
        defaults.update(dram_kw)
        return SystemConfig(
            arch=ArchitectureConfig(array_rows=8, array_cols=8, bandwidth_words=16),
            dram=DramConfig(**defaults),
        )

    def test_plan_is_dram_independent(self):
        from repro.core.simulator import plan_signature

        ideal = _config()
        dram = self._dram_config()
        assert plan_signature(ideal.arch) == plan_signature(dram.arch)
        assert Simulator(ideal).plan(toy_conv()) == Simulator(dram).plan(toy_conv())

    @pytest.mark.parametrize(
        "arch_kw, dram_kw",
        [
            (dict(bandwidth_words=16), dict(channels=2)),
            (dict(), dict(technology="ddr4", channels=1)),
        ],
        ids=["two_channels", "one_channel"],
    )
    def test_run_equals_plan_plus_resolve(self, arch_kw, dram_kw):
        """The grid walk of a lone config equals the per-fold walk of the spec."""
        from repro.core.simulator import resolve_plan
        from repro.dram.backend import DramBackend, make_ramulator
        from repro.dram.engine import ReferenceEngine

        config = SystemConfig(
            arch=ArchitectureConfig(array_rows=8, array_cols=8, **arch_kw),
            dram=DramConfig(enabled=True, **dram_kw),
        )
        sim = Simulator(config)
        direct = sim.run(toy_conv())
        engine = ReferenceEngine(
            make_ramulator(config.dram),
            read_queue_entries=config.dram.read_queue_entries,
            write_queue_entries=config.dram.write_queue_entries,
            max_issue_per_cycle=config.dram.issue_per_cycle,
        )
        backend = DramBackend(engine, word_bytes=config.arch.word_bytes)
        resolved = resolve_plan(sim.plan(toy_conv()), backend, config.run.run_name)
        assert resolved == direct

    def test_layer_plans_memoized_within_process(self):
        from repro.core.simulator import clear_compute_plan_cache, layer_compute

        clear_compute_plan_cache()
        sim = Simulator(_config())
        first = sim.plan(toy_conv())
        misses = layer_compute.cache_info().misses
        second = sim.plan(toy_conv())
        assert layer_compute.cache_info().misses == misses
        # Identical plan objects: repeated layers are never rebuilt.
        assert all(a is b for a, b in zip(first.computes, second.computes))

    def test_plan_carries_schedule_shape(self):
        plan = Simulator(_config()).plan(toy_conv())
        assert len(plan.computes) == 2
        assert plan.total_folds == sum(len(c.fold_specs) for c in plan.computes)
        assert plan.topology_name == toy_conv().name


class TestPlanCacheSizing:
    """The per-layer plan LRU holds 64 schedules."""

    def test_default_size(self):
        from repro.core.simulator import layer_compute

        assert layer_compute.cache_info().maxsize == 64

    def test_tiny_cache_still_correct(self):
        import repro.core.simulator as simulator

        sim = Simulator(_config())
        first = sim.plan(toy_conv())
        simulator.clear_compute_plan_cache()
        assert simulator.layer_compute.cache_info().currsize == 0
        second = sim.plan(toy_conv())
        assert first.computes == second.computes

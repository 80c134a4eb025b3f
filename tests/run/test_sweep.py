"""Unit tests for the sweep-execution subsystem (repro.run.sweep)."""

import pytest

from repro.config.system import (
    ArchitectureConfig,
    EnergyConfig,
    RunConfig,
    SystemConfig,
)
from repro.core.report import write_sweep_report
from repro.errors import ConfigError, ReportError
from repro.run.cli import main
from repro.run.sweep import (
    Axis,
    ResultCache,
    SweepRunner,
    SweepSpec,
    apply_override,
    content_key,
    single_point,
)
from repro.topology.models import toy_conv, toy_gemm


def _base() -> SystemConfig:
    return SystemConfig(run=RunConfig(run_name="unit_sweep"))


def _spec(**kwargs) -> SweepSpec:
    defaults = dict(
        base=_base(),
        axes=[Axis("arch.dataflow", ("os", "ws"))],
        topologies=[toy_gemm()],
        name="unit",
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def _reference_layout(config: SystemConfig, topology) -> list:
    """The layout study through the single-config evaluator."""
    from repro.layout.integrate import evaluate_layout_slowdown

    if not config.layout.enabled:
        return []
    return [
        evaluate_layout_slowdown(
            layer,
            config.arch.dataflow,
            config.arch.array_rows,
            config.arch.array_cols,
            config.layout.num_banks,
            config.layout.total_bandwidth_words,
            ports_per_bank=config.layout.ports_per_bank,
        )
        for layer in topology
    ]


class TestAxis:
    def test_fields_default_to_name(self):
        axis = Axis("dram.channels", (1, 2))
        assert axis.fields == ("dram.channels",)

    def test_multi_field_axis(self):
        axis = Axis("array", (8, 16), fields=("arch.array_rows", "arch.array_cols"))
        assert axis.fields == ("arch.array_rows", "arch.array_cols")

    def test_empty_values_rejected(self):
        with pytest.raises(ConfigError):
            Axis("dram.channels", ())

    def test_undotted_field_rejected(self):
        with pytest.raises(ConfigError):
            Axis("channels", (1, 2))

    def test_run_section_not_sweepable(self):
        with pytest.raises(ConfigError):
            Axis("run.run_name", ("a", "b"))


class TestApplyOverride:
    def test_sets_nested_field(self):
        config = apply_override(_base(), "dram.channels", 4)
        assert config.dram.channels == 4
        assert config.arch == _base().arch

    def test_unknown_field_rejected(self):
        for path, value in (
            ("dram.bogus", 1),
            ("dram.engine", "reference"),
            ("layout.evaluator", "reference"),
            ("multicore.partitions_row", 2),
            ("layout.c1_step", 4),
            ("layout.h1_step", 1),
            ("layout.w1_step", 8),
        ):
            with pytest.raises(ConfigError):
                apply_override(_base(), path, value)

    def test_invalid_value_fails_at_construction(self):
        with pytest.raises(ConfigError):
            apply_override(_base(), "dram.channels", 0)


class TestSweepSpecExpand:
    def test_point_count_is_cross_product(self):
        spec = _spec(
            axes=[Axis("arch.dataflow", ("os", "ws", "is")), Axis("dram.channels", (1, 2))],
            topologies=[toy_gemm(), toy_conv()],
        )
        assert len(spec.expand()) == 12

    def test_ordering_topology_outer_last_axis_fastest(self):
        spec = _spec(
            axes=[Axis("arch.dataflow", ("os", "ws")), Axis("dram.channels", (1, 2))],
            topologies=[toy_gemm(), toy_conv()],
        )
        points = spec.expand()
        assert [p.topology.name for p in points[:4]] == ["toy_gemm"] * 4
        assert [p.assignment for p in points[:4]] == [
            (("arch.dataflow", "os"), ("dram.channels", 1)),
            (("arch.dataflow", "os"), ("dram.channels", 2)),
            (("arch.dataflow", "ws"), ("dram.channels", 1)),
            (("arch.dataflow", "ws"), ("dram.channels", 2)),
        ]
        assert points[4].topology.name == "toy_conv"

    def test_multi_field_axis_applies_to_all_fields(self):
        spec = _spec(axes=[Axis("array", (8, 16), fields=("arch.array_rows", "arch.array_cols"))])
        points = spec.expand()
        assert [(p.config.arch.array_rows, p.config.arch.array_cols) for p in points] == [
            (8, 8),
            (16, 16),
        ]

    def test_mapping_axes_accepted(self):
        spec = _spec(axes={"dram.channels": (1, 2, 4)})
        assert [p.config.dram.channels for p in spec.expand()] == [1, 2, 4]

    def test_run_names_unique_and_prefixed(self):
        points = _spec().expand()
        names = [p.config.run.run_name for p in points]
        assert len(set(names)) == len(names)
        assert all(name.startswith("unit_") for name in names)

    def test_empty_axes_is_one_point_per_topology(self):
        spec = _spec(axes=[], topologies=[toy_gemm(), toy_conv()])
        assert [p.assignment for p in spec.expand()] == [(), ()]

    def test_no_topologies_rejected(self):
        with pytest.raises(ConfigError):
            _spec(topologies=[])

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ConfigError):
            _spec(axes=[Axis("dram.channels", (1,)), Axis("dram.channels", (2,))])


class TestContentKey:
    def test_stable_for_equal_inputs(self):
        assert content_key(_base(), toy_gemm()) == content_key(_base(), toy_gemm())

    def test_differs_across_configs_and_topologies(self):
        base = _base()
        assert content_key(base, toy_gemm()) != content_key(
            apply_override(base, "dram.channels", 2), toy_gemm()
        )
        assert content_key(base, toy_gemm()) != content_key(base, toy_conv())

    def test_ignores_run_metadata(self):
        renamed = _base().replace(run=RunConfig(run_name="other", output_dir="elsewhere"))
        assert content_key(_base(), toy_gemm()) == content_key(renamed, toy_gemm())


class TestSweepRunner:
    def test_results_in_grid_order_with_run_names(self):
        results = SweepRunner().run(_spec())
        assert [r.index for r in results] == [0, 1]
        assert [r.assignment_dict["arch.dataflow"] for r in results] == ["os", "ws"]
        assert all(r.run_result.run_name == r.config.run.run_name for r in results)
        assert all(r.total_cycles > 0 for r in results)

    def test_worker_count_edge_cases_agree_with_serial(self):
        spec = _spec(
            axes=[Axis("arch.dataflow", ("os", "ws", "is")), Axis("dram.channels", (1, 2))],
            topologies=[toy_gemm(), toy_conv()],
        )
        serial = SweepRunner(workers=1).run(spec)
        for workers in (2, 16):
            parallel = SweepRunner(workers=workers).run(spec)
            assert [r.total_cycles for r in parallel] == [r.total_cycles for r in serial]
            assert [r.total_stall_cycles for r in parallel] == [
                r.total_stall_cycles for r in serial
            ]
            assert [r.assignment for r in parallel] == [r.assignment for r in serial]

    def test_parallel_csv_bitwise_identical_to_serial(self, tmp_path):
        from repro.config.system import DramConfig, LayoutConfig

        fanout_base = _base().replace(
            dram=DramConfig(enabled=True),
            layout=LayoutConfig(enabled=True, num_banks=1),
        )
        # (spec, units dispatched at 4 workers): several units run as
        # they are; a lone fan-out unit splits by its memory or layout
        # configs, whichever has more distinct values.
        cases = [
            (
                _spec(
                    base=_base().replace(energy=EnergyConfig(enabled=True)),
                    axes=[
                        Axis("array", (8, 16), fields=("arch.array_rows", "arch.array_cols"))
                    ],
                    topologies=[toy_gemm(), toy_conv()],
                ),
                4,
            ),
            (
                _spec(
                    base=_base().replace(dram=DramConfig(enabled=True)),
                    axes=[Axis("dram.channels", (1, 2, 4))],
                    topologies=[toy_conv()],
                ),
                3,
            ),
            (
                _spec(
                    base=fanout_base.replace(dram=DramConfig()),
                    axes=[Axis("layout.num_banks", (1, 2, 4, 8, 16))],
                    topologies=[toy_conv()],
                ),
                4,
            ),
            (
                _spec(
                    base=fanout_base,
                    axes=[
                        Axis("dram.channels", (1, 2)),
                        Axis("layout.num_banks", (1, 2, 4)),
                    ],
                    topologies=[toy_conv()],
                ),
                3,
            ),
        ]
        for number, (spec, units) in enumerate(cases):
            serial_csv = write_sweep_report(
                SweepRunner(workers=1).run(spec), tmp_path / f"serial{number}.csv"
            )
            runner = SweepRunner(workers=4)
            parallel_csv = write_sweep_report(
                runner.run(spec), tmp_path / f"parallel{number}.csv"
            )
            assert serial_csv.read_bytes() == parallel_csv.read_bytes(), number
            assert tuple(runner.last_grouping) == (len(spec.expand()), units), number

    def test_split_unit_follows_the_wider_fanout_class(self):
        from repro.config.system import DramConfig, LayoutConfig
        from repro.run.sweep import _grouped_units, _split_unit

        base = _base().replace(
            dram=DramConfig(enabled=True),
            layout=LayoutConfig(enabled=True, num_banks=1),
        )

        def split(axes, width=2, dense=True):
            [unit] = _grouped_units(_spec(base=base, axes=axes).expand(), dense)
            return [
                [(c.dram.channels, c.layout.num_banks) for c in configs]
                for _, configs, _, _ in _split_unit(unit, width)
            ]

        cross = [Axis("dram.channels", (1, 2)), Axis("layout.num_banks", (1, 2))]
        # A tie goes to the layout class; members keep their order.
        assert split(cross) == [[(1, 1), (2, 1)], [(1, 2), (2, 2)]]
        # More distinct memory configs: deal those round-robin.
        assert split([Axis("dram.channels", (1, 2, 4))]) == [[(1, 1), (4, 1)], [(2, 1)]]
        assert split([Axis("dram.channels", (1, 2, 4))], width=8) == [
            [(1, 1)],
            [(2, 1)],
            [(4, 1)],
        ]
        # Nothing to spread: one distinct value per class, or no dense run.
        assert split([Axis("dram.channels", (1,))]) == [[(1, 1)]]
        assert split(cross, dense=False) == [[(1, 1), (1, 2), (2, 1), (2, 2)]]

    def test_repeated_sweep_hits_cache(self):
        cache = ResultCache()
        spec = _spec()
        first = SweepRunner(cache=cache).run(spec)
        assert all(not r.from_cache for r in first)
        assert (cache.hits, cache.misses) == (0, 2)
        second = SweepRunner(cache=cache).run(spec)
        assert all(r.from_cache for r in second)
        assert (cache.hits, cache.misses) == (2, 2)
        assert [r.total_cycles for r in second] == [r.total_cycles for r in first]

    def test_changed_config_misses_cache(self):
        cache = ResultCache()
        SweepRunner(cache=cache).run(_spec())
        SweepRunner(cache=cache).run(
            _spec(base=apply_override(_base(), "arch.bandwidth_words", 99))
        )
        assert cache.hits == 0
        assert cache.misses == 4

    def test_duplicate_points_simulated_once(self):
        # A genuinely duplicated axis value: both points have identical
        # content, so only the first is simulated.
        spec = _spec(axes=[Axis("arch.dataflow", ("os", "os"))])
        cache = ResultCache()
        results = SweepRunner(cache=cache).run(spec)
        assert len(cache) == 1
        assert [r.from_cache for r in results] == [False, True]
        assert results[0].total_cycles == results[1].total_cycles
        # Counters agree with the per-point labels: one simulated miss,
        # one duplicate served as a hit.
        assert (cache.hits, cache.misses) == (1, 1)

    def test_disk_cache_persists_across_instances(self, tmp_path):
        from repro.store.artifact_store import ArtifactStore

        spec = _spec()
        SweepRunner(cache=ResultCache(ArtifactStore(tmp_path / "store"))).run(spec)
        cache = ResultCache(ArtifactStore(tmp_path / "store"))
        results = SweepRunner(cache=cache).run(spec)
        assert all(r.from_cache for r in results)
        assert cache.misses == 0

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ConfigError):
            SweepRunner(workers=0)

    def test_single_point_helper(self):
        result = single_point(_base(), toy_gemm())
        assert result.index == 0
        assert result.topology_name == "toy_gemm"
        assert result.total_cycles > 0

    def test_sparse_only_sweep_skips_dense(self):
        base = apply_override(_base(), "sparsity.sparsity_support", True)
        [result] = SweepRunner().run(_spec(base=base, axes=[], simulate_dense=False))
        assert result.total_cycles == 0  # dense pass skipped
        assert result.sparse_compute_cycles > 0
        # The dense flag is part of the content hash: the two variants
        # of the same point must not share cache entries.
        assert content_key(base, toy_gemm(), True) != content_key(base, toy_gemm(), False)

    def test_energy_and_sparsity_payloads(self):
        base = _base().replace(energy=EnergyConfig(enabled=True))
        base = apply_override(base, "sparsity.sparsity_support", True)
        [result] = SweepRunner().run(_spec(base=base, axes=[]))
        assert result.energy_report is not None
        assert result.energy_mj > 0
        assert result.edp == result.total_cycles * result.energy_mj
        assert result.sparse_compute_cycles > 0


class TestSweepReport:
    def test_empty_results_rejected(self, tmp_path):
        with pytest.raises(ReportError):
            write_sweep_report([], tmp_path / "empty.csv")

    def test_header_includes_axis_columns(self, tmp_path):
        results = SweepRunner().run(_spec())
        path = write_sweep_report(results, tmp_path / "report.csv")
        header = path.read_text().splitlines()[0]
        assert header.startswith("PointID,Topology,arch.dataflow,TotalCycles")


class TestSweepCli:
    def test_sweep_subcommand(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--preset",
                "scale_sim_v2_default",
                "--model",
                "toy_gemm",
                "--set",
                "arch.dataflow=os,ws",
                "--workers",
                "2",
                "-p",
                str(tmp_path),
                "--name",
                "cli_unit",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cli_unit (2 points, 2 workers)" in out
        assert (tmp_path / "cli_unit_report.csv").exists()

    def test_sweep_cache_dir_reuse(self, tmp_path, capsys):
        argv = [
            "sweep",
            "--preset",
            "scale_sim_v2_default",
            "--model",
            "toy_gemm",
            "--set",
            "dram.channels=1,2",
            "-p",
            str(tmp_path),
            "--store-dir",
            str(tmp_path / "store"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "cache:    2 hits / 0 misses" in capsys.readouterr().out

    def test_grouping_summary_line(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--preset",
                "scale_sim_v2_default",
                "--model",
                "toy_gemm",
                "--set",
                "dram.channels=1,2",
                "-p",
                str(tmp_path),
                "--name",
                "cli_group",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # dram.* is a groupable axis class: both points share one unit.
        assert "grouping: 2 points -> 1 simulation unit" in out

    def test_bad_axis_option_exits(self, tmp_path):
        code = main(
            [
                "sweep",
                "--preset",
                "scale_sim_v2_default",
                "--model",
                "toy_gemm",
                "--set",
                "dram.channels",
                "-p",
                str(tmp_path),
            ]
        )
        assert code == 2


    @pytest.mark.parametrize(
        "option",
        [
            "dram.channels=two",
            "dram.channels=1.5",
            "arch.num_pes=4",
            "dram.no_such_field=1",
            "arch.dataflow=xyz",
            "arch.array_rows=true",
            "dram.address_mapping=zzz",
        ],
    )
    def test_bad_axis_value_is_one_error_line(self, tmp_path, capsys, option):
        argv = ["sweep", "--preset", "google_tpu_v2", "--model", "toy_gemm"]
        assert main(argv + ["--set", option, "-p", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not any(tmp_path.iterdir())  # nothing ran, nothing written

    def test_upper_case_text_matches_cfg_text(self, tmp_path, capsys):
        """``--set arch.dataflow=WS`` runs, as ``Dataflow = WS`` loads."""
        from repro.config.parser import parse_config_text

        argv = ["sweep", "--preset", "scale_sim_v2_default", "--model", "toy_gemm"]
        assert main(argv + ["--set", "arch.dataflow=WS", "-p", str(tmp_path)]) == 0
        assert "1 points" in capsys.readouterr().out
        cfg = parse_config_text("[architecture_presets]\nDataflow = WS\n")
        assert cfg.arch.dataflow == "ws"
        assert apply_override(_base(), "arch.dataflow", "WS").arch.dataflow == "ws"

    def test_submit_posts_typed_axis_values(self):
        from repro.run.cli import build_submit_parser
        from repro.run.request import SweepRequest

        args = build_submit_parser().parse_args(
            ["--preset", "google_tpu_v2", "--model", "toy_gemm",
             "--set", "dram.channels=1,2", "--set", "dram.enabled=true"]
        )
        payload = SweepRequest.from_args(args).to_payload()
        assert payload["axes"] == [
            {"field": "dram.channels", "values": [1, 2]},
            {"field": "dram.enabled", "values": [True]},
        ]


class TestLayoutFanoutGrouping:
    """Sweep points differing only in layout.* ride one trace pass."""

    def _layout_spec(self, **kwargs) -> SweepSpec:
        import dataclasses

        from repro.config.system import LayoutConfig

        base = _base().replace(
            layout=LayoutConfig(enabled=True, num_banks=1, bandwidth_per_bank_words=16)
        )
        defaults = dict(
            base=base,
            axes=[Axis("layout.num_banks", (1, 2, 4))],
            topologies=[toy_conv()],
            name="layout_grid",
        )
        defaults.update(kwargs)
        return SweepSpec(**defaults)

    def test_grouped_results_match_per_point_simulation(self):
        from repro.core.simulator import Simulator

        spec = self._layout_spec()
        topology = spec.topologies[0]
        results = SweepRunner(workers=1).run(spec)
        assert len(results) == 3
        for result in results:
            assert result.layout_results == _reference_layout(result.config, topology)
            assert result.total_cycles == (
                Simulator(result.config).run(topology).total_cycles
            )

    def test_grouping_unit_structure(self):
        from repro.run.sweep import _grouped_units

        spec = self._layout_spec()
        units = _grouped_units(spec.expand(), True)
        assert len(units) == 1  # one fan-out group of three points
        members, configs, topology, dense = units[0]
        assert members == [0, 1, 2]
        assert [config.layout.num_banks for config in configs] == [1, 2, 4]
        assert topology is spec.topologies[0] and dense

    def test_dram_and_layout_axes_share_one_unit(self):
        from repro.run.sweep import _grouped_units

        spec = self._layout_spec(
            axes=[Axis("layout.num_banks", (1, 2)), Axis("dram.channels", (1, 2))]
        )
        units = _grouped_units(spec.expand(), True)
        # dram.* and layout.* are both groupable axis classes: the whole
        # 2x2 cross collapses into one simulation unit.
        assert [len(members) for members, *_ in units] == [4]
        assert len(units[0][1]) == 4  # one config per point

    def test_non_groupable_axes_stay_separate(self):
        from repro.run.sweep import _grouped_units

        spec = self._layout_spec(
            axes=[Axis("layout.num_banks", (1, 2)), Axis("arch.bandwidth_words", (10, 20))]
        )
        units = _grouped_units(spec.expand(), True)
        # Two arch.* values -> two groups of two layout points.
        assert sorted(len(members) for members, *_ in units) == [2, 2]

    def test_layout_disabled_points_still_group(self):
        from repro.run.sweep import _grouped_units

        # layout.* differences with the study disabled still share one
        # compute plan (the dense run reads neither section).
        spec = _spec(axes=[Axis("layout.num_banks", (1, 2))])
        units = _grouped_units(spec.expand(), True)
        assert [len(members) for members, *_ in units] == [2]
        results = SweepRunner(workers=1).run(spec)
        assert results[0].total_cycles == results[1].total_cycles
        assert all(not r.layout_results for r in results)

    def test_mixed_layout_enabled_group_respects_each_point(self):
        # layout.enabled is itself groupable: both points share one unit,
        # but only the enabled point may carry layout results.
        for values in ((False, True), (True, False)):
            spec = self._layout_spec(axes=[Axis("layout.enabled", values)])
            results = SweepRunner(workers=1).run(spec)
            for result in results:
                expected = _reference_layout(result.config, spec.topologies[0])
                assert result.layout_results == expected, values
            by_flag = {r.config.layout.enabled: r for r in results}
            assert by_flag[True].layout_results
            assert not by_flag[False].layout_results

    def test_parallel_grouped_sweep_identical_to_serial(self, tmp_path):
        spec = self._layout_spec()
        serial = SweepRunner(workers=1).run(spec)
        parallel = SweepRunner(workers=2).run(spec)
        assert [r.layout_results for r in serial] == [
            r.layout_results for r in parallel
        ]
        serial_csv = tmp_path / "serial.csv"
        parallel_csv = tmp_path / "parallel.csv"
        write_sweep_report(serial, serial_csv)
        write_sweep_report(parallel, parallel_csv)
        assert serial_csv.read_bytes() == parallel_csv.read_bytes()

    def test_grouped_points_cache_individually(self):
        spec = self._layout_spec()
        cache = ResultCache()
        SweepRunner(workers=1, cache=cache).run(spec)
        assert cache.misses == 3
        again = SweepRunner(workers=1, cache=cache).run(spec)
        assert cache.hits == 3
        assert all(result.from_cache for result in again)

    def test_layout_sweep_report_written(self, tmp_path):
        from repro.core.report import write_layout_sweep_report

        spec = self._layout_spec()
        results = SweepRunner(workers=1).run(spec)
        path = write_layout_sweep_report(results, tmp_path / "layout.csv")
        lines = path.read_text().strip().splitlines()
        # header + 3 points x layers rows
        layers = len(results[0].layout_results)
        assert len(lines) == 1 + 3 * layers
        assert lines[0].startswith("PointID,LayerID,LayerName")

    def test_layout_report_refuses_empty(self, tmp_path):
        from repro.core.report import write_layout_sweep_report

        results = SweepRunner(workers=1).run(_spec())
        with pytest.raises(ReportError):
            write_layout_sweep_report(results, tmp_path / "layout.csv")


class TestDramFanoutGrouping:
    """Sweep points differing only in dram.* ride one compute plan."""

    def _dram_spec(self, **kwargs) -> SweepSpec:
        from repro.config.system import DramConfig

        base = _base().replace(dram=DramConfig(enabled=True, channels=1))
        defaults = dict(
            base=base,
            axes=[Axis("dram.channels", (1, 2, 4))],
            topologies=[toy_conv()],
            name="dram_grid",
        )
        defaults.update(kwargs)
        return SweepSpec(**defaults)

    def test_dram_axis_collapses_to_one_unit(self):
        from repro.run.sweep import _grouped_units

        units = _grouped_units(self._dram_spec().expand(), True)
        assert len(units) == 1
        members, configs, _, _ = units[0]
        assert members == [0, 1, 2]
        assert [config.dram.channels for config in configs] == [1, 2, 4]

    def test_grouped_results_match_per_point_simulation(self):
        from repro.core.simulator import Simulator

        spec = self._dram_spec(
            axes=[
                Axis("dram.channels", (1, 2)),
                Axis(
                    "queue",
                    (4, 128),
                    fields=("dram.read_queue_entries", "dram.write_queue_entries"),
                ),
            ]
        )
        results = SweepRunner(workers=1).run(spec)
        assert len(results) == 4
        for result in results:
            solo = Simulator(result.config).run(spec.topologies[0])
            assert result.run_result.total_cycles == solo.total_cycles
            assert result.run_result.layers[0].timeline == solo.layers[0].timeline
            assert result.run_result.dram_stats == solo.dram_stats

    def test_engines_agree_inside_one_group(self):
        """The grouped (grid-engine) points equal scalar ReferenceEngine runs."""
        from repro.core.simulator import Simulator, resolve_plan
        from repro.dram.backend import DramBackend, make_ramulator
        from repro.dram.engine import ReferenceEngine

        spec = self._dram_spec()
        for result in SweepRunner(workers=1).run(spec):
            config = result.config
            engine = ReferenceEngine(
                make_ramulator(config.dram),
                read_queue_entries=config.dram.read_queue_entries,
                write_queue_entries=config.dram.write_queue_entries,
                max_issue_per_cycle=config.dram.issue_per_cycle,
            )
            reference = resolve_plan(
                Simulator(config).plan(spec.topologies[0]),
                DramBackend(engine, word_bytes=config.arch.word_bytes),
                config.run.run_name,
            )
            assert result.total_cycles == reference.total_cycles
            assert result.run_result.dram_stats == reference.dram_stats

    def test_mixed_enabled_and_ideal_points_group(self):
        spec = self._dram_spec(axes=[Axis("dram.enabled", (False, True))])
        ideal, dram = SweepRunner(workers=1).run(spec)
        assert ideal.run_result.dram_stats is None
        assert dram.run_result.dram_stats is not None
        assert ideal.total_cycles != dram.total_cycles

    def test_energy_follows_the_memory_config(self):
        from repro.core.simulator import Simulator
        from repro.energy.accelergy import AccelergyLite

        spec = self._dram_spec(
            base=self._dram_spec().base.replace(energy=EnergyConfig(enabled=True))
        )
        results = SweepRunner(workers=1).run(spec)
        energies = [result.energy_mj for result in results]
        assert all(energy > 0 for energy in energies)
        for result in results:
            config = result.config
            solo = Simulator(config).run(spec.topologies[0])
            expected = AccelergyLite(config.arch, config.energy).estimate_run(solo)
            assert result.energy_report == expected

    def test_grouped_points_cache_individually(self):
        cache = ResultCache()
        spec = self._dram_spec()
        SweepRunner(workers=1, cache=cache).run(spec)
        assert cache.misses == 3
        again = SweepRunner(workers=1, cache=cache).run(spec)
        assert cache.hits == 3
        assert all(result.from_cache for result in again)

    def test_parallel_grouped_sweep_csv_identical_to_serial(self, tmp_path):
        spec = self._dram_spec(topologies=[toy_gemm(), toy_conv()])
        serial_csv = write_sweep_report(
            SweepRunner(workers=1).run(spec), tmp_path / "serial.csv"
        )
        parallel_csv = write_sweep_report(
            SweepRunner(workers=3).run(spec), tmp_path / "parallel.csv"
        )
        assert serial_csv.read_bytes() == parallel_csv.read_bytes()

    def test_last_grouping_reports_collapse(self):
        runner = SweepRunner(workers=1)
        assert runner.last_grouping is None
        runner.run(self._dram_spec())
        assert runner.last_grouping == (3, 1)
        # A fully cached re-run simulates nothing.
        runner.run(self._dram_spec())
        assert runner.last_grouping == (0, 0)

    def test_fanout_summary_counts_one_grid_pass_per_queue_depth(self):
        spec = self._dram_spec(
            axes=[
                Axis("dram.channels", (1, 2)),
                Axis("dram.read_queue_entries", (32, 128)),
            ]
        )
        runner = SweepRunner(workers=1)
        runner.run(spec)
        [unit] = runner.last_grouping.units
        # Four batched configs share one word size, but the grid engine
        # resolves each (read, write) queue depth as its own pass.
        assert unit.points == 4
        assert unit.grid_passes == (2, 2)

    def test_fanout_summary_counts_one_grid_pass_per_technology(self):
        spec = self._dram_spec(
            axes=[
                Axis("dram.technology", ("ddr4", "hbm2")),
                Axis("dram.read_queue_entries", (32, 128)),
            ]
        )
        runner = SweepRunner(workers=1)
        runner.run(spec)
        [unit] = runner.last_grouping.units
        # One vector pass needs one DRAM timing as well as one queue
        # depth: each (technology, depth) pair is a pass of its own.
        assert unit.points == 4
        assert unit.grid_passes == (1, 1, 1, 1)


class TestOnePipeline:
    """Every unit, a lone point included, runs through simulate_configs."""

    def _full_config(self) -> SystemConfig:
        from repro.config.system import DramConfig, LayoutConfig, SparsityConfig

        return _base().replace(
            dram=DramConfig(enabled=True, channels=2),
            layout=LayoutConfig(enabled=True, num_banks=2),
            energy=EnergyConfig(enabled=True),
            sparsity=SparsityConfig(
                sparsity_support=True, optimized_mapping=True, block_size=4
            ),
        )

    def test_single_point_matches_independent_references(self):
        import dataclasses

        import numpy as np

        from repro.core.simulator import Simulator
        from repro.energy.accelergy import AccelergyLite
        from repro.sparsity.sparse_compute import SparseComputeSimulator

        topology = toy_conv().with_sparsity("2:4")
        runner = SweepRunner(workers=1)
        [result] = runner.run(
            SweepSpec(base=self._full_config(), topologies=[topology], name="one")
        )
        assert tuple(runner.last_grouping) == (1, 1)
        config = result.config

        dense = Simulator(config).run(topology)
        # Sweep payloads drop per-fold schedules; everything else matches.
        assert result.run_result == dataclasses.replace(
            dense,
            layers=[
                dataclasses.replace(
                    layer, compute=dataclasses.replace(layer.compute, fold_specs=[])
                )
                for layer in dense.layers
            ],
        )
        assert result.run_result.dram_stats is not None
        assert result.energy_report == AccelergyLite(
            config.arch, config.energy
        ).estimate_run(dense)
        assert result.layout_results == _reference_layout(config, topology)
        assert result.layout_results

        sparse_sim = SparseComputeSimulator(
            array_rows=config.arch.array_rows,
            array_cols=config.arch.array_cols,
            representation=config.sparsity.sparse_representation,
            word_bits=config.arch.word_bytes * 8,
            ifmap_sram_words=config.arch.ifmap_sram_words(),
            ofmap_sram_words=config.arch.ofmap_sram_words(),
            seed=config.sparsity.random_seed,
        )
        assert len(result.sparse_results) == len(topology)
        for got, layer in zip(result.sparse_results, topology):
            want = sparse_sim.simulate_layer(layer, rowwise=True, block_size=4)
            assert np.array_equal(
                got.pattern.nnz_per_block, want.pattern.nnz_per_block
            )
            assert dataclasses.replace(got, pattern=None) == dataclasses.replace(
                want, pattern=None
            )
            assert got.pattern.nnz_per_block.max() <= 2  # 2:4 applied

    def test_sparsity_only_points_group_by_axis_class(self):
        from repro.run.sweep import _grouped_units

        # Without the dense pass neither dram.* nor layout.* is read, so
        # points differing only there share one sparsity pass.
        base = apply_override(_base(), "sparsity.sparsity_support", True)
        spec = _spec(
            base=base, axes=[Axis("dram.channels", (1, 2))], simulate_dense=False
        )
        units = _grouped_units(spec.expand(), False)
        assert [members for members, *_ in units] == [[0, 1]]
        first, second = SweepRunner(workers=1).run(spec)
        assert first.total_cycles == second.total_cycles == 0
        assert first.sparse_compute_cycles == second.sparse_compute_cycles > 0

    def test_simulate_configs_rejects_non_fanout_differences(self):
        from repro.run.runner import simulate_configs

        configs = [point.config for point in _spec().expand()]  # os vs ws
        with pytest.raises(ConfigError, match="outside dram"):
            simulate_configs(configs, toy_gemm())

    def test_simulate_configs_empty_grid_is_empty(self):
        # Like both fan-outs it feeds, an empty grid yields no outputs.
        from repro.run.runner import simulate_configs

        assert simulate_configs([], toy_gemm()) == []
        assert simulate_configs([], toy_gemm(), dense=False) == []


class TestSweepCliLayoutReport:
    def test_layout_axis_sweep_writes_layout_report(self, tmp_path, capsys):
        from repro.config.parser import save_config
        from repro.config.system import LayoutConfig

        config = _base().replace(
            layout=LayoutConfig(enabled=True, num_banks=1, bandwidth_per_bank_words=16)
        )
        cfg_path = tmp_path / "layout_on.cfg"
        save_config(config, cfg_path)
        code = main(
            [
                "sweep",
                "-c",
                str(cfg_path),
                "--model",
                "toy_conv",
                "--set",
                "layout.num_banks=1,2",
                "-p",
                str(tmp_path),
                "--name",
                "cli_layout",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        report = tmp_path / "cli_layout_layout_report.csv"
        assert report.exists()
        assert str(report) in out
        assert report.read_text().startswith("PointID,LayerID,LayerName,Dataflow")


class TestArtifactStoreIntegration:
    """SweepRunner(store=...) must never change results — only reuse work."""

    def _report_bytes(self, tmp_path, name, store=None):
        from repro.core.simulator import clear_compute_plan_cache

        clear_compute_plan_cache()
        runner = SweepRunner(store=store)
        spec = SweepSpec(
            base=_base(),
            axes=[Axis("arch.dataflow", ("os", "ws")), Axis("dram.channels", (1, 2))],
            topologies=[toy_gemm(), toy_conv()],
            name="store_equiv",
        )
        results = runner.run(spec)
        path = tmp_path / f"{name}.csv"
        write_sweep_report(results, path)
        return path.read_bytes()

    def test_report_csv_identical_with_and_without_store(self, tmp_path):
        from repro.store.artifact_store import ArtifactStore

        reference = self._report_bytes(tmp_path, "no_store")
        store = ArtifactStore(tmp_path / "store")
        cold = self._report_bytes(tmp_path, "cold", store=store)
        assert store.misses > 0  # the cold run populated the store
        warm = self._report_bytes(tmp_path, "warm", store=store)
        assert store.hits > 0  # the warm run actually served from it
        assert cold == reference
        assert warm == reference

    def test_store_survives_pool_workers(self, tmp_path):
        from repro.core.simulator import clear_compute_plan_cache
        from repro.store.artifact_store import ArtifactStore

        store = ArtifactStore(tmp_path / "store")
        spec = _spec(axes=[Axis("arch.dataflow", ("os", "ws", "is"))])
        reference = SweepRunner().run(_spec(axes=[Axis("arch.dataflow", ("os", "ws", "is"))]))
        # Fork workers inherit the warm in-process plan LRU; clear it so
        # their lookups actually reach (and populate) the shared store.
        clear_compute_plan_cache()
        results = SweepRunner(workers=2, store=store).run(spec)
        for got, want in zip(results, reference):
            assert got.run_result == want.run_result
        # Workers persisted artifacts even though their counters are lost.
        assert list((tmp_path / "store").glob("layer_compute/*.pkl"))

    def test_dram_grid_stores_only_layer_compute(self, tmp_path):
        # The fan-out rebuilds its shared line stream from the plan; only
        # the compute schedules are worth persisting.
        from repro.config.system import DramConfig
        from repro.store.artifact_store import ArtifactStore

        base = _base().replace(dram=DramConfig(enabled=True))
        runner = SweepRunner(store=ArtifactStore(tmp_path / "store"))
        runner.run(
            _spec(base=base, axes=[Axis("dram.channels", (1, 2))], topologies=[toy_conv()])
        )
        assert tuple(runner.last_grouping) == (2, 1)
        kinds = sorted(p.name for p in (tmp_path / "store").iterdir())
        assert kinds == ["layer_compute"]

    def test_active_store_restored_after_unit(self, tmp_path):
        from repro.store.artifact_store import ArtifactStore, active_store

        assert active_store() is None
        SweepRunner(store=ArtifactStore(tmp_path)).run(_spec())
        assert active_store() is None


class TestCliExecutorAndStore:
    def _argv(self, tmp_path, *extra):
        return [
            "sweep",
            "--preset",
            "scale_sim_v2_default",
            "--model",
            "toy_gemm",
            "--set",
            "dram.channels=1,2",
            "-p",
            str(tmp_path),
            *extra,
        ]

    def test_store_dir_prints_stats_and_reuses(self, tmp_path, capsys):
        from repro.core.simulator import clear_compute_plan_cache

        argv = self._argv(tmp_path, "--store-dir", str(tmp_path / "store"))
        clear_compute_plan_cache()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "store:    0 hits /" in out
        clear_compute_plan_cache()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "store:" in out and " 0 misses" in out

    def test_executor_serial_matches_default(self, tmp_path, capsys):
        assert main(self._argv(tmp_path, "--name", "default")) == 0
        capsys.readouterr()
        assert main(self._argv(tmp_path, "--name", "serial", "--executor", "serial")) == 0
        default = (tmp_path / "default_report.csv").read_text()
        serial = (tmp_path / "serial_report.csv").read_text()
        # Reports differ only in the run-name column derived from --name.
        assert default.replace("default_", "") == serial.replace("serial_", "")

    def test_executor_queue_spools_and_matches(self, tmp_path, capsys):
        assert main(self._argv(tmp_path, "--name", "plain")) == 0
        capsys.readouterr()
        code = main(self._argv(tmp_path, "--name", "queued", "--executor", "queue"))
        assert code == 0
        assert "queued (2 points" in capsys.readouterr().out
        plain = (tmp_path / "plain_report.csv").read_text()
        queued = (tmp_path / "queued_report.csv").read_text()
        assert plain.replace("plain_", "") == queued.replace("queued_", "")

    def test_executor_pool_name(self, tmp_path, capsys):
        code = main(
            self._argv(tmp_path, "--executor", "pool", "--workers", "2", "--name", "pooled")
        )
        assert code == 0
        assert (tmp_path / "pooled_report.csv").exists()

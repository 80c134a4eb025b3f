"""Unit tests for the one-call simulation driver."""

import pytest

from repro.config.system import (
    ArchitectureConfig,
    EnergyConfig,
    LayoutConfig,
    SparsityConfig,
    SystemConfig,
)
from repro.run.runner import run_simulation
from repro.topology.models import toy_conv, toy_gemm


def _config(**sections):
    base = SystemConfig(arch=ArchitectureConfig(array_rows=8, array_cols=8, dataflow="ws"))
    return base.replace(**sections) if sections else base


class TestRunSimulation:
    def test_basic_run_no_reports(self):
        outputs = run_simulation(_config(), toy_conv(), write_reports=False)
        assert outputs.total_cycles > 0
        assert outputs.report_paths == []
        assert outputs.energy_report is None

    def test_reports_written(self, tmp_path):
        outputs = run_simulation(_config(), toy_conv(), output_dir=tmp_path)
        assert len(outputs.report_paths) == 3
        for path in outputs.report_paths:
            assert path.exists()

    def test_layout_feature(self, tmp_path):
        cfg = _config(layout=LayoutConfig(enabled=True, num_banks=4,
                                          bandwidth_per_bank_words=16))
        outputs = run_simulation(cfg, toy_conv(), output_dir=tmp_path)
        assert len(outputs.layout_results) == len(toy_conv())
        names = [p.name for p in outputs.report_paths]
        assert "LAYOUT_REPORT.csv" in names
        # The report keeps its Evaluator column, always "vectorized".
        [report] = [p for p in outputs.report_paths if p.name == "LAYOUT_REPORT.csv"]
        header, *rows = [line.split(",") for line in report.read_text().splitlines()]
        column = header.index("Evaluator")
        assert [row[column] for row in rows] == ["vectorized"] * len(toy_conv())

    def test_layout_disabled_by_default(self):
        outputs = run_simulation(_config(), toy_conv(), write_reports=False)
        assert outputs.layout_results == []

    def test_energy_feature(self, tmp_path):
        cfg = _config(energy=EnergyConfig(enabled=True))
        outputs = run_simulation(cfg, toy_conv(), output_dir=tmp_path)
        assert outputs.energy_report is not None
        assert outputs.total_energy_mj > 0
        assert outputs.edp > 0
        names = [p.name for p in outputs.report_paths]
        assert "ENERGY_REPORT.csv" in names
        assert "architecture.yaml" in names
        assert "action_counts.yaml" in names

    def test_sparsity_feature(self, tmp_path):
        cfg = _config(sparsity=SparsityConfig(sparsity_support=True))
        topo = toy_gemm().with_sparsity("2:4")
        outputs = run_simulation(cfg, topo, output_dir=tmp_path)
        assert len(outputs.sparse_results) == len(topo)
        assert any(p.name == "SPARSE_REPORT.csv" for p in outputs.report_paths)
        for result in outputs.sparse_results:
            assert result.sparse_compute_cycles < result.dense_compute_cycles

    def test_rowwise_sparsity_feature(self, tmp_path):
        cfg = _config(
            sparsity=SparsityConfig(
                sparsity_support=True, optimized_mapping=True, block_size=4
            )
        )
        outputs = run_simulation(cfg, toy_gemm(), output_dir=tmp_path, write_reports=False)
        assert outputs.sparse_results
        assert all(r.block_size == 4 for r in outputs.sparse_results)

    def test_edp_zero_without_energy(self):
        outputs = run_simulation(_config(), toy_conv(), write_reports=False)
        assert outputs.edp == 0.0
        assert outputs.total_energy_mj == 0.0

    def test_output_dir_uses_run_name(self, tmp_path):
        outputs = run_simulation(_config(), toy_conv(), output_dir=tmp_path)
        run_name = outputs.config.run.run_name
        assert all(run_name in str(p) for p in outputs.report_paths)

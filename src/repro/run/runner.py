"""One-call simulation driver: config + topology -> reports on disk.

Mirrors SCALE-Sim's command-line behaviour: run every layer, then write
the classic CSV reports plus whichever v3 feature reports the config
enables (sparsity, energy, Accelergy YAML artifacts).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.config.system import SystemConfig
from repro.core.simulator import RunResult, Simulator
from repro.energy.accelergy import AccelergyLite, EnergyReport
from repro.energy.actions import ActionCounts, count_actions
from repro.energy.yaml_gen import write_action_counts_yaml, write_architecture_yaml
from repro.errors import ConfigError
from repro.layout.integrate import LayoutEvalConfig, LayoutEvalResult
from repro.sparsity.report import write_sparse_report
from repro.sparsity.sparse_compute import SparseComputeSimulator, SparseLayerResult
from repro.topology.topology import Topology
from repro.utils.csvio import write_csv


@dataclass
class SimulationOutputs:
    """Everything a run produced."""

    config: SystemConfig
    run_result: RunResult
    energy_report: EnergyReport | None = None
    sparse_results: list[SparseLayerResult] = field(default_factory=list)
    layout_results: list[LayoutEvalResult] = field(default_factory=list)
    report_paths: list[Path] = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        """End-to-end cycles of the run."""
        return self.run_result.total_cycles

    @property
    def total_energy_mj(self) -> float:
        """Total energy if the energy feature was enabled, else 0."""
        return self.energy_report.total_mj if self.energy_report else 0.0

    @property
    def edp(self) -> float:
        """Energy-delay product (cycles x mJ), 0 without energy model."""
        if self.energy_report is None:
            return 0.0
        return self.total_cycles * self.total_energy_mj


def _write_energy_report(
    outputs: SimulationOutputs, accelergy: AccelergyLite, out_dir: Path
) -> Path:
    header = [
        "LayerID",
        "LayerName",
        "TotalCycles",
        "DynamicEnergy(uJ)",
        "LeakageEnergy(uJ)",
        "TotalEnergy(uJ)",
        "AvgPower(W)",
        "EdP(cycles*mJ)",
    ]
    rows = []
    for index, layer in enumerate(outputs.run_result.layers):
        report = accelergy.estimate_layer(layer)
        rows.append(
            [
                index,
                layer.layer_name,
                layer.total_cycles,
                f"{report.dynamic_pj * 1e-6:.4f}",
                f"{report.leakage_pj * 1e-6:.4f}",
                f"{report.total_pj * 1e-6:.4f}",
                f"{report.average_power_w:.4f}",
                f"{report.edp_cycles_mj:.6f}",
            ]
        )
    return write_csv(out_dir / "ENERGY_REPORT.csv", header, rows)


def _write_layout_report(results: list[LayoutEvalResult], out_dir: Path) -> Path:
    # "Evaluator" is kept so the file format stays stable; every layout
    # study runs the vectorized evaluator.
    header = [
        "LayerID",
        "LayerName",
        "Dataflow",
        "NumBanks",
        "TotalBandwidth",
        "Evaluator",
        "CyclesEvaluated",
        "LayoutCycles",
        "BandwidthCycles",
        "Slowdown",
    ]
    rows = [
        [
            index,
            result.layer_name,
            result.dataflow.value,
            result.num_banks,
            result.total_bandwidth,
            "vectorized",
            result.cycles_evaluated,
            result.layout_cycles,
            result.bandwidth_cycles,
            f"{result.slowdown:+.6f}",
        ]
        for index, result in enumerate(results)
    ]
    return write_csv(out_dir / "LAYOUT_REPORT.csv", header, rows)


def _sparse_results(config: SystemConfig, topology: Topology) -> list[SparseLayerResult]:
    """The sparsity feature pass (empty when the config disables it)."""
    if not config.sparsity.sparsity_support:
        return []
    sparse_sim = SparseComputeSimulator(
        array_rows=config.arch.array_rows,
        array_cols=config.arch.array_cols,
        representation=config.sparsity.sparse_representation,
        word_bits=config.arch.word_bytes * 8,
        ifmap_sram_words=config.arch.ifmap_sram_words(),
        ofmap_sram_words=config.arch.ofmap_sram_words(),
        seed=config.sparsity.random_seed,
    )
    return [
        sparse_sim.simulate_layer(
            layer,
            rowwise=config.sparsity.optimized_mapping,
            block_size=config.sparsity.block_size,
        )
        for layer in topology
    ]


def _memory_key(config: SystemConfig) -> object:
    """What a config's dense run depends on beyond the shared sections."""
    return config.dram if config.dram.enabled else None


def _layout_config(config: SystemConfig) -> LayoutEvalConfig:
    """The config's layout study as an evaluator configuration.

    No explicit layout: each layer uses the documented default packing
    for the config's bank/bandwidth split.
    """
    return LayoutEvalConfig(
        num_banks=config.layout.num_banks,
        total_bandwidth_words=config.layout.total_bandwidth_words,
        ports_per_bank=config.layout.ports_per_bank,
    )


def simulate_configs(
    configs: Sequence[SystemConfig],
    topology: Topology,
    dense: bool = True,
) -> list[SimulationOutputs]:
    """Simulate configs that differ only in ``dram.*`` / ``layout.*``.

    The one simulation pipeline: a single run is the 1-config case and
    every sweep unit comes through here.  The compute plan and the
    sparsity pass run once.  The dense run, and the energy model that
    consumes it, resolve once per *distinct* memory config
    (:func:`repro.dram.fanout.simulate_many_dram`).  The Section VI
    layout study — banked open-line model vs flat bandwidth model —
    streams each layer's trace once into every *distinct* enabled
    layout config
    (:func:`~repro.layout.integrate.evaluate_layout_slowdown_many`).

    ``dense=False`` skips the dense pass, and with it energy and the
    layout study, leaving only sparsity: sparsity-only sweeps such as
    the paper's Figure 8 never pay for a dense run they do not read.
    Outputs come back in ``configs`` order (an empty list for no
    configs); configs sharing a memory config share one run result.
    Everything here runs in-process: parallelism is the executor's job
    (:class:`~repro.run.sweep.SweepRunner` splits a lone oversized unit
    across it).
    """
    # Looked up per call, so wrappers installed on the module attributes
    # (instrumentation) see every fan-out.
    from repro.dram.fanout import simulate_many_dram
    from repro.layout.integrate import evaluate_layout_slowdown_many

    configs = list(configs)
    if not configs:
        return []
    base = configs[0]
    for config in configs:
        if config.replace(dram=base.dram, layout=base.layout, run=base.run) != base:
            raise ConfigError(
                f"config {config.run.run_name!r} differs from "
                f"{base.run.run_name!r} outside dram.* / layout.*"
            )
    sparse_results = _sparse_results(base, topology)
    if not dense:
        return [
            SimulationOutputs(
                config=config,
                run_result=RunResult(
                    run_name=config.run.run_name, topology_name=topology.name
                ),
                sparse_results=sparse_results,
            )
            for config in configs
        ]

    # One stall resolution (and energy estimate) per distinct memory
    # config; every DRAM-disabled config shares the ideal-bandwidth one.
    memories: dict[object, SystemConfig] = {}
    for config in configs:
        memories.setdefault(_memory_key(config), config)
    plan = Simulator(base).plan(topology)
    run_results = dict(
        zip(memories, simulate_many_dram(plan, list(memories.values())))
    )
    energy_reports: dict[object, EnergyReport] = {}
    if base.energy.enabled:
        energy = AccelergyLite(base.arch, base.energy)
        energy_reports = {
            key: energy.estimate_run(run_result) for key, run_result in run_results.items()
        }

    # One evaluator cascade per distinct layout config, all fed from a
    # single trace stream per layer.
    layouts = list(dict.fromkeys(_layout_config(c) for c in configs if c.layout.enabled))
    layout_results: dict[LayoutEvalConfig, list[LayoutEvalResult]] = {
        layout: [] for layout in layouts
    }
    if layouts:
        arch = base.arch
        for layer in topology:
            results = evaluate_layout_slowdown_many(
                layer,
                arch.dataflow,
                arch.array_rows,
                arch.array_cols,
                layouts,
            )
            for layout, result in zip(layouts, results):
                layout_results[layout].append(result)

    return [
        SimulationOutputs(
            config=config,
            run_result=run_results[_memory_key(config)],
            energy_report=energy_reports.get(_memory_key(config)),
            sparse_results=sparse_results,
            layout_results=(
                layout_results[_layout_config(config)] if config.layout.enabled else []
            ),
        )
        for config in configs
    ]


def run_simulation(
    config: SystemConfig,
    topology: Topology,
    output_dir: str | Path | None = None,
    write_reports: bool = True,
) -> SimulationOutputs:
    """Run a full simulation; optionally write all reports to disk.

    The 1-config case of :func:`simulate_configs`, plus report writing.
    """
    [outputs] = simulate_configs([config], topology)
    if not write_reports:
        return outputs
    run_result = outputs.run_result
    out_dir = Path(output_dir or config.run.output_dir) / config.run.run_name
    outputs.report_paths = run_result.write_reports(out_dir.parent)
    if outputs.layout_results:
        outputs.report_paths.append(_write_layout_report(outputs.layout_results, out_dir))
    if outputs.sparse_results:
        outputs.report_paths.append(write_sparse_report(outputs.sparse_results, out_dir))
    if outputs.energy_report is not None:
        energy_engine = AccelergyLite(config.arch, config.energy)
        outputs.report_paths.append(_write_energy_report(outputs, energy_engine, out_dir))
        outputs.report_paths.append(
            write_architecture_yaml(config.arch, config.energy, out_dir)
        )
        merged = ActionCounts()
        for layer in run_result.layers:
            merged.merge(count_actions(layer, config.energy))
        outputs.report_paths.append(write_action_counts_yaml(merged, out_dir))
    return outputs

"""Perf harness for the DRAM fan-out: one compute plan, a ``dram.*`` grid.

Two gated measurements on full-scale (unscaled) ResNet-18 layers at the
paper's 128x128 weight-stationary array:

* **dram_grid** — the fig9 shape: one topology, DDR4, channels swept
  1/2/4/8.  Baseline is four independent ``Simulator.run`` calls from a
  cold plan cache (what every ``dram.*`` sweep point cost before the
  fan-out); the fan-out is the same grid as a
  ``SweepRunner(workers=SWEEP_WORKERS)`` sweep.  Its one unit is split
  by channel count over the workers; each sub-unit builds the plan,
  shares one decoded line stream and resolves its stall walks in one
  config-batched :class:`~repro.dram.engine_grid.GridBatchedEngine`
  pass per line batch (``simulate_many_dram``).  Batching the config
  axis amortizes the per-iteration dispatch overhead the per-config
  engine pays four times over, so the >= 2x contract holds already at
  one worker.
* **cross_grid** — the grouped-sweep contract this PR adds: a
  (``dram.channels`` x ``layout.num_banks``) cross on one full conv
  layer.  Independent points each re-run the dense walk *and* the
  full trace + cascade; the grouped unit resolves the cross as
  #channels stall walks + one trace stream + #banks cascades (split
  by bank count over the workers).  The dedup is a genuine serial
  >= 2x on one core.

Writes ``BENCH_dram_fanout.json`` (seconds, speedups, workers), folded
into ``TRAJECTORY.json`` like every seam baseline.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from benchmarks.conftest import SWEEP_WORKERS, output_path
from repro.config.system import (
    ArchitectureConfig,
    DramConfig,
    LayoutConfig,
    RunConfig,
    SystemConfig,
)
from repro.core.simulator import Simulator, clear_compute_plan_cache
from repro.layout.integrate import evaluate_layout_slowdown
from repro.run.sweep import Axis, SweepRunner, SweepSpec
from repro.topology.models import resnet18
from repro.topology.topology import Topology

BENCH_PATH = output_path(Path(__file__).parent / "BENCH_dram_fanout.json")

ARRAY = 128
CHANNELS = (1, 2, 4, 8)
FIG9_LAYERS = ("conv1", "conv2_1a", "conv3_1b", "conv4_1b", "conv5_1b", "fc")
CROSS_CHANNELS = (1, 2, 4)
CROSS_BANKS = (1, 2, 4, 8, 16)

ARCH = ArchitectureConfig(
    array_rows=ARRAY,
    array_cols=ARRAY,
    dataflow="ws",
    ifmap_sram_kb=1024,
    filter_sram_kb=1024,
    ofmap_sram_kb=1024,
)

#: dram_grid gates by pool size: the config-batched grid pass makes the
#: serial floor itself >= 2x (one vectorized stall walk for the whole
#: grid); workers spread grid groups without lowering that floor.
MIN_DRAM_SPEEDUP = {1: 2.0, 2: 2.0, 3: 2.0}
MIN_DRAM_SPEEDUP_PARALLEL = 2.0
#: cross_grid gates: the dedup (channels x banks -> channels + banks)
#: is a serial win; workers add the fan on top.
MIN_CROSS_SPEEDUP = {1: 2.0, 2: 2.3, 3: 2.6}
MIN_CROSS_SPEEDUP_PARALLEL = 3.0


def _dram_config(channels: int) -> SystemConfig:
    return SystemConfig(
        arch=ARCH,
        dram=DramConfig(enabled=True, technology="ddr4", channels=channels),
        run=RunConfig(run_name=f"fanout_ch{channels}"),
    )


@pytest.mark.slow
def test_dram_fanout_speedup():
    topology = resnet18(scale=1).subset(list(FIG9_LAYERS))
    configs = [_dram_config(channels) for channels in CHANNELS]

    # --- dram_grid: independent serial points (cold plan cache each,
    # the pre-fan-out per-point cost) vs the shared-plan fan-out sweep.
    start = time.perf_counter()
    independent = []
    for config in configs:
        clear_compute_plan_cache()
        independent.append(Simulator(config).run(topology))
    independent_s = time.perf_counter() - start

    grid_spec = SweepSpec(
        base=configs[0],
        axes=[Axis("dram.channels", CHANNELS)],
        topologies=[topology],
        name="fanout",
    )
    fanout_s = float("inf")
    fanout = None
    for _ in range(2):
        # A fresh runner and plan cache: no repetition is a cache hit.
        clear_compute_plan_cache()
        start = time.perf_counter()
        fanout = SweepRunner(workers=SWEEP_WORKERS).run(grid_spec)
        fanout_s = min(fanout_s, time.perf_counter() - start)

    # The paths must agree bit for bit before the timing means anything
    # (sweep payloads drop fold specs, so compare what they keep).
    assert len(fanout) == len(independent)
    for result, solo in zip(fanout, independent):
        assert result.run_result.total_cycles == solo.total_cycles
        assert result.run_result.dram_stats == solo.dram_stats
        assert [layer.timeline for layer in result.run_result.layers] == [
            layer.timeline for layer in solo.layers
        ]

    dram_speedup = independent_s / fanout_s
    dram_required = MIN_DRAM_SPEEDUP.get(SWEEP_WORKERS, MIN_DRAM_SPEEDUP_PARALLEL)

    # --- cross_grid: the grouped sweep unit vs independent points.
    layer = resnet18(scale=1).layer_named("conv2_1a")
    cross_topology = Topology("conv2_1a", [layer])
    base = SystemConfig(
        arch=ARCH,
        dram=DramConfig(enabled=True, technology="ddr4"),
        layout=LayoutConfig(enabled=True, num_banks=1, bandwidth_per_bank_words=64),
        run=RunConfig(run_name="cross"),
    )
    spec = SweepSpec(
        base=base,
        axes=[
            Axis("dram.channels", CROSS_CHANNELS),
            Axis("layout.num_banks", CROSS_BANKS),
        ],
        topologies=[cross_topology],
        name="cross",
    )
    points = spec.expand()

    # Per-point baseline: the independent references, one dense run and
    # one single-config layout study per point.
    start = time.perf_counter()
    solo_runs = []
    solo_layouts = []
    for point in points:
        clear_compute_plan_cache()
        config = point.config
        solo_runs.append(Simulator(config).run(point.topology))
        solo_layouts.append(
            [
                evaluate_layout_slowdown(
                    layer,
                    config.arch.dataflow,
                    config.arch.array_rows,
                    config.arch.array_cols,
                    config.layout.num_banks,
                    config.layout.total_bandwidth_words,
                    ports_per_bank=config.layout.ports_per_bank,
                )
                for layer in point.topology
            ]
        )
    cross_independent_s = time.perf_counter() - start

    clear_compute_plan_cache()
    runner = SweepRunner(workers=SWEEP_WORKERS)
    start = time.perf_counter()
    grouped = runner.run(spec)
    cross_grouped_s = time.perf_counter() - start
    # One grouped unit, split by bank count over the workers.
    assert runner.last_grouping == (
        len(points),
        min(SWEEP_WORKERS, len(CROSS_BANKS)),
    )

    for result, solo_run, solo_layout in zip(grouped, solo_runs, solo_layouts):
        assert result.run_result.total_cycles == solo_run.total_cycles
        assert result.run_result.dram_stats == solo_run.dram_stats
        assert [layer.timeline for layer in result.run_result.layers] == [
            layer.timeline for layer in solo_run.layers
        ]
        assert result.layout_results == solo_layout

    cross_speedup = cross_independent_s / cross_grouped_s
    cross_required = MIN_CROSS_SPEEDUP.get(SWEEP_WORKERS, MIN_CROSS_SPEEDUP_PARALLEL)

    payload = {
        "workload": (
            f"resnet18 full layers, {ARRAY}x{ARRAY} ws array, DDR4: "
            f"fig9 channel grid ({len(CHANNELS)} configs x "
            f"{len(FIG9_LAYERS)} layers) + channels x banks cross "
            f"({len(CROSS_CHANNELS)}x{len(CROSS_BANKS)} on conv2_1a)"
        ),
        "workers": SWEEP_WORKERS,
        "dram_grid": {
            "grid_points": len(CHANNELS),
            "independent_seconds": round(independent_s, 3),
            "fanout_seconds": round(fanout_s, 3),
            "speedup": round(dram_speedup, 2),
            "required_speedup": dram_required,
        },
        "cross_grid": {
            "grid_points": len(points),
            "independent_seconds": round(cross_independent_s, 3),
            "grouped_seconds": round(cross_grouped_s, 3),
            "speedup": round(cross_speedup, 2),
            "required_speedup": cross_required,
        },
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\ndram fanout: {json.dumps(payload, indent=2)}")

    assert dram_speedup >= dram_required, (
        f"dram fan-out regressed: only {dram_speedup:.2f}x faster than "
        f"{len(CHANNELS)} independent serial points with {SWEEP_WORKERS} "
        f"workers ({fanout_s:.2f}s vs {independent_s:.2f}s, "
        f"need >= {dram_required}x)"
    )
    assert cross_speedup >= cross_required, (
        f"grouped cross sweep regressed: only {cross_speedup:.2f}x faster "
        f"than {len(points)} independent points with {SWEEP_WORKERS} workers "
        f"({cross_grouped_s:.2f}s vs {cross_independent_s:.2f}s, "
        f"need >= {cross_required}x)"
    )

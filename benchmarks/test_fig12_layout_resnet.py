"""Figure 12: layout slowdown vs (bandwidth, banks) — ResNet-18.

Three dataflows, on-chip bandwidths {64..1024} words/cycle, bank counts
{1..16} at fixed total bandwidth.  Slowdown is the layout-modelled
latency over SCALE-Sim v2's flat-bandwidth latency, minus one.
Reproduced claim (the paper's key observation): at a given bandwidth,
more banks reduce the slowdown — asserted end-to-end (1 bank vs 16;
adjacent bank pairs can show ~1e-4 jitter on the IS dataflow at full
scale).

Runs at the paper's scale: the unscaled ResNet-18 conv2_1a layer on a
128x128 array with full-layer traces (every fold) — made tractable by
the vectorized bank-conflict evaluator and the trace fan-out: each
dataflow's (bandwidth x banks) grid is dealt over the worker pool, and
each worker's share rides one streaming trace pass through
``evaluate_layout_slowdown_many`` (see
``benchmarks/perf/test_perf_layout_fanout.py`` for the tracked
speedup over independent per-config calls).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit_table, pooled_layout_grid
from repro.layout.integrate import LayoutEvalConfig
from repro.topology.models import resnet18

pytestmark = pytest.mark.slow

BANDWIDTHS = (64, 128, 256, 512, 1024)
BANKS = (1, 2, 4, 8, 16)
ARRAY = 128  # the paper's array size
SCALE = 1  # full-size layer
MAX_FOLDS = None  # full-layer traces

GRID = [
    LayoutEvalConfig(num_banks=banks, total_bandwidth_words=bw)
    for bw in BANDWIDTHS
    for banks in BANKS
]


def _sweep():
    layer = resnet18(scale=SCALE).layer_named("conv2_1a")
    table = {}
    for dataflow in ("is", "ws", "os"):
        results = pooled_layout_grid(layer, dataflow, ARRAY, GRID, max_folds=MAX_FOLDS)
        for config, result in zip(GRID, results):
            table[(dataflow, config.total_bandwidth_words, config.num_banks)] = (
                result.slowdown
            )
    return table


def test_fig12_layout_resnet(benchmark, results_dir):
    table = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    rows = [
        [df, bw, banks, f"{slow:+.4f}"] for (df, bw, banks), slow in table.items()
    ]
    emit_table(
        f"Figure 12 — layout slowdown vs BW model (ResNet-18 conv2_1a, {ARRAY}x{ARRAY}, full layer)",
        ["dataflow", "bandwidth", "banks", "slowdown"],
        rows,
        results_dir / "fig12_layout_resnet.csv",
    )

    # More banks at fixed bandwidth: slowdown non-increasing end-to-end.
    for dataflow in ("is", "ws", "os"):
        for bw in BANDWIDTHS:
            assert table[(dataflow, bw, 1)] >= table[(dataflow, bw, 16)] - 1e-9, (
                dataflow,
                bw,
            )

    # The single-bank configuration shows real conflicts somewhere.
    assert max(table[(df, 64, 1)] for df in ("is", "ws", "os")) > 0

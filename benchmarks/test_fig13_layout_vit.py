"""Figure 13: layout slowdown vs (bandwidth, banks) — ViT.

Same sweep as Figure 12 on a ViT GEMM layer.  Reproduced claims: bank
scaling reduces slowdown, and the IS dataflow (whose preload reads
whole rows) barely deviates from the flat-BW model while the skewed
dual-stream dataflows suffer visible conflicts.

Runs at the paper's scale: the unscaled ViT-base ff1 GEMM on a 128x128
array with full-layer traces, via the vectorized bank-conflict
evaluator — each dataflow's grid dealt over the worker pool, each
worker's share riding one streaming trace pass through
``evaluate_layout_slowdown_many``.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit_table, pooled_layout_grid
from repro.layout.integrate import LayoutEvalConfig
from repro.topology.models import vit_base

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
    layer = vit_base(scale=SCALE, blocks=1).layer_named("block0_ff1")
    table = {}
    for dataflow in ("is", "ws", "os"):
        results = pooled_layout_grid(layer, dataflow, ARRAY, GRID, max_folds=MAX_FOLDS)
        for config, result in zip(GRID, results):
            table[(dataflow, config.total_bandwidth_words, config.num_banks)] = (
                result.slowdown
            )
    return table


def test_fig13_layout_vit(benchmark, results_dir):
    table = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    rows = [
        [df, bw, banks, f"{slow:+.4f}"] for (df, bw, banks), slow in table.items()
    ]
    emit_table(
        f"Figure 13 — layout slowdown vs BW model (ViT-base ff1, {ARRAY}x{ARRAY}, full layer)",
        ["dataflow", "bandwidth", "banks", "slowdown"],
        rows,
        results_dir / "fig13_layout_vit.csv",
    )

    for dataflow in ("is", "ws", "os"):
        for bw in BANDWIDTHS:
            assert table[(dataflow, bw, 1)] >= table[(dataflow, bw, 16)] - 1e-9

    # Per-dataflow shape, as in the paper's three panels: IS barely
    # deviates from the flat-BW model (its preload reads whole rows),
    # while OS — with its diagonally skewed dual streams — is the worst.
    worst_is = max(abs(table[("is", bw, banks)]) for bw in BANDWIDTHS for banks in BANKS)
    worst_os = max(table[("os", bw, banks)] for bw in BANDWIDTHS for banks in BANKS)
    worst_ws = max(table[("ws", bw, banks)] for bw in BANDWIDTHS for banks in BANKS)
    print(f"worst |IS|={worst_is:.3f}  worst WS={worst_ws:.3f}  worst OS={worst_os:.3f}")
    assert worst_is < 0.5
    assert worst_os >= worst_ws >= worst_is

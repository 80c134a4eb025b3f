"""Perf harness for the trace fan-out: the fig12 grid in one pass.

Times the full Figure 12 weight-stationary grid — 5 on-chip bandwidths
x 5 bank counts on the unscaled ResNet-18 conv2_1a layer, full-layer
traces at the paper's 128x128 array — two ways:

* **independent**: 25 separate ``evaluate_layout_slowdown`` calls, each
  regenerating operand matrices, fold traces, masking and the per-fold
  (cycle, offset) sort/dedup (what the fig12 benchmark did before the
  fan-out landed);
* **fan-out**: one ``evaluate_layout_slowdown_many`` call that streams
  the trace once, shares the per-fold ``FoldDemand`` artifacts and the
  per-signature (line, col) decodes across all 25 configurations, and
  fans the per-configuration stack-distance cascades over
  ``SWEEP_WORKERS`` processes.

Writes ``BENCH_layout_fanout.json`` (seconds, speedup, workers) so the
layout pipeline's perf trajectory is tracked across PRs.

The speedup gate scales with the worker pool: the serial floor
(single-core CI) isolates the shared-upstream win alone — the
per-config LRU cascade dominates a serial grid, bounding what sharing
can save — while the >= 4x contract holds from 4 workers up, where the
fan-out both shares the upstream pass and spreads the cascades.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from benchmarks.conftest import SWEEP_WORKERS, output_path
from repro.layout.integrate import (
    LayoutEvalConfig,
    evaluate_layout_slowdown,
    evaluate_layout_slowdown_many,
)
from repro.topology.models import resnet18

BENCH_PATH = output_path(Path(__file__).parent / "BENCH_layout_fanout.json")

ARRAY = 128
BANDWIDTHS = (64, 128, 256, 512, 1024)
BANKS = (1, 2, 4, 8, 16)

GRID = [
    LayoutEvalConfig(num_banks=banks, total_bandwidth_words=bw)
    for bw in BANDWIDTHS
    for banks in BANKS
]

#: Required fan-out speedup by pool size (see module docstring).
MIN_SPEEDUP = {1: 1.35, 2: 2.2, 3: 3.0}
MIN_SPEEDUP_PARALLEL = 4.0  # 4+ workers: the fan-out contract


@pytest.mark.slow
def test_layout_fanout_speedup():
    layer = resnet18(scale=1).layer_named("conv2_1a")

    fanout_s = float("inf")
    fanout = None
    for _ in range(2):
        start = time.perf_counter()
        fanout = evaluate_layout_slowdown_many(
            layer, "ws", ARRAY, ARRAY, GRID, workers=SWEEP_WORKERS
        )
        fanout_s = min(fanout_s, time.perf_counter() - start)

    start = time.perf_counter()
    independent = [
        evaluate_layout_slowdown(
            layer, "ws", ARRAY, ARRAY, cfg.num_banks, cfg.total_bandwidth_words
        )
        for cfg in GRID
    ]
    independent_s = time.perf_counter() - start

    # The paths must agree bit for bit before the timing means anything.
    assert fanout == independent

    speedup = independent_s / fanout_s
    required = MIN_SPEEDUP.get(SWEEP_WORKERS, MIN_SPEEDUP_PARALLEL)
    payload = {
        "workload": (
            f"fig12 ws grid: resnet18 conv2_1a ifmap, {ARRAY}x{ARRAY} array, "
            f"{len(BANDWIDTHS)} bandwidths x {len(BANKS)} bank counts, full layer"
        ),
        "grid_points": len(GRID),
        "workers": SWEEP_WORKERS,
        "independent_seconds": round(independent_s, 3),
        "fanout_seconds": round(fanout_s, 3),
        "speedup": round(speedup, 2),
        "required_speedup": required,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nlayout fanout: {json.dumps(payload, indent=2)}")

    assert speedup >= required, (
        f"trace fan-out regressed: only {speedup:.2f}x faster than "
        f"{len(GRID)} independent calls with {SWEEP_WORKERS} workers "
        f"({fanout_s:.2f}s vs {independent_s:.2f}s, need >= {required}x)"
    )

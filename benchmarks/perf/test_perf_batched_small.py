"""Micro-benchmark for the DRAM engine's small-batch regime.

The DRAM-enabled runs issue thousands of ~30-line prefetch bursts (one
contiguous read stream per double-buffer refill) between the huge fold
batches.  This harness times the three pipelines — closed-form
single-stream fast path, inlined scalar loop, full vector path — across
batch sizes on that traffic shape, through the production entry
(``GridBatchedEngine([config]).process_batch``, the one-config grid
every DRAM run resolves on), writes ``BENCH_batched_small.json``, and
pins the two tuning decisions:

* ``vector_threshold = 192``: the vector path's fixed numpy-dispatch
  cost only amortizes beyond ~190 lines, so mid-size batches stay on
  the scalar loop;
* ``single_stream_fast_path``: prefetch-shaped batches must beat the
  scalar loop by >= 1.5x (measured ~3x), which is what the end-to-end
  DRAM run's ~20% improvement rests on.

The three paths run interleaved per batch size, in rotating order, and
each reports the best of several samples, so a slow host phase cannot
land on one path alone.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from benchmarks.conftest import output_path
from repro.config.system import DramConfig, SystemConfig
from repro.dram.engine import LineRequestBatch, LineStream
from repro.dram.engine_batched import BatchedEngine
from repro.dram.engine_grid import GridBatchedEngine

BENCH_PATH = output_path(Path(__file__).parent / "BENCH_batched_small.json")

PREFETCH_LINES = 32  # the dominant small-batch bucket of the resnet18 run

#: One DDR4 channel at the production front-end rate (issue_per_cycle=4).
CONFIG = SystemConfig(dram=DramConfig(enabled=True, technology="ddr4", channels=1))

PATHS = ("fast", "scalar", "vector")


def _grid(path: str) -> GridBatchedEngine:
    """A one-config grid whose engine takes only ``path``."""
    grid = GridBatchedEngine([CONFIG])
    engine = grid.engines[0]
    if path == "fast":
        engine.vector_threshold = 10**9
    elif path == "scalar":
        engine.single_stream_fast_path = False
        engine.vector_threshold = 10**9
    else:  # vector
        engine.single_stream_fast_path = False
        engine.vector_threshold = 1
    return grid


def _sample(grid: GridBatchedEngine, n_lines: int, first: int, batches: int) -> float:
    """Microseconds per batch for prefetch bursts ``first`` onwards."""
    start = time.perf_counter()
    for index in range(first, first + batches):
        batch = LineRequestBatch(streams=(LineStream(index * n_lines, n_lines),))
        # Spaced like real prefetches: prior reads retired.
        grid.process_batch(batch, [index * 20_000])
    return (time.perf_counter() - start) / batches * 1e6


def _per_batch_us(n_lines: int, rounds: int = 10, batches: int = 400) -> dict[str, float]:
    """Best-of-``rounds`` microseconds per batch for each path, interleaved."""
    grids = {path: _grid(path) for path in PATHS}
    best = dict.fromkeys(PATHS, float("inf"))
    for round_index in range(rounds):
        shift = round_index % len(PATHS)
        for path in PATHS[shift:] + PATHS[:shift]:
            elapsed = _sample(grids[path], n_lines, round_index * batches, batches)
            best[path] = min(best[path], elapsed)
    return best


@pytest.mark.slow
def test_small_batch_paths():
    sizes = (8, 16, 32, 64, 128, 192, 256)
    by_size = {n: _per_batch_us(n) for n in sizes}
    table = {path: {n: round(by_size[n][path], 1) for n in sizes} for path in PATHS}
    payload = {
        "workload": (
            "single-stream read bursts (DDR4 x1) through a one-config grid, "
            "us per batch, best of 10 interleaved samples"
        ),
        "sizes": list(sizes),
        "per_batch_us": table,
        "vector_threshold": BatchedEngine.vector_threshold,
        "fast_vs_scalar_at_prefetch": round(
            table["scalar"][PREFETCH_LINES] / table["fast"][PREFETCH_LINES], 2
        ),
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nbatched small-batch: {json.dumps(payload, indent=2)}")

    # The closed-form fast path must carry the prefetch bursts.
    assert table["fast"][PREFETCH_LINES] * 1.5 <= table["scalar"][PREFETCH_LINES]
    # The tuned threshold keeps mid-size batches off the vector path:
    # at 128 lines (the old threshold) scalar must still win.
    assert table["scalar"][128] < table["vector"][128]

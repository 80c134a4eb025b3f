"""Micro-benchmark for the BatchedEngine's small-batch regime.

The DRAM-enabled runs issue thousands of ~30-line prefetch bursts (one
contiguous read stream per double-buffer refill) between the huge fold
batches.  This harness times the three pipelines — closed-form
single-stream fast path, inlined scalar loop, full vector path — across
batch sizes on that traffic shape, writes
``BENCH_batched_small.json``, and pins the two tuning decisions:

* ``vector_threshold = 192``: the vector path's fixed numpy-dispatch
  cost only amortizes beyond ~190 lines, so mid-size batches stay on
  the scalar loop;
* ``single_stream_fast_path``: prefetch-shaped batches must beat the
  scalar loop by >= 1.5x (measured ~3x), which is what the end-to-end
  DRAM run's ~20% improvement rests on.

It also gates the *saturated* single-stream regime: read bursts larger
than the read queue settle into an exact affine steady state whose
row-hit streaks commit closed-form (steady-state block extrapolation),
so long fold fetches must beat the vector path by >= 4x (measured
>= 10x).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from benchmarks.conftest import output_path
from repro.dram.dram_sim import RamulatorLite
from repro.dram.engine import LineRequestBatch, LineStream
from repro.dram.engine_batched import BatchedEngine

BENCH_PATH = output_path(Path(__file__).parent / "BENCH_batched_small.json")

PREFETCH_LINES = 32  # the dominant small-batch bucket of the resnet18 run


def _time_path(path: str, n_lines: int, batches: int = 4000) -> float:
    """Microseconds per batch for one pipeline on prefetch traffic."""
    # issue_per_cycle=4 mirrors DramConfig's production front-end rate.
    engine = BatchedEngine(
        RamulatorLite(technology="ddr4", channels=1), max_issue_per_cycle=4
    )
    if path == "fast":
        engine.vector_threshold = 10**9
    elif path == "scalar":
        engine.single_stream_fast_path = False
        engine.vector_threshold = 10**9
    else:  # vector
        engine.single_stream_fast_path = False
        engine.vector_threshold = 1
    cycle = 0
    start = time.perf_counter()
    for index in range(batches):
        batch = LineRequestBatch(streams=(LineStream(index * n_lines, n_lines),))
        engine.process_batch(batch, cycle)
        cycle += 20_000  # spaced like real prefetches: prior reads retired
    return (time.perf_counter() - start) / batches * 1e6


@pytest.mark.slow
def test_small_batch_paths():
    sizes = (8, 16, 32, 64, 128, 192, 256)
    table = {
        path: {n: round(_time_path(path, n), 1) for n in sizes}
        for path in ("fast", "scalar", "vector")
    }
    payload = json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else {}
    payload.update(
        {
            "workload": "single-stream read bursts (DDR4 x1), us per batch",
            "sizes": list(sizes),
            "per_batch_us": table,
            "vector_threshold": BatchedEngine.vector_threshold,
            "fast_vs_scalar_at_prefetch": round(
                table["scalar"][PREFETCH_LINES] / table["fast"][PREFETCH_LINES], 2
            ),
        }
    )
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nbatched small-batch: {json.dumps(payload, indent=2)}")

    # The closed-form fast path must carry the prefetch bursts.
    assert table["fast"][PREFETCH_LINES] * 1.5 <= table["scalar"][PREFETCH_LINES]
    # The tuned threshold keeps mid-size batches off the vector path:
    # at 128 lines (the old threshold) scalar must still win.
    assert table["scalar"][128] < table["vector"][128]


SATURATED_LINES = 20_000  # a fold-sized fetch, >> the 128-entry read queue


def _time_saturated(path: str, batches: int = 5) -> float:
    """Milliseconds per batch for one pipeline on a saturated burst."""
    engine = BatchedEngine(
        RamulatorLite(technology="ddr4", channels=1), max_issue_per_cycle=4
    )
    if path == "fast":
        engine.vector_threshold = 10**9
    else:  # vector
        engine.single_stream_fast_path = False
        engine.vector_threshold = 1
    cycle = 0
    start = time.perf_counter()
    for index in range(batches):
        batch = LineRequestBatch(
            streams=(LineStream(index * SATURATED_LINES, SATURATED_LINES),)
        )
        engine.process_batch(batch, cycle)
        cycle += 10_000_000  # next fold: prior reads retired
    return (time.perf_counter() - start) / batches * 1e3


@pytest.mark.slow
def test_saturated_stream_extrapolation():
    fast_ms = _time_saturated("fast")
    vector_ms = _time_saturated("vector")
    speedup = vector_ms / fast_ms

    payload = json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else {}
    payload["saturated_stream"] = {
        "lines": SATURATED_LINES,
        "fast_ms_per_batch": round(fast_ms, 2),
        "vector_ms_per_batch": round(vector_ms, 2),
        "speedup": round(speedup, 1),
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nsaturated stream: {json.dumps(payload['saturated_stream'], indent=2)}")

    assert speedup >= 4.0, (
        f"steady-state extrapolation regressed: saturated {SATURATED_LINES}-line "
        f"burst only {speedup:.1f}x faster than the vector path "
        f"({fast_ms:.2f}ms vs {vector_ms:.2f}ms)"
    )

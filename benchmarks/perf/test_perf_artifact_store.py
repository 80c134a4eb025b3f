"""Perf harness for the artifact store: cold build vs warm reload.

One gated measurement on a full-scale (unscaled) ResNet-18 conv layer
at the paper's 128x128 weight-stationary array — the fig12/13 shape:
DRAM enabled (DDR4) and the layout study on.  A sweep point at this
scale splits into:

* shared upstream work the store persists — the compute schedule
  (fold specs + fetch plans) and the layer's fold-demand stream (trace
  generation + the per-fold (cycle, offset) sort);
* work it does not skip — the DRAM line chop (rebuilt from the plan),
  the DRAM stall walk, the layout cascade, the energy model.

Each pair times a cold run that populates a fresh, empty store, then
a warm run that reloads every artifact from that store, with the
in-process plan LRU cleared before each run (simulating a fresh
process).  The gate asserts the median of the per-pair warm-over-cold
ratios is >= 1.5 — the contract that unpickling the mid-level
artifacts beats rebuilding them, which is what makes a shared store
directory worth wiring into long sweep campaigns.  Pairing the runs
keeps a slow host phase from landing on one side only.

Writes ``BENCH_artifact_store.json``, folded into ``TRAJECTORY.json``
like every seam baseline.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import pytest

from benchmarks.conftest import output_path
from repro.config.system import (
    ArchitectureConfig,
    DramConfig,
    LayoutConfig,
    RunConfig,
    SystemConfig,
)
from repro.core.simulator import clear_compute_plan_cache
from repro.run.sweep import Axis, SweepRunner, SweepSpec
from repro.store.artifact_store import ArtifactStore
from repro.topology.models import resnet18
from repro.topology.topology import Topology

BENCH_PATH = output_path(Path(__file__).parent / "BENCH_artifact_store.json")

ARRAY = 128
LAYER = "conv2_1a"

#: Warm-over-cold contract: reloading the persisted compute schedule
#: and fold-demand stream must beat rebuilding them by >= 1.5x even
#: though the line chop / stall walk / cascade / energy run anew.
MIN_WARM_SPEEDUP = 1.5

#: Cold/warm pairs timed; the gate reads their median ratio.
PAIRS = 5


def _spec() -> SweepSpec:
    base = SystemConfig(
        arch=ArchitectureConfig(
            array_rows=ARRAY,
            array_cols=ARRAY,
            dataflow="ws",
            ifmap_sram_kb=1024,
            filter_sram_kb=1024,
            ofmap_sram_kb=1024,
        ),
        dram=DramConfig(enabled=True, technology="ddr4", channels=2),
        layout=LayoutConfig(enabled=True, num_banks=4, bandwidth_per_bank_words=16),
        run=RunConfig(run_name="store_bench"),
    )
    layer = resnet18(scale=1).layer_named(LAYER)
    # The channels axis turns the unit into a DRAM fan-out group; both
    # artifact kinds flow through the store: the compute schedule and
    # the fold-demand stream.  The group's line stream is rebuilt.
    return SweepSpec(
        base=base,
        axes=[Axis("dram.channels", (1, 2))],
        topologies=[Topology(LAYER, [layer])],
        name="store_bench",
    )


def _run_once(store: ArtifactStore) -> tuple[float, list[int]]:
    """One fresh-process-equivalent sweep through the store."""
    clear_compute_plan_cache()
    runner = SweepRunner(store=store)  # private ResultCache: no payload reuse
    start = time.perf_counter()
    results = runner.run(_spec())
    elapsed = time.perf_counter() - start
    assert not any(result.from_cache for result in results)
    return elapsed, [result.total_cycles for result in results]


@pytest.mark.slow
def test_artifact_store_warm_speedup(tmp_path):
    colds, warms = [], []
    for pair in range(PAIRS):
        store = ArtifactStore(tmp_path / f"store{pair}")
        cold_s, cold_cycles = _run_once(store)
        assert store.hits == 0 and store.misses > 0  # genuinely cold
        cold_misses = store.misses
        warm_s, warm_cycles = _run_once(store)
        assert warm_cycles == cold_cycles  # the store never changes results
        assert store.misses == cold_misses  # the warm run never rebuilt anything
        colds.append(cold_s)
        warms.append(warm_s)

    speedup = statistics.median(cold / warm for cold, warm in zip(colds, warms))
    cold_s, warm_s = statistics.median(colds), statistics.median(warms)
    payload = {
        "workload": (
            f"resnet18 {LAYER} full scale, {ARRAY}x{ARRAY} ws array, "
            "DDR4 x 2ch + layout study (4 banks): cold store populate "
            f"vs warm reload, plan LRU cleared between runs, {PAIRS} "
            "alternated pairs (medians)"
        ),
        "artifacts_persisted": cold_misses,
        "cold_seconds": round(cold_s, 3),
        "warm_seconds": round(warm_s, 3),
        "speedup": round(speedup, 2),
        "required_speedup": MIN_WARM_SPEEDUP,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nartifact store: {json.dumps(payload, indent=2)}")

    assert speedup >= MIN_WARM_SPEEDUP, (
        f"artifact store regressed: warm runs only {speedup:.2f}x faster than "
        f"cold in the median pair (medians {warm_s:.2f}s vs {cold_s:.2f}s, "
        f"need >= {MIN_WARM_SPEEDUP}x)"
    )

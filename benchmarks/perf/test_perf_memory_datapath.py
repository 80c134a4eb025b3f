"""Perf harness for the memory datapath: resnet18 through DRAM.

Times the full DRAM-enabled ResNet-18 run under both memory engines and
writes ``BENCH_memory_datapath.json`` (seconds, lines/sec, speedup) so
the datapath's performance trajectory is tracked across PRs.  The
batched engine must stay >= 5x faster than the scalar reference — the
speedup the engine refactor shipped with.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from benchmarks.conftest import output_path
from repro.config.system import ArchitectureConfig, DramConfig, SystemConfig
from repro.core.simulator import Simulator, resolve_plan
from repro.dram.backend import DramBackend, make_ramulator
from repro.dram.engine import ReferenceEngine
from repro.dram.engine_batched import BatchedEngine
from repro.topology.models import resnet18

BENCH_PATH = output_path(Path(__file__).parent / "BENCH_memory_datapath.json")

#: The paper's ws-dataflow ResNet-18 with the default DDR4 single-channel
#: DRAM — the configuration whose line loop dominated simulator wall time.
BASE_CONFIG = SystemConfig(
    arch=ArchitectureConfig(dataflow="ws"),
    dram=DramConfig(enabled=True),
)

ENGINES = {"reference": ReferenceEngine, "batched": BatchedEngine}


def _backend(engine: str) -> DramBackend:
    """A fresh DRAM backend for ``BASE_CONFIG`` on the named engine."""
    dram_cfg = BASE_CONFIG.dram
    dram = make_ramulator(dram_cfg)
    return DramBackend(
        dram,
        word_bytes=BASE_CONFIG.arch.word_bytes,
        engine=ENGINES[engine](
            dram,
            read_queue_entries=dram_cfg.read_queue_entries,
            write_queue_entries=dram_cfg.write_queue_entries,
            max_issue_per_cycle=dram_cfg.issue_per_cycle,
        ),
    )


def _timed_run(engine: str, repeats: int = 2) -> tuple[float, int, int]:
    """Run resnet18 ``repeats`` times; returns (best seconds, cycles, lines).

    Best-of-N damps scheduler noise on shared CI runners — the
    measurement of interest is each engine's floor, not its jitter.
    """
    topology = resnet18()
    best = float("inf")
    for _ in range(repeats):
        simulator = Simulator(BASE_CONFIG)
        start = time.perf_counter()
        result = resolve_plan(
            simulator.plan(topology), _backend(engine), BASE_CONFIG.run.run_name
        )
        best = min(best, time.perf_counter() - start)
    stats = result.dram_stats
    assert stats is not None
    return best, result.total_cycles, stats.requests


@pytest.mark.slow
def test_memory_datapath_speedup():
    batched_s, batched_cycles, lines = _timed_run("batched")
    reference_s, reference_cycles, reference_lines = _timed_run("reference")

    # The engines must agree bit for bit before the timing means anything.
    assert batched_cycles == reference_cycles
    assert lines == reference_lines

    speedup = reference_s / batched_s
    payload = {
        "workload": "resnet18 (ws dataflow, DDR4 x1, queues 128/128)",
        "total_lines": lines,
        "reference_seconds": round(reference_s, 3),
        "batched_seconds": round(batched_s, 3),
        "reference_lines_per_sec": round(lines / reference_s),
        "batched_lines_per_sec": round(lines / batched_s),
        "speedup": round(speedup, 2),
        "total_cycles": batched_cycles,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nmemory datapath: {json.dumps(payload, indent=2)}")

    assert speedup >= 5.0, (
        f"batched engine regressed: only {speedup:.2f}x faster than reference "
        f"({batched_s:.2f}s vs {reference_s:.2f}s)"
    )

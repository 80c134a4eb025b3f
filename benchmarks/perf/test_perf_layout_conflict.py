"""Perf harness for the layout-conflict evaluator: fig12 at paper scale.

Times both bank-conflict evaluators consuming the same pre-generated
demand trace — the unscaled ResNet-18 conv2_1a layer (the Figure 12
workload) on the paper's 128x128 array, ws dataflow, at the figure's
single-bank anchor point (1 bank x 64 words/cycle, where the paper's
conflicts are worst) — and writes ``BENCH_layout_conflict.json``
(seconds, cycles/s, speedup) so the layout pipeline's performance
trajectory is tracked across PRs.  The vectorized evaluator must stay
>= 20x faster than the scalar reference — the speedup that lifted
Figures 12/13 from a 32x32 / 3-fold compromise to full-layer traces at
the paper's array size.

Traces are generated once outside the timed region: the harness
measures evaluator throughput, not trace generation (which both
evaluators share).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from benchmarks.conftest import output_path
from repro.core.dataflow import Dataflow
from repro.core.operand_matrix import IFMAP_BASE, operand_matrices
from repro.core.systolic import TraceEngine
from repro.layout.conflict import BankConflictEvaluator
from repro.layout.conflict_vectorized import VectorizedConflictEvaluator
from repro.layout.spec import LayoutSpec, TensorView
from repro.topology.models import resnet18

BENCH_PATH = output_path(Path(__file__).parent / "BENCH_layout_conflict.json")

ARRAY = 128
NUM_BANKS = 1
BANDWIDTH = 64

EVALUATORS = {"reference": BankConflictEvaluator, "vectorized": VectorizedConflictEvaluator}


def _fig12_workload():
    """The fig12 anchor point: conv2_1a ifmap demand, full layer."""
    layer = resnet18(scale=1).layer_named("conv2_1a")
    view = TensorView(c_dim=layer.channels, h_dim=layer.ifmap_h, w_dim=layer.ifmap_w)
    layout = LayoutSpec.default_for(
        view, num_banks=NUM_BANKS, bandwidth_per_bank=BANDWIDTH // NUM_BANKS
    )
    engine = TraceEngine(
        operand_matrices(layer), Dataflow.WEIGHT_STATIONARY, ARRAY, ARRAY
    )
    # ws streams the ifmap through the row ports only.
    matrices = [fold.row_port_demand for fold in engine.fold_traces()]
    return layout, matrices


def _timed_run(name: str, layout, matrices, repeats: int) -> tuple[float, object]:
    """Best-of-N consumption of the whole trace by a fresh evaluator."""
    best = float("inf")
    evaluator = None
    for _ in range(repeats):
        evaluator = EVALUATORS[name](layout, bandwidth_model_words=BANDWIDTH)
        start = time.perf_counter()
        for matrix in matrices:
            evaluator.add_demand_matrix(matrix, base_offset=IFMAP_BASE)
        best = min(best, time.perf_counter() - start)
    return best, evaluator


@pytest.mark.slow
def test_layout_conflict_speedup():
    layout, matrices = _fig12_workload()
    vectorized_s, vectorized = _timed_run("vectorized", layout, matrices, repeats=3)
    reference_s, reference = _timed_run("reference", layout, matrices, repeats=1)

    # The evaluators must agree bit for bit before the timing means anything.
    assert reference.total_layout_cycles == vectorized.total_layout_cycles
    assert reference.total_bandwidth_cycles == vectorized.total_bandwidth_cycles
    assert reference.total_requests == vectorized.total_requests
    assert reference.cycles_evaluated == vectorized.cycles_evaluated

    cycles = reference.cycles_evaluated
    speedup = reference_s / vectorized_s
    payload = {
        "workload": (
            f"resnet18 conv2_1a ifmap (ws dataflow, {ARRAY}x{ARRAY} array, "
            f"{NUM_BANKS} bank x {BANDWIDTH} words/cycle, full layer)"
        ),
        "cycles_evaluated": cycles,
        "total_requests": reference.total_requests,
        "reference_seconds": round(reference_s, 3),
        "vectorized_seconds": round(vectorized_s, 3),
        "reference_cycles_per_sec": round(cycles / reference_s),
        "vectorized_cycles_per_sec": round(cycles / vectorized_s),
        "speedup": round(speedup, 2),
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nlayout conflict: {json.dumps(payload, indent=2)}")

    assert speedup >= 20.0, (
        f"vectorized evaluator regressed: only {speedup:.1f}x faster than "
        f"reference ({vectorized_s:.2f}s vs {reference_s:.2f}s)"
    )

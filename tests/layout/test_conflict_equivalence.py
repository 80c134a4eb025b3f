"""Randomized cross-evaluator equivalence: vectorized == reference.

The vectorized evaluator's offline stack-distance passes must be
*bit-exact* to the scalar per-cycle LRU reference — the correctness bar
Figures 12/13 rest on.  This fuzz drives both evaluators with identical
randomized demand streams (layouts, bank counts, port widths, buffer
depths, bubble rows, repeated offsets, wrapped offsets, base offsets,
multi-chunk state carry) and asserts identical per-cycle ``CycleCost``
streams, accumulated totals and slowdowns.
"""

import random

import numpy as np

from repro.layout.conflict import BankConflictEvaluator
from repro.layout.conflict_vectorized import VectorizedConflictEvaluator
from repro.layout.spec import LayoutSpec, TensorView


def _random_layout(rng: random.Random) -> LayoutSpec:
    view = TensorView(rng.randint(1, 24), rng.randint(1, 12), rng.randint(1, 12))
    num_banks = rng.choice((1, 1, 2, 3, 4, 8, 16))
    bandwidth = rng.randint(1, 8)
    capacity = num_banks * bandwidth
    c1 = rng.randint(1, max(1, min(view.c_dim, capacity)))
    h1 = rng.randint(1, max(1, capacity // c1))
    w1 = rng.randint(1, max(1, capacity // (c1 * h1)))
    return LayoutSpec(
        view=view,
        c1_step=c1,
        h1_step=h1,
        w1_step=w1,
        num_banks=num_banks,
        bandwidth_per_bank=bandwidth,
        ports_per_bank=rng.choice((1, 1, 2, 3)),
    )


def _random_demand(rng: random.Random, num_elements: int) -> np.ndarray:
    rows = rng.randint(1, 40)
    ports = rng.randint(1, 8)
    demand = np.full((rows, ports), -1, dtype=np.int64)
    streaming = rng.random() < 0.5
    for i in range(rows):
        for j in range(ports):
            if rng.random() < 0.7:
                if streaming:
                    demand[i, j] = (i * ports + j * 3) % num_elements
                else:
                    demand[i, j] = rng.randrange(0, 2 * num_elements)
    if rng.random() < 0.3:  # repeated offsets within one cycle
        demand[rng.randrange(rows), :] = demand[rng.randrange(rows), 0]
    if rng.random() < 0.3:  # all-bubble rows
        demand[rng.randrange(rows), :] = -1
    return demand


def _assert_equivalent(reference, vectorized, context):
    assert reference.total_layout_cycles == vectorized.total_layout_cycles, context
    assert reference.total_bandwidth_cycles == vectorized.total_bandwidth_cycles, context
    assert reference.total_requests == vectorized.total_requests, context
    assert reference.cycles_evaluated == vectorized.cycles_evaluated, context
    assert reference.slowdown == vectorized.slowdown, context


def test_randomized_demand_is_bit_exact():
    for trial in range(60):
        rng = random.Random(9_000 + 17 * trial)
        layout = _random_layout(rng)
        bandwidth_model = rng.randint(1, 32)
        row_buffers = rng.choice((1, 2, 4, 7))
        reference = BankConflictEvaluator(
            layout, bandwidth_model, row_buffers_per_bank=row_buffers
        )
        vectorized = VectorizedConflictEvaluator(
            layout, bandwidth_model, row_buffers_per_bank=row_buffers
        )
        for chunk in range(rng.randint(1, 5)):
            base = rng.choice((0, 0, 1000))
            demand = _random_demand(rng, layout.view.num_elements)
            shifted = np.where(demand >= 0, demand + base, -1)
            ref_costs = reference.add_demand_matrix(
                shifted, base_offset=base, return_costs=True
            )
            vec_costs = vectorized.add_demand_matrix(
                shifted, base_offset=base, return_costs=True
            )
            assert ref_costs == vec_costs, (trial, chunk)
        _assert_equivalent(reference, vectorized, trial)


def test_single_cycle_api_is_bit_exact():
    """add_cycle / cost_of_cycle must carry LRU state identically."""
    for trial in range(20):
        rng = random.Random(400 + trial)
        layout = _random_layout(rng)
        reference = BankConflictEvaluator(layout, 16, row_buffers_per_bank=2)
        vectorized = VectorizedConflictEvaluator(layout, 16, row_buffers_per_bank=2)
        for _ in range(30):
            offsets = np.array(
                [
                    rng.randrange(0, layout.view.num_elements)
                    for _ in range(rng.randint(0, 9))
                ],
                dtype=np.int64,
            )
            assert reference.add_cycle(offsets) == vectorized.add_cycle(offsets)
        _assert_equivalent(reference, vectorized, trial)


def test_dense_residual_fallback_is_bit_exact():
    """Force the offline merge-count path (the >4096-residual regime)."""
    rng = random.Random(77)
    layout = LayoutSpec(
        view=TensorView(4, 32, 32),
        c1_step=4,
        h1_step=1,
        w1_step=1,
        num_banks=2,
        bandwidth_per_bank=2,
    )
    reference = BankConflictEvaluator(layout, 8, row_buffers_per_bank=2)
    vectorized = VectorizedConflictEvaluator(layout, 8, row_buffers_per_bank=2)
    # Shuffled revisits of a small working set create deep, repeat-heavy
    # windows that defeat both cheap tiers.
    pool = list(range(0, layout.view.num_elements, 3))
    demand = np.full((600, 12), -1, dtype=np.int64)
    for i in range(demand.shape[0]):
        rng.shuffle(pool)
        demand[i, :] = pool[:12]
    ref_costs = reference.add_demand_matrix(demand, return_costs=True)
    vec_costs = vectorized.add_demand_matrix(demand, return_costs=True)
    assert ref_costs == vec_costs
    _assert_equivalent(reference, vectorized, "dense-residual")


def test_sparse_residual_threshold_crossing():
    """Both residual strategies agree around the 4096-query cutover."""
    rng = random.Random(5)
    layout = LayoutSpec(
        view=TensorView(2, 16, 16),
        c1_step=2,
        h1_step=1,
        w1_step=1,
        num_banks=1,
        bandwidth_per_bank=2,
    )
    for rows in (50, 400):
        reference = BankConflictEvaluator(layout, 4, row_buffers_per_bank=1)
        vectorized = VectorizedConflictEvaluator(layout, 4, row_buffers_per_bank=1)
        demand = np.array(
            [
                [rng.randrange(0, layout.view.num_elements) for _ in range(6)]
                for _ in range(rows)
            ],
            dtype=np.int64,
        )
        assert reference.add_demand_matrix(
            demand, return_costs=True
        ) == vectorized.add_demand_matrix(demand, return_costs=True)
        _assert_equivalent(reference, vectorized, rows)


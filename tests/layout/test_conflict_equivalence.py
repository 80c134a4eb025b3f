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
import pytest

from repro.layout import conflict_vectorized
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


@pytest.mark.parametrize("pass_offsets", [1, 5, 37])
def test_multi_pass_folds_are_bit_exact(monkeypatch, pass_offsets):
    """Folds split into many cascade passes, some cycles over the cap."""
    monkeypatch.setattr(conflict_vectorized, "_PASS_OFFSETS", pass_offsets)
    for trial in range(20):
        rng = random.Random(12_000 + 31 * trial)
        layout = _random_layout(rng)
        row_buffers = rng.choice((1, 2, 4))
        reference = BankConflictEvaluator(layout, 8, row_buffers_per_bank=row_buffers)
        vectorized = VectorizedConflictEvaluator(
            layout, 8, row_buffers_per_bank=row_buffers
        )
        for chunk in range(rng.randint(1, 3)):
            demand = _random_demand(rng, layout.view.num_elements)
            assert reference.add_demand_matrix(
                demand, return_costs=True
            ) == vectorized.add_demand_matrix(demand, return_costs=True), (
                trial,
                chunk,
            )
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
    """Many residual windows: shuffled revisits of a small working set."""
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
    """Few residual windows, at two stream sizes (50 and 400 cycles)."""
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



def _long_window_demand(
    rng: random.Random, layout: LayoutSpec, row_buffers: int
) -> np.ndarray:
    """Per-bank streams of long revisit windows over a hot working set.

    Each bank cycles through episodes: touch a cold line, then a few
    hundred to a few thousand touches of a hot set of
    ``row_buffers - 1`` lines (sometimes ``row_buffers``).  The cold
    line's next episode closes a long window with fewer than
    ``row_buffers`` distinct lines (a long hit) unless a second cold
    line lands late in it, making its ``row_buffers``-th distinct line
    arrive late (a long miss).
    """
    num_banks = layout.num_banks
    line_id, _, bank_id = layout.locate(np.arange(layout.view.num_elements))
    offsets_of: dict[tuple[int, int], list[int]] = {}
    for offset, (line, bank) in enumerate(zip(line_id.tolist(), bank_id.tolist())):
        offsets_of.setdefault((bank, line), []).append(offset)

    def episodes(bank):
        lines = rng.sample(range(layout.num_lines), layout.num_lines)
        hot_size = max(1, row_buffers - rng.choice((1, 1, 0)))
        hot, cold = lines[:hot_size], lines[hot_size : hot_size + 2]
        while True:
            yield rng.choice(cold)
            length = rng.randint(100, 2500)
            late = rng.randint(length // 2, length) if rng.random() < 0.5 else -1
            for i in range(length):
                yield rng.choice(cold) if i == late else rng.choice(hot)

    streams = [episodes(bank) for bank in range(num_banks)]
    rows, ports = rng.randint(1500, 2500), num_banks * rng.randint(1, 3)
    demand = np.full((rows, ports), -1, dtype=np.int64)
    for i in range(rows):
        for j in range(ports):
            if rng.random() < 0.05:
                continue  # bubble
            bank = rng.randrange(num_banks)
            demand[i, j] = rng.choice(offsets_of[(bank, next(streams[bank]))])
    return demand


@pytest.mark.timeout(120)
@pytest.mark.parametrize("rect_elements", [None, 64], ids=["module-cap", "cap-64"])
def test_long_residual_windows_are_bit_exact(monkeypatch, rect_elements):
    """Long hits and long misses, scanned over many rectangles and rounds.

    With the 64-element cap every wide round splits its windows over many
    rectangles; the longest hit window must outgrow three widening rounds
    (16, 128, 1024 columns).  LRU state carries across 2-4 calls.
    """
    if rect_elements is not None:
        monkeypatch.setattr(conflict_vectorized, "_SCAN_RECT_ELEMENTS", rect_elements)
    longest_hit = 0
    window_hits = conflict_vectorized._window_hits

    def spy(p_seq, first, lo, length, row_buffers):
        nonlocal longest_hit
        hit = window_hits(p_seq, first, lo, length, row_buffers)
        if hit.any():
            longest_hit = max(longest_hit, int(length[hit].max()))
        return hit

    monkeypatch.setattr(conflict_vectorized, "_window_hits", spy)
    trial = 0
    for num_banks in (1, 2, 4):
        for row_buffers in (1, 2, 3, 4, 8):
            rng = random.Random(31_000 + trial)
            trial += 1
            layout = LayoutSpec(
                view=TensorView(2 * num_banks, 4, 4),
                c1_step=num_banks,
                h1_step=1,
                w1_step=1,
                num_banks=num_banks,
                bandwidth_per_bank=1,
            )
            reference = BankConflictEvaluator(
                layout, 4, row_buffers_per_bank=row_buffers
            )
            vectorized = VectorizedConflictEvaluator(
                layout, 4, row_buffers_per_bank=row_buffers
            )
            demand = _long_window_demand(rng, layout, row_buffers)
            cuts = sorted(rng.sample(range(1, demand.shape[0]), rng.randint(1, 3)))
            for chunk in np.split(demand, cuts):
                assert reference.add_demand_matrix(
                    chunk, return_costs=True
                ) == vectorized.add_demand_matrix(chunk, return_costs=True), (
                    num_banks,
                    row_buffers,
                )
            _assert_equivalent(reference, vectorized, (num_banks, row_buffers))
    assert longest_hit > 16 * 8 * 8

"""Unit tests for bank-conflict evaluation.

Every behavioural test is parametrized over both evaluator
implementations (``reference`` scalar LRUs and ``vectorized`` offline
stack distances): they are interchangeable bit for bit.
"""

import numpy as np
import pytest

from repro.errors import LayoutError
from repro.layout.conflict import BankConflictEvaluator
from repro.layout.conflict_vectorized import VectorizedConflictEvaluator
from repro.layout.spec import LayoutSpec, TensorView

EVALUATORS = {"reference": BankConflictEvaluator, "vectorized": VectorizedConflictEvaluator}


def _spec(num_banks=4, bandwidth_per_bank=4, ports=1):
    return LayoutSpec(
        view=TensorView(c_dim=16, h_dim=8, w_dim=8),
        c1_step=16,
        h1_step=1,
        w1_step=1,
        num_banks=num_banks,
        bandwidth_per_bank=bandwidth_per_bank,
        ports_per_bank=ports,
    )


def _evaluator(name="reference", num_banks=4, bandwidth_per_bank=4, ports=1,
               bw_model=16, row_buffers=4):
    return EVALUATORS[name](
        _spec(num_banks=num_banks, bandwidth_per_bank=bandwidth_per_bank, ports=ports),
        bandwidth_model_words=bw_model,
        row_buffers_per_bank=row_buffers,
    )


@pytest.mark.parametrize("name", EVALUATORS)
class TestCycleCosts:
    def test_single_line_costs_one(self, name):
        ev = _evaluator(name)
        cost = ev.cost_of_cycle(np.arange(4))  # c=0..3: same line, bank 0
        assert cost.layout_cycles == 1

    def test_conflicting_lines_in_one_bank(self, name):
        ev = _evaluator(name)
        # Elements at (h=0) and (h=1) in channel 0: different lines, both
        # map column 0 -> same bank -> 2 accesses on 1 port.
        offsets = np.array([0, 16 * 8])  # (h*W + w)*C + c with C=16, W=8
        cost = ev.cost_of_cycle(offsets)
        assert cost.layout_cycles == 2

    def test_ports_reduce_conflicts(self, name):
        ev = _evaluator(name, ports=2)
        offsets = np.array([0, 16 * 8])
        assert ev.cost_of_cycle(offsets).layout_cycles == 1

    def test_spread_across_banks_parallel(self, name):
        ev = _evaluator(name)
        # Four elements in four different banks of the same line.
        offsets = np.array([0, 4, 8, 12])
        assert ev.cost_of_cycle(offsets).layout_cycles == 1

    def test_bandwidth_model_cost(self, name):
        ev = _evaluator(name, bw_model=4)
        cost = ev.cost_of_cycle(np.arange(8))
        assert cost.bandwidth_cycles == 2

    def test_empty_cycle(self, name):
        cost = _evaluator(name).cost_of_cycle(np.array([], dtype=np.int64))
        assert cost.requests == 0
        assert cost.layout_cycles == 1
        assert cost.bandwidth_cycles == 1

    def test_repeated_offsets_within_cycle_count_once(self, name):
        ev = _evaluator(name)
        # The same element requested by every port still opens one line.
        cost = ev.cost_of_cycle(np.array([5, 5, 5, 5, 5]))
        assert cost.requests == 5  # bandwidth model pays for all requests
        assert cost.layout_cycles == 1


@pytest.mark.parametrize("name", EVALUATORS)
class TestAccumulation:
    def test_slowdown_zero_when_equal(self, name):
        ev = _evaluator(name)
        for _ in range(10):
            ev.add_cycle(np.arange(4))
        assert ev.slowdown == pytest.approx(0.0)

    def test_positive_slowdown_with_conflicts(self, name):
        ev = _evaluator(name)
        # Rotate through fresh lines each cycle so the bank's row
        # buffers never help: 3 new lines in one bank per cycle.
        for h in range(0, 8, 3):
            offsets = np.array([(h + d) * 8 * 16 for d in range(3)]) % (16 * 8 * 8)
            ev.add_cycle(offsets)
        assert ev.slowdown > 0

    def test_row_buffer_reuse_across_cycles(self, name):
        ev = _evaluator(name)
        offsets = np.array([0, 16 * 8])  # two lines, same bank
        first = ev.add_cycle(offsets)
        second = ev.add_cycle(offsets)  # both lines now open
        assert first.layout_cycles == 2
        assert second.layout_cycles == 1

    def test_row_buffer_capacity_evicts(self, name):
        ev = _evaluator(name, row_buffers=1)
        a = np.array([0])
        b = np.array([16 * 8])  # same bank, different line
        ev.add_cycle(a)
        ev.add_cycle(b)  # evicts line of `a`
        assert ev.add_cycle(a).layout_cycles == 1  # cold again, 1 new line

    def test_single_row_buffer_thrashes(self, name):
        ev = _evaluator(name, row_buffers=1)
        offsets = np.array([0, 16 * 8])  # two lines, same bank, 1 buffer
        first = ev.add_cycle(offsets)
        second = ev.add_cycle(offsets)  # both lines cold again every cycle
        assert first.layout_cycles == 2
        assert second.layout_cycles == 2

    def test_bad_row_buffers(self, name):
        with pytest.raises(LayoutError):
            _evaluator(name, row_buffers=0)

    def test_negative_slowdown_when_lines_consolidate(self, name):
        # 32 requests in one line: layout serves in 1 cycle; the flat BW
        # model (16 words/cycle) needs 2.
        spec = LayoutSpec(
            view=TensorView(c_dim=32, h_dim=8, w_dim=8),
            c1_step=32,
            h1_step=1,
            w1_step=1,
            num_banks=8,
            bandwidth_per_bank=4,
        )
        ev = EVALUATORS[name](spec, bandwidth_model_words=16)
        for _ in range(10):
            ev.add_cycle(np.arange(32))
        assert ev.slowdown < 0

    def test_add_demand_matrix_counts_bubbles(self, name):
        ev = _evaluator(name)
        demand = np.full((5, 4), -1, dtype=np.int64)
        demand[0, :] = [0, 1, 2, 3]
        ev.add_demand_matrix(demand)
        assert ev.cycles_evaluated == 5

    def test_all_bubble_rows_cost_one_each(self, name):
        ev = _evaluator(name)
        demand = np.full((7, 3), -1, dtype=np.int64)
        costs = ev.add_demand_matrix(demand, return_costs=True)
        assert [c.requests for c in costs] == [0] * 7
        assert ev.total_layout_cycles == 7
        assert ev.total_bandwidth_cycles == 7
        assert ev.total_requests == 0
        assert ev.cycles_evaluated == 7

    def test_demand_matrix_base_offset(self, name):
        ev = _evaluator(name)
        demand = np.array([[1000, 1001]], dtype=np.int64)
        ev.add_demand_matrix(demand, base_offset=1000)
        assert ev.total_requests == 2

    def test_demand_matrix_returns_cost_stream(self, name):
        ev = _evaluator(name)
        demand = np.array([[0, 1], [-1, -1], [16 * 8, 2 * 16 * 8]], dtype=np.int64)
        costs = ev.add_demand_matrix(demand, return_costs=True)
        assert len(costs) == 3
        assert costs[0].layout_cycles == 1  # one open line
        assert costs[1].requests == 0
        assert costs[2].layout_cycles == 2  # two new lines in one bank

    def test_bad_bandwidth_model(self, name):
        spec = LayoutSpec(
            view=TensorView(4, 4, 4), c1_step=4, h1_step=1, w1_step=1,
            num_banks=1, bandwidth_per_bank=4,
        )
        with pytest.raises(LayoutError):
            EVALUATORS[name](spec, bandwidth_model_words=0)


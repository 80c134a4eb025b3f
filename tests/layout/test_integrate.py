"""Unit tests for layout-dataflow integration (Figures 12/13 machinery)."""

import pytest
from test_fanout_equivalence import _reference_result

from repro.core.dataflow import Dataflow
from repro.errors import LayoutError
from repro.layout.integrate import LayoutEvalConfig, evaluate_layout_slowdown
from repro.topology.layer import ConvLayer, GemmLayer


def _conv():
    return ConvLayer(
        name="c", ifmap_h=12, ifmap_w=12, filter_h=3, filter_w=3, channels=16, num_filters=16
    )


def _gemm():
    return GemmLayer("g", m=48, n=64, k=32)


class TestEvaluateLayoutSlowdown:
    @pytest.mark.parametrize("dataflow", ["os", "ws", "is"])
    def test_runs_for_all_dataflows_conv(self, dataflow):
        result = evaluate_layout_slowdown(_conv(), dataflow, 8, 8, 4, 64, max_folds=2)
        assert result.cycles_evaluated > 0
        assert result.slowdown >= -1.0

    @pytest.mark.parametrize("dataflow", ["os", "ws", "is"])
    def test_runs_for_all_dataflows_gemm(self, dataflow):
        result = evaluate_layout_slowdown(_gemm(), dataflow, 8, 8, 4, 64, max_folds=2)
        assert result.cycles_evaluated > 0

    def test_more_banks_not_worse(self):
        """The paper's key observation: at fixed total bandwidth, more
        banks consistently reduce the slowdown."""
        slowdowns = [
            evaluate_layout_slowdown(_conv(), "ws", 8, 8, banks, 64, max_folds=4).slowdown
            for banks in (1, 4, 16)
        ]
        assert slowdowns[0] >= slowdowns[1] >= slowdowns[2]

    def test_dataflow_enum_accepted(self):
        result = evaluate_layout_slowdown(
            _conv(), Dataflow.OUTPUT_STATIONARY, 8, 8, 4, 64, max_folds=1
        )
        assert result.dataflow is Dataflow.OUTPUT_STATIONARY

    def test_bandwidth_divisibility_checked(self):
        with pytest.raises(LayoutError):
            evaluate_layout_slowdown(_conv(), "ws", 8, 8, 3, 64)

    def test_max_folds_bounds_work(self):
        small = evaluate_layout_slowdown(_conv(), "ws", 8, 8, 4, 64, max_folds=1)
        large = evaluate_layout_slowdown(_conv(), "ws", 8, 8, 4, 64, max_folds=4)
        assert small.cycles_evaluated < large.cycles_evaluated

    def test_result_metadata(self):
        result = evaluate_layout_slowdown(_conv(), "ws", 8, 8, 4, 64, max_folds=1)
        assert result.layer_name == "c"
        assert result.num_banks == 4
        assert result.total_bandwidth == 64

    def test_default_traces_full_layer(self):
        capped = evaluate_layout_slowdown(_conv(), "ws", 8, 8, 4, 64, max_folds=4)
        full = evaluate_layout_slowdown(_conv(), "ws", 8, 8, 4, 64)
        assert full.cycles_evaluated > capped.cycles_evaluated


class TestEvaluatorSeam:
    @pytest.mark.parametrize("dataflow", ["os", "ws", "is"])
    def test_evaluators_bit_exact_through_integration(self, dataflow):
        """The scalar reference and the vectorized evaluator agree on whole layers."""
        vec = evaluate_layout_slowdown(_conv(), dataflow, 8, 8, 4, 64, max_folds=3)
        ref = _reference_result(
            _conv(), dataflow, 8, LayoutEvalConfig(4, 64), max_folds=3
        )
        assert ref.layout_cycles == vec.layout_cycles
        assert ref.bandwidth_cycles == vec.bandwidth_cycles
        assert ref.cycles_evaluated == vec.cycles_evaluated
        assert ref.slowdown == vec.slowdown

    def test_gemm_layers_bit_exact(self):
        vec = evaluate_layout_slowdown(_gemm(), "ws", 8, 8, 4, 64, max_folds=3)
        ref = _reference_result(_gemm(), "ws", 8, LayoutEvalConfig(4, 64), max_folds=3)
        assert ref.slowdown == vec.slowdown

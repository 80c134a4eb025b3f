"""Unit tests for the aggregate compute simulator."""

import hashlib
import itertools

import numpy as np
import pytest

from repro.core.compute_sim import ComputeSimulator, TileFetch
from repro.core.dataflow import Dataflow
from repro.errors import SimulationError
from repro.topology.layer import ConvLayer, GemmLayer
from repro.topology.models import toy_conv, toy_gemm

ALL_DATAFLOWS = ["os", "ws", "is"]


def _gemm(m=16, n=20, k=12):
    return GemmLayer("g", m=m, n=n, k=k)


class TestSimulateLayerBasics:
    def test_cycles_match_equation(self):
        sim = ComputeSimulator(4, 4, "os")
        result = sim.simulate_layer(_gemm())
        # OS: Sr=M=16 (4 folds), Sc=N=20 (5 folds), T=K=12.
        assert result.compute_cycles == (8 + 4 + 12 - 2) * 4 * 5

    def test_fold_counts(self):
        sim = ComputeSimulator(4, 4, "ws")
        result = sim.simulate_layer(_gemm())
        # WS: Sr=K=12 -> 3 folds, Sc=M=16 -> 4 folds.
        assert (result.folds_row, result.folds_col) == (3, 4)
        assert result.total_folds == 12

    def test_string_and_enum_dataflow_agree(self):
        a = ComputeSimulator(4, 4, "ws").simulate_layer(_gemm())
        b = ComputeSimulator(4, 4, Dataflow.WEIGHT_STATIONARY).simulate_layer(_gemm())
        assert a.compute_cycles == b.compute_cycles

    def test_macs(self):
        result = ComputeSimulator(4, 4, "os").simulate_layer(_gemm())
        assert result.macs == 16 * 20 * 12

    def test_bad_array(self):
        with pytest.raises(SimulationError):
            ComputeSimulator(0, 4, "os")


class TestSramCounts:
    """Closed-form access counts (see module docstring of compute_sim)."""

    def test_ws_counts(self):
        result = ComputeSimulator(4, 4, "ws").simulate_layer(_gemm())
        m, n, k = 16, 20, 12
        fcols, frows = 4, 3
        assert result.filter_sram_reads == k * m
        assert result.ifmap_sram_reads == k * n * fcols
        assert result.ofmap_sram_writes == m * n * frows

    def test_is_counts(self):
        result = ComputeSimulator(4, 4, "is").simulate_layer(_gemm())
        m, n, k = 16, 20, 12
        frows, fcols = 3, 5  # Sr=K, Sc=N
        assert result.ifmap_sram_reads == k * n
        assert result.filter_sram_reads == k * m * fcols
        assert result.ofmap_sram_writes == m * n * frows

    def test_os_counts(self):
        result = ComputeSimulator(4, 4, "os").simulate_layer(_gemm())
        m, n, k = 16, 20, 12
        frows, fcols = 4, 5
        assert result.ifmap_sram_reads == n * k * frows
        assert result.filter_sram_reads == m * k * fcols
        assert result.ofmap_sram_writes == m * n

    def test_stationary_operand_read_once(self):
        # WS reads each filter element exactly once from SRAM.
        result = ComputeSimulator(4, 4, "ws").simulate_layer(_gemm())
        assert result.filter_sram_reads == result.shape.filter_words


class TestFoldSpecs:
    @pytest.mark.parametrize("dataflow", ALL_DATAFLOWS)
    def test_specs_cover_all_folds(self, dataflow):
        result = ComputeSimulator(4, 4, dataflow).simulate_layer(_gemm())
        assert len(result.fold_specs) == result.total_folds

    @pytest.mark.parametrize("dataflow", ALL_DATAFLOWS)
    def test_spec_cycles_sum_to_runtime(self, dataflow):
        result = ComputeSimulator(4, 4, dataflow).simulate_layer(_gemm())
        schedule = result.fold_specs
        assert len(schedule) * schedule.cycles == result.compute_cycles

    def test_bad_tile_fetch(self):
        with pytest.raises(SimulationError):
            TileFetch("weights", 0, 10)
        with pytest.raises(SimulationError):
            TileFetch("ifmap", -1, 10)


#: Digests of every slot's ``(operand, is_write, present, start_word,
#: num_words)`` over :data:`PINNED_SHAPES` x :data:`PINNED_SRAM_WORDS`,
#: recorded from the repeat/tile schedule builder with full constant
#: columns.
PINNED_SCHEDULE_DIGESTS = {
    ("os", "toy_conv"): "a1de43dbd533b124",
    ("os", "toy_gemm"): "06140b08802a5b2f",
    ("ws", "toy_conv"): "c5ee0bc45241ebc8",
    ("ws", "toy_gemm"): "b1bb2bb9304e159f",
    ("is", "toy_conv"): "1c8e0446ae38ff70",
    ("is", "toy_gemm"): "16c64eabf2f651cc",
}
PINNED_SHAPES = [(4, 4), (8, 3), (5, 7), (16, 16)]
#: SRAM words per buffer: every streamed slice fits, some do, none do.
PINNED_SRAM_WORDS = [1 << 30, 64, 8]


def _schedule_digest(dataflow: str, topology) -> str:
    digest = hashlib.sha256()
    for (rows, cols), words in itertools.product(PINNED_SHAPES, PINNED_SRAM_WORDS):
        simulator = ComputeSimulator(rows, cols, dataflow, words, words, words)
        for layer in topology:
            schedule = simulator.simulate_layer(layer).fold_specs
            digest.update(repr((schedule.folds, schedule.cycles)).encode())
            for slot in schedule.slots:
                digest.update(repr((slot.operand, slot.is_write)).encode())
                for column, dtype in (
                    (slot.present, bool),
                    (slot.start_word, np.int64),
                    (slot.num_words, np.int64),
                ):
                    assert column.dtype == dtype
                    assert column.shape == (schedule.folds,)
                    digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()[:16]


class TestPinnedSchedules:
    @pytest.mark.parametrize("dataflow,topology", sorted(PINNED_SCHEDULE_DIGESTS))
    def test_columns_match_pinned_digest(self, dataflow, topology):
        model = {"toy_conv": toy_conv, "toy_gemm": toy_gemm}[topology]()
        assert (
            _schedule_digest(dataflow, model)
            == PINNED_SCHEDULE_DIGESTS[(dataflow, topology)]
        )

    @pytest.mark.parametrize("dataflow", ALL_DATAFLOWS)
    def test_always_present_mask_is_zero_stride_and_read_only(self, dataflow):
        schedule = ComputeSimulator(4, 4, dataflow).simulate_layer(_gemm()).fold_specs
        always = [slot.present for slot in schedule.slots if slot.present.all()]
        assert always and all(mask.strides == (0,) for mask in always)
        assert not any(mask.flags.writeable for mask in always)


class TestDramTraffic:
    def test_ws_filter_traffic_is_compulsory(self):
        # Weights are fetched exactly once (they are stationary).
        result = ComputeSimulator(4, 4, "ws").simulate_layer(_gemm())
        assert result.dram_filter_words == pytest.approx(
            result.shape.filter_words, rel=0.1
        )

    def test_small_sram_increases_ifmap_traffic(self):
        layer = _gemm(m=64, n=64, k=64)
        big = ComputeSimulator(8, 8, "ws", ifmap_sram_words=1 << 20)
        tiny = ComputeSimulator(8, 8, "ws", ifmap_sram_words=8)
        big_words = big.simulate_layer(layer).dram_ifmap_words
        tiny_words = tiny.simulate_layer(layer).dram_ifmap_words
        assert tiny_words > big_words

    def test_small_ofmap_sram_causes_readbacks(self):
        layer = _gemm(m=64, n=64, k=64)
        big = ComputeSimulator(8, 8, "ws", ofmap_sram_words=1 << 20)
        tiny = ComputeSimulator(8, 8, "ws", ofmap_sram_words=8)
        assert big.simulate_layer(layer).dram_ofmap_readback_words == 0
        assert tiny.simulate_layer(layer).dram_ofmap_readback_words > 0

    def test_os_writes_output_once(self):
        layer = _gemm()
        result = ComputeSimulator(4, 4, "os").simulate_layer(layer)
        assert result.dram_ofmap_write_words == layer.ofmap_words
        assert result.dram_ofmap_readback_words == 0

    def test_conv_uses_raw_ifmap_footprint(self):
        layer = ConvLayer(
            name="c", ifmap_h=16, ifmap_w=16, filter_h=3, filter_w=3, channels=8, num_filters=8
        )
        result = ComputeSimulator(8, 8, "ws").simulate_layer(layer)
        # DRAM sees unique data: traffic is bounded by a small multiple of
        # the raw footprint, far below the im2col-inflated SRAM reads.
        assert result.dram_ifmap_words < result.ifmap_sram_reads


class TestUtilizationMetrics:
    def test_perfect_spatial_fit(self):
        result = ComputeSimulator(4, 4, "os").simulate_layer(_gemm(m=8, n=8, k=10))
        assert result.mapping_efficiency == 1.0

    def test_ragged_fit(self):
        result = ComputeSimulator(4, 4, "os").simulate_layer(_gemm(m=5, n=8, k=10))
        assert result.mapping_efficiency < 1.0

    def test_utilization_positive(self):
        result = ComputeSimulator(4, 4, "os").simulate_layer(_gemm())
        assert 0 < result.compute_utilization < 1

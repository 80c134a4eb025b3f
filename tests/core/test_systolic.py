"""Unit tests for the cycle-accurate trace engines.

The key invariants (validated here per dataflow):

* total trace cycles == the analytical Eq.-1 runtime,
* per-operand request counts match the closed-form SRAM access counts,
* every address in a trace belongs to the correct operand region,
* the skew structure is correct (one new request per port per cycle).
"""

import numpy as np
import pytest

from repro.core.compute_sim import ComputeSimulator
from repro.core.dataflow import Dataflow, analytical_runtime
from repro.core.operand_matrix import (
    FILTER_BASE,
    OFMAP_BASE,
    operand_matrices,
)
from repro.core.systolic import NO_REQUEST, TraceEngine
from repro.topology.layer import ConvLayer, GemmLayer

ALL_DATAFLOWS = [Dataflow.OUTPUT_STATIONARY, Dataflow.WEIGHT_STATIONARY, Dataflow.INPUT_STATIONARY]


def _small_conv():
    return ConvLayer(
        name="c", ifmap_h=8, ifmap_w=8, filter_h=3, filter_w=3, channels=3, num_filters=8
    )


def _small_gemm():
    return GemmLayer("g", m=10, n=14, k=6)


@pytest.mark.parametrize("dataflow", ALL_DATAFLOWS)
@pytest.mark.parametrize("layer_factory", [_small_conv, _small_gemm])
class TestTraceInvariants:
    def test_total_cycles_match_equation(self, dataflow, layer_factory):
        layer = layer_factory()
        engine = TraceEngine(operand_matrices(layer), dataflow, 4, 4)
        traced = sum(fold.cycles for fold in engine.fold_traces())
        assert traced == analytical_runtime(layer.to_gemm(), dataflow, 4, 4)
        assert traced == engine.total_cycles

    def test_request_counts_match_closed_form(self, dataflow, layer_factory):
        layer = layer_factory()
        engine = TraceEngine(operand_matrices(layer), dataflow, 4, 4)
        sim = ComputeSimulator(4, 4, dataflow)
        result = sim.simulate_layer(layer)
        traces = list(engine.fold_traces())
        assert sum(t.ifmap_reads for t in traces) == result.ifmap_sram_reads
        assert sum(t.filter_reads for t in traces) == result.filter_sram_reads
        assert sum(t.ofmap_writes for t in traces) == result.ofmap_sram_writes

    def test_output_addresses_in_ofmap_region(self, dataflow, layer_factory):
        engine = TraceEngine(operand_matrices(layer_factory()), dataflow, 4, 4)
        for fold in engine.fold_traces():
            valid = fold.out_port_demand[fold.out_port_demand != NO_REQUEST]
            assert (valid >= OFMAP_BASE).all()

    def test_input_ports_never_see_ofmap(self, dataflow, layer_factory):
        engine = TraceEngine(operand_matrices(layer_factory()), dataflow, 4, 4)
        for fold in engine.fold_traces():
            for matrix in (fold.row_port_demand, fold.col_port_demand):
                valid = matrix[matrix != NO_REQUEST]
                assert (valid < OFMAP_BASE).all()

    def test_fold_start_cycles_contiguous(self, dataflow, layer_factory):
        engine = TraceEngine(operand_matrices(layer_factory()), dataflow, 4, 4)
        expected_start = 0
        for fold in engine.fold_traces():
            assert fold.start_cycle == expected_start
            expected_start += fold.cycles


class TestWeightStationaryStructure:
    def _engine(self):
        return TraceEngine(
            operand_matrices(_small_gemm()), Dataflow.WEIGHT_STATIONARY, 4, 4
        )

    def test_preload_phase_uses_col_ports(self):
        fold = next(self._engine().fold_traces())
        # First R cycles: stationary weights arrive via column ports.
        preload = fold.col_port_demand[:4]
        valid = preload[preload != NO_REQUEST]
        assert valid.size > 0
        assert ((valid >= FILTER_BASE) & (valid < OFMAP_BASE)).all()

    def test_stream_phase_is_skewed(self):
        fold = next(self._engine().fold_traces())
        # Row r's first valid request appears at cycle R + r.
        for r in range(fold.rows_used):
            column = fold.row_port_demand[:, r]
            first = int(np.argmax(column != NO_REQUEST))
            assert first == 4 + r

    def test_every_output_written_once_per_k_fold(self):
        engine = self._engine()
        writes = {}
        for fold in engine.fold_traces():
            valid = fold.out_port_demand[fold.out_port_demand != NO_REQUEST]
            for addr in valid:
                writes[int(addr)] = writes.get(int(addr), 0) + 1
        # Sr = K = 6 -> 2 row folds -> each output written twice (partials).
        assert set(writes.values()) == {2}


class TestOutputStationaryStructure:
    def _engine(self):
        return TraceEngine(
            operand_matrices(_small_gemm()), Dataflow.OUTPUT_STATIONARY, 4, 4
        )

    def test_no_preload_phase(self):
        fold = next(self._engine().fold_traces())
        # OS streams from cycle 0; row port 0 is active immediately.
        assert fold.row_port_demand[0, 0] != NO_REQUEST

    def test_each_output_written_exactly_once(self):
        engine = self._engine()
        seen = set()
        for fold in engine.fold_traces():
            valid = fold.out_port_demand[fold.out_port_demand != NO_REQUEST]
            for addr in valid.tolist():
                assert addr not in seen
                seen.add(addr)
        assert len(seen) == 10 * 14  # M x N

    def test_drain_after_stream(self):
        fold = next(self._engine().fold_traces())
        t = 6  # K
        first_write_cycle = int(
            np.argmax((fold.out_port_demand != NO_REQUEST).any(axis=1))
        )
        assert first_write_cycle == t + 4 - 1  # T + R - 1


class TestInputStationaryStructure:
    def test_preload_loads_ifmap(self):
        engine = TraceEngine(
            operand_matrices(_small_gemm()), Dataflow.INPUT_STATIONARY, 4, 4
        )
        fold = next(engine.fold_traces())
        preload = fold.col_port_demand[:4]
        valid = preload[preload != NO_REQUEST]
        assert (valid < FILTER_BASE).all()  # ifmap region

    def test_row_ports_stream_filters(self):
        engine = TraceEngine(
            operand_matrices(_small_gemm()), Dataflow.INPUT_STATIONARY, 4, 4
        )
        fold = next(engine.fold_traces())
        valid = fold.row_port_demand[fold.row_port_demand != NO_REQUEST]
        assert ((valid >= FILTER_BASE) & (valid < OFMAP_BASE)).all()


class TestEdgeFolds:
    def test_partial_fold_uses_fewer_ports(self):
        # K = 6 on R = 4: second row-fold uses only 2 rows.
        engine = TraceEngine(
            operand_matrices(_small_gemm()), Dataflow.WEIGHT_STATIONARY, 4, 4
        )
        folds = list(engine.fold_traces())
        last_row_fold = [f for f in folds if f.fold_row == 1][0]
        assert last_row_fold.rows_used == 2
        # Unused row ports stay silent.
        assert (last_row_fold.row_port_demand[:, 2:] == NO_REQUEST).all()

    def test_array_larger_than_workload(self):
        layer = GemmLayer("g", m=2, n=3, k=2)
        engine = TraceEngine(
            operand_matrices(layer), Dataflow.OUTPUT_STATIONARY, 8, 8
        )
        folds = list(engine.fold_traces())
        assert len(folds) == 1
        assert folds[0].rows_used == 2
        assert folds[0].cols_used == 3

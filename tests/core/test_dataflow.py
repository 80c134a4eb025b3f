"""Unit tests for dataflows, Table-II mapping, and Eqs. 1-3."""

import pytest

from repro.core.dataflow import (
    Dataflow,
    GemmMapping,
    analytical_runtime,
    compute_utilization,
    fold_cycles,
    map_gemm,
    mapping_efficiency,
    spatial_runtime,
    spatiotemporal1_runtime,
    spatiotemporal2_runtime,
)
from repro.errors import MappingError
from repro.topology.layer import GemmShape


class TestDataflowEnum:
    @pytest.mark.parametrize("text,expected", [
        ("os", Dataflow.OUTPUT_STATIONARY),
        ("WS", Dataflow.WEIGHT_STATIONARY),
        (" is ", Dataflow.INPUT_STATIONARY),
    ])
    def test_parse(self, text, expected):
        assert Dataflow.parse(text) is expected

    def test_parse_unknown(self):
        with pytest.raises(MappingError):
            Dataflow.parse("rs")

    def test_stationary_operand(self):
        assert Dataflow.OUTPUT_STATIONARY.stationary_operand == "ofmap"
        assert Dataflow.WEIGHT_STATIONARY.stationary_operand == "filter"
        assert Dataflow.INPUT_STATIONARY.stationary_operand == "ifmap"


class TestTableTwoMapping:
    """The paper's Table II: (Sr, Sc, T) per dataflow."""

    SHAPE = GemmShape(m=100, n=200, k=300)

    def test_input_stationary_is_k_n_m(self):
        mapping = map_gemm(self.SHAPE, Dataflow.INPUT_STATIONARY)
        assert (mapping.sr, mapping.sc, mapping.t) == (300, 200, 100)
        assert (mapping.sr_name, mapping.sc_name, mapping.t_name) == ("K", "N", "M")

    def test_weight_stationary_is_k_m_n(self):
        mapping = map_gemm(self.SHAPE, Dataflow.WEIGHT_STATIONARY)
        assert (mapping.sr, mapping.sc, mapping.t) == (300, 100, 200)
        assert (mapping.sr_name, mapping.sc_name, mapping.t_name) == ("K", "M", "N")

    def test_output_stationary_is_m_n_k(self):
        mapping = map_gemm(self.SHAPE, Dataflow.OUTPUT_STATIONARY)
        assert (mapping.sr, mapping.sc, mapping.t) == (100, 200, 300)
        assert (mapping.sr_name, mapping.sc_name, mapping.t_name) == ("M", "N", "K")

    def test_folds(self):
        mapping = map_gemm(self.SHAPE, Dataflow.OUTPUT_STATIONARY)
        assert mapping.folds(32, 32) == 4 * 7


class TestFoldCycles:
    def test_formula(self):
        # 2R + C + T - 2
        assert fold_cycles(4, 8, 10) == 8 + 8 + 10 - 2

    def test_minimal(self):
        assert fold_cycles(1, 1, 1) == 2

    def test_bad_inputs(self):
        with pytest.raises(MappingError):
            fold_cycles(0, 1, 1)
        with pytest.raises(MappingError):
            fold_cycles(1, 1, 0)


class TestEquationOne:
    def test_single_fold(self):
        # GEMM fits exactly: one fold of (2R + C + T - 2).
        shape = GemmShape(m=4, n=4, k=9)
        runtime = analytical_runtime(shape, Dataflow.OUTPUT_STATIONARY, 4, 4)
        assert runtime == (8 + 4 + 9 - 2)

    def test_multiple_folds(self):
        shape = GemmShape(m=8, n=8, k=8)
        runtime = analytical_runtime(shape, Dataflow.OUTPUT_STATIONARY, 4, 4)
        assert runtime == (8 + 4 + 8 - 2) * 2 * 2

    def test_ceiling_behaviour(self):
        # Sr = 9 on R = 4 needs 3 row-folds.
        shape = GemmShape(m=9, n=4, k=5)
        runtime = analytical_runtime(shape, Dataflow.OUTPUT_STATIONARY, 4, 4)
        assert runtime == (8 + 4 + 5 - 2) * 3 * 1

    def test_dataflow_changes_runtime(self):
        # A K-heavy GEMM favours dataflows that stream K (OS).
        shape = GemmShape(m=16, n=16, k=4096)
        os_rt = analytical_runtime(shape, Dataflow.OUTPUT_STATIONARY, 16, 16)
        ws_rt = analytical_runtime(shape, Dataflow.WEIGHT_STATIONARY, 16, 16)
        assert os_rt != ws_rt


class TestSpatioTemporalEquations:
    SHAPE = GemmShape(m=1000, n=1000, k=1000)

    def test_spatial_matches_eq1(self):
        mapping = map_gemm(self.SHAPE, Dataflow.OUTPUT_STATIONARY)
        # Pr=Pc=1 degenerates to Eq. 1.
        assert spatial_runtime(mapping, 16, 16) == analytical_runtime(
            self.SHAPE, Dataflow.OUTPUT_STATIONARY, 16, 16
        )

    def test_spatial_partitioning_divides_folds(self):
        mapping = map_gemm(self.SHAPE, Dataflow.OUTPUT_STATIONARY)
        single = spatial_runtime(mapping, 16, 16, 1, 1)
        quad = spatial_runtime(mapping, 16, 16, 2, 2)
        assert quad < single
        # Perfectly divisible -> exactly 4x fewer folds.
        assert quad * 4 == pytest.approx(single, rel=0.05)

    def test_st1_divides_temporal(self):
        mapping = map_gemm(self.SHAPE, Dataflow.OUTPUT_STATIONARY)
        base = spatiotemporal1_runtime(mapping, 16, 16, 1, 1)
        split = spatiotemporal1_runtime(mapping, 16, 16, 1, 4)
        assert split < base

    def test_st2_divides_temporal_on_rows(self):
        mapping = map_gemm(self.SHAPE, Dataflow.OUTPUT_STATIONARY)
        base = spatiotemporal2_runtime(mapping, 16, 16, 1, 1)
        split = spatiotemporal2_runtime(mapping, 16, 16, 4, 1)
        assert split < base

    def test_equations_match_paper_formulas(self):
        # Hand-check Eqs. 1-3 on small numbers.
        mapping = map_gemm(GemmShape(m=64, n=48, k=100), Dataflow.OUTPUT_STATIONARY)
        r = c = 8
        # Eq1, Pr=2, Pc=2: (2R+C+T-2) * ceil((Sr/Pr)/R) * ceil((Sc/Pc)/C)
        assert spatial_runtime(mapping, r, c, 2, 2) == (16 + 8 + 100 - 2) * 4 * 3
        # Eq2, Pr=2, Pc=2: (2R+C+ceil(T/Pc)-2) * ceil((Sr/Pr)/R) * ceil(Sc/C)
        assert spatiotemporal1_runtime(mapping, r, c, 2, 2) == (16 + 8 + 50 - 2) * 4 * 6
        # Eq3, Pr=2, Pc=2: (2R+C+ceil(T/Pr)-2) * ceil(Sr/R) * ceil((Sc/Pc)/C)
        assert spatiotemporal2_runtime(mapping, r, c, 2, 2) == (16 + 8 + 50 - 2) * 8 * 3


def _per_fold_efficiency(mapping: GemmMapping, rows: int, cols: int) -> float:
    """Mapping efficiency summed fold by fold: the closed form's oracle."""
    full_r, rem_r = divmod(mapping.sr, rows)
    full_c, rem_c = divmod(mapping.sc, cols)
    folds_r = full_r + (1 if rem_r else 0)
    folds_c = full_c + (1 if rem_c else 0)
    used = 0
    for fold_r in range(folds_r):
        r_used = rows if fold_r < full_r else rem_r or rows
        for fold_c in range(folds_c):
            c_used = cols if fold_c < full_c else rem_c or cols
            used += r_used * c_used
    return used / (folds_r * folds_c * rows * cols)


class TestEfficiencyMetrics:
    def test_perfect_mapping_efficiency(self):
        mapping = map_gemm(GemmShape(m=32, n=32, k=7), Dataflow.OUTPUT_STATIONARY)
        assert mapping_efficiency(mapping, 16, 16) == 1.0

    def test_edge_fold_reduces_efficiency(self):
        mapping = map_gemm(GemmShape(m=17, n=16, k=7), Dataflow.OUTPUT_STATIONARY)
        eff = mapping_efficiency(mapping, 16, 16)
        # Two row folds, second uses 1/16 rows: (256 + 16) / 512.
        assert eff == pytest.approx((256 + 16) / 512)

    @pytest.mark.parametrize(
        "rows,cols",
        [(1, 1), (2, 3), (4, 4), (5, 7), (8, 3), (16, 16), (7, 32), (64, 64), (69, 1), (70, 70)],
    )
    def test_closed_form_equals_per_fold_sum(self, rows, cols):
        for sr in range(1, 70):
            for sc in range(1, 70):
                mapping = GemmMapping(
                    Dataflow.OUTPUT_STATIONARY, sr, sc, 1, "M", "N", "K"
                )
                assert mapping_efficiency(mapping, rows, cols) == _per_fold_efficiency(
                    mapping, rows, cols
                ), (sr, sc)

    def test_utilization_below_mapping_efficiency(self):
        shape = GemmShape(m=32, n=32, k=64)
        util = compute_utilization(shape, Dataflow.OUTPUT_STATIONARY, 16, 16)
        mapping = map_gemm(shape, Dataflow.OUTPUT_STATIONARY)
        assert 0 < util < mapping_efficiency(mapping, 16, 16)

    def test_utilization_counts_macs_exactly(self):
        shape = GemmShape(m=16, n=16, k=100)
        util = compute_utilization(shape, Dataflow.OUTPUT_STATIONARY, 16, 16)
        runtime = analytical_runtime(shape, Dataflow.OUTPUT_STATIONARY, 16, 16)
        assert util == pytest.approx(shape.macs / (256 * runtime))

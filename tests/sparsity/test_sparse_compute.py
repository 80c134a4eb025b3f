"""Unit tests for the sparse WS compute model."""

import pytest

from repro.core.compute_sim import ComputeSimulator
from repro.errors import SparsityError
from repro.sparsity.pattern import SparsePattern, layerwise_pattern
from repro.sparsity.sparse_compute import SparseComputeSimulator
from repro.topology.layer import GemmLayer, SparsityRatio


def _layer(n_ratio="2:4", m=32, n=40, k=64):
    return GemmLayer("g", m=m, n=n, k=k, sparsity=SparsityRatio.parse(n_ratio))


class TestDenseEquivalence:
    def test_dense_ratio_matches_dense_simulator(self):
        layer = _layer("4:4")
        sparse = SparseComputeSimulator(8, 8).simulate_layer(layer)
        dense = ComputeSimulator(8, 8, "ws").simulate_layer(layer)
        assert sparse.sparse_compute_cycles == dense.compute_cycles
        assert sparse.dense_compute_cycles == dense.compute_cycles

    def test_unannotated_layer_treated_dense(self):
        layer = GemmLayer("g", m=16, n=16, k=32)
        result = SparseComputeSimulator(8, 8).simulate_layer(layer)
        assert result.speedup == pytest.approx(1.0)


class TestLayerwiseSpeedup:
    @pytest.mark.parametrize("ratio,expected_keff", [("1:4", 16), ("2:4", 32), ("4:4", 64)])
    def test_effective_k(self, ratio, expected_keff):
        layer = _layer(ratio)
        result = SparseComputeSimulator(8, 8).simulate_layer(layer)
        # K=64: cycles scale with ceil(K_eff / 8) row folds.
        per_fold = 2 * 8 + 8 + 40 - 2
        fcols = 4  # M=32 on C=8
        assert result.sparse_compute_cycles == per_fold * (expected_keff // 8) * fcols

    def test_speedup_ordering(self):
        speeds = [
            SparseComputeSimulator(8, 8).simulate_layer(_layer(r)).speedup
            for r in ("1:4", "2:4", "3:4", "4:4")
        ]
        assert speeds == sorted(speeds, reverse=True)
        assert speeds[-1] == pytest.approx(1.0)

    def test_sparsity_never_slows_down(self):
        for ratio in ("1:8", "2:4", "3:4"):
            result = SparseComputeSimulator(8, 8).simulate_layer(_layer(ratio))
            assert result.sparse_compute_cycles <= result.dense_compute_cycles


class TestRowwise:
    def test_rowwise_faster_than_dense(self):
        layer = GemmLayer("g", m=64, n=32, k=128)
        result = SparseComputeSimulator(8, 8, seed=3).simulate_layer(
            layer, rowwise=True, block_size=8
        )
        # Random N <= M/2 -> at least ~2x fewer weight rows streamed.
        assert result.sparse_compute_cycles < result.dense_compute_cycles

    def test_rowwise_deterministic(self):
        layer = GemmLayer("g", m=64, n=32, k=128)
        a = SparseComputeSimulator(8, 8, seed=3).simulate_layer(layer, rowwise=True, block_size=8)
        b = SparseComputeSimulator(8, 8, seed=3).simulate_layer(layer, rowwise=True, block_size=8)
        assert a.sparse_compute_cycles == b.sparse_compute_cycles

    def test_lockstep_tile_maximum(self):
        # A tile's K_eff is its worst row: one dense row in an otherwise
        # sparse tile forces dense-like cycles for that tile.
        layer = GemmLayer("g", m=8, n=16, k=32)
        nnz = layerwise_pattern(8, 32, SparsityRatio(1, 4)).nnz_per_block.copy()
        nnz[0, :] = 4  # row 0 fully dense
        pattern = SparsePattern(rows=8, cols=32, block_size=4, nnz_per_block=nnz)
        result = SparseComputeSimulator(8, 8).simulate_layer(layer, pattern=pattern)
        dense = result.dense_compute_cycles
        assert result.sparse_compute_cycles == dense  # single tile, max = K


class TestStorageAndSpecs:
    def test_storage_attached(self):
        result = SparseComputeSimulator(8, 8).simulate_layer(_layer("2:4"))
        assert result.compressed_storage.total_bits < result.dense_storage.total_bits
        assert result.storage_saving > 1.5

    def test_fold_specs_cycles_sum(self):
        result = SparseComputeSimulator(8, 8).simulate_layer(_layer("2:4"))
        schedule = result.fold_specs
        assert len(schedule) * schedule.cycles == result.sparse_compute_cycles

    def test_fold_specs_filter_traffic_compressed(self):
        sparse = SparseComputeSimulator(8, 8).simulate_layer(_layer("1:4"))
        dense = SparseComputeSimulator(8, 8).simulate_layer(_layer("4:4"))
        sparse_filter = sum(
            f.num_words for fetches in sparse.fold_specs for f in fetches if f.operand == "filter"
        )
        dense_filter = sum(
            f.num_words for fetches in dense.fold_specs for f in fetches if f.operand == "filter"
        )
        assert sparse_filter < dense_filter / 2

    def test_pattern_shape_mismatch_rejected(self):
        pattern = layerwise_pattern(4, 4, SparsityRatio(2, 4))
        with pytest.raises(SparsityError):
            SparseComputeSimulator(8, 8).simulate_layer(_layer(), pattern=pattern)

    def test_bad_array(self):
        with pytest.raises(SparsityError):
            SparseComputeSimulator(0, 8)


class TestBlockSizeStudy:
    def test_larger_blocks_give_finer_control(self):
        """Figure 8's insight: with bigger M you can express lower N/M."""
        layer = GemmLayer("g", m=32, n=32, k=256)
        cycles_small_m = SparseComputeSimulator(8, 8).simulate_layer(
            GemmLayer("g", m=32, n=32, k=256, sparsity=SparsityRatio(1, 4))
        ).sparse_compute_cycles
        cycles_large_m = SparseComputeSimulator(8, 8).simulate_layer(
            GemmLayer("g", m=32, n=32, k=256, sparsity=SparsityRatio(1, 32))
        ).sparse_compute_cycles
        assert cycles_large_m < cycles_small_m

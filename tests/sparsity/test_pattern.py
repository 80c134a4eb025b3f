"""Unit tests for N:M sparsity patterns."""

import numpy as np
import pytest

from repro.errors import SparsityError
from repro.sparsity.pattern import SparsePattern, layerwise_pattern, rowwise_pattern
from repro.topology.layer import SparsityRatio
from repro.utils.rng import make_rng


class TestLayerwisePattern:
    def test_density_matches_ratio(self):
        pattern = layerwise_pattern(8, 16, SparsityRatio(2, 4))
        assert pattern.density == pytest.approx(0.5)

    def test_nnz_per_block_uniform(self):
        pattern = layerwise_pattern(4, 8, SparsityRatio(1, 4))
        assert (pattern.nnz_per_block == 1).all()

    def test_dense_ratio(self):
        pattern = layerwise_pattern(4, 8, SparsityRatio(4, 4))
        assert pattern.density == 1.0

    def test_partial_last_block_clamped(self):
        # cols=10, M=4 -> last block holds 2 elements; N=3 clamps to 2.
        pattern = layerwise_pattern(2, 10, SparsityRatio(3, 4))
        assert pattern.nnz_per_block[0, -1] == 2

    def test_row_nnz(self):
        pattern = layerwise_pattern(3, 8, SparsityRatio(2, 4))
        assert (pattern.row_nnz() == 4).all()

    def test_counts_are_a_read_only_broadcast_row(self):
        # One shared block row: sums over it equal sums over the full matrix.
        pattern = layerwise_pattern(1000, 30, SparsityRatio(3, 4))
        assert not pattern.nnz_per_block.flags.writeable
        full = np.array(pattern.nnz_per_block)
        assert pattern.row_nnz().tolist() == full.sum(axis=1).tolist()
        assert pattern.total_nnz == int(full.sum())

    def test_overfull_broadcast_row_rejected(self):
        # The trailing block of cols=6, M=4 holds 2; a broadcast 3 is caught.
        counts = np.broadcast_to(np.array([2, 3], dtype=np.int32), (5, 2))
        with pytest.raises(SparsityError):
            SparsePattern(rows=5, cols=6, block_size=4, nnz_per_block=counts)

    def test_num_blocks(self):
        assert layerwise_pattern(2, 10, SparsityRatio(1, 4)).num_blocks == 3


class TestRowwisePattern:
    def test_respects_half_m_cap(self):
        # Paper IV-A2: randomized N stays <= M/2.
        pattern = rowwise_pattern(100, 32, block_size=8, rng=make_rng(1))
        assert int(pattern.nnz_per_block.max()) <= 4

    def test_rows_differ(self):
        pattern = rowwise_pattern(100, 32, block_size=8, rng=make_rng(1))
        assert len(np.unique(pattern.row_nnz())) > 1

    def test_same_n_within_row(self):
        pattern = rowwise_pattern(10, 32, block_size=8, rng=make_rng(1))
        # All full blocks of a row share that row's N.
        full_blocks = pattern.nnz_per_block[:, :-1]
        assert (full_blocks == full_blocks[:, :1]).all()

    def test_deterministic_with_seed(self):
        a = rowwise_pattern(20, 16, 4, make_rng(5)).nnz_per_block
        b = rowwise_pattern(20, 16, 4, make_rng(5)).nnz_per_block
        assert (a == b).all()

    def test_custom_max_n(self):
        pattern = rowwise_pattern(50, 16, block_size=8, rng=make_rng(0), max_n=1)
        assert int(pattern.nnz_per_block.max()) <= 1

    def test_block_size_one_rejected(self):
        with pytest.raises(SparsityError):
            rowwise_pattern(4, 8, block_size=1, rng=make_rng(0))

    def test_bad_max_n(self):
        with pytest.raises(SparsityError):
            rowwise_pattern(4, 8, block_size=4, rng=make_rng(0), max_n=9)


class TestSparsePatternValidation:
    def test_mask_matches_counts(self):
        pattern = layerwise_pattern(4, 8, SparsityRatio(2, 4))
        mask = pattern.to_mask()
        assert mask.shape == (4, 8)
        assert int(mask.sum()) == pattern.total_nnz

    def test_mask_first_n_convention(self):
        pattern = layerwise_pattern(1, 4, SparsityRatio(2, 4))
        mask = pattern.to_mask()[0]
        assert mask.tolist() == [True, True, False, False]

    def test_bad_shape_rejected(self):
        with pytest.raises(SparsityError):
            SparsePattern(rows=2, cols=8, block_size=4, nnz_per_block=np.zeros((3, 2), dtype=np.int32))

    def test_overfull_block_rejected(self):
        bad = np.full((2, 2), 5, dtype=np.int32)
        with pytest.raises(SparsityError):
            SparsePattern(rows=2, cols=8, block_size=4, nnz_per_block=bad)

    def test_caller_array_is_copied(self):
        # Writes to the caller's array after construction cannot reach the
        # pattern's counts or its memoised row sums.
        counts = np.full((3, 2), 2, dtype=np.int32)
        pattern = SparsePattern(rows=3, cols=8, block_size=4, nnz_per_block=counts)
        assert pattern.row_nnz().tolist() == [4, 4, 4]
        counts[1, 0] = 4
        assert pattern.row_nnz().tolist() == [4, 4, 4]
        assert pattern.total_nnz == 12
        assert not pattern.nnz_per_block.flags.writeable

    def test_compressed_row_length(self):
        pattern = layerwise_pattern(2, 8, SparsityRatio(1, 4))
        assert (pattern.compressed_row_length() == 2).all()
